import io
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cubefam import families
from cubefam.errors import ParseError, PreconditionError
from cubefam.families import (
    MAX_GROUND,
    SetFamily,
    expand_mask,
    compress_mask,
    dense_need,
    format_family,
    format_subset,
    full_power_set,
    interval_members,
    lubell_mass,
    mask_elements,
    mass_of_sizes,
    parse_decimal,
    parse_family,
    parse_subset_literal,
    read_family,
    relative_lubell,
    restrict_interval,
    submasks_of_size,
)

from conftest import random_family


def test_mask_round_trip():
    assert mask_elements(0b01101) == (1, 3, 4)
    assert mask_elements(0) == ()


def test_family_is_normalized_and_immutable():
    fam = SetFamily(3, [0b110, 0b001, 0b110])
    assert fam.members == (0b001, 0b110)
    assert 0b110 in fam.member_set
    assert len(fam) == 2
    with pytest.raises(Exception):
        fam.members = ()   # frozen dataclass


def test_member_outside_ground_rejected():
    with pytest.raises(PreconditionError, match="^mask 0x4 has bits outside the 2-bit ground set$"):
        SetFamily(2, [0b01, 0b100])
    with pytest.raises(PreconditionError, match="^mask -0x1 has bits outside the 2-bit ground set$"):
        SetFamily(2, [0b10, -1])
    with pytest.raises(PreconditionError, match="^mask 0x1 has bits outside the 0-bit ground set$"):
        SetFamily(0, [0, 1])


def test_numpy_integer_members_become_ints():
    fam = SetFamily(3, np.array([5, 1, 5], dtype=np.int64))
    assert fam.members == (1, 5) and all(type(m) is int for m in fam.members)
    top = SetFamily(64, np.array([1 << 63, 1], dtype=np.uint64))
    assert top.members == (1, 1 << 63) and all(type(m) is int for m in top.members)


@pytest.mark.parametrize(
    "n,expected",
    [(0, Fraction(1)), (1, Fraction(2)), (2, Fraction(3)), (5, Fraction(6))],
)
def test_power_set_mass_is_n_plus_1(n, expected):
    # every layer contributes exactly 1
    assert lubell_mass(full_power_set(n)) == expected


def test_lubell_mass_hand_value():
    # {1}, {2}, {1,2} over [2]: 1/2 + 1/2 + 1/1
    fam = SetFamily(2, [0b01, 0b10, 0b11])
    assert lubell_mass(fam) == Fraction(2)


def test_mass_of_sizes_matches_termwise_sum():
    rng = random.Random(64)
    for _ in range(300):
        width = rng.randint(0, 64)
        sizes = [rng.randint(0, width) for _ in range(rng.randint(0, 40))]
        termwise = sum((Fraction(1, math.comb(width, s)) for s in sizes), Fraction(0))
        assert mass_of_sizes(sizes, width) == termwise


def test_dense_need_is_the_proportional_rule():
    tolerances = [Fraction(k, 12) for k in range(13)] + [Fraction(1, 7), Fraction(3, 5)]
    for eps in tolerances:
        for width in range(9):
            for r in range(width + 2):
                need = dense_need(eps, width, r)
                total = math.comb(width, r)
                for c in range(total + 2):
                    assert (c >= need) == (c >= (1 - eps) * total), (eps, width, r, c)


def test_relative_mass_matches_direct_computation():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 8)
        fam = random_family(rng, n, 0.4)
        full = (1 << n) - 1
        a = rng.randrange(1 << n)
        b = a & rng.randrange(1 << n)
        inside = [f for f in fam.members if b & ~f == 0 and f & ~a == 0]
        assert interval_members(fam, b, a) == inside
        sub = restrict_interval(fam, b, a)
        assert sub.n == (a & ~b).bit_count()
        got = relative_lubell(fam, b, a)
        assert got == lubell_mass(sub)
        assert relative_lubell(fam, 0, full) == lubell_mass(fam)


def test_compress_expand_inverse():
    rng = random.Random(88)
    for _ in range(200):
        universe = rng.randrange(1 << 12)
        sub = universe & rng.randrange(1 << 12)
        bits = compress_mask(sub, universe)
        positions = [p for p in range(12) if universe >> p & 1]
        assert bits == sum(1 << i for i, p in enumerate(positions) if sub >> p & 1)
        assert expand_mask(bits, universe) == sub
        assert bits < (1 << universe.bit_count())


def test_submasks_of_size_follow_combinations_order():
    rng = random.Random(89)
    for _ in range(50):
        mask = rng.randrange(1 << 10)
        low_bits = [1 << p for p in range(10) if mask >> p & 1]
        for r in range(len(low_bits) + 2):
            want = [sum(c) for c in itertools.combinations(low_bits, r)]
            assert list(submasks_of_size(mask, r)) == want


def test_parse_format_round_trip_random():
    """Grounds on both sides of the split tables' bound (n = 19 | 20) round-trip."""
    rng = random.Random(2024)
    for n in [*range(25), 64, *(rng.randint(0, 12) for _ in range(40))]:
        if n <= 16:
            fam = random_family(rng, n, rng.uniform(0.05, 0.95))
        else:
            fam = SetFamily(n, [sum(1 << e for e in rng.sample(range(n), rng.randint(0, n)))
                                for _ in range(300)])
        text = format_family(fam)
        for lines in (text.splitlines(), io.StringIO(text)):
            again = parse_family(lines)
            assert again.n == fam.n and again.members == fam.members


def test_split_tables_are_small_and_canonical():
    """At most 2^9 + 2^10 keys on every ground, so never a whole-line table,
    and every key is the canonical literal of its mask, within [n]."""
    for n in range(MAX_GROUND + 1):
        low, high = families._split_tables(n)
        assert len(low) + len(high) <= 2**9 + 2**10
        for key, mask in [*low.items(), *high.items()]:
            assert key == format_subset(mask) and 0 < mask <= (1 << n) - 1


def outcome(read, source):
    """What ``read(source)`` gives: the family, or the error text."""
    try:
        return read(source)
    except ParseError as exc:
        return f"ParseError: {exc}"


def reference_parse(text: str):
    """The outcome of ``text`` read line by line with ``parse_subset_literal``:
    the family, or the first malformed or duplicate line's error."""
    header, *lines = text.splitlines()
    n = int(header[2:])
    seen = set()
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            mask = parse_subset_literal(line, n)
        except ParseError as exc:
            return f"ParseError: line {lineno}: {exc}"
        if mask in seen:
            return f"ParseError: line {lineno}: duplicate subset {line!r}"
        seen.add(mask)
    return SetFamily(n, seen)


def upto(n: int) -> str:
    return ",".join(map(str, range(1, n + 1)))


# Rows from "n9" on sit at the edges of the split tables of _line_masks.
ACROSS_THE_CUT = ["12,3", "3,12,10", "13,10", "1,,10", "1,10,", ",10", "10,1", "1,10,10",
                  "1,13", "2,10,13", "1 ,10", "1,10 ,11", "1,010", "1,+10"]
REFERENCE_CASES = pytest.mark.parametrize("text", [
    "n=5\n 3\n03,4\n+2\n1, 3\n4 \n\t5\n",
    "n=5\r\n1,3\r\n2\r\n-\r\n",
    "n=5\n\n1,2\n   \n\t\n3,4,5\n\n",
    "n=5\n1,2\n2,5",
    "n=5\n-\n+1,02, 3\n",
    "n=0\n-\n",
    "n=0\n-",
    "n=0\n",
    "n=12\n10,11,12\n1,10\n9,10\n1,2,3,4,5,6,7,8,9,10,11,12\n",
    f"n=9\n{upto(9)}\n9\n1,9\n2,4,6,8\n1\n-\n",
    "n=9\n1,2\n1,10\n",
    f"n=10\n{upto(10)}\n10\n1,10\n2,3,10\n9\n1\n",
    f"n=19\n{upto(19)}\n19\n1,19\n10,11,12,13,14,15,16,17,18,19\n9,10,19\n1,10\n",
    "n=19\n1,10\n1,10,20\n",
    f"n=20\n{upto(20)}\n20\n1,20\n10,19,20\n1,10\n9,10,19\n",
    "n=14\n10,12\n12\n1,12\n2,10,12\n14\n",
    *(f"n=12\n1,2\n{line}\n3\n" for line in ACROSS_THE_CUT),
    "n=12\n1,10\n 1,10\n",
    "n=12\n 1,10\n1,10\n",
    "n=12\n2,11\n-\n2,11\n",
], ids=["spaces-zeros-signs", "crlf", "blank-lines", "no-final-newline", "mixed",
        "n0", "n0-no-newline", "n0-empty", "two-digit",
        "n9", "n9-element-10", "n10", "n19", "n19-element-20", "n20", "two-digit-first",
        *(f"across-cut[{line}]" for line in ACROSS_THE_CUT),
        "duplicate-table-then-literal", "duplicate-literal-then-table",
        "duplicate-table-twice"])


@REFERENCE_CASES
def test_parse_matches_line_by_line_reference(text, tmp_path):
    want = reference_parse(text)
    assert outcome(parse_family, io.StringIO(text)) == want
    assert outcome(parse_family, text.splitlines()) == want
    path = tmp_path / "fam.txt"
    path.write_bytes(text.encode("ascii"))
    assert outcome(read_family, path) == want


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_family(["not a header", "1,2"])
    with pytest.raises(ParseError):
        parse_family(["n=3", "4"])          # element out of range
    with pytest.raises(ParseError):
        parse_family(["n=2", "1,,2"])
    with pytest.raises(ParseError):
        parse_family(["n=-1"])


@pytest.mark.parametrize("lines,message", [
    ([], "empty family input: missing 'n=<int>' header"),
    (["k=3", "1"], "expected 'n=<int>' header, got 'k=3'"),
    (["n=x", "1"], "bad ground set size in header 'n=x'"),
], ids=["empty", "poset-key", "not-a-number"])
def test_header_errors_word_for_word(lines, message):
    with pytest.raises(ParseError) as info:
        parse_family(lines)
    assert str(info.value) == message


@pytest.mark.parametrize("header", ["n=0_3", "n=\u0663", "n=3_", "n="])
def test_header_size_is_ascii_decimal(header):
    with pytest.raises(ParseError, match="bad ground set size in header"):
        parse_family([header, "1"])
    assert parse_family(["n= +03 ", "1"]) == SetFamily(3, [1])


def test_subset_literal():
    assert parse_subset_literal("1,3,4", 6) == 0b001101
    assert parse_subset_literal("-", 6) == 0
    assert format_subset(0b001101) == "1,3,4"
    assert format_subset(0) == "-"
    with pytest.raises(ParseError):
        parse_subset_literal("7", 6)


def test_duplicate_members_in_file_rejected():
    with pytest.raises(ParseError):
        parse_family(["n=3", "1,2", "1,2"])
    with pytest.raises(ParseError):
        parse_subset_literal("2,1", 3)      # literals must come sorted


@pytest.mark.parametrize("text,value", [
    ("3", 3), (" 3", 3), ("3 ", 3), ("\t3\r\n", 3), ("+3", 3), ("03", 3), (" +007 ", 7),
    ("-2", -2), ("0", 0), ("12345678901234567890", 12345678901234567890),
])
def test_decimal_spellings_accepted(text, value):
    assert parse_decimal(text) == value


@pytest.mark.parametrize("text", [
    "", " ", "+", "-", "1_0", "0_1", "\u0663", "1\u0660", "\uff13", "\u00b2", "3.0", "0x3",
    "1e2", "3 4", "+ 3", "++3", "+-3", "3+",
])
def test_decimal_rejects_what_int_alone_would_take(text):
    """Among them ``_`` separators and non-ASCII digits, which ``int`` reads."""
    with pytest.raises(ValueError):
        parse_decimal(text)


# "0_1" and the Arabic-Indic digits read as 1, 2 and 3 under a bare int().
MALFORMED = ["", ",", "1,", ",1", "1,,2", "a", "1;2", "0", "-1", "4", "1,4", "2,1", "1,1", "--",
             "0_1", "1_0", "\u0662", "1,\u0663"]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_subset_literal_rejected(text):
    with pytest.raises(ParseError):
        parse_subset_literal(text, 3)


@pytest.mark.parametrize("text", [t for t in MALFORMED if t])   # a blank line is skipped
def test_malformed_line_names_its_line(text):
    with pytest.raises(ParseError) as info:
        parse_family(io.StringIO(f"n=3\n1,2\n{text}\n3\n"))
    assert str(info.value).startswith("line 3: ")
    with pytest.raises(ParseError) as bare:
        parse_subset_literal(text, 3)
    assert str(info.value) == f"line 3: {bare.value}"


# ---------------------------------------------------------------------------
# The bulk reader: read_family on a file at or above families._BULK_BYTES.


def read_both(path, monkeypatch, chunk=7):
    """read_family's outcome for ``path`` decoded by table lookup, then
    decoded with numpy in ``chunk``-character chunks."""
    assert path.stat().st_size < families._BULK_BYTES
    per_line = outcome(read_family, path)
    with monkeypatch.context() as patch:
        patch.setattr(families, "_BULK_BYTES", 0)
        patch.setattr(families, "_CHUNK_CHARS", chunk)
        return per_line, outcome(read_family, path)


def write_text(tmp_path, text: str, encoding="ascii"):
    path = tmp_path / "fam.txt"
    path.write_bytes(text.encode(encoding))
    return path


@REFERENCE_CASES
def test_bulk_reader_matches_line_by_line_reference(text, tmp_path, monkeypatch):
    per_line, bulk = read_both(write_text(tmp_path, text), monkeypatch)
    assert bulk == per_line == reference_parse(text)


ALL_ELEMENTS = ",".join(map(str, range(1, 65)))


@pytest.mark.parametrize("text", [
    f"n=64\n64\n1,64\n63,64\n{ALL_ELEMENTS}\n-\n9,10,19,20,59,60\n",
    f"n=64\n1\n{ALL_ELEMENTS}\n{', '.join(map(str, range(2, 65)))} \n2\n",
    "n=5\r\n1,3\r\n2,4,5\r\n\r\n-\r\n",
    "n=5\n1,3\n2,4,5",
    "n=5\n",
    "n=5",
], ids=["element-64", "long-line", "crlf", "no-final-newline", "header-only",
        "header-only-no-newline"])
def test_bulk_reader_edge_cases(text, tmp_path, monkeypatch):
    per_line, bulk = read_both(write_text(tmp_path, text), monkeypatch)
    assert bulk == per_line == reference_parse(text)


def test_bulk_reader_puts_element_64_at_bit_63(tmp_path, monkeypatch):
    _, bulk = read_both(write_text(tmp_path, "n=64\n64\n1,64\n"), monkeypatch)
    assert bulk.members == (1 << 63, 1 << 63 | 1)


@pytest.mark.parametrize("text", [t for t in MALFORMED if t])
def test_bulk_reader_names_malformed_line(text, tmp_path, monkeypatch):
    """Non-ASCII cases are written as UTF-8: both paths reject the byte."""
    body = f"n=3\n1,2\n{text}\n3\n"
    per_line, bulk = read_both(write_text(tmp_path, body, "utf-8"), monkeypatch)
    assert bulk == per_line
    if text.isascii():
        with pytest.raises(ParseError) as bare:
            parse_subset_literal(text, 3)
        assert bulk == f"ParseError: line 3: {bare.value}"


@pytest.mark.parametrize("text,error", [
    ("n=3\n1,2\n1,2\n", "line 3: duplicate subset '1,2'"),
    ("n=3\n1,2\n01,2\n", "line 3: duplicate subset '01,2'"),
    ("n=3\n1,2\n3\n-\n\n 1, 2\n", "line 6: duplicate subset '1, 2'"),
    ("n=3\n1\n2\n1\n4\n", "line 4: duplicate subset '1'"),
    ("n=3\n1\n2\n4\n1\n", "line 4: element 4 outside ground set [3]"),
    ("n=3\n-\n1,2\n-\n", "line 4: duplicate subset '-'"),
], ids=["same-line", "leading-zero", "far-apart", "before-malformed", "after-malformed",
        "empty-set"])
def test_bulk_reader_rejects_duplicates(text, error, tmp_path, monkeypatch):
    for chunk in (1, 4, 7, 1 << 16):
        per_line, bulk = read_both(write_text(tmp_path, text), monkeypatch, chunk)
        assert bulk == per_line == f"ParseError: {error}"


def test_bulk_reader_defers_to_per_line_on_a_non_ascii_byte(tmp_path, monkeypatch):
    """A malformed line, then a byte outside ASCII in the same chunk but
    past the text reader's first 8 KiB block: the per-line reader names
    the line before it decodes the byte, and so does the bulk path."""
    path = write_text(tmp_path, "n=3\n1\n4\n" + "\n" * 20000 + "\xff\n", "latin-1")
    per_line, bulk = read_both(path, monkeypatch, chunk=1 << 16)
    assert bulk == per_line == "ParseError: line 3: element 4 outside ground set [3]"


def random_line(rng: random.Random, n: int, earlier: list, wild: float) -> str:
    """One family line: canonical, spelt otherwise, blank, or -- each with
    probability ``wild`` / 2 -- a repeat or a malformed line."""
    kind = rng.random()
    if kind < wild / 2 and earlier:
        return rng.choice(earlier)
    if kind < wild:
        return rng.choice([
            ",", "1,", ",1", "0", "a", "1;2", "--", "1,,2", "2,1", "1,1",
            str(n + 1), "100", "1 2", "6" * 70,
        ])
    elems = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 6))))
    if rng.random() < 0.7:
        return ",".join(map(str, elems)) or "-"
    spell = rng.choice(["{}", "0{}", " {}", "{} ", "+{}", "\t{}", "00{}"])
    return ",".join(spell.format(e) for e in elems) or rng.choice(["-", " - ", "", " "])


def test_bulk_reader_matches_per_line_on_random_files(tmp_path, monkeypatch):
    """Every file goes through the chunk loop, so every file also depends
    on its fallback to the exact reader: some files carry a malformed line
    and, after it, a byte outside ASCII, which both paths must order alike."""
    rng = random.Random(20)
    for _ in range(400):
        n = rng.choice([0, 1, 3, 9, 10, 12, 63, 64, rng.randint(0, 64)])
        wild = rng.choice([0.0, 0.03, 0.2])
        lines: list = []
        for _ in range(rng.randint(0, min(40, 1 << n))):
            lines.append(random_line(rng, n, lines, wild))
        non_ascii = rng.random() < 0.2
        if non_ascii:
            at = rng.randint(0, len(lines))
            lines[at:at] = [rng.choice(["0", "1,,2", str(n + 1)]), *([""] * rng.randint(0, 9000)),
                            rng.choice(["\xff", "1,\xe9", "\xa0"])]
        newline = rng.choice(["\n", "\n", "\r\n", "\r"])
        text = newline.join([f"n={n}", *lines]) + rng.choice(["", newline])
        per_line, bulk = read_both(write_text(tmp_path, text, "latin-1"), monkeypatch,
                                   rng.randint(1, 64))
        assert bulk == per_line, text
        if not non_ascii:
            assert bulk == reference_parse(text), text
