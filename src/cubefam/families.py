"""Ground sets, subset masks, set families and the exact Lubell mass.

Subsets of [n] = {1, .., n} are plain Python ints used as bit masks: bit
i-1 set means element i is in the subset.  Masses are `fractions.Fraction`
throughout -- several downstream checks are exact equalities and would be
meaningless in floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ParseError, PreconditionError, magnitude, open_text

MAX_GROUND = 64


def _set_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first, each as a one-bit int: the
    one walk over a mask's bits that the mask toolkit below shares."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def mask_elements(mask: int) -> tuple[int, ...]:
    """1-based, sorted element indices of a mask."""
    return tuple(map(int.bit_length, _set_bits(mask)))


def compress_mask(mask: int, universe: int) -> int:
    """Re-index ``mask`` (a subset of ``universe``) onto contiguous low bits.

    The i-th lowest bit of the result corresponds to the i-th lowest set
    bit of ``universe``.
    """
    return sum(1 << (universe & (low - 1)).bit_count() for low in _set_bits(mask))


def expand_mask(bits: int, universe: int) -> int:
    """Inverse of :func:`compress_mask`."""
    return sum(low for i, low in enumerate(_set_bits(universe)) if bits >> i & 1)


def submasks_of_size(mask: int, r: int) -> Iterator[int]:
    """The r-element sub-masks of ``mask``.

    Yielded in ``itertools.combinations`` order over the ascending bits of
    ``mask``, so the first is its r lowest bits; randomized cube location
    depends on this order.
    """
    return map(sum, itertools.combinations(_set_bits(mask), r))


class SetFamily:
    """An immutable, duplicate-free family of subsets of [n].

    Iteration order is ascending mask value: ``members`` holds the masks
    in that order, ``member_set`` the same masks as a frozenset.
    """

    __slots__ = ("n", "full_mask", "members", "member_set")

    def __init__(self, n: int, members: Iterable[int] = ()):
        if not 0 <= n <= MAX_GROUND:
            raise PreconditionError(
                f"ground set size must be in [0, {MAX_GROUND}], got {n}"
            )
        member_set = frozenset(map(int, members))
        ordered = tuple(sorted(member_set))
        full = (1 << n) - 1
        if ordered and (ordered[0] < 0 or ordered[-1] > full):
            bad = next(m for m in member_set if m < 0 or m & ~full)
            raise PreconditionError(
                f"mask {bad:#x} has bits outside the {n}-bit ground set"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "full_mask", full)
        object.__setattr__(self, "members", ordered)
        object.__setattr__(self, "member_set", member_set)

    def __setattr__(self, *_):
        raise AttributeError("SetFamily is immutable")

    def __contains__(self, mask: int) -> bool:
        return mask in self.member_set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.n == other.n and self.member_set == other.member_set

    def __hash__(self) -> int:
        return hash((self.n, self.member_set))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, members={len(self.members)})"


def full_power_set(n: int) -> SetFamily:
    return SetFamily(n, range(1 << n))


def _check_interval(fam: SetFamily, B: int, A: int) -> None:
    full = fam.full_mask
    if A & ~full or B & ~full:
        raise PreconditionError("interval endpoints must live inside the ground set")
    if B & ~A:
        raise PreconditionError(
            f"lower endpoint {mask_elements(B)} is not a subset of upper endpoint"
            f" {mask_elements(A)}"
        )


def check_tolerance(value, name: str = "tolerance") -> Fraction:
    """``value`` as a Fraction, which must lie in (0, 1].

    The one range check of the paper's tolerances: eps of the layer
    density check, the constant cascades and the trace lemma's constants,
    gamma of flexibility.
    """
    value = Fraction(value)
    if not 0 < value <= 1:
        # a value with long parts is named by its magnitude, not every digit
        short = max(abs(value.numerator), value.denominator) < 10**20
        shown = value if short else f"a rational near {magnitude(value)}"
        raise PreconditionError(f"{name} must be in (0, 1], got {shown}")
    return value


@functools.cache
def dense_need(eps, width: int, r: int) -> int:
    """The least integer >= (1 - eps) C(width, r).

    This is the one density rule: an r-layer over ``width`` points is
    (1 - eps)-dense when it keeps at least this many sets.  For an integer
    count c, c >= (1 - eps) C(width, r) exactly when c >= dense_need.
    """
    return math.ceil((1 - eps) * math.comb(width, r))


@functools.cache
def lubell_weights(width: int) -> tuple:
    """(L, w) with L = lcm_s C(width, s) and w[s] = L / C(width, s), s = 0..width.

    The one integer form of the Lubell weights 1 / C(width, s): a family
    with c_s members of size s has mass sum_s c_s w[s] / L.
    """
    binoms = [math.comb(width, s) for s in range(width + 1)]
    lcm = math.lcm(*binoms)
    return lcm, tuple(lcm // c for c in binoms)


def mass_of_sizes(sizes: Iterable[int], width: int) -> Fraction:
    """Sum of 1/C(width, s) over ``sizes``, exactly, over the common
    denominator L of ``lubell_weights``."""
    lcm, w = lubell_weights(width)
    return Fraction(sum(c * w[s] for s, c in Counter(sizes).items()), lcm)


def lubell_mass(fam: SetFamily) -> Fraction:
    """Sum over members F of 1/C(n, |F|), exactly.

    Equals the expected number of members met by a uniformly random
    maximal chain in the lattice of subsets of [n].
    """
    return mass_of_sizes(map(int.bit_count, fam.members), fam.n)


def interval_members(fam: SetFamily, B: int, A: int) -> list[int]:
    """Members F with B <= F <= A, unshifted."""
    _check_interval(fam, B, A)
    return [m for m in fam.members if (m & B) == B and not (m & ~A)]


def restrict_interval(fam: SetFamily, B: int, A: int) -> SetFamily:
    """The family {F \\ B : F in fam, B <= F <= A} over ground set A \\ B.

    The result is re-indexed onto contiguous low bits so that it is an
    ordinary family over a ground set of size |A \\ B|.
    """
    universe = A & ~B
    shifted = [compress_mask(m & ~B, universe) for m in interval_members(fam, B, A)]
    return SetFamily(universe.bit_count(), shifted)


def relative_lubell(fam: SetFamily, B: int, A: int) -> Fraction:
    """Expected hits of a uniform maximal chain of the interval [B, A].

    Identical, by construction, to ``lubell_mass(restrict_interval(fam, B, A))``.
    """
    return mass_of_sizes(
        ((m & ~B).bit_count() for m in interval_members(fam, B, A)), (A & ~B).bit_count()
    )


# ---------------------------------------------------------------------------
# Family file format.
#
# Line 1:            n=<int>
# Following lines:   comma separated, sorted, 1-based element indices
#                    ("-" denotes the empty set)
# Duplicate lines are data errors, not merges.


def parse_decimal(text: str) -> int:
    """An integer written in ASCII decimal digits, with an optional sign,
    leading zeros and spaces around it: the one integer spelling of the
    family and poset file formats and of subset literals.

    Raises ValueError, as ``int`` does, on anything else -- also on what
    ``int`` alone would take: ``_`` separators and non-ASCII digits.
    """
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_family(lines: Iterable[str]) -> SetFamily:
    """The family of an ``n=<int>`` header and one subset literal a line.

    The lines after the header, joined by newlines, are read as one
    block, as ``read_family`` reads each chunk of a file (``_add_block``):
    a canonical line by table lookup, every other line (``-``, blank
    lines, spaces, leading zeros or signs, a "\\r" before the newline) by
    ``parse_subset_literal``, and the first malformed or duplicate line,
    in line order, raises.
    """
    it = iter(lines)
    n = _header_size(it)
    seen: set[int] = set()
    _add_block("".join(raw.rstrip("\n") + "\n" for raw in it), n, seen, 2, _line_masks)
    return SetFamily(n, seen)


def parse_header(lines: Iterator[str], key: str, kind: str, what: str) -> int:
    """The integer of the ``<key>=<int>`` header, the next line of
    ``lines``: the one header rule of the family and poset file formats.
    Errors name the input ``kind`` ("family", "poset") and ``what`` the
    integer counts ("ground set size", "element count")."""
    try:
        header = next(lines).strip()
    except StopIteration:
        raise ParseError(f"empty {kind} input: missing '{key}=<int>' header") from None
    if not header.startswith(key + "="):
        raise ParseError(f"expected '{key}=<int>' header, got {header!r}")
    try:
        return parse_decimal(header[len(key) + 1:])
    except ValueError:
        raise ParseError(f"bad {what} in header {header!r}") from None


def _header_size(lines: Iterator[str]) -> int:
    """The ground set size of the ``n=<int>`` header, the next line of ``lines``."""
    n = parse_header(lines, "n", "family", "ground set size")
    if not 0 <= n <= MAX_GROUND:
        raise ParseError(f"ground set size {n} outside [0, {MAX_GROUND}]")
    return n


# Grounds below this are read by ``_split_tables``; tokens from 20 on do not
# open with ",1", so larger grounds keep one lookup per element, chosen per file.
_SPLIT_GROUND = 20
_BULK_BYTES = 1 << 20
_CHUNK_CHARS = 1 << 16


def read_family(path) -> SetFamily:
    """The family in the file at ``path``, read as ``parse_family`` reads it.

    The body is read in chunks of ``_CHUNK_CHARS`` characters, each read on
    to the end of the line it stops in, and each chunk goes through
    ``_add_block``.  A file of ``_BULK_BYTES`` (1 MiB) or more, by
    ``os.fstat``, has its canonical lines decoded with numpy
    (``_numpy_masks``), smaller files by table lookup (``_line_masks``):
    importing numpy in a fresh process costs about as much as it saves on
    1 MB of family lines, so the gate sits at that break-even, and the
    subcommands that compute exactly stay numpy-free on small families.

    A byte outside ASCII ends the chunk loop, and ``_exact_lines`` reads
    the file again from its top, one line at a time, so that a malformed
    or duplicate line the text layer decodes before that byte is named
    first.  A pipe cannot be read again, so ``_exact_lines`` streams it
    from the start, in that same order.
    """
    with open_text(path, "ascii", "family file") as fh:
        n = _header_size(fh)
        decode = _numpy_masks if os.fstat(fh.fileno()).st_size >= _BULK_BYTES else _line_masks
        seen: set[int] = set()
        if not fh.seekable():                    # a pipe
            _exact_lines(fh, n, seen, 2)
            return SetFamily(n, seen)
        lineno = 2
        try:
            while block := fh.read(_CHUNK_CHARS):
                block += fh.readline()           # the rest of the chunk's last line
                if not block.endswith("\n"):     # no newline at the end of the file
                    block += "\n"
                _add_block(block, n, seen, lineno, decode)
                lineno += block.count("\n")
        except UnicodeDecodeError:
            fh.seek(0)
            next(fh)                             # the header, read already
            seen.clear()
            _exact_lines(fh, n, seen, 2)
        return SetFamily(n, seen)


def _add_block(text: str, n: int, seen: set, lineno: int, decode) -> None:
    """Add the subsets of ``text``, whole lines the first of which is line
    ``lineno``, to ``seen``.

    ``decode(text, n)`` gives the masks of the canonical lines -- the
    elements in ascending order, written as ``str(e)`` and joined by ","
    -- and the other lines, which go to ``parse_subset_literal`` (blank
    ones are skipped).  A block that holds a malformed line, or a mask
    repeated in it or already in ``seen``, is read again by
    ``_exact_lines``, which names its first error in line order.
    """
    masks, missed = decode(text, n)
    try:
        masks += [parse_subset_literal(line, n) for line in map(str.strip, missed) if line]
        fresh = set(masks)
        clean = len(fresh) == len(masks) and seen.isdisjoint(fresh)
    except ParseError:
        clean = False
    if clean:
        seen |= fresh
    else:
        _exact_lines(text.split("\n"), n, seen, lineno)


def _exact_lines(lines: Iterable[str], n: int, seen: set, lineno: int) -> None:
    """Add the subsets of ``lines``, the first numbered ``lineno``, to
    ``seen``, each by ``parse_subset_literal``: the one reader that raises
    a line's error, at the first malformed or duplicate line in line order."""
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line:
            continue
        try:
            mask = parse_subset_literal(line, n)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if mask in seen:
            raise ParseError(f"line {lineno}: duplicate subset {line!r}")
        seen.add(mask)


def _line_masks(text: str, n: int) -> tuple[list, list]:
    """The masks of the canonical lines of ``text``, and its other lines,
    by table lookup: the decoder of ``_add_block`` below ``_BULK_BYTES``.

    Below ``_SPLIT_GROUND`` a line is cut at its first ",1", which in a
    canonical line can only open a token 10..19, as element 1 only ever
    comes first; the part before the cut (or the whole line, if it has no
    ",1") is looked up in the low table of ``_split_tables``, the part
    after it in the high table, and a line that misses is looked up whole
    in the high table (its tokens may all be 10..19).  From
    ``_SPLIT_GROUND`` on, each token is looked up on its own.
    """
    masks, missed = [], []
    if n < _SPLIT_GROUND:
        low, high = _split_tables(n)
        miss = 1 << MAX_GROUND               # set in a mask only by a missed lookup
        for line in text.split("\n"):
            cut = line.find(",1")
            if cut < 0:
                mask = low.get(line, miss)
            else:
                mask = low.get(line[:cut], miss) | high.get(line[cut + 1:], miss)
            if mask & miss:
                mask = high.get(line, miss)
                if mask & miss:
                    missed.append(line)
                    continue
            masks.append(mask)
        return masks, missed
    bit_of = {str(e): 1 << (e - 1) for e in range(1, n + 1)}
    for line in text.split("\n"):
        try:
            bits = [bit_of[t] for t in line.split(",")]
        except KeyError:
            missed.append(line)
            continue
        mask = sum(bits)
        # distinct powers of two in ascending order
        if mask.bit_count() == len(bits) and bits == sorted(bits):
            masks.append(mask)
        else:
            missed.append(line)
    return masks, missed


def _split_tables(n: int) -> tuple[dict, dict]:
    """The low and high tables of ``_line_masks`` on the ground [n]: the
    mask of every nonempty subset of [1, min(n, 9)], and of [10, min(n, 19)],
    keyed by its ``format_subset`` literal -- at most 511 + 1023 entries."""
    return _literal_masks(1, min(n, 9)), _literal_masks(10, min(n, 19))


@functools.cache
def _literal_masks(first: int, last: int) -> dict:
    """``format_subset(mask) -> mask`` for every nonempty subset of [first, last]."""
    table: dict[str, int] = {}
    for e in range(first, last + 1):
        bit, tail = 1 << (e - 1), f",{e}"
        table.update([(key + tail, mask | bit) for key, mask in table.items()])
        table[str(e)] = bit
    return table


def parse_subset_literal(text: str, n: int) -> int:
    """Parse one subset line: "-" or "1,3,4" (sorted, 1-based)."""
    text = text.strip()
    if text == "-":
        return 0
    mask = 0
    prev = 0
    for part in text.split(","):
        try:
            e = parse_decimal(part)
        except ValueError:
            raise ParseError(f"bad subset literal {text!r}") from None
        if not 1 <= e <= n:
            raise ParseError(f"element {e} outside ground set [{n}]")
        if e <= prev:
            raise ParseError(
                f"subset literal {text!r} must be sorted and duplicate-free"
            )
        mask |= 1 << (e - 1)
        prev = e
    return mask


def format_subset(mask: int) -> str:
    if mask == 0:
        return "-"
    return ",".join(str(e) for e in mask_elements(mask))


def format_family(fam: SetFamily) -> str:
    lines = [f"n={fam.n}"]
    lines.extend(format_subset(m) for m in fam.members)  # ascending mask order
    return "\n".join(lines) + "\n"


def _numpy_masks(text: str, n: int) -> tuple[list, list]:
    """``_line_masks`` with numpy: the decoder of ``_add_block`` from
    ``_BULK_BYTES`` on.

    A line is canonical when every token is 1-2 ASCII digits with no
    leading zero, lies in [1, n], and the tokens ascend strictly.
    """
    import numpy as np

    a = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero((a == ord(",")) | (a == ord("\n")))   # a token ends at each
    starts = np.concatenate(([0], ends[:-1] + 1))
    size = ends - starts
    hi = a[starts].astype(np.int64) - ord("0")
    lo = a[np.minimum(starts + 1, ends)].astype(np.int64) - ord("0")
    value = np.where(size == 2, 10 * hi + lo, hi)
    ok = (
        ((size == 1) | ((size == 2) & (0 <= lo) & (lo <= 9)))
        & (1 <= hi) & (hi <= 9) & (value <= n)
    )
    opens = np.ones(len(ends), dtype=bool)        # the token opens a line
    opens[1:] = a[ends[:-1]] == ord("\n")
    ok[1:] &= opens[1:] | (value[1:] > value[:-1])
    heads = np.flatnonzero(opens)
    canonical = np.logical_and.reduceat(ok, heads)
    bits = np.left_shift(np.uint64(1), np.where(ok, value - 1, 0).astype(np.uint64))
    masks = np.bitwise_or.reduceat(bits, heads)[canonical].tolist()
    others = np.flatnonzero(~canonical).tolist()
    lines = text.split("\n") if others else []
    return masks, [lines[i] for i in others]


def write_family(fam: SetFamily, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_family(fam))
