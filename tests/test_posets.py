import random

import pytest

from cubefam.errors import ParseError, PreconditionError, SearchBudgetExceeded
from cubefam.families import SetFamily, full_power_set
from cubefam.posets import (
    AnchoredSearch,
    FinitePoset,
    contains_subposet,
    enumerate_posets,
    family_as_poset,
    height,
    host_rows,
    make_chain,
    make_cube,
    make_v,
    parse_poset,
    verify_embedding_indices,
    verify_embedding_masks,
)

from conftest import (
    brute_force_copies,
    random_family,
    random_poset,
    reference_subposet_scan,
)


class TestFinitePosetBasics:
    def test_requires_closure_unless_asked(self):
        # 0<1, 1<2 without 0<2 is not transitively closed
        with pytest.raises(PreconditionError):
            FinitePoset(3, [(0, 1), (1, 2)])
        p = FinitePoset(3, [(0, 1), (1, 2)], close=True)
        assert p.lt(0, 2)

    def test_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            FinitePoset(2, [(0, 1), (1, 0)], close=True)
        with pytest.raises(PreconditionError):
            FinitePoset(1, [(0, 0)])

    def test_chain_and_v(self):
        c = make_chain(4)
        assert c.is_chain() and height(c) == 4
        v = make_v()
        assert not v.is_chain()
        assert v.lt(0, 1) and v.lt(0, 2) and not v.comparable(1, 2)
        assert height(v) == 2

    def test_dual_involution(self):
        rng = random.Random(5)
        for _ in range(25):
            p = random_poset(rng, rng.randint(0, 6))
            assert p.dual().dual().pairs() == p.pairs()

    def test_dual_equals_validated_reverse(self):
        rng = random.Random(17)
        for _ in range(40):
            p = random_poset(rng, rng.randint(0, 8))
            want = FinitePoset(p.k, [(j, i) for i, j in p.pairs()])
            got = p.dual()
            assert got == want and got.below == want.below

    def test_chain_equals_validated_chain(self):
        for k in range(1, 12):
            want = FinitePoset(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
            got = make_chain(k)
            assert got == want and got.below == want.below

    def test_cube_poset(self):
        q2 = make_cube(2)
        assert q2.k == 4 and height(q2) == 3
        # 2-cube: one bottom, two incomparable middles, one top


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(1, 6)
        p = random_poset(rng, k)
        perm = list(range(k))
        rng.shuffle(perm)
        q = FinitePoset(k, [(perm[i], perm[j]) for i, j in p.pairs()])
        assert p.canonical_key() == q.canonical_key()


@pytest.mark.parametrize("k,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 16), (5, 63)])
def test_enumerate_posets_counts(k, count):
    posets = enumerate_posets(k)
    assert len(posets) == count
    assert len({p.canonical_key() for p in posets}) == count


def test_family_as_poset_matches_inclusion():
    fam = SetFamily(3, [0b001, 0b011, 0b100, 0b111])
    p = family_as_poset(fam)
    assert p.lt(0, 1)          # {1} < {1,2}
    assert not p.comparable(0, 2)   # {1} vs {3}
    assert p.lt(2, 3)


def test_family_as_poset_equals_validated_poset():
    """The direct row builder agrees with FinitePoset's validated pairs."""
    rng = random.Random(515)
    for _ in range(60):
        n = rng.randint(0, 7)
        masks = rng.sample(range(1 << n), rng.randint(0, min(20, 1 << n)))
        rng.shuffle(masks)
        k = len(masks)
        pairs = [
            (i, j) for i in range(k) for j in range(k)
            if i != j and masks[i] & ~masks[j] == 0
        ]
        got = family_as_poset(masks)
        want = FinitePoset(k, pairs)
        assert got.k == k
        assert got.above == want.above and got.below == want.below


def _pairwise_rows(masks):
    k = len(masks)
    above = [0] * k
    below = [0] * k
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if a & b == a and a != b:
                above[i] |= 1 << j
                below[j] |= 1 << i
    return tuple(above), tuple(below)


@pytest.mark.parametrize(
    "masks",
    [
        [],
        [0],
        [0b1011],
        [0, 0b1, 0b10, 0b11],
        [0b111, 0, 0b101],
        [1 << 70, 0b1, (1 << 71) - 1, 0b11, 1 << 3],
        [(1 << 64) | 1, 1, 1 << 64],
    ],
    ids=["empty", "empty-set", "single", "cube", "unsorted", "wide", "word-edge"],
)
def test_family_as_poset_edge_cases(masks):
    p = family_as_poset(masks)
    assert p.k == len(masks)
    assert (p.above, p.below) == _pairwise_rows(masks)


def test_family_as_poset_rejects_negative_masks():
    with pytest.raises(PreconditionError):
        family_as_poset([0b1, -2])


def _kernel_cases():
    rng = random.Random(2718)
    for trial in range(160):
        if trial % 2:
            host = random_poset(rng, rng.randint(1, 10), rng.random())
        else:
            fam = random_family(rng, rng.randint(1, 5), rng.uniform(0.2, 0.9))
            host = family_as_poset(fam)
        yield host, random_poset(rng, rng.randint(1, 5), rng.random())


@pytest.mark.parametrize("mode", ["weak", "induced"])
def test_kernel_matches_reference_scan(mode):
    """Same first copy as the per-candidate scan, charged the same nodes."""
    for host, pattern in _kernel_cases():
        want, nodes = reference_subposet_scan(host, pattern, mode)
        got = contains_subposet(host, pattern, mode, node_budget=nodes)
        assert got == want, (host, pattern.pairs())
        if nodes:
            with pytest.raises(SearchBudgetExceeded) as info:
                contains_subposet(host, pattern, mode, node_budget=nodes - 1)
            assert info.value.nodes == nodes


def test_budget_stop_counts_budget_plus_one():
    host = family_as_poset(full_power_set(5))
    for budget in (0, 1, 7, 13):
        with pytest.raises(SearchBudgetExceeded) as info:
            contains_subposet(host, make_cube(3), "induced", node_budget=budget)
        assert info.value.nodes == budget + 1
    assert contains_subposet(host, make_cube(3), "induced", node_budget=14) is not None


def test_long_chain_search_needs_no_recursion():
    chain = make_chain(1100)
    assert height(chain) == 1100
    emb = contains_subposet(chain, make_chain(2), "weak")
    assert emb is not None and chain.lt(*emb)


def test_contains_subposet_against_brute_force():
    """The backtracking searcher agrees with the permutation oracle."""
    rng = random.Random(404)
    for _ in range(120):
        host = random_poset(rng, rng.randint(1, 6))
        pattern = random_poset(rng, rng.randint(1, 4))
        for mode in ("weak", "induced"):
            got = contains_subposet(host, pattern, mode)
            assert (got is not None) == any(brute_force_copies(host, pattern, mode)), (
                mode, host.pairs(), pattern.pairs()
            )
            if got is not None:
                assert verify_embedding_indices(host, pattern, got, mode)


def test_order_checks_agree_with_the_pairwise_definition():
    """Every index tuple of a small host, injective or not, passes the
    row checks exactly when it is a pairwise copy; the mask check runs on
    an inclusion host's members."""
    from itertools import product

    rng = random.Random(2468)
    for _ in range(60):
        pattern = random_poset(rng, rng.randint(1, 3))
        fam = random_family(rng, 3, density=0.6)
        masks = sorted(fam.members)
        hosts = [(random_poset(rng, rng.randint(1, 5)), None), (family_as_poset(fam), masks)]
        for (host, members), mode in product(hosts, ("weak", "induced")):
            copies = set(brute_force_copies(host, pattern, mode))
            for images in product(range(host.k), repeat=pattern.k):
                want = images in copies
                assert verify_embedding_indices(host, pattern, images, mode) == want
                if members is not None:
                    got = verify_embedding_masks(pattern, [members[i] for i in images], mode)
                    assert got == want


def test_induced_implies_weak():
    rng = random.Random(77)
    for _ in range(60):
        host = random_poset(rng, rng.randint(1, 7))
        pattern = random_poset(rng, rng.randint(1, 4))
        if contains_subposet(host, pattern, "induced") is not None:
            assert contains_subposet(host, pattern, "weak") is not None


def test_chain_weak_equals_induced():
    # chains have no incomparable pairs, so the two notions coincide
    rng = random.Random(13)
    for _ in range(40):
        host = random_poset(rng, rng.randint(1, 7))
        c = make_chain(rng.randint(1, 4))
        weak = contains_subposet(host, c, "weak") is not None
        induced = contains_subposet(host, c, "induced") is not None
        assert weak == induced == (height(host) >= c.k)


def test_budget_exhaustion_is_distinct_from_absent():
    host = family_as_poset(full_power_set(4))
    pattern = make_cube(2)
    with pytest.raises(SearchBudgetExceeded):
        contains_subposet(host, pattern, "induced", node_budget=1)
    found = contains_subposet(host, pattern, "induced")
    assert found is not None


def test_embedding_map_validation():
    assert not verify_embedding_masks(FinitePoset(2), [0b01, 0b01], "weak")
    assert not verify_embedding_masks(make_chain(2), [0b11, 0b01], "weak")
    assert verify_embedding_masks(make_chain(2), [0b01, 0b11], "weak")
    # induced: a spurious inclusion between incomparable images is rejected
    assert not verify_embedding_masks(make_v(), [0b001, 0b011, 0b111], "induced")
    assert verify_embedding_masks(make_v(), [0b001, 0b011, 0b101], "induced")


def test_poset_text_round_trip():
    rng = random.Random(909)
    for _ in range(30):
        p = random_poset(rng, rng.randint(0, 6))
        text = [f"k={p.k}"] + [f"{i} < {j}" for i, j in p.pairs()]
        q = parse_poset(text)
        assert q.pairs() == p.pairs()


def test_poset_parse_errors():
    with pytest.raises(ParseError):
        parse_poset(["nope"])
    with pytest.raises(ParseError):
        parse_poset(["k=2", "0 < 2"])
    with pytest.raises(ParseError):
        parse_poset(["k=2", "0 1"])


@pytest.mark.parametrize("lines,message", [
    ([], "empty poset input: missing 'k=<int>' header"),
    (["n=2", "0 < 1"], "expected 'k=<int>' header, got 'n=2'"),
    (["k=x"], "bad element count in header 'k=x'"),
], ids=["empty", "family-key", "not-a-number"])
def test_poset_header_errors_word_for_word(lines, message):
    with pytest.raises(ParseError) as info:
        parse_poset(lines)
    assert str(info.value) == message


@pytest.mark.parametrize("lines,message", [
    (["k=1_2"], "bad element count in header"),
    (["k=\u0662"], "bad element count in header"),
    (["k=2", "0 < 0_1"], "line 2: bad cover relation"),
    (["k=2", "", "\u0660 < 1"], "line 3: bad cover relation"),
])
def test_poset_numbers_are_ascii_decimal(lines, message):
    """``_`` separators and non-ASCII digits are parse errors, not numbers."""
    with pytest.raises(ParseError, match=message):
        parse_poset(lines)
    assert parse_poset(["k= +02 ", " 00 < +1 "]).pairs() == make_chain(2).pairs()


def test_all_small_posets_embed_into_chain_weakly():
    for p in enumerate_posets(3):
        assert contains_subposet(make_chain(3), p, "weak") is not None


def test_antichain_host_admits_only_antichains():
    anti = FinitePoset(4, [])
    assert contains_subposet(anti, make_chain(2), "weak") is None
    assert contains_subposet(anti, FinitePoset(3, []), "induced") is not None


def test_anchored_search_against_brute_force():
    """A copy through the anchor is found exactly when one exists."""
    rng = random.Random(2718)
    for trial in range(300):
        if trial % 2:
            host = random_poset(rng, rng.randint(1, 7), rng.random())
        else:
            host = family_as_poset(random_family(rng, rng.randint(1, 4), rng.uniform(0.2, 0.9)))
        pattern = random_poset(rng, rng.randint(1, 4), rng.random())
        anchor = rng.randrange(host.k) if host.k else 0
        for mode in ("weak", "induced"):
            search = AnchoredSearch(pattern, mode, host_rows(host, mode))
            got = search.copy_through(anchor) if host.k else None
            want = any(anchor in images for images in brute_force_copies(host, pattern, mode))
            assert (got is not None) == want, (mode, host.pairs(), pattern.pairs(), anchor)
            if got is not None:
                assert anchor in got
                assert verify_embedding_indices(host, pattern, got, mode)


@pytest.mark.parametrize(
    "pattern,orbits",
    [
        (make_chain(3), 3),
        (make_v(), 2),
        (make_v().dual(), 2),
        (make_cube(2), 3),
        (FinitePoset(3, []), 1),
        (FinitePoset(4, [(0, 1), (2, 3)]), 2),
    ],
    ids=["P3", "V2", "D2", "Q2", "antichain", "two-chains"],
)
def test_anchored_search_plans_one_per_orbit(pattern, orbits):
    for mode in ("weak", "induced"):
        assert len(AnchoredSearch(pattern, mode, host_rows(pattern, mode)).plans) == orbits
