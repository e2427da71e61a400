"""Pivot enumeration, flexibility thresholds, and the mass bounds."""

import math
import random
from fractions import Fraction

import pytest

from cubefam import (
    PivotRecord,
    PreconditionError,
    SetFamily,
    flexibility_mass_bound,
    is_fat,
    lubell_mass,
    max_flexfree_mass,
    observation_check,
    validate_record,
    verify_fat_mass_bound,
    verify_flexibility_bound,
)
from cubefam.families import submasks_of_size
from cubefam.pivots import flexible_in_universe, max_flexfree_layer, pivots_in_universe

from conftest import random_family, reference_pivot_scan


def middle_layer(n):
    k = n // 2
    masks = [m for m in range((1 << n)) if m.bit_count() == k]
    return SetFamily(n, masks)


class TestEnumeration:
    def test_middle_layer_hand_case(self):
        # Base {1,2} in the 2-layer of P[4]: dropping either element
        # reaches a member, so both singletons are pivots.
        fam = middle_layer(4)
        ps = pivots_in_universe(fam.member_set, fam.full_mask, 0b0011, 1)
        assert ps.pivots == (0b0001, 0b0010)
        assert ps.witness_of[0b0001] == 0b0110  # {2,3}: lex-min replacement
        assert ps.witness_of[0b0010] == 0b0101  # {1,3}
        assert ps.kind == "pivot" and ps.r == 1 and len(ps) == 2

    def test_anti_pivots_hand_case(self):
        fam = middle_layer(4)
        ps = pivots_in_universe(fam.member_set, fam.full_mask, 0b0011, 1, anti=True)
        assert ps.pivots == (0b0100, 0b1000)
        assert ps.kind == "anti-pivot"
        # Witness of an incoming element contains it and stays in the family.
        for y, w in ps.witness_of.items():
            assert w & y == y and w in fam.member_set

    def test_zero_order_pivots(self):
        fam = middle_layer(4)
        inside = pivots_in_universe(fam.member_set, fam.full_mask, 0b0011, 0)
        assert inside.pivots == (0,) and inside.witness_of[0] == 0b0011
        outside = pivots_in_universe(fam.member_set, fam.full_mask, 0b0111, 0)
        assert len(outside) == 0
        # At r = 0 flexibility is membership, whatever gamma and side: a
        # base's only 0-landing is itself.  Extraction skips the test there.
        S = random_family(random.Random(5050), 6, density=0.4).member_set
        universe = 0b101101
        for gamma in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            for anti in (False, True):
                for f in range(1 << 6):
                    if f & ~universe:
                        continue
                    got = flexible_in_universe(S, universe, f, gamma, 0, anti=anti)
                    assert got == (f in S)

    def test_isolated_base_has_no_pivots(self):
        fam = SetFamily(5, [0b00011])
        S, full = fam.member_set, fam.full_mask
        assert len(pivots_in_universe(S, full, 0b00011, 1)) == 0
        assert len(pivots_in_universe(S, full, 0b00011, 1, anti=True)) == 0

    def test_enumeration_is_deterministic(self):
        rng = random.Random(4425)
        for _ in range(30):
            fam = random_family(rng, rng.randint(3, 7), density=0.4)
            if not fam.members:
                continue
            a = rng.choice(fam.members)
            r = rng.randint(0, 2)
            first = pivots_in_universe(fam.member_set, fam.full_mask, a, r)
            second = pivots_in_universe(fam.member_set, fam.full_mask, a, r)
            assert first == second
            assert first.witness_of == second.witness_of

    def test_scanner_matches_all_hits_reference(self):
        # The first hit of the scan is the lex-least landing, and the
        # early-exit flexibility count agrees with the full pivot count.
        rng = random.Random(6006)
        r_above_a = r_above_outside = 0
        for _ in range(1200):
            n = rng.randint(1, 7)
            fam = random_family(rng, n, density=rng.choice((0.2, 0.5, 0.8)))
            universe = rng.randrange(1 << n)
            A = universe & rng.randrange(1 << n)
            r = rng.randint(0, n)
            anti = rng.random() < 0.5
            r_above_a += r > A.bit_count()
            r_above_outside += r > (universe & ~A).bit_count()
            want = reference_pivot_scan(fam.member_set, universe, A, r, anti)
            got = pivots_in_universe(fam.member_set, universe, A, r, anti=anti)
            assert got.pivots == tuple(sorted(want))
            assert got.witness_of == want
            gamma = Fraction(rng.randint(1, 6), 6)
            pool = (universe & ~A).bit_count() if anti else A.bit_count()
            flexible = len(want) >= max(1, (1 - gamma) * math.comb(pool, r))
            got_flex = flexible_in_universe(fam.member_set, universe, A, gamma, r, anti=anti)
            assert got_flex == flexible
        assert r_above_a > 100 and r_above_outside > 100


class TestRecords:
    def test_records_pass_observation_check(self):
        rng = random.Random(90210)
        checked = 0
        for _ in range(60):
            n = rng.randint(3, 8)
            fam = random_family(rng, n, density=0.35)
            if not fam.members:
                continue
            a = rng.choice(fam.members)
            r = rng.randint(0, 2)
            anti = rng.random() < 0.5
            ps = pivots_in_universe(fam.member_set, fam.full_mask, a, r, anti=anti)
            for rec in ps.records():
                assert observation_check(fam, rec)
                checked += 1
        assert checked > 50

    def test_validate_rejects_foreign_witness(self):
        fam = middle_layer(4)
        rec = PivotRecord(0b0011, 0b0001, 0b0111, "pivot", 1)
        with pytest.raises(PreconditionError):
            validate_record(fam, rec)

    def test_validate_rejects_wrong_moved_size(self):
        fam = middle_layer(4)
        rec = PivotRecord(0b0011, 0b0011, 0b0110, "pivot", 1)
        with pytest.raises(PreconditionError, match="wrong size"):
            validate_record(fam, rec)

    def test_validate_rejects_mismatched_decomposition(self):
        fam = middle_layer(4)
        # Witness {2,3} leaves X={1}; claiming the moved set was {2} lies.
        rec = PivotRecord(0b0011, 0b0010, 0b0110, "pivot", 1)
        with pytest.raises(PreconditionError, match="decomposition"):
            validate_record(fam, rec)

    def test_validate_rejects_bad_kind_and_negative_r(self):
        fam = middle_layer(4)
        with pytest.raises(PreconditionError):
            validate_record(fam, PivotRecord(0b0011, 0b0001, 0b0110, "swap", 1))
        with pytest.raises(PreconditionError):
            validate_record(fam, PivotRecord(0b0011, 0b0001, 0b0110, "pivot", -1))

    def test_validate_zero_order_shape(self):
        fam = middle_layer(4)
        validate_record(fam, PivotRecord(0b0011, 0, 0b0011, "pivot", 0))
        with pytest.raises(PreconditionError):
            validate_record(fam, PivotRecord(0b0011, 0, 0b0101, "pivot", 0))


class TestFlexibility:
    def test_middle_layer_base_is_flexible(self):
        fam = middle_layer(4)
        S, full = fam.member_set, fam.full_mask
        assert flexible_in_universe(S, full, 0b0011, Fraction(1, 2), 1)
        assert flexible_in_universe(S, full, 0b0011, Fraction(1), 1)
        assert flexible_in_universe(S, full, 0b0011, Fraction(1, 2), 1, anti=True)

    def test_threshold_floor_is_one(self):
        # gamma = 1 makes (1-gamma)C(pool,r) vanish, but one pivot is
        # still required: an isolated base never counts as flexible.
        fam = SetFamily(5, [0b00011])
        assert not flexible_in_universe(fam.member_set, fam.full_mask, 0b00011, Fraction(1), 1)

    def test_threshold_boundary_exact(self):
        # Base {1,2,3} with exactly one 1-pivot: flexible iff the
        # threshold max(1, (1-gamma)*3) stays at its floor.
        fam = SetFamily(6, [0b000111, 0b001011])  # {1,2,3}, {1,2,4}
        base = 0b000111
        S, full = fam.member_set, fam.full_mask
        assert len(pivots_in_universe(S, full, base, 1)) == 1
        assert flexible_in_universe(S, full, base, Fraction(1), 1)
        assert flexible_in_universe(S, full, base, Fraction(2, 3), 1)
        assert not flexible_in_universe(S, full, base, Fraction(1, 3), 1)  # needs 2

    def test_flexibility_counts_pivots_not_witnesses(self):
        # Two witnesses for the same departing element are one pivot.
        fam = SetFamily(5, [0b00011, 0b00110, 0b01010])
        ps = pivots_in_universe(fam.member_set, fam.full_mask, 0b00011, 1)
        assert ps.pivots == (0b00001,)


def test_flexibility_mass_bound_values():
    assert flexibility_mass_bound(Fraction(1), 1) == 3
    assert flexibility_mass_bound(Fraction(1, 2), 1) == 5
    assert flexibility_mass_bound(Fraction(1), 2) == 10
    assert flexibility_mass_bound(Fraction(1, 4), 3) == 75


def test_flexibility_mass_bound_rejects_bad_gamma():
    with pytest.raises(PreconditionError):
        flexibility_mass_bound(Fraction(0), 1)
    with pytest.raises(PreconditionError):
        flexibility_mass_bound(Fraction(3, 2), 1)


class TestFlexFreeSearch:
    # Exhaustive optima over flex-free families restricted to sizes
    # at most n/2, frozen from independent runs.
    FROZEN = {
        (4, Fraction(1), 1): Fraction(19, 12),
        (5, Fraction(1), 1): Fraction(7, 5),
        (6, Fraction(1), 1): Fraction(47, 30),
        (4, Fraction(1, 2), 1): Fraction(19, 12),
        (5, Fraction(1, 2), 1): Fraction(7, 5),
        (6, Fraction(1, 2), 1): Fraction(5, 3),
    }

    @pytest.mark.parametrize("key", sorted(FROZEN, key=str))
    def test_exhaustive_values(self, key):
        n, gamma, r = key
        mass, masks = max_flexfree_mass(n, gamma, r)
        assert mass == self.FROZEN[key]
        fam = SetFamily(n, masks)
        assert lubell_mass(fam) == mass
        rep = verify_flexibility_bound(fam, gamma, r)
        assert rep.hypothesis_ok and rep.satisfied

    def test_layer_search_is_not_recursive(self):
        # No 7-swap exists between 6-sets, so the whole layer is
        # flexibility-free; a search recursing once per mask cannot reach
        # the bottom of its 1716 masks.
        count, masks = max_flexfree_layer(13, 6, Fraction(1), 7)
        assert count == math.comb(13, 6) == 1716
        assert masks == tuple(submasks_of_size((1 << 13) - 1, 6))

    def test_r0_optimum_is_empty(self):
        mass, masks = max_flexfree_mass(5, Fraction(1, 2), 0)
        assert mass == 0 and masks == ()


class TestMassBoundReports:
    def test_flexible_member_breaks_hypothesis(self):
        rep = verify_flexibility_bound(middle_layer(4), Fraction(1, 2), 1)
        assert not rep.hypothesis_ok
        assert rep.satisfied is None
        assert "flexible" in rep.detail

    def test_oversized_member_breaks_hypothesis(self):
        fam = SetFamily(4, [0b0111])
        rep = verify_flexibility_bound(fam, Fraction(1, 2), 1)
        assert not rep.hypothesis_ok and "half" in rep.detail

    def test_fat_bound_pass_case(self):
        # Keep seven of the eight singletons; only {8} sees none of its
        # 1-subsets survive, so a family of just {8} has no fat member.
        n = 8
        s = {1 << i for i in range(7)}
        fam = SetFamily(n, [1 << 7])
        rep = verify_fat_mass_bound(fam, s, Fraction(1, 2))
        assert rep.hypothesis_ok and rep.satisfied
        assert rep.mass == Fraction(1, 8)

    def test_fat_bound_detects_fat_member(self):
        n = 8
        s = {1 << i for i in range(7)}
        fam = SetFamily(n, [0b11000000])  # {7,8}: one of two inside S
        rep = verify_fat_mass_bound(fam, s, Fraction(1, 2))
        assert not rep.hypothesis_ok and "fat" in rep.detail

    def test_fat_bound_detects_thin_s(self):
        fam = SetFamily(8, [1 << 7])
        rep = verify_fat_mass_bound(fam, {1 << 0}, Fraction(1, 2))
        assert not rep.hypothesis_ok and "fraction" in rep.detail


class TestFatness:
    def test_exact_fraction_boundary(self):
        # X = {1,2,3,4}, r = 2: six 2-subsets.  eps = 1/3 tolerates
        # exactly two misses; a third flips the verdict.
        x = 0b1111
        subs = [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
        assert is_fat(x, frozenset(subs[:4]), Fraction(1, 3), 2)
        assert not is_fat(x, frozenset(subs[:3]), Fraction(1, 3), 2)

    def test_empty_x_is_vacuously_fat(self):
        assert is_fat(0, frozenset(), Fraction(1, 4), 1)

    def test_empty_s_rejected(self):
        with pytest.raises(PreconditionError, match="empty S has no order r"):
            verify_fat_mass_bound(SetFamily(3, [0b111]), frozenset(), Fraction(1, 4))

    def test_mixed_sizes_rejected(self):
        with pytest.raises(PreconditionError, match="mixes"):
            verify_fat_mass_bound(
                SetFamily(3, [0b111]), frozenset({0b001, 0b011}), Fraction(1, 4)
            )

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(PreconditionError):
            is_fat(0b111, frozenset({0b001}), Fraction(0), 1)
