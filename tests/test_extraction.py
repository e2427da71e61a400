"""Constant cascade, centred elements, and the copy-extraction pipeline."""

import dataclasses
import random
from fractions import Fraction

import pytest
from mpmath import mp

from cubefam import (
    CertificationError,
    FinitePoset,
    PreconditionError,
    SetFamily,
    centred_element,
    compute_cascade,
    contains_subposet,
    extract_induced_copy,
    family_as_poset,
    fat_mass_bound,
    flexibility_mass_bound,
    full_power_set,
    lubell_mass,
    make_chain,
    make_v,
    override_cascade,
    relative_lubell,
)
from cubefam.extraction import (
    CASE_ANTI,
    CASE_FLEX,
    STATUS_AGGRESSIVE,
    STATUS_NO_MASS,
    STATUS_OK,
    STATUS_SMALL_X,
    assemble_witnesses,
    _centred,
    build_sequences,
)
from cubefam import extraction
from cubefam.concentration import _trace_rates
from cubefam.families import MAX_GROUND
from cubefam.posets import verify_embedding_masks

from conftest import random_family, reference_centred


OVR = {"q": Fraction(1, 2), "p": Fraction(1, 2), "eps": Fraction(1, 8)}


class TestCascade:
    def test_exact_levels_m1(self):
        c = compute_cascade(1, Fraction(1, 4))
        assert c.eps_j == (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
        assert c.p == 33
        assert c.mode == "paper"

    def test_mp_constants_m1(self):
        c = compute_cascade(1, Fraction(1, 4))
        with mp.workdps(30):
            assert abs(c.q - mp.mpf("129.50065104100439")) < mp.mpf("1e-9")
            assert abs(c.threshold - mp.mpf("8200.03645829625")) < mp.mpf("1e-8")
            # The first level's maximum, at order 1.
            q_1 = fat_mass_bound(c.eps_j[0], 1)
            assert abs(q_1 - mp.mpf("33.502604124282127")) < mp.mpf("1e-9")

    def test_eps_levels_monotone(self):
        for m in (1, 2):
            c = compute_cascade(m, Fraction(1, 4))
            assert len(c.eps_j) == 2 * m + 1
            assert all(a >= b for a, b in zip(c.eps_j, c.eps_j[1:]))
            assert all(e > 0 for e in c.eps_j)

    def test_eps_level_accessor_bounds(self):
        c = compute_cascade(1, Fraction(1, 4))
        assert c.eps_level(1) == Fraction(1, 4)
        with pytest.raises(PreconditionError):
            c.eps_level(0)
        with pytest.raises(PreconditionError):
            c.eps_level(4)

    def test_finite_for_m_up_to_3(self):
        for m in (1, 2, 3):
            c = compute_cascade(m, Fraction(1, (2 * m) ** (m + 1)))
            with mp.workdps(30):
                assert mp.isfinite(c.threshold) and c.threshold > 0
                # No family on at most MAX_GROUND points reaches the
                # threshold: paper mode always stops at the first check.
                assert c.threshold > MAX_GROUND + 1
            assert c.p > 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 4), Fraction(2, 7)])
    def test_levels_are_the_least_eta(self, monkeypatch, m, eps):
        """Each tolerance is the least of the last one and eta over the
        orders 0..m; the mass bounds are stubbed, as they play no part."""
        monkeypatch.setattr(extraction, "fat_mass_bound", lambda e, i: 0)
        monkeypatch.setattr(extraction, "flexibility_mass_bound", lambda e, i: 0)
        want = [eps]
        for _ in range(2 * m):
            prev = want[-1]
            want.append(min([prev] + [_trace_rates(prev, i)[0] for i in range(m + 1)]))
        assert compute_cascade(m, eps).eps_j == tuple(want)

    def test_one_call_per_mass_bound(self, monkeypatch):
        calls = []
        for name in ("fat_mass_bound", "flexibility_mass_bound"):
            def counting(e, i, name=name, real=getattr(extraction, name)):
                calls.append(name)
                return real(e, i)
            monkeypatch.setattr(extraction, name, counting)
        compute_cascade(2, Fraction(1, 2))
        assert sorted(calls) == ["fat_mass_bound", "flexibility_mass_bound"]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
    def test_corners_are_the_grid_maxima(self, m, eps):
        """q and p equal the maxima over every level and order <= m that
        they bound: fat masses at eps_1..eps_2m, flexible ones at
        eps_1..eps_(2m+1)."""
        c = compute_cascade(m, eps)
        q = max(
            fat_mass_bound(c.eps_level(j), i) for j in range(1, 2 * m + 1) for i in range(m + 1)
        )
        p = max(
            flexibility_mass_bound(c.eps_level(j), i)
            for j in range(1, 2 * m + 2)
            for i in range(m + 1)
        )
        assert (c.q, c.p) == (q, p)

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            compute_cascade(0, Fraction(1, 4))
        with pytest.raises(PreconditionError):
            compute_cascade(1, Fraction(0))
        with pytest.raises(PreconditionError):
            compute_cascade(1, Fraction(3, 2))


class TestOverrideCascade:
    def test_exact_threshold(self):
        c = override_cascade(1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 8))
        assert c.mode == "override"
        assert c.threshold == 66 and isinstance(c.threshold, Fraction)
        assert c.step_demand() == 3  # 4mq + 2p
        assert c.eps_j == (Fraction(1, 8),) * 3

    def test_default_eps_matches_cube_tolerance(self):
        c = override_cascade(1, 1, 1)
        assert c.eps_j[0] == Fraction(1, 4)
        c2 = override_cascade(2, 1, 1)
        assert c2.eps_j[0] == Fraction(1, 64)

    def test_negative_constants_rejected(self):
        with pytest.raises(PreconditionError):
            override_cascade(1, -1, 0)
        with pytest.raises(PreconditionError):
            override_cascade(1, 0, Fraction(-1, 2))

    def test_step_floor_telescopes(self):
        q = p = Fraction(1, 2)
        assert override_cascade(1, q, p).step_floor(2) == 3
        assert override_cascade(1, q, p).step_floor(1) == 6 + Fraction(3, 2) * 2
        assert override_cascade(1, q, p).step_floor(0) == 21
        c = override_cascade(1, q, p, Fraction(1, 8))
        assert c.step_floor(0) == 21


class TestCentredElement:
    def test_exhaustive_n3(self):
        # Every nonempty family on three points: the centred member's
        # one-sided relative mass dominates the whole family's mass.
        atoms = list(range(8))
        for bits in range(1, 1 << 8):
            members = [atoms[i] for i in range(8) if bits >> i & 1]
            fam = SetFamily(3, members)
            total = lubell_mass(fam)
            down = centred_element(fam)
            assert down in fam.member_set
            assert relative_lubell(fam, 0, down) >= total

    def test_seeded_larger_grounds(self):
        rng = random.Random(31415)
        for _ in range(200):
            n = rng.randint(4, 10)
            fam = random_family(rng, n, density=rng.uniform(0.05, 0.6))
            if not fam.members:
                continue
            c = centred_element(fam)
            assert relative_lubell(fam, 0, c) >= lubell_mass(fam)

    def test_empty_family_rejected(self):
        with pytest.raises(PreconditionError):
            centred_element(SetFamily(3, []))

    def test_sparse_ground_above_table_cap(self):
        # n = 24 is past the subset-sum tables: the index scans members.
        rng = random.Random(2424)
        fam = SetFamily(24, {rng.getrandbits(24) for _ in range(60)})
        total = lubell_mass(fam)
        by_size = sorted(fam.members, key=lambda f: (bin(f).count("1"), f))
        down = next(f for f in by_size if relative_lubell(fam, 0, f) >= total)
        assert centred_element(fam) == down

    def test_integer_search_matches_fraction_reference(self):
        # Same member and mass as the per-candidate Fraction search: small
        # random sub-universes, u = 20 (the last table size; members of
        # at most 3 points, so the tables keep few rows), and the scan
        # path at u = 21..24.
        rng = random.Random(8128)

        def sub_universe(n):
            return sum(1 << i for i in rng.sample(range(n), rng.randint(1, n)))

        def members_of(universe, count, max_size):
            points = [1 << i for i in range(64) if universe >> i & 1]
            return [
                sum(rng.sample(points, rng.randint(0, min(max_size, len(points)))))
                for _ in range(count)
            ]

        cases = []
        for _ in range(400):
            universe = sub_universe(rng.randint(1, 12))
            members = members_of(universe, rng.randint(1, 60), 12)
            cases.append((universe, members))
        full = (1 << 20) - 1
        for _ in range(2):
            cases.append((full, members_of(full, rng.randint(1, 80), 3)))
        for u in range(21, 25):
            for _ in range(10):
                universe = (1 << u) - 1
                cases.append((universe, members_of(universe, rng.randint(1, 80), u)))
        for _ in range(60):
            # sparse universes on 64 points holding bit 63: the table path
            # gathers member bits as uint64
            universe = 1 << 63 | sum(1 << i for i in rng.sample(range(63), rng.randint(1, 13)))
            members = members_of(universe, rng.randint(1, 60), 14) + [1 << 63]
            cases.append((universe, members))
        for universe, members in cases:
            assert _centred(members, universe) == reference_centred(members, universe)

    def test_antichain_touches_equality(self):
        fam = SetFamily(4, [m for m in range(16) if bin(m).count("1") == 2])
        c = centred_element(fam)
        assert relative_lubell(fam, 0, c) == lubell_mass(fam) == 1


class TestBuildSequences:
    def test_m1_full_run_structure(self):
        fam = full_power_set(10)
        cascade = override_cascade(1, **OVR)
        trace = build_sequences(fam, 1, cascade)
        assert trace.status == STATUS_OK
        assert trace.branch == CASE_FLEX and trace.t == 1
        assert len(trace.steps) == trace.t + 1
        assert trace.initial_mass == 11
        for step in trace.steps:
            assert step.case == "up"
            assert step.B & ~step.A == 0          # interval stays nested
            assert step.step_mass > 0
            # stratum witnesses really are family members
            for w in step.stratum_witness.values():
                assert w in fam.member_set

    def test_gap_halves_every_step(self):
        # Both cases keep a centred member of the small half of the gap;
        # families of sets of size >= n/2 drive the anti case.
        rng = random.Random(4242)
        hosts = [full_power_set(10)]
        for _ in range(8):
            n = rng.randint(8, 10)
            hosts.append(SetFamily(n, [
                f for f in range(1 << n)
                if 2 * bin(f).count("1") >= n and rng.random() < 0.9
            ]))
        anti_steps = 0
        for fam in hosts:
            trace = build_sequences(fam, 1, override_cascade(1, **OVR))
            gaps = [fam.n] + [bin(s.A & ~s.B).count("1") for s in trace.steps]
            for g0, g1 in zip(gaps, gaps[1:]):
                assert g1 <= g0 // 2
            anti_steps += sum(s.case == CASE_ANTI for s in trace.steps)
        assert anti_steps > 0

    def test_witness_order_mismatch_raises(self):
        fam = full_power_set(10)
        trace = build_sequences(fam, 1, override_cascade(1, **OVR))
        assert assemble_witnesses(trace, fam).status == STATUS_OK
        # Re-point one order-1 witness at the full set: still a member and
        # still injective, but now above the order-0 witness, not below it.
        last = trace.steps[-1]
        X = last.A & ~last.B
        x = next(x for x in last.stratum_witness if x & ~X == 0)
        witness = dict(last.stratum_witness)
        witness[x] = fam.full_mask
        broken = dataclasses.replace(
            trace,
            steps=trace.steps[:-1] + (dataclasses.replace(last, stratum_witness=witness),),
        )
        with pytest.raises(CertificationError, match="order mismatch"):
            assemble_witnesses(broken, fam)

    def test_anti_branch_assembles_and_rejects_mismatch(self):
        # Families of sets of size >= n/2 often complete on the anti
        # branch, whose witnesses must be ordered by inclusion.
        rng = random.Random(0)
        for _ in range(20):
            fam = SetFamily(14, [
                f for f in range(1 << 14)
                if 2 * bin(f).count("1") >= 14 and rng.random() < 0.9
            ])
            trace = build_sequences(fam, 1, override_cascade(1, **OVR))
            if trace.status == STATUS_OK and trace.branch == CASE_ANTI:
                break
        else:
            pytest.fail("no anti-branch completion in 20 draws")
        asm = assemble_witnesses(trace, fam)
        assert asm.status == STATUS_OK and asm.branch == CASE_ANTI
        witnesses = set(asm.psi.values())
        assert bin(asm.X).count("1") == 3 and len(witnesses) == 4
        # Re-point one order-1 witness at a member that does not contain
        # the order-0 witness: the inclusion x0 < x is no longer mirrored.
        last = trace.steps[-1]
        x = next(x for x in last.stratum_witness if x & ~asm.X == 0)
        w0 = asm.psi[0]
        witness = dict(last.stratum_witness)
        witness[x] = next(f for f in fam.members if w0 & ~f and f not in witnesses)
        broken = dataclasses.replace(
            trace,
            steps=trace.steps[:-1] + (dataclasses.replace(last, stratum_witness=witness),),
        )
        with pytest.raises(CertificationError, match="order mismatch"):
            assemble_witnesses(broken, fam)

    def test_empty_family_stops_immediately(self):
        # n = 8 is the least ground on which a 1-element run takes a step.
        trace = build_sequences(SetFamily(8, []), 1, override_cascade(1, **OVR))
        assert trace.status == STATUS_NO_MASS and trace.t == -1

    def test_gap_not_halved_raises(self, monkeypatch):
        # A case worker that keeps the whole gap: the step's boundary is
        # still a member, but the gap it leaves is not the small half.
        monkeypatch.setattr(
            extraction, "_prune_and_centre", lambda pool, universe, *rest: (universe, Fraction(1))
        )
        with pytest.raises(CertificationError, match="step 0: gap not halved"):
            build_sequences(full_power_set(10), 1, override_cascade(1, **OVR))


def layered(n, lo, hi):
    """Every subset of [n] with lo..hi points."""
    return SetFamily(n, [f for f in range(1 << n) if lo <= bin(f).count("1") <= hi])


class TestUpFrontStop:
    """An override run stops before its first step when no completed
    branch can leave the 2m points in X that the strata need."""

    def test_bound_holds_and_stop_fires_exactly_below_it(self):
        rng = random.Random(2026)
        completed = 0
        for n in range(1, 11):
            for m in (1, 2):
                bound = n >> (m + 1)
                for _ in range(4):
                    fam = random_family(rng, n, density=rng.uniform(0.85, 1.0))
                    trace = build_sequences(fam, m, override_cascade(m, 0, 0))
                    stopped = trace.status == STATUS_SMALL_X and trace.steps == ()
                    assert stopped == (bound < 2 * m)
                    # the gap after step d has at most n >> (d+1) points
                    for s in trace.steps:
                        assert bin(s.A & ~s.B).count("1") <= n >> (s.index + 1)
                    if trace.branch is not None:
                        completed += 1
                        last = trace.steps[-1]
                        assert bin(last.A & ~last.B).count("1") <= bound
        assert completed > 0

    def test_grounds_that_can_run(self):
        """Within 64 points only 1-element patterns at n >= 8 and
        2-element patterns at n >= 32 take a step; an empty family then
        stops at the first step's mass check."""
        for m in (1, 2, 3, 4):
            cascade = override_cascade(m, 0, 0)
            runs = [
                n for n in range(1, MAX_GROUND + 1)
                if build_sequences(SetFamily(n, []), m, cascade).status != STATUS_SMALL_X
            ]
            assert runs == {1: list(range(8, 65)), 2: list(range(32, 65))}.get(m, [])

    def test_two_element_chain_at_n12(self):
        res = extract_induced_copy(
            full_power_set(12), make_chain(2),
            {"q": Fraction(1, 8), "p": Fraction(1, 8), "eps": Fraction(1, 16)},
            seed=5,
        )
        assert res.status == STATUS_SMALL_X and res.mode == "override"
        assert res.map is None and res.assembly is None and res.embed is None
        trace = res.trace
        assert (trace.status, trace.steps, trace.t, trace.branch) == (STATUS_SMALL_X, (), -1, None)
        assert trace.initial_mass == 13
        assert trace.warnings == (
            "initial mass below the configured threshold",
            "every completed branch has |X| <= n >> (m+1) = 1 < 2m = 4",
        )

    def test_three_element_pattern_on_64_points(self):
        rng = random.Random(64)
        fam = SetFamily(64, {rng.getrandbits(64) | 1 << 63 for _ in range(40)})
        res = extract_induced_copy(fam, make_v(), {"q": 0, "p": 0}, seed=1)
        assert res.status == STATUS_SMALL_X and res.trace.steps == ()
        assert res.trace.warnings[-1] == (
            "every completed branch has |X| <= n >> (m+1) = 4 < 2m = 6"
        )


class TestExtractPipeline:
    def test_trivial_pattern(self):
        res = extract_induced_copy(full_power_set(5), FinitePoset(0, []), seed=0)
        assert res.status == STATUS_OK and res.map == ()

    def test_single_element_end_to_end(self):
        res = extract_induced_copy(full_power_set(10), make_chain(1), OVR, seed=3)
        assert res.status == STATUS_OK
        assert res.mode == "override"
        assert res.map == (31,)
        assert res.embed.mask is not None
        assert res.map[0] in full_power_set(10).member_set

    def test_determinism_per_seed(self):
        a = extract_induced_copy(full_power_set(10), make_chain(1), OVR, seed=17)
        b = extract_induced_copy(full_power_set(10), make_chain(1), OVR, seed=17)
        assert a.status == b.status and a.map == b.map

    def test_paper_mode_reports_insufficient_mass(self):
        # The exact threshold is near 8200; eleven units of mass cannot feed it.
        res = extract_induced_copy(full_power_set(10), make_chain(1), seed=3)
        assert res.status == STATUS_NO_MASS and res.mode == "paper"
        assert res.map is None
        assert float(res.trace.threshold) > float(res.trace.initial_mass)

    def test_override_warns_on_unmet_floors(self):
        res = extract_induced_copy(full_power_set(10), make_chain(1), OVR, seed=3)
        assert any("mass floor" in w for w in res.trace.warnings)
        assert any("threshold" in w for w in res.trace.warnings)

    def test_aggressive_constants_stop_honestly(self):
        # The 3- and 4-sets of [8]: after two steps no member of either
        # half survives the pruning.
        res = extract_induced_copy(
            layered(8, 3, 4), make_chain(1),
            {"q": Fraction(1, 8), "p": Fraction(1, 8), "eps": Fraction(1, 16)},
            seed=5,
        )
        assert res.status == STATUS_AGGRESSIVE
        assert res.map is None and len(res.trace.steps) == 2

    def test_small_final_gap_reported(self):
        # The branch completes, but with one point left in X.
        res = extract_induced_copy(layered(8, 2, 4), make_chain(1), {"q": 0, "p": 0}, seed=1)
        assert res.status == STATUS_SMALL_X and res.trace.branch is not None
        assert res.assembly is not None and res.assembly.status == STATUS_SMALL_X
        assert bin(res.assembly.X).count("1") == 1

    def test_sound_on_random_hosts(self):
        # Dense hosts complete the branch often; sparse ones stop with an
        # honest status.  Either way an emitted map must be real.
        rng = random.Random(515)
        successes = 0
        for _ in range(30):
            n = rng.randint(8, 10)
            fam = random_family(rng, n, density=rng.uniform(0.85, 1.0))
            res = extract_induced_copy(fam, make_chain(1), OVR, seed=rng.randrange(2**30))
            if res.status != STATUS_OK:
                assert res.map is None
                continue
            successes += 1
            (img,) = res.map
            assert img in fam.member_set
            assert verify_embedding_masks(make_chain(1), res.map, "induced")
            assert contains_subposet(family_as_poset(fam), make_chain(1), mode="induced")
        assert successes >= 15
