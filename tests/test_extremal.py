"""Exact pattern-avoidance optima and the symmetric chain machinery."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from cubefam import (
    CertificationError,
    FinitePoset,
    PreconditionError,
    contains_subposet,
    extremal_search,
    family_as_poset,
    lubell_mass,
    make_chain,
    make_cube,
    make_v,
    middle_layers_number,
)
from cubefam import extremal
from cubefam.cli import main
from cubefam.extremal import (
    _Feasibility,
    _Search,
    chain_mass_bound_check,
    middle_layer_order,
    symmetric_chain_decomposition,
)
from cubefam.posets import AnchoredSearch, enumerate_posets

from conftest import reference_chain_ids, reference_feasible
from small_optima import free_families, load as load_table


class TestSymmetricChains:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_partitions_whole_lattice(self, n):
        chain_of = symmetric_chain_decomposition(n)
        assert len(chain_of) == 1 << n
        chains = {}
        for mask, cid in chain_of.items():
            chains.setdefault(cid, []).append(mask)
        assert len(chains) == math.comb(n, n // 2)
        for members in chains.values():
            members.sort(key=int.bit_count)
            lo, hi = members[0].bit_count(), members[-1].bit_count()
            assert lo + hi == n                   # symmetric around the middle
            assert len(members) == hi - lo + 1
            for a, b in zip(members, members[1:]):
                assert a & ~b == 0 and b.bit_count() == a.bit_count() + 1

    def test_chain_id_is_a_member(self, n=6):
        chain_of = symmetric_chain_decomposition(n)
        for mask, cid in chain_of.items():
            assert chain_of[cid] == cid


class TestKnownOptima:
    @pytest.mark.parametrize("n,value", [(1, 1), (2, 2), (3, 3), (4, 6), (5, 10)])
    def test_antichain_numbers(self, n, value):
        r = extremal_search(n, make_chain(2), "weak", "cardinality")
        assert r.value == value == math.comb(n, n // 2)
        assert r.exact

    @pytest.mark.parametrize("n,value", [(2, 3), (3, 6), (4, 10), (5, 20)])
    def test_two_antichain_numbers(self, n, value):
        # Largest families with no 3-chain: the two fattest layers.
        r = extremal_search(n, make_chain(3), "weak", "cardinality")
        assert r.value == value
        sizes = sorted(math.comb(n, k) for k in range(n + 1))
        assert value == sizes[-1] + sizes[-2]

    def test_mass_optima_match_chain_bound(self):
        assert extremal_search(5, make_chain(2), "weak", "lubell").value == 1
        assert extremal_search(5, make_chain(3), "weak", "lubell").value == 2

    def test_v_pattern_mass(self):
        r = extremal_search(5, make_v(), "weak", "lubell")
        assert r.value == 2 and r.exact

    def test_v_pattern_induced_count(self):
        r = extremal_search(4, make_v(), "induced", "cardinality")
        assert r.value == 8

    def test_weak_is_at_most_induced(self):
        for n in (3, 4):
            weak = extremal_search(n, make_v(), "weak", "cardinality").value
            induced = extremal_search(n, make_v(), "induced", "cardinality").value
            assert weak <= induced


class TestWitnessFamilies:
    @pytest.mark.parametrize(
        "n,pattern,mode,objective",
        [
            (4, make_chain(2), "weak", "cardinality"),
            (4, make_chain(3), "weak", "lubell"),
            (4, make_v(), "weak", "cardinality"),
            (3, make_v(), "induced", "cardinality"),
        ],
        ids=["sperner", "mass3", "v-weak", "v-induced"],
    )
    def test_witness_is_free_and_scores_its_value(self, n, pattern, mode, objective):
        r = extremal_search(n, pattern, mode, objective)
        fam = r.family
        if objective == "lubell":
            assert lubell_mass(fam) == r.value
        else:
            assert len(fam) == r.value
        if len(fam):
            host = family_as_poset(fam)
            assert contains_subposet(host, pattern, mode) is None


class TestSearchControls:
    def test_budget_degrades_to_lower_bound(self):
        full = extremal_search(5, make_chain(2), "weak", "cardinality")
        cut = extremal_search(5, make_chain(2), "weak", "cardinality", budget=5)
        assert not cut.exact
        assert cut.value <= full.value
        assert cut.nodes <= 2 * 5  # a final node may land past the budget line

    def test_generous_budget_stays_exact(self):
        r = extremal_search(4, make_chain(2), "weak", "cardinality", budget=10**6)
        assert r.exact and r.value == 6

    def test_large_ground_is_exact(self):
        r = extremal_search(9, make_chain(2), "weak", "cardinality")
        assert r.exact
        assert r.value == math.comb(9, 4)

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            extremal_search(3, make_chain(2), mode="strict")
        with pytest.raises(PreconditionError):
            extremal_search(3, make_chain(2), objective="area")

    def test_ground_cap(self):
        # Every candidate mask is listed before the budget applies, so the
        # ground is capped; at the cap a small budget still stops quickly.
        r = extremal_search(extremal._EXTREMAL_CAP, make_chain(2), budget=10)
        assert not r.exact and r.n == 16
        for n in (-1, extremal._EXTREMAL_CAP + 1, 70):
            with pytest.raises(PreconditionError, match=r"\[0, 16\]"):
                extremal_search(n, make_chain(2), budget=10)

    def test_result_metadata(self):
        r = extremal_search(3, make_chain(2))
        assert r.n == 3
        assert r.nodes > 0 and r.wall_time >= 0


class TestMiddleLayers:
    def test_layer_order_middle_out(self):
        assert middle_layer_order(4) == [2, 1, 3, 0, 4]
        assert middle_layer_order(5) == [2, 3, 1, 4, 0, 5]

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (4, 6), (5, 4)])
    def test_chains_hit_closed_form(self, k, n):
        assert middle_layers_number(make_chain(k), n) == min(k - 1, n + 1)

    def test_small_ground_clamps(self):
        assert middle_layers_number(make_chain(4), 2) == 3

    def test_non_chain_patterns(self):
        assert middle_layers_number(make_v(), 6) == 1
        assert middle_layers_number(make_cube(2), 6) == 2

    def test_degenerate_inputs(self):
        assert middle_layers_number(FinitePoset(0, []), 6) == 0
        assert middle_layers_number(make_chain(2), 0) == 1

    def test_no_band_hosts_the_pattern(self):
        # P[1] is a 2-chain, too small for V's three elements
        assert middle_layers_number(make_v(), 1) == 2


class TestChainMassCheck:
    def test_small_instances_confirm(self):
        for n, k in [(4, 2), (5, 2), (5, 3)]:
            out = chain_mass_bound_check(n, k)
            assert out["ok"] and out["maximum"] == min(k - 1, n + 1)
            assert out["middle_layers_achieve"]

    def test_refuses_large_instances(self):
        with pytest.raises(PreconditionError):
            chain_mass_bound_check(7, 2)
        with pytest.raises(PreconditionError):
            chain_mass_bound_check(5, 0)


class TestCertifiersFire:
    """Each check of a returned optimum refuses a result the search got
    wrong: the fault is injected where the search hands its result on."""

    @staticmethod
    def faulty_run(monkeypatch, fault):
        """``_Search.run`` hands its (best, members, nodes, wall, exact) through ``fault``."""
        run = _Search.run
        monkeypatch.setattr(_Search, "run", lambda self: fault(*run(self)))

    def test_family_holding_the_pattern_is_refused(self, monkeypatch):
        """{} below {0} is a 2-chain."""
        self.faulty_run(monkeypatch, lambda best, members, *rest: (2, [0, 1], *rest))
        with pytest.raises(
            CertificationError, match=r"^search returned a family containing the pattern$"
        ):
            extremal_search(1, make_chain(2))

    def test_cardinality_off_its_family_is_refused(self, monkeypatch, capsys):
        self.faulty_run(monkeypatch, lambda best, *rest: (best + 1, *rest))
        with pytest.raises(
            CertificationError, match=r"^optimum does not match its certificate family$"
        ):
            extremal_search(3, make_chain(2))
        assert main(["extremal", "--n", "3", "--pattern", "builtin:P2"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "certification failure: optimum does not match its certificate family\n"

    def test_mass_off_its_family_is_refused(self, monkeypatch):
        """The Lubell objective keeps ``best`` in integer units of 1/scale."""
        self.faulty_run(monkeypatch, lambda best, *rest: (best + 1, *rest))
        with pytest.raises(
            CertificationError, match=r"^optimum does not match its certificate family$"
        ):
            extremal_search(3, make_chain(2), "weak", "lubell")

    def test_chain_mass_off_k_minus_1_is_refused(self, monkeypatch):
        search = extremal.extremal_search

        def off_by_one(*args):
            result = search(*args)
            return dataclasses.replace(result, value=result.value + 1)

        monkeypatch.setattr(extremal, "extremal_search", off_by_one)
        with pytest.raises(
            CertificationError, match=r"^mass optimum 2 differs from the expected 1$"
        ):
            chain_mass_bound_check(4, 2)


def reference_cells(n: int, members: list) -> list:
    """The cells of two or more points: points grouped by the members
    that hold them, each cell in increasing order."""
    groups: dict = {}
    for p in range(n):
        groups.setdefault(tuple(m >> p & 1 for m in members), []).append(p)
    return [points for points in groups.values() if len(points) >= 2]


def passes_orbit_rule(x: int, cells: list) -> bool:
    """In every cell, x's points are that cell's lowest points."""
    for points in cells:
        inside = [p for p in points if x >> p & 1]
        if inside != points[:len(inside)]:
            return False
    return True


class TestOrbitRule:
    @staticmethod
    def lex_least(n: int, family: list, order: list) -> list:
        """The relabeling of ``family`` whose sorted search positions are
        lexicographically least, as members in search order."""
        position = {m: i for i, m in enumerate(order)}
        best = None
        for perm in itertools.permutations(range(n)):
            image = sorted(
                position[sum(1 << perm[p] for p in range(n) if x >> p & 1)] for x in family
            )
            if best is None or image < best:
                best = image
        return [order[i] for i in best]

    def check_lemma(self, n: int, family: list) -> None:
        order = _Search(n, make_chain(2), "weak", "cardinality", None).cands
        members = self.lex_least(n, family, order)
        for j, x in enumerate(members):
            assert passes_orbit_rule(x, reference_cells(n, members[:j])), (family, members, j)

    @pytest.mark.parametrize("n", range(4))
    def test_lex_least_relabeling_passes_every_family(self, n):
        for bits in range(1 << (1 << n)):
            self.check_lemma(n, [x for x in range(1 << n) if bits >> x & 1])

    @pytest.mark.parametrize("n,families", [(4, 300), (5, 60)])
    def test_lex_least_relabeling_passes_random_families(self, n, families):
        rng = random.Random(f"lex-least-{n}")
        for _ in range(families):
            density = rng.random()
            self.check_lemma(n, [x for x in range(1 << n) if rng.random() < density])

    @pytest.mark.parametrize("name,mode", [("P3", "weak"), ("V2", "induced"), ("Q2", "weak")])
    def test_cells_and_rule_match_reference(self, name, mode):
        """Random takes and undos: the cell stack is the partition by
        membership, and ``_may_take`` is the rule, the chain cap and
        the rebuilt-host oracle."""
        pattern = ORACLE_PATTERNS[name]
        rng = random.Random(f"cells-{name}-{mode}")
        for n in (3, 5):
            search = _Search(n, pattern, mode, "cardinality", None)
            taken: list = []
            for _ in range(300):
                i = len(taken)
                if taken and (i == len(search.cands) or rng.random() < 0.3):
                    search._decide(i - 1, taken.pop(), -1)
                    continue
                members = list(search.feas.masks)
                cells = reference_cells(n, members)
                assert sorted(search.cells[-1]) == sorted(sum(1 << p for p in c) for c in cells)
                x, c = search.cands[i], search.chain_ids[i]
                take = search._may_take(i)
                assert take == (
                    passes_orbit_rule(x, cells)
                    and search.chosen_n[c] < search.cap[c]
                    and reference_feasible(members, x, pattern, mode)
                ), (members, x)
                take = take and rng.random() < 0.8
                search._decide(i, take, 1)
                taken.append(take)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_chain_searches_stop_at_the_root_bound(self, k):
        """The k - 1 largest layers meet the chain bound and come first in
        search order, so a chain search stops after one node per member."""
        for n in range(11):
            r = extremal_search(n, make_chain(k))
            assert (r.nodes, r.exact) == (r.value, True), n


class TestChainIds:
    @pytest.mark.parametrize("n", range(13))
    def test_recurrence_matches_bracket_loop(self, n):
        assert symmetric_chain_decomposition(n) == reference_chain_ids(n)


FIVE = FinitePoset(5, [(0, 2), (1, 2), (1, 3), (2, 4)], close=True)
ORACLE_PATTERNS = {
    "P2": make_chain(2),
    "P3": make_chain(3),
    "P4": make_chain(4),
    "V2": make_v(),
    "D2": make_v().dual(),
    "Q2": make_cube(2),
    "N+top": FIVE,
}


def ids_before(rows: list) -> list:
    """Test ids from every column but the last: the pinned rows name each
    query with its count before the orbit rule, and pin the count after it."""
    return ["-".join(map(str, row[:-1])) for row in rows]


SEARCH_COUNTS = [
    (4, "V2", "weak", 282, 150),
    (4, "V2", "induced", 547, 281),
    (4, "D2", "weak", 369, 199),
    (4, "D2", "induced", 498, 242),
    (4, "Q2", "weak", 568, 340),
    (4, "Q2", "induced", 1299, 720),
    (5, "V2", "weak", 553, 553),
    (5, "V2", "induced", 648, 648),
    (5, "D2", "weak", 545, 545),
    (5, "D2", "induced", 517, 517),
    (5, "Q2", "weak", 295, 295),
    (5, "Q2", "induced", 318, 318),
]


class TestIncrementalOracle:
    @pytest.mark.parametrize("mode", ["weak", "induced"])
    @pytest.mark.parametrize("name", ORACLE_PATTERNS)
    def test_agrees_with_rebuilt_host(self, name, mode):
        """Random push/pop sequences: every answer equals the rebuilt-host search's."""
        pattern = ORACLE_PATTERNS[name]
        rng = random.Random(f"{name}-{mode}")
        for _ in range(4):
            n = rng.randint(1, 6)
            feas = _Feasibility(n, pattern, mode)
            members: list = []
            for _ in range(40):
                if members and rng.random() < 0.3:
                    feas.pop(members.pop())
                    continue
                outside = [x for x in range(1 << n) if x not in members]
                for x in rng.sample(outside, min(4, len(outside))):
                    ok = feas.ok(x)
                    assert ok == reference_feasible(members, x, pattern, mode), (members, x)
                    if ok and rng.random() < 0.6:
                        feas.push(x)
                        members.append(x)
                        break

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    @pytest.mark.parametrize("name", ORACLE_PATTERNS)
    def test_probe_leaves_state_unchanged(self, name, mode):
        """``ok`` appends and pops the candidate's rows and touches no member row."""
        pattern = ORACLE_PATTERNS[name]
        rng = random.Random(f"probe-{name}-{mode}")

        def snapshot(feas):
            apart = None if feas.apart is None else list(feas.apart)
            return list(feas.masks), list(feas.cols), list(feas.above), list(feas.below), apart

        for _ in range(4):
            n = rng.randint(1, 6)
            feas = _Feasibility(n, pattern, mode)
            members: list = []
            for _ in range(40):
                if members and rng.random() < 0.3:
                    feas.pop(members.pop())
                    continue
                outside = [x for x in range(1 << n) if x not in members]
                for x in rng.sample(outside, min(4, len(outside))):
                    before = snapshot(feas)
                    ok = feas.ok(x)
                    assert snapshot(feas) == before, (members, x)
                    if ok and rng.random() < 0.6:
                        feas.push(x)
                        members.append(x)
                        break

    def test_oracle_copies_are_certified(self, monkeypatch, capsys):
        """A copy that fails the pairwise check against the masks is refused."""
        found = AnchoredSearch.copy_through

        def reversed_copy(self, anchor):
            image = found(self, anchor)
            return None if image is None else image[::-1]

        monkeypatch.setattr(AnchoredSearch, "copy_through", reversed_copy)
        with pytest.raises(CertificationError):
            extremal_search(4, ORACLE_PATTERNS["Q2"], "induced")
        argv = ["extremal", "--n", "4", "--pattern", "builtin:Q2", "--mode", "induced"]
        assert main(argv) == 5
        capsys.readouterr()

    @staticmethod
    def count_searches(monkeypatch) -> list:
        """Count ``AnchoredSearch.copy_through`` calls in ``calls[0]``."""
        calls = [0]
        found = AnchoredSearch.copy_through

        def counted(self, anchor):
            calls[0] += 1
            return found(self, anchor)

        monkeypatch.setattr(AnchoredSearch, "copy_through", counted)
        return calls

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_stored_copy_is_reused_while_chosen(self, mode, monkeypatch):
        """The empty set below {0} and {1} is a V, weak and induced: {1}
        is rejected by a search, searched again once {0} is popped, and
        rejected with no search once {0} is back."""
        pattern = make_v()
        calls = self.count_searches(monkeypatch)
        feas = _Feasibility(2, pattern, mode)
        feas.push(0b00)
        feas.push(0b01)
        assert not feas.ok(0b10) and calls[0] == 1
        assert feas.copies == {0b10: (0b00, 0b01)}
        feas.pop(0b01)
        assert reference_feasible([0b00], 0b10, pattern, mode)
        assert feas.ok(0b10) and calls[0] == 2
        feas.push(0b01)
        assert not feas.ok(0b10) and calls[0] == 2
        assert not reference_feasible([0b00, 0b01], 0b10, pattern, mode)

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    @pytest.mark.parametrize("name", ["V2", "D2", "Q2", "N+top"])
    def test_every_earlier_candidate_asked_again(self, name, mode):
        """After each push and pop, every candidate asked before is asked
        again, so stored copies are both reused and outlived; the memo
        keeps one copy per candidate, of k - 1 other masks."""
        pattern = ORACLE_PATTERNS[name]
        rng = random.Random(f"again-{name}-{mode}")
        for _ in range(3):
            n = rng.randint(2, 5)
            feas = _Feasibility(n, pattern, mode)
            members: list = []
            asked: set = set()
            for _ in range(30):
                if members and (rng.random() < 0.3 or len(members) == 1 << n):
                    feas.pop(members.pop())
                else:
                    outside = [x for x in range(1 << n) if x not in members]
                    x = rng.choice(outside)
                    asked.add(x)
                    if feas.ok(x) and rng.random() < 0.6:
                        feas.push(x)
                        members.append(x)
                for x in sorted(asked.difference(members)):
                    ok = feas.ok(x)
                    assert ok == reference_feasible(members, x, pattern, mode), (members, x)
                for x, copy in feas.copies.items():
                    assert len(copy) == pattern.k - 1 and x not in copy
                assert feas.chosen == set(members)

    @pytest.mark.parametrize(
        "n,name,mode,before,searches", SEARCH_COUNTS, ids=ids_before(SEARCH_COUNTS)
    )
    def test_pinned_search_counts(self, n, name, mode, before, searches, monkeypatch):
        """Oracle searches of the benchmark-shaped queries: full runs at
        n = 4, 2000-node budget stops at n = 5.  ``before`` is the count
        without the orbit rule; the budget stops never reach a node the
        rule prunes."""
        calls = self.count_searches(monkeypatch)
        extremal_search(n, ORACLE_PATTERNS[name], mode, budget=2000 if n == 5 else None)
        assert calls[0] == searches

    def test_no_host_rebuilt_per_node(self, monkeypatch):
        calls = []

        def counted(masks):
            calls.append(1)
            return family_as_poset(masks)

        monkeypatch.setattr(extremal, "family_as_poset", counted)
        r = extremal_search(5, make_v(), "induced", budget=2000)
        assert r.nodes == 2001
        assert len(calls) == 1          # the certificate only


class TestChainBound:
    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    @pytest.mark.parametrize("name,mode", [("P3", "weak"), ("Q2", "weak"), ("V2", "induced")])
    def test_delta_bound_matches_recomputed_sum(self, name, mode, objective):
        """After every apply or undo the bound is the chain-by-chain sum."""
        rng = random.Random(f"{name}-{mode}-{objective}")
        for n in (3, 5):
            search = _Search(n, ORACLE_PATTERNS[name], mode, objective, None)
            taken: list = []
            for _ in range(300):
                i = len(taken)
                if taken and (i == len(search.cands) or rng.random() < 0.4):
                    search._decide(i - 1, taken.pop(), -1)
                else:
                    c = search.chain_ids[i]
                    take = search.chosen_n[c] < search.cap[c] and rng.random() < 0.5
                    search._decide(i, take, 1)
                    taken.append(take)
                decided = [0] * len(search.suffix)
                chosen_n = [0] * len(search.suffix)
                chosen_w = [0] * len(search.suffix)
                for j, take in enumerate(taken):
                    c = search.chain_ids[j]
                    decided[c] += 1
                    chosen_n[c] += take
                    chosen_w[c] += take * search.weights[j]
                expected = sum(
                    chosen_w[c] + search.suffix[c][max(decided[c], search.off[c] + chosen_n[c])]
                    for c in range(len(search.suffix))
                )
                assert search.bound == expected, (n, taken)
                assert search.value == sum(chosen_w)
                assert search.decided == decided and search.chosen_n == chosen_n


class TestExhaustiveCrossCheck:
    """The branch and bound against every pattern-free family, n <= 3."""

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_optima_match_exhaustive_search(self, k, mode):
        for pattern in enumerate_posets(k):
            for n in range(4):
                families = free_families(n, pattern, mode)
                size = max(map(len, families))
                mass = max(
                    sum(Fraction(1, math.comb(n, x.bit_count())) for x in f) for f in families
                )
                free = {tuple(f) for f in families}
                for objective, best in (("cardinality", size), ("lubell", mass)):
                    r = extremal_search(n, pattern, mode, objective)
                    assert (r.value, r.exact) == (best, True), (pattern.pairs(), n, objective)
                    assert tuple(r.family) in free


class TestSmallOptimaTable:
    """The branch and bound against the exhaustively derived optima of
    every poset on 1-4 elements, n <= 4 (``small_optima.py``)."""

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_search_matches_table(self, k, mode):
        optima = load_table()
        for pattern in enumerate_posets(k):
            key = pattern.canonical_key()
            for objective, n in itertools.product(("cardinality", "lubell"), range(5)):
                r = extremal_search(n, pattern, mode, objective)
                assert (r.value, r.exact) == (optima[key, mode, objective, n], True), (
                    key, objective, n)


class TestStructuralFacts:
    """Facts the optima of the n <= 4 table must obey whatever their
    values (ROADMAP item 9)."""

    def test_weak_at_most_induced(self):
        """An induced copy is a weak one, so a weakly free family is
        inducedly free."""
        optima = load_table()
        for (key, mode, objective, n), value in optima.items():
            if mode == "weak":
                assert value <= optima[key, "induced", objective, n], (key, objective, n)

    def test_dual_has_equal_optima(self):
        """Complementing every member turns a P-free family into a
        dual-free one of the same size and Lubell mass."""
        optima = load_table()
        for k in range(1, 5):
            for pattern in enumerate_posets(k):
                key, dual = pattern.canonical_key(), pattern.dual().canonical_key()
                for mode, objective, n in itertools.product(
                    ("weak", "induced"), ("cardinality", "lubell"), range(5)
                ):
                    assert optima[key, mode, objective, n] == optima[dual, mode, objective, n]

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_chains_match_erdos(self, mode):
        """Free of a k-chain: at most the k - 1 largest layers (Erdos), and
        Lubell mass at most min(k - 1, n + 1)."""
        optima = load_table()
        for k in range(1, 5):
            key = make_chain(k).canonical_key()
            for n in range(5):
                layers = sorted((math.comb(n, i) for i in range(n + 1)), reverse=True)
                assert optima[key, mode, "cardinality", n] == sum(layers[:k - 1]), (k, n)
                assert optima[key, mode, "lubell", n] == min(k - 1, n + 1), (k, n)


FULL_RUNS_N4 = [
    ("V2", "weak", 7, 660, 367),
    ("V2", "induced", 8, 1271, 635),
    ("D2", "weak", 7, 1040, 597),
    ("D2", "induced", 8, 1524, 779),
    ("Q2", "weak", 10, 1409, 871),
    ("Q2", "induced", 10, 3229, 1803),
]


class TestPinnedResults:
    """(value, nodes, exact) of the benchmark-shaped queries."""

    def test_antichain_n13(self):
        r = extremal_search(13, make_chain(2))
        assert (r.value, r.nodes, r.exact) == (1716, 1716, True)

    @pytest.mark.parametrize(
        "name,mode,value,before,nodes", FULL_RUNS_N4, ids=ids_before(FULL_RUNS_N4)
    )
    def test_full_runs_n4(self, name, mode, value, before, nodes):
        r = extremal_search(4, ORACLE_PATTERNS[name], mode)
        assert (r.value, r.nodes, r.exact) == (value, nodes, True)

    @pytest.mark.parametrize(
        "name,weak,induced", [("V2", 13, 14), ("D2", 12, 12), ("Q2", 20, 20)]
    )
    def test_budget_stops_n5(self, name, weak, induced):
        for mode, value in (("weak", weak), ("induced", induced)):
            r = extremal_search(5, ORACLE_PATTERNS[name], mode, budget=2000)
            assert (r.value, r.nodes, r.exact) == (value, 2001, False)
