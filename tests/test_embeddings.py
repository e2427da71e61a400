import itertools
import random
from fractions import Fraction

import pytest

from cubefam import embeddings
from cubefam.errors import CertificationError, PreconditionError, SearchBudgetExceeded
from cubefam.families import SetFamily, full_power_set
from cubefam.posets import (
    contains_subposet,
    enumerate_posets,
    family_as_poset,
    make_chain,
    make_v,
    verify_embedding_masks,
)
from cubefam.embeddings import (
    CubeEmbedResult,
    DenseTruncatedFamily,
    dense_class_check,
    downset_embedding,
    find_pattern_via_universality,
    randomized_cube_embed,
    universality_epsilon,
)

from conftest import random_family, random_poset


def _layer_masks(n, k):
    return [
        sum(1 << e for e in c) for c in itertools.combinations(range(n), k)
    ]


def test_universality_epsilon_values():
    assert universality_epsilon(1) == Fraction(1, 4)    # (2m)^(m+1) = 2^2
    assert universality_epsilon(2) == Fraction(1, 64)   # 4^3
    assert universality_epsilon(3) == Fraction(1, 6 ** 4)
    with pytest.raises(PreconditionError):
        universality_epsilon(0)


def test_downset_embedding_small_posets_verified():
    """Nonempty down-sets of the element order give an induced copy in
    the cube on exactly k coordinates."""
    for k in range(1, 5):
        for p in enumerate_posets(k):
            emb = downset_embedding(p)
            assert all(img < 1 << p.k for img in emb)
            assert verify_embedding_masks(p, emb, "induced")
            # image x always carries its own coordinate
            for x in range(p.k):
                assert emb[x] & (1 << x)


def test_dense_class_check_layer_thresholds():
    n, m = 8, 2
    eps = Fraction(1, 64)
    layers = {k: _layer_masks(n, k) for k in range(m + 1)}
    present = set(layers[0]) | set(layers[1]) | set(layers[2])
    assert dense_class_check(DenseTruncatedFamily(n, m, frozenset(present)), eps)
    # dropping one 2-set is already too much at eps = 1/64 (28 * 1/64 < 1)
    present.discard(layers[2][0])
    assert not dense_class_check(
        DenseTruncatedFamily(n, m, frozenset(present)), eps
    )


def test_randomized_cube_embed_on_full_truncation():
    n, m = 12, 2
    present = frozenset(
        mask for k in range(m + 1) for mask in _layer_masks(n, k)
    )
    dtf = DenseTruncatedFamily(n, m, present)
    res = randomized_cube_embed(dtf, seed=31337, max_attempts=50)
    assert res.mask is not None
    assert res.mask.bit_count() == m
    # certified: every subset of the located cube is present
    for r in range(m + 1):
        for sub in itertools.combinations(
            [i for i in range(n) if res.mask >> i & 1], r
        ):
            assert sum(1 << e for e in sub) in present


def test_randomized_cube_embed_deterministic_per_seed():
    n, m = 10, 2
    present = frozenset(
        mask for k in range(m + 1) for mask in _layer_masks(n, k)
    )
    dtf = DenseTruncatedFamily(n, m, present)
    a = randomized_cube_embed(dtf, seed=99, max_attempts=20)
    b = randomized_cube_embed(dtf, seed=99, max_attempts=20)
    assert (a.mask, a.attempts_used) == (b.mask, b.attempts_used)


def test_find_pattern_agrees_with_oracle():
    """Composed universality route vs direct backtracking, small scale."""
    rng = random.Random(60601)
    for _ in range(40):
        n = rng.randint(2, 7)
        fam = random_family(rng, n, 0.35)
        pattern = random_poset(rng, rng.randint(1, 3))
        emb = find_pattern_via_universality(fam, pattern, seed=rng.randrange(2**32))
        oracle = contains_subposet(family_as_poset(fam), pattern, "induced")
        assert (emb is None) == (oracle is None)
        if emb is not None:
            assert verify_embedding_masks(pattern, emb, "induced")
            assert all(img in fam.member_set for img in emb)


def test_find_pattern_uses_dense_route_on_power_set():
    fam = full_power_set(8)
    stats = {}
    emb = find_pattern_via_universality(fam, make_v(), seed=4, stats=stats)
    assert emb is not None
    assert verify_embedding_masks(make_v(), emb, "induced")
    assert stats["attempts_used"] >= 1    # randomized stage actually ran


def test_find_pattern_cosmall_route():
    """A family dense only near the top forces the complement route."""
    n = 9
    members = [
        m for m in range(1 << n) if m.bit_count() >= n - 3
    ]
    fam = SetFamily(n, members)
    emb = find_pattern_via_universality(fam, make_v(), seed=12)
    assert emb is not None
    assert verify_embedding_masks(make_v(), emb, "induced")
    assert all(img in fam.member_set for img in emb)


def test_find_chain_in_sparse_family_direct_route():
    # too sparse for the randomized route: falls back to the oracle
    fam = SetFamily(6, [0b000001, 0b000011, 0b000111, 0b101010])
    emb = find_pattern_via_universality(fam, make_chain(3), seed=5)
    assert emb is not None
    assert verify_embedding_masks(make_chain(3), emb, "induced")


def test_empty_pattern_embeds_trivially():
    from cubefam.posets import FinitePoset

    fam = SetFamily(3, [0b001])
    emb = find_pattern_via_universality(fam, FinitePoset(0), seed=0)
    assert emb is not None and emb == ()


def test_pattern_search_budget_stop_is_not_absent():
    """All 5- and 6-subsets of [10]: no dense route, so the pattern search."""
    fam = SetFamily(10, _layer_masks(10, 5) + _layer_masks(10, 6))
    with pytest.raises(SearchBudgetExceeded):
        find_pattern_via_universality(fam, make_v(), seed=1, node_budget=10)
    # 10 nodes stop the pattern search; 100 are enough for it to find V.
    for budget in (100, None):
        emb = find_pattern_via_universality(fam, make_v(), seed=1, node_budget=budget)
        assert emb is not None
        assert verify_embedding_masks(make_v(), emb, "induced")


class TestCertificatesFire:
    """Each certification check of this module, fed a corrupt input by the
    step before it, raises with its own message."""

    def test_downset_map_of_a_corrupt_order(self):
        from cubefam.posets import _from_rows

        chain = _from_rows((0b10, 0), (0, 0))   # 0 < 1, but the down-set rows lose it
        with pytest.raises(CertificationError,
                           match=r"^down-set map failed the induced check$"):
            downset_embedding(chain)

    def test_cube_copy_with_a_missing_subset(self, monkeypatch):
        # {0} is missing, and one missing singleton of four is dense at m = 1
        fam = DenseTruncatedFamily(4, 1, frozenset({0, 0b10, 0b100, 0b1000}))
        assert randomized_cube_embed(fam, seed=0, max_attempts=1).mask == 0b10
        real, calls = embeddings.submasks_of_size, []

        def blind_filter(mask, size):
            """The first attempt's m + 1 filter calls find nothing missing."""
            calls.append(size)
            return real(mask, size) if len(calls) > 2 else ()

        monkeypatch.setattr(embeddings, "submasks_of_size", blind_filter)
        with pytest.raises(CertificationError,
                           match=r"^cube certificate broken: 0x1 missing from family$"):
            randomized_cube_embed(fam, seed=0, max_attempts=1)

    def test_composed_image_outside_the_host(self, monkeypatch):
        # every set of at most 2 points of [12] but {1, 2}: dense at 1/64
        fam = SetFamily(12, [m for m in range(1 << 12) if m.bit_count() <= 2 and m != 0b11])
        assert find_pattern_via_universality(fam, make_chain(2), seed=0) is not None
        monkeypatch.setattr(embeddings, "randomized_cube_embed",
                            lambda dtf, seed, attempts: CubeEmbedResult(0b11, 1))
        with pytest.raises(CertificationError, match=r"^composed image left the host family$"):
            find_pattern_via_universality(fam, make_chain(2), seed=0)

    def test_composed_map_not_induced(self, monkeypatch):
        monkeypatch.setattr(embeddings, "downset_embedding", lambda p: (1,) * p.k)
        with pytest.raises(CertificationError,
                           match=r"^composed map failed the induced check$"):
            find_pattern_via_universality(full_power_set(8), make_v(), seed=4)
