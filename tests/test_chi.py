"""Sign-data combinatorics: admissibility, census, exact counting."""

import itertools
import random
import tracemalloc
from functools import reduce
from math import factorial
from operator import and_, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitop.errors import PreconditionError, VerificationError
from orbitop.invariants import chi
from orbitop.invariants import (
    ChiData,
    chi_admissible,
    chi_count_brute_force,
    chi_family_census,
    chi_total_count,
    code_admissible,
)


def all_plus(n=4):
    row = tuple(tuple(1 for _ in range(n)) for _ in range(n))
    return ChiData(chi1=row, chi2=row, chi3=row)


def test_all_plus_admissible():
    assert chi_admissible(all_plus())


def test_two_minus_in_one_triple_inadmissible():
    base = [[1] * 4 for _ in range(4)]
    chi1 = [row[:] for row in base]
    chi2 = [row[:] for row in base]
    chi1[0][0] = -1  # chi1[j=0,k=0]
    chi2[0][0] = -1  # chi2[i=0,k=0] -> triple (0,0,0) has exactly two
    data = ChiData(
        chi1=tuple(map(tuple, chi1)),
        chi2=tuple(map(tuple, chi2)),
        chi3=tuple(map(tuple, base)),
    )
    assert not chi_admissible(data)


def test_single_minus_admissible():
    base = [[1] * 4 for _ in range(4)]
    chi1 = [row[:] for row in base]
    chi1[1][2] = -1
    data = ChiData(
        chi1=tuple(map(tuple, chi1)),
        chi2=tuple(map(tuple, base)),
        chi3=tuple(map(tuple, base)),
    )
    assert chi_admissible(data)


def test_product_family_always_admissible():
    rng = random.Random(11)
    for _ in range(50):
        delta = [rng.choice([1, -1]) for _ in range(4)]
        eps = [rng.choice([1, -1]) for _ in range(4)]
        zeta = [rng.choice([1, -1]) for _ in range(4)]
        chi1 = tuple(tuple(eps[j] * zeta[k] for k in range(4)) for j in range(4))
        chi2 = tuple(tuple(delta[i] * zeta[k] for k in range(4)) for i in range(4))
        chi3 = tuple(tuple(-delta[i] * eps[j] for j in range(4)) for i in range(4))
        data = ChiData(chi1=chi1, chi2=chi2, chi3=chi3)
        assert chi_admissible(data)
        # and the product of the three signs at every point is -1
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert chi1[j][k] * chi2[i][k] * chi3[i][j] == -1


def test_code_roundtrip_and_equivalence():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4])
        code = rng.getrandbits(3 * n * n)
        data = ChiData.decode(code, n)
        assert data.encode() == code
        assert chi_admissible(data) == code_admissible(code, n)


def test_census_counts():
    census = chi_family_census(4)
    assert census.family1_count == 2048
    assert census.axis_family_count == 65536
    assert census.union_count == 198651
    assert census.union_count == 2048 + 3 * 65536 - 6 + 1


def test_census_members_admissible_sample():
    census = chi_family_census(4)
    rng = random.Random(5)
    members = sorted(census.members)
    for code in rng.sample(members, 500):
        assert chi_admissible(ChiData.decode(code, 4))


def test_total_count_small_grids():
    assert chi_total_count(1) == 5
    assert chi_total_count(2) == chi_count_brute_force(2)


def test_total_count_n3_consistent():
    # the two internal algorithms agree (checked inside) on the pinned value
    assert chi_total_count(3) == 21119
    census = chi_family_census(3)
    assert (census.family1_count, census.axis_family_count) == (256, 512)
    assert census.union_count == 1787


def test_total_count_n4_bounds():
    census = chi_family_census(4)
    total = chi_total_count(4)
    assert total >= census.union_count


def test_total_count_rejects_large_grid():
    with pytest.raises(PreconditionError):
        chi_total_count(5)


def test_brute_force_n1_patterns():
    # 8 sign patterns on one triple: all-plus, three singles, the triple
    assert chi_count_brute_force(1) == 5


# --- The lane check ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_code_admissible_matches_rule_exhaustively(n):
    for code in range(1 << (3 * n * n)):
        assert code_admissible(code, n) == chi_admissible(ChiData.decode(code, n))


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_code_admissible_matches_rule(n, data):
    code = data.draw(st.integers(0, (1 << (3 * n * n)) - 1))
    assert code_admissible(code, n) == chi_admissible(ChiData.decode(code, n))


def _two_minus_code(n):
    """chi1[0,0] = chi2[0,0] = -1, all else +1: two -1 signs at (0,0,0)."""
    return 1 | 1 << (n * n)


# The census check packs 4096 codes per int; 4095 and 4096 sit on both
# sides of the first chunk boundary.
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lane_check_catches_injected_member(n):
    members = sorted(chi_family_census(n).members)
    members *= -(-3 * 4096 // len(members))  # at least three chunks
    bad = _two_minus_code(n)
    assert bad not in members and not code_admissible(bad, n)
    chi._check_admissible(members, n)
    for pos in (0, 4095, 4096, 5000, len(members)):
        codes = members[:pos] + [bad] + members[pos:]
        with pytest.raises(VerificationError, match=f"{bad:#x}"):
            chi._check_admissible(codes, n)


@pytest.mark.parametrize("n", [1, 4])
def test_census_rejects_inadmissible_member(n, monkeypatch):
    family = chi._product_family
    monkeypatch.setattr(
        chi, "_product_family", lambda n: family(n) | {_two_minus_code(n)}
    )
    with pytest.raises(VerificationError, match="inadmissible"):
        chi_family_census(n)


def test_census_rejects_inclusion_exclusion_mismatch(monkeypatch):
    monkeypatch.setattr(chi, "_inclusion_exclusion", lambda sets: -1)
    with pytest.raises(VerificationError, match="inclusion-exclusion"):
        chi_family_census(2)


# --- The streamed census against the set-based one ---------------------------


def _reference_census(n):
    """The census as first written: the axis families as sets, the union as
    a frozenset, inclusion-exclusion over set intersections."""
    nn = n * n
    family1 = chi._product_family(n)
    axis = [set(range(0, 1 << (b + nn), 1 << b)) for b in (0, nn, 2 * nn)]
    sets = [family1, *axis]
    union = frozenset().union(*sets)
    assert len(union) == sum(
        (-1) ** (r + 1) * len(reduce(and_, combo))
        for r in range(1, len(sets) + 1)
        for combo in itertools.combinations(sets, r)
    )
    return len(family1), len(axis[0]), union


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_matches_set_based_reference(n):
    census = chi_family_census(n)
    family1_count, axis_count, union = _reference_census(n)
    assert census.members == union
    assert census.family1_count == family1_count
    assert census.axis_family_count == axis_count
    assert census.union_count == len(union)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_lane_check_sees_every_member(n, monkeypatch):
    seen = []
    check = chi._check_admissible

    def counting(codes, n):
        check((seen.append(code) or code for code in codes), n)

    monkeypatch.setattr(chi, "_check_admissible", counting)
    census = chi_family_census(n)
    assert len(seen) == census.union_count
    assert set(seen) == census.members


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_ignores_product_members_inside_an_axis_family(n, monkeypatch):
    plain = chi_family_census(n)
    family = chi._product_family
    monkeypatch.setattr(
        chi, "_product_family", lambda n: family(n) | {0, 1, 1 << (n * n)}
    )
    census = chi_family_census(n)  # inclusion-exclusion still agrees
    assert census.union_count == plain.union_count
    assert census.members == plain.members


def test_census_never_holds_the_union():
    """The set-based census peaked at 24 MB for n = 4; the stream holds one
    4096-code chunk at a time."""
    chi._spread_table.cache_clear()  # a cold start, caches included
    chi._lane_masks.cache_clear()
    tracemalloc.start()
    try:
        chi_family_census(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


# --- The two counts against their first loops ---------------------------------


def _reference_chi1_sweep(n):
    """The chi1 sweep as first written: one prefix vector per chi1 prefix."""
    size = 1 << n
    c = [[(0 if r & u else 1) + (r == u) for u in range(size)] for r in range(size)]
    prefixes = [[1] * size]
    for _ in range(n - 1):
        prefixes = [list(map(mul, p, cr)) for p in prefixes for cr in c]
    return sum(sum(map(mul, p, cr)) ** n for p in prefixes for cr in c)


def _reference_column_transfer(n):
    """The column transfer as first written: every column product of every
    multiset recomputed from scratch."""
    size = 1 << n
    f = [[chi._cell_choices(u, v) for v in range(size)] for u in range(size)]
    total = 0
    for multiset in itertools.combinations_with_replacement(range(size), n):
        arrangements = factorial(n)
        for u in set(multiset):
            arrangements //= factorial(multiset.count(u))
        inner = 0
        for v in range(size):
            product = 1
            for u in multiset:
                product *= f[u][v]
            inner += product
        total += arrangements * inner**n
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counts_match_their_reference_loops(n):
    assert chi._count_by_chi1_sweep(n) == _reference_chi1_sweep(n)
    assert chi._count_by_column_transfer(n) == _reference_column_transfer(n)


def test_count_rejects_disagreeing_algorithms(monkeypatch):
    monkeypatch.setattr(chi, "_count_by_column_transfer", lambda n: 0)
    with pytest.raises(VerificationError, match="disagree"):
        chi_total_count(3)


def test_count_rejects_brute_force_mismatch(monkeypatch):
    monkeypatch.setattr(chi, "chi_count_brute_force", lambda n: 0)
    with pytest.raises(VerificationError, match="brute force"):
        chi_total_count(2)
