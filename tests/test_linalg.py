import math
import random
from itertools import combinations

from oracles import det, quotient_torsion_counts

from toristack.linalg import (
    FiniteAbelianGroup,
    circuit_vectors,
    determinant,
    hermite_normal_form,
    identity_rows,
    integer_kernel,
    invert_unimodular,
    quotient_invariants,
    saturate,
    smith_normal_form,
)

import pytest


def matmul(*factors):
    """Product of matrices given as lists of rows, left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*f)] for row in out]
    return out


def test_hnf_identity():
    h, u = hermite_normal_form(identity_rows(2))
    assert h == identity_rows(2)
    assert u == identity_rows(2)


def test_hnf_spec_example():
    a = [[1, 0], [1, 2]]
    h, u = hermite_normal_form(a)
    assert h == [[1, 0], [0, 2]]
    assert matmul(u, a) == h
    assert abs(determinant(u)) == 1


def test_hnf_zero_matrix():
    a = [[0, 0, 0], [0, 0, 0]]
    h, u = hermite_normal_form(a)
    assert h == a
    assert u == identity_rows(2)


def test_snf_trivial_diag():
    s, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert s == [[1, 0], [0, 1]]


def test_snf_diag_2_3():
    # d_1 = gcd of entries = 1, d_2 = |det| = 6
    a = [[2, 0], [0, 3]]
    s, u, v = smith_normal_form(a)
    assert s == [[1, 0], [0, 6]]
    assert matmul(u, a, v) == s


def test_snf_upper_triangular():
    # gcd of entries 2, |det| 8, so factors 2, 4
    s, u, v = smith_normal_form([[2, 4], [0, 4]])
    assert s == [[2, 0], [0, 4]]


def test_normal_forms_leave_their_input_alone():
    a = [[2, 4], [0, 4]]
    smith_normal_form(a)
    hermite_normal_form(a)
    assert a == [[2, 4], [0, 4]]


def test_cokernel_identity():
    g = quotient_invariants(identity_rows(3), 3)
    assert g == FiniteAbelianGroup()
    assert g.order == 1


def test_cokernel_diag_2_3():
    g = quotient_invariants([[2, 0], [0, 3]], 2)
    assert g.invariant_factors == (6,)
    assert g.free_rank == 0


def test_cokernel_single_column():
    g = quotient_invariants([[2, 0]], 2)
    assert g.invariant_factors == (2,)
    assert g.free_rank == 1
    with pytest.raises(ValueError, match="infinite"):
        g.order


def test_group_invariants_validated():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 6))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((2,), free_rank=-1)
    assert FiniteAbelianGroup((2, 6)).order == 12


def lattice_index(generators):
    """Index of the span of the generators in its saturation: the torsion
    of the cokernel."""
    return math.prod(quotient_invariants(generators, len(generators[0])).invariant_factors)


def test_lattice_index_examples():
    assert lattice_index([(1, 0), (0, 1)]) == 1
    assert lattice_index([(1, 0), (1, 2)]) == 2
    # saturation is the xy-plane; index inside that plane is 2
    assert lattice_index([(1, 1, 0), (1, -1, 0)]) == 2


def test_saturate_examples():
    assert saturate([(2, 0)]) == [(1, 0)]
    assert saturate([(2, 4)]) == [(1, 2)]
    basis = saturate([(1, 1, 0), (1, -1, 0)])
    assert basis == [(1, 0, 0), (0, 1, 0)]


def test_saturate_idempotent_random():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        gens = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(k)]
        if all(all(x == 0 for x in g) for g in gens):
            continue
        first = saturate(gens)
        assert saturate(first) == first


def test_snf_properties_random():
    rng = random.Random(23)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        s, u, v = smith_normal_form(a)
        assert matmul(u, a, v) == s
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [s[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0


def test_cokernel_against_quotient_enumeration():
    # brute-force residue classes for small nonsingular matrices
    rng = random.Random(5)
    done = 0
    while done < 25:
        d = rng.randint(1, 3)
        cols = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if det(cols) == 0:
            continue
        done += 1
        group = quotient_invariants(cols, d)
        exponent = group.invariant_factors[-1] if group.invariant_factors else 1
        ks = sorted(set(range(1, exponent + 1)))
        order, counts = quotient_torsion_counts(cols, ks)
        assert order == group.order
        for k in ks:
            # x with k x = 0: gcd(k, d) of them in each cyclic factor Z/d
            torsion = math.prod(math.gcd(k, d) for d in group.invariant_factors)
            assert counts[k] == torsion, (cols, k)


def test_cokernel_free_rank_matches_rational_rank():
    rng = random.Random(17)
    for _ in range(40):
        d, k = rng.randint(1, 3), rng.randint(1, 3)
        cols = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        group = quotient_invariants(cols, d)
        # rational rank via oracle Gaussian elimination on a padded square
        rank = 0
        rows = [list(r) for r in zip(*cols)]
        work = [[x for x in row] for row in rows]
        cols_n = len(work[0]) if work else 0
        r = 0
        for c in range(cols_n):
            piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(len(work)):
                if i != r and work[i][c] != 0:
                    from fractions import Fraction
                    f = Fraction(work[i][c], work[r][c])
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            r += 1
        rank = r
        assert group.free_rank == d - rank


def test_lattice_index_is_abs_det_for_square():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randint(1, 3)
        gens = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        dv = det(gens)
        if dv == 0:
            continue
        assert lattice_index(gens) == abs(dv)


def test_unimodular_inverse():
    u = [[2, 1], [1, 1]]
    w = invert_unimodular(u)
    assert matmul(w, u) == identity_rows(2)
    with pytest.raises(ValueError):
        invert_unimodular([[2, 0], [0, 1]])


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0]],          # non-square
    [[1], [0]],
    [[1, 2], [2, 4]],                # singular
    [[0, 0], [0, 0]],
    [[2, 1], [0, 1]],                # det 2
    [[1, 1, 0], [1, -1, 0], [0, 0, 1]],  # det -2
])
def test_unimodular_inverse_refuses_with_one_message(rows):
    with pytest.raises(ValueError, match="^matrix is not unimodular$"):
        invert_unimodular(rows)


def test_integer_kernel_basis():
    k = integer_kernel([[1, 2, 3]], 3)
    for v in k:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert len(k) == 2
    assert integer_kernel(identity_rows(2), 2) == []


def independent(vectors):
    """Whether some maximal minor is nonzero (oracle: Fraction elimination)."""
    if not vectors:
        return True
    d = len(vectors[0])
    return any(det([[v[j] for j in cols] for v in vectors]) != 0
               for cols in combinations(range(d), len(vectors)))


def test_circuits_match_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        d = rng.randint(1, 4)
        n = rng.randint(1, d + 3)
        columns = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)]
        supports = set()
        for c in circuit_vectors(columns):
            assert all(sum(c[j] * columns[j][i] for j in range(n)) == 0 for i in range(d))
            supports.add(frozenset(j for j in range(n) if c[j]))
        circuits = {frozenset(s) for k in range(1, n + 1) for s in combinations(range(n), k)
                    if not independent([columns[j] for j in s])
                    and all(independent([columns[j] for j in s if j != t]) for t in s)}
        assert supports == circuits
