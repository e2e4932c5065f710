"""Exact integer linear algebra.

Everything here computes on Python's arbitrary-precision integers; there is
deliberately no floating point, and ``fractions.Fraction`` is only accepted
as input (``primitive_of_rational``) and named by ``FracVec``, the type of
the printed resolution generators. A rational inverse is carried as a pair
``(M, q)`` of an integer matrix and a positive integer with ``A^-1 = M / q``
(``integer_inverse``), so solving against it takes integer dot products and
one divisibility test per entry. The module also provides the normal forms
(Hermite, Smith), integer kernels, lattice saturation, fraction-free
determinants and the circuits of a vector configuration, and finite-abelian-
group bookkeeping that the rest of the package is built on.

A matrix is a list of rows everywhere, with one entry point per operation.
The normal forms are eliminations in place, which compute a unimodular
transform only when the caller asks for it: a group needs only the Smith
diagonal, a kernel only V, a saturation only U. ``smith_normal_form`` and
``hermite_normal_form`` return a copy with every transform; the package
itself calls neither, and they stay for the benchmark's tracer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterator, NamedTuple, Sequence

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]
IntegerInverse = tuple[list[list[int]], int]


# ---------------------------------------------------------------------------
# vectors

def dot(u: Sequence, v: Sequence):
    """Pairing <u, v>; works for int and Fraction entries."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def is_zero_vector(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def primitive_vector(v: Sequence[int]) -> IntVec:
    """First lattice point on the ray through v (direction preserved); the
    entries must be integers."""
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(map(g.__rfloordiv__, v))


def primitive_of_rational(v: Sequence) -> IntVec:
    """Primitive integer vector on the ray spanned by an int/Fraction vector."""
    denom = math.lcm(*(a.denominator for a in v)) if v else 1
    return primitive_vector([int(a * denom) for a in v])


# ---------------------------------------------------------------------------
# matrices

def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix given as a list of rows, by
    fraction-free Bareiss elimination: every division is exact."""
    n = len(rows)
    if n == 0:
        return 1
    m = [[int(x) for x in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def integer_inverse(rows: Sequence[Sequence[int]]) -> IntegerInverse:
    """Inverse of a square integer matrix as ``(M, q)`` with ``A^-1 = M / q``.

    Fraction-free Gauss-Jordan elimination on ``[A | I]`` (Bareiss, Math.
    Comp. 22, 1968): after step k every entry is a (k+1)-minor of the row-
    permuted ``[A | I]``, so each division is exact and the left block ends
    as ``+/-det A`` times I. ``q = |det A| > 0``; a singular matrix raises.
    """
    n = len(rows)
    a = [list(r) + [0] * i + [1] + [0] * (n - 1 - i) for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        for piv in range(k, n):
            if a[piv][k]:
                break
        else:
            raise ValueError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        rk = a[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], rk)]
        prev = p
    sign = 1 if prev > 0 else -1
    return [[sign * x for x in r[n:]] for r in a], sign * prev


def integer_solve(inverse: IntegerInverse, b: Sequence[int]) -> IntVec | None:
    """``M b / q`` for ``inverse = (M, q)``; None when it is not integral."""
    m, q = inverse
    out = []
    for row in m:
        x, rem = divmod(dot(row, b), q)
        if rem:
            return None
        out.append(x)
    return tuple(out)


def circuit_vectors(columns: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Every circuit of the columns, up to scale and sign, as an integer
    relation vector.

    With a basis of r rows of the row space of the matrix whose columns are
    given (its Hermite rows, ``canonical_basis``), each (r+1)-subset S of the
    columns has the Cramer vector whose entry at the k-th column of S is
    (-1)^k times the r x r minor without that column (zero off S). It is a
    relation among the columns, and when nonzero its support is a minimal
    dependent set: a circuit. Every circuit arises from some S (extend it
    minus one column to a basis of the column span), so the nonzero Cramer
    vectors are all the circuits, each perhaps several times and with
    either sign. Independent columns have none.
    """
    n = len(columns)
    rows = canonical_basis(list(zip(*columns)))
    r = len(rows)
    if r == n:
        return
    minors = {sub: determinant([[row[j] for j in sub] for row in rows])
              for sub in combinations(range(n), r)}
    for subset in combinations(range(n), r + 1):
        c = [0] * n
        for k, j in enumerate(subset):
            c[j] = (-1) ** k * minors[subset[:k] + subset[k + 1:]]
        if any(c):
            yield c


# ---------------------------------------------------------------------------
# normal forms

def identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _row_sub(mats: tuple[list[list[int]], ...], i: int, k: int, q: int) -> None:
    # row i -= q * row k, in every matrix of mats
    if q:
        for mat in mats:
            mat[i] = [a - q * b for a, b in zip(mat[i], mat[k])]


def hermite_elimination(h: list[list[int]], u: list[list[int]] | None = None) -> None:
    """Row-style Hermite normal form of h, in place.

    Pivots end positive and the entries above each pivot reduced into
    [0, pivot). Every row operation is applied to u as well when given, so
    U A = H for u starting at the identity.
    """
    m = len(h)
    n = len(h[0]) if h else 0
    mats = (h,) if u is None else (h, u)
    pr = 0
    for c in range(n):
        if pr == m:
            break
        while True:
            nz = [i for i in range(pr, m) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            for mat in mats:
                mat[pr], mat[i0] = mat[i0], mat[pr]
            if h[pr][c] < 0:
                for mat in mats:
                    mat[pr] = [-x for x in mat[pr]]
            for i in range(pr + 1, m):
                _row_sub(mats, i, pr, h[i][c] // h[pr][c])
            if all(h[i][c] == 0 for i in range(pr + 1, m)):
                break
        if h[pr][c] != 0:
            for i in range(pr):
                _row_sub(mats, i, pr, h[i][c] // h[pr][c])
            pr += 1


def smith_elimination(s: list[list[int]], u: list[list[int]] | None = None,
                      v: list[list[int]] | None = None) -> list[int]:
    """Smith normal form of s, in place; returns its diagonal.

    s ends diagonal with d_1 | d_2 | ... and d_i >= 0 (min(rows, cols) of
    them). Row operations are applied to u and column operations to v when
    given, so U A V = S for u and v starting at the identity. Pivot
    selection follows the smallest-nonzero-entry heuristic, which keeps
    intermediate entries small at this scale.
    """
    m = len(s)
    n = len(s[0]) if s else 0
    row_mats = (s,) if u is None else (s, u)
    col_mats = (s,) if v is None else (s, v)
    t = 0
    while t < min(m, n):
        # first entry of least nonzero absolute value in the remaining block
        best, size = None, 0
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                e = abs(row[j])
                if e and (best is None or e < size):
                    best, size = (i, j), e
                    if e == 1:
                        break
            if size == 1:
                break
        if best is None:
            break
        bi, bj = best
        for mat in row_mats:
            mat[t], mat[bi] = mat[bi], mat[t]
        if bj != t:
            for mat in col_mats:
                for r in mat:
                    r[t], r[bj] = r[bj], r[t]
        if s[t][t] < 0:
            for mat in row_mats:
                mat[t] = [-x for x in mat[t]]
        p = s[t][t]
        for i in range(t + 1, m):
            _row_sub(row_mats, i, t, s[i][t] // p)
        # column j -= q * column t changes only the rows of s nonzero in
        # column t (rows above t are already diagonal), and every row of v
        live = [r for r in s[t:] if r[t]]
        targets = (live,) if v is None else (live, v)
        for j in range(t + 1, n):
            q = s[t][j] // p
            if q:
                for mat in targets:
                    for r in mat:
                        r[j] -= q * r[t]
        if len(live) > 1 or any(s[t][t + 1:]):
            continue
        # pivot now divides its cleared row/column; enforce divisibility of the
        # remaining block before moving on
        stuck = None if p == 1 else next(
            (i for i in range(t + 1, m) if any(x % p for x in s[i][t + 1:])), None)
        if stuck is None:
            t += 1
        else:
            for mat in row_mats:
                mat[t] = [x + y for x, y in zip(mat[t], mat[stuck])]
    return [s[i][i] for i in range(min(m, n))]


def invert_unimodular(rows: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular matrix given as a list of rows: one
    fraction-free ``integer_inverse`` ``(M, q)``, unimodular exactly when
    q = |det| = 1. Non-square, singular and |det| > 1 matrices raise."""
    if all(len(r) == len(rows) for r in rows):
        try:
            m, q = integer_inverse(rows)
        except ValueError:  # singular
            q = 0
        if q == 1:
            return m
    raise ValueError("matrix is not unimodular")


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(H, U) with U unimodular and U A = H, for A given by its rows
    (``hermite_elimination``)."""
    h = [list(r) for r in rows]
    u = identity_rows(len(h))
    hermite_elimination(h, u)
    return h, u


def smith_normal_form(rows: Sequence[Sequence[int]]
                      ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(S, U, V) with U, V unimodular and U A V = S, for A given by its rows
    (``smith_elimination``)."""
    s = [list(r) for r in rows]
    u, v = identity_rows(len(s)), identity_rows(len(s[0]) if s else 0)
    smith_elimination(s, u, v)
    return s, u, v


# ---------------------------------------------------------------------------
# abelian groups and lattices

class _GroupFields(NamedTuple):
    invariant_factors: tuple[int, ...] = ()
    free_rank: int = 0


class FiniteAbelianGroup(_GroupFields):
    """Cokernel bookkeeping: invariant factors d_1 | d_2 | ... plus free rank.

    Factors equal to 1 are dropped; the trivial group is the empty tuple.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: Sequence[int] = (), free_rank: int = 0):
        facs = tuple(int(d) for d in invariant_factors)
        if any(d < 2 for d in facs):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")
        if free_rank < 0:
            raise ValueError("negative free rank")
        return super().__new__(cls, facs, free_rank)

    @property
    def order(self) -> int:
        if self.free_rank:
            raise ValueError("group is infinite")
        return math.prod(self.invariant_factors)


def quotient_invariants(generators: Sequence[Sequence[int]], ambient_rank: int) -> FiniteAbelianGroup:
    """Structure of Z^ambient_rank / span(generators).

    One Smith elimination of the generators as rows, without transforms: a
    matrix and its transpose share their Smith form.
    """
    diag = smith_elimination([list(g) for g in generators])
    return FiniteAbelianGroup(
        invariant_factors=tuple(d for d in diag if d > 1),
        free_rank=ambient_rank - sum(1 for d in diag if d != 0),
    )


def canonical_basis(rows: Sequence[Sequence[int]]) -> list[IntVec]:
    """Deterministic basis of the row span: nonzero rows of the row HNF."""
    h = [list(r) for r in rows]
    hermite_elimination(h)
    return [tuple(r) for r in h if any(r)]


def saturate(generators: Sequence[Sequence[int]]) -> list[IntVec]:
    """Basis of {v in Z^d : n*v in span(generators) for some n >= 1}.

    The result is the canonical (Hermite) basis of the saturation: with
    U A = S V^-1 for the generators as the columns of A, it is spanned by
    the first rank(A) columns of U^-1.
    """
    if not generators:
        return []
    d = len(generators[0])
    u = identity_rows(d)
    rank = sum(1 for x in smith_elimination([list(r) for r in zip(*generators)], u=u) if x)
    uinv = invert_unimodular(u)
    return canonical_basis([[row[j] for row in uinv] for j in range(rank)])


def echelon_coordinates(vectors: Sequence[Sequence[int]],
                        basis: Sequence[IntVec]) -> list[IntVec]:
    """Coordinates of vectors in a Hermite basis (``saturate``), with no
    inverse: row k is the first to reach its pivot, so once rows 0..k-1 are
    taken off, the k-th coordinate is read there. What is left must be 0 (a
    remainder at a pivot stays), else ``AssertionError``: the vector lies
    outside the lattice the basis spans."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    out = []
    for v in vectors:
        rest, coords = list(v), []
        for row, p in zip(basis, pivots):
            coords.append(rest[p] // row[p])
            rest = [x - coords[-1] * y for x, y in zip(rest, row)]
        if any(rest):
            raise AssertionError("ray escapes the saturated span")
        out.append(tuple(coords))
    return out


def integer_kernel(rows: Sequence[Sequence[int]], cols: int) -> list[IntVec]:
    """Canonical basis of {x in Z^cols : A x = 0} for A given by its rows:
    the columns of V at the zero (and missing) diagonal entries of A V = U^-1 S."""
    v = identity_rows(cols)
    diag = smith_elimination([list(r) for r in rows], v=v)
    free = [j for j in range(cols) if j >= len(diag) or diag[j] == 0]
    return canonical_basis([[row[j] for row in v] for j in free])


def complete_to_basis(rows: Sequence[Sequence[int]], ambient_rank: int) -> list[IntVec]:
    """Rows completing a saturated-lattice basis to a basis of Z^d.

    Input rows must be a basis of a saturated sublattice; raises otherwise.
    Returns the complement rows (empty when the input is already full rank).
    """
    if not rows:
        return [tuple(int(i == j) for j in range(ambient_rank)) for i in range(ambient_rank)]
    r = len(rows)
    v = identity_rows(len(rows[0]))
    diag = smith_elimination([list(x) for x in rows], v=v)
    if sum(1 for d in diag if d != 0) != r or any(d not in (0, 1) for d in diag):
        raise ValueError("rows are not a basis of a saturated sublattice")
    return [tuple(row) for row in invert_unimodular(v)[r:ambient_rank]]
