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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]
IntegerInverse = tuple[list[list[int]], int]


# ---------------------------------------------------------------------------
# vectors

def dot(u: Sequence, v: Sequence):
    """Pairing <u, v>; works for int and Fraction entries."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def is_zero_vector(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def primitive_vector(v: Sequence[int]) -> IntVec:
    """First lattice point on the ray through v (direction preserved)."""
    g = math.gcd(*(abs(int(a)) for a in v)) if v else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(a) // g for a in v)


def primitive_of_rational(v: Sequence) -> IntVec:
    """Primitive integer vector on the ray spanned by an int/Fraction vector."""
    denom = math.lcm(*(a.denominator for a in v)) if v else 1
    return primitive_vector([int(a * denom) for a in v])


# ---------------------------------------------------------------------------
# matrices

@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, row-major storage."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        if not all(isinstance(e, int) for e in self.entries):
            raise TypeError("entries must be Python ints")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, tuple(int(e) for r in rows for e in r))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntegerMatrix":
        if columns:
            return cls.from_rows(list(map(list, zip(*columns))))
        return cls(rows or 0, 0, ())

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVec:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> IntVec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix.from_rows([list(self.column(j)) for j in range(self.cols)], cols=self.rows)

    def apply(self, v: Sequence[int]) -> IntVec:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def determinant(self) -> int:
        """Fraction-free Bareiss determinant (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return determinant(self.row_list())


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
    a = [[int(x) for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
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


def independent_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """A maximal linearly independent subset of the rows, in their order.

    Each row is reduced against the echelon rows kept so far (integer row
    operations, so nothing leaves Z); it is kept when a remainder is left.
    The kept rows span the row space, so they have the same kernel.
    """
    kept, echelon = [], []
    for row in rows:
        rest = [int(x) for x in row]
        for p, e in echelon:
            if rest[p]:
                g = math.gcd(rest[p], e[p])
                f, h = rest[p] // g, e[p] // g
                rest = [h * x - f * y for x, y in zip(rest, e)]
        if any(rest):
            g = math.gcd(*rest)
            echelon.append((next(j for j, x in enumerate(rest) if x), [x // g for x in rest]))
            kept.append([int(x) for x in row])
    return kept


def circuit_vectors(columns: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Every circuit of the columns, up to scale, as an integer relation vector.

    With r independent rows of the matrix whose columns are given, each
    (r+1)-subset S of the columns has the Cramer vector whose entry at the
    k-th column of S is (-1)^k times the r x r minor without that column
    (zero off S). It is a relation among the columns, and when nonzero its
    support is a minimal dependent set: a circuit. Every circuit arises from
    some S (extend it minus one column to a basis of the column span), so the
    nonzero Cramer vectors are all the circuits, each perhaps several times.
    Independent columns have none.
    """
    n = len(columns)
    rows = independent_rows(list(zip(*columns)))
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

def _row_sub(m: list[list[int]], i: int, k: int, q: int) -> None:
    if q:
        mk = m[k]
        m[i] = [a - q * b for a, b in zip(m[i], mk)]


def hermite_normal_form(a: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U A = H, pivots positive and
    entries above each pivot reduced into [0, pivot).
    """
    m, n = a.rows, a.cols
    h = a.row_list()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    pr = 0
    for c in range(n):
        if pr == m:
            break
        while True:
            nz = [i for i in range(pr, m) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != pr:
                h[pr], h[i0] = h[i0], h[pr]
                u[pr], u[i0] = u[i0], u[pr]
            if h[pr][c] < 0:
                h[pr] = [-x for x in h[pr]]
                u[pr] = [-x for x in u[pr]]
            clean = True
            for i in range(pr + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // h[pr][c]
                    _row_sub(h, i, pr, q)
                    _row_sub(u, i, pr, q)
                    if h[i][c] != 0:
                        clean = False
            if clean:
                break
        if h[pr][c] != 0:
            for i in range(pr):
                q = h[i][c] // h[pr][c]
                _row_sub(h, i, pr, q)
                _row_sub(u, i, pr, q)
            pr += 1
    return IntegerMatrix.from_rows(h, cols=n), IntegerMatrix.from_rows(u, cols=m)


def smith_normal_form(a: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Smith normal form with transforms: U A V = S.

    S is diagonal with d_1 | d_2 | ... and d_i >= 0; U, V unimodular.
    Pivot selection follows the smallest-nonzero-entry heuristic, which keeps
    intermediate entries small at this scale.
    """
    m, n = a.rows, a.cols
    s = a.row_list()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(j: int, k: int, q: int) -> None:
        # column j -= q * column k  (applied to s and v)
        if q:
            for mat in (s, v):
                for r in mat:
                    r[j] -= q * r[k]

    def col_swap(j: int, k: int) -> None:
        for mat in (s, v):
            for r in mat:
                r[j], r[k] = r[k], r[j]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = s[i][j]
                if e != 0 and (best is None or abs(e) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            s[t], s[bi] = s[bi], s[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            col_swap(t, bj)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        dirty = False
        for i in range(t + 1, m):
            if s[i][t] != 0:
                q = s[i][t] // s[t][t]
                _row_sub(s, i, t, q)
                _row_sub(u, i, t, q)
                if s[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j] != 0:
                q = s[t][j] // s[t][t]
                col_op(j, t, q)
                if s[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot now divides its cleared row/column; enforce divisibility of the
        # remaining block before moving on
        stuck = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t] != 0:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            s[t] = [x + y for x, y in zip(s[t], s[stuck])]
            u[t] = [x + y for x, y in zip(u[t], u[stuck])]
            continue
        t += 1
    return (IntegerMatrix.from_rows(s, cols=n),
            IntegerMatrix.from_rows(u, cols=m),
            IntegerMatrix.from_rows(v, cols=n))


def unimodular_inverse(u: IntegerMatrix) -> IntegerMatrix:
    """Exact inverse of a unimodular matrix: one fraction-free
    ``integer_inverse`` ``(M, q)``, unimodular exactly when q = |det| = 1.
    Non-square, singular and |det| > 1 matrices raise."""
    if u.rows == u.cols:
        try:
            m, q = integer_inverse(u.row_list())
        except ValueError:  # singular
            q = 0
        if q == 1:
            return IntegerMatrix.from_rows(m, cols=u.cols)
    raise ValueError("matrix is not unimodular")


# ---------------------------------------------------------------------------
# abelian groups and lattices

@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Cokernel bookkeeping: invariant factors d_1 | d_2 | ... plus free rank.

    Factors equal to 1 are dropped; the trivial group is the empty tuple.
    """

    invariant_factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        facs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        if any(d < 2 for d in facs):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int:
        if self.free_rank:
            raise ValueError("group is infinite")
        return math.prod(self.invariant_factors)

    def torsion_count(self, k: int) -> int:
        """Number of torsion elements x with k*x = 0."""
        return math.prod(math.gcd(k, d) for d in self.invariant_factors)

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        parts.extend(["Z"] * self.free_rank)
        return " + ".join(parts) if parts else "0"


def cokernel_invariants(a: IntegerMatrix) -> FiniteAbelianGroup:
    """Structure of Z^rows / (column span of A)."""
    s, _, _ = smith_normal_form(a)
    diag = [s.entry(i, i) for i in range(min(a.rows, a.cols))]
    rank = sum(1 for d in diag if d != 0)
    return FiniteAbelianGroup(
        invariant_factors=tuple(d for d in diag if d > 1),
        free_rank=a.rows - rank,
    )


def lattice_index(generators: Sequence[Sequence[int]], ambient_rank: int,
                  in_ambient: bool = False):
    """Index of the span of the generators inside its saturation.

    With in_ambient=True the index is taken in the full lattice Z^ambient_rank
    instead, and math.inf is returned when the span is not full rank.
    """
    a = IntegerMatrix.from_columns([list(g) for g in generators], rows=ambient_rank)
    s, _, _ = smith_normal_form(a)
    diag = [s.entry(i, i) for i in range(min(a.rows, a.cols))]
    rank = sum(1 for d in diag if d != 0)
    if in_ambient and rank < ambient_rank:
        return math.inf
    return math.prod(d for d in diag if d != 0)


def _canonical_lattice_basis(rows: list[list[int]]) -> list[IntVec]:
    """Deterministic basis of the row span: nonzero rows of the row HNF."""
    if not rows:
        return []
    h, _ = hermite_normal_form(IntegerMatrix.from_rows(rows))
    return [h.row(i) for i in range(h.rows) if not is_zero_vector(h.row(i))]


def saturate(generators: Sequence[Sequence[int]]) -> list[IntVec]:
    """Basis of {v in Z^d : n*v in span(generators) for some n >= 1}.

    The result is the canonical (Hermite) basis of the saturation.
    """
    gens = [list(g) for g in generators]
    if not gens:
        return []
    d = len(gens[0])
    a = IntegerMatrix.from_columns(gens, rows=d)
    s, u, _ = smith_normal_form(a)
    rank = sum(1 for i in range(min(a.rows, a.cols)) if s.entry(i, i) != 0)
    uinv = unimodular_inverse(u)
    cols = [list(uinv.column(j)) for j in range(rank)]
    return _canonical_lattice_basis(cols)


def integer_kernel_basis(a: IntegerMatrix) -> list[IntVec]:
    """Canonical basis of {x in Z^cols : A x = 0} (a saturated lattice)."""
    s, _, v = smith_normal_form(a)
    mindim = min(a.rows, a.cols)
    free = [j for j in range(a.cols) if j >= mindim or s.entry(j, j) == 0]
    return _canonical_lattice_basis([list(v.column(j)) for j in free])


def complete_to_basis(rows: Sequence[Sequence[int]], ambient_rank: int) -> list[IntVec]:
    """Rows completing a saturated-lattice basis to a basis of Z^d.

    Input rows must be a basis of a saturated sublattice; raises otherwise.
    Returns the complement rows (empty when the input is already full rank).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [tuple(int(i == j) for j in range(ambient_rank)) for i in range(ambient_rank)]
    r = len(rows)
    a = IntegerMatrix.from_rows(rows, cols=ambient_rank)
    s, _, v = smith_normal_form(a)
    diag = [s.entry(i, i) for i in range(min(r, ambient_rank))]
    if sum(1 for d in diag if d != 0) != r or any(d not in (0, 1) for d in diag):
        raise ValueError("rows are not a basis of a saturated sublattice")
    vinv = unimodular_inverse(v)
    return [vinv.row(i) for i in range(r, ambient_rank)]
