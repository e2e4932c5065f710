"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers and
``fractions.Fraction``; there is deliberately no floating point anywhere.
The module provides the normal forms (Hermite, Smith), integer kernels,
lattice saturation and finite-abelian-group bookkeeping that the rest of
the package is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vectors

def dot(u: Sequence, v: Sequence):
    """Pairing <u, v>; works for int and Fraction entries."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vector(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def primitive_vector(v: Sequence[int]) -> IntVec:
    """First lattice point on the ray through v (direction preserved)."""
    g = math.gcd(*(abs(int(a)) for a in v)) if v else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(a) // g for a in v)


def primitive_of_rational(v: Sequence[Fraction]) -> IntVec:
    """Primitive integer vector on the ray spanned by a rational vector."""
    denom = math.lcm(*(Fraction(a).denominator for a in v)) if v else 1
    return primitive_vector([int(Fraction(a) * denom) for a in v])


def fraction_content(values: Iterable[Fraction]) -> Fraction:
    """Positive generator of the subgroup of Q generated by the values.

    Returns 0 when every value is zero.
    """
    vals = [Fraction(v) for v in values]
    nonzero = [v for v in vals if v != 0]
    if not nonzero:
        return Fraction(0)
    denom = math.lcm(*(v.denominator for v in nonzero))
    num = math.gcd(*(abs(v.numerator * (denom // v.denominator)) for v in nonzero))
    return Fraction(num, denom)


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

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            r = self.row(i)
            out.append([dot(r, other.column(j)) for j in range(other.cols)])
        return IntegerMatrix.from_rows(out, cols=other.cols)

    def apply(self, v: Sequence[int]) -> IntVec:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def determinant(self) -> int:
        """Fraction-free Bareiss determinant (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.row_list()
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


def rational_inverse(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix with int/Fraction entries."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [r[n:] for r in a]


def rational_solve(rows: Sequence[Sequence], b: Sequence) -> FracVec:
    """Solve the square system (rows) * x = b exactly."""
    inv = rational_inverse(rows)
    return tuple(dot(r, b) for r in inv)


# ---------------------------------------------------------------------------
# normal forms

def _row_sub(m: list[list[int]], i: int, k: int, q: int) -> None:
    if q:
        mk = m[k]
        m[i] = [a - q * b for a, b in zip(m[i], mk)]


def hermite_normal_form(a: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ A = H, pivots positive and
    entries above each pivot reduced into [0, pivot).
    """
    m, n = a.rows, a.cols
    h = a.row_list()
    u = IntegerMatrix.identity(m).row_list()
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
    """Smith normal form with transforms: U @ A @ V = S.

    S is diagonal with d_1 | d_2 | ... and d_i >= 0; U, V unimodular.
    Pivot selection follows the smallest-nonzero-entry heuristic, which keeps
    intermediate entries small at this scale.
    """
    m, n = a.rows, a.cols
    s = a.row_list()
    u = IntegerMatrix.identity(m).row_list()
    v = IntegerMatrix.identity(n).row_list()

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
    """Exact inverse of a unimodular matrix (via HNF reduction to identity)."""
    h, w = hermite_normal_form(u)
    if h != IntegerMatrix.identity(u.rows):
        raise ValueError("matrix is not unimodular")
    return w


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
