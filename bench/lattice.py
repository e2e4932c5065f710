"""Exact lattice arithmetic of the benchmark's own, independent of toristack.

The documents are generated and the program's answers checked with these
functions only, so a fault in toristack cannot hide itself by also breaking
the values it is compared against.
"""

from __future__ import annotations

import math
from itertools import combinations


def determinant(rows) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def primitive(v) -> list[int]:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return [x // g for x in v] if g else list(v)


def apply(g, v) -> list[int]:
    """Matrix-vector product."""
    return [sum(a * b for a, b in zip(row, v)) for row in g]


def adjugate(rows) -> list[list[int]]:
    """adj(A) with A @ adj(A) = det(A) * I."""
    n = len(rows)
    return [[(-1) ** (i + j) * determinant([[rows[r][c] for c in range(n) if c != i]
                                            for r in range(n) if r != j])
             for j in range(n)] for i in range(n)]


def unimodular_inverse(g) -> list[list[int]]:
    det = determinant(g)
    if abs(det) != 1:
        raise ValueError("matrix is not unimodular")
    return [[det * x for x in row] for row in adjugate(g)]


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def dual_rays(rays) -> list[list[int]]:
    """Primitive rays of the dual of a full-dimensional simplicial cone.

    Row i of the adjugate of the ray matrix (rays as columns), signed by the
    determinant, pairs positively with ray i and to zero with the others.
    """
    cols = transpose(rays)
    sign = 1 if determinant(cols) > 0 else -1
    return [primitive([sign * x for x in row]) for row in adjugate(cols)]


def index_of_rays(rays) -> int:
    """Index of Z rays in the saturation of their span: gcd of maximal minors.

    For linearly independent rays this is the multiplicity of their cone.
    """
    rays = [list(r) for r in rays]
    if not rays:
        return 1
    k, d = len(rays), len(rays[0])
    g = 0
    for cols in combinations(range(d), k):
        g = math.gcd(g, determinant([[r[c] for c in cols] for r in rays]))
    return g


def hj_hilbert_basis(u, w) -> set[tuple[int, ...]]:
    """Hilbert basis of the rank-2 cone on primitive u, w (Hirzebruch-Jung).

    In a basis (f1, f2) with f2 = u and w = n f1 - k f2, 0 <= k < n, the basis
    is u_0 = f2, u_1 = f1, u_(i+1) = a_i u_i - u_(i-1), where
    n / k = a_1 - 1 / (a_2 - 1 / (...)) is the Hirzebruch-Jung continued
    fraction (Cox-Little-Schenck, Toric Varieties, 10.2).
    """
    n = abs(u[0] * w[1] - u[1] * w[0])
    if n == 0:
        raise ValueError("rays are dependent")
    if n == 1:
        return {tuple(u), tuple(w)}
    a, b = u
    # f with det(f, u) = f0 * b - f1 * a = 1, by the extended gcd of (b, -a)
    g, x, y = _ext_gcd(b, -a)
    if abs(g) != 1:
        raise ValueError("u is not primitive")
    f = [x * g, y * g]
    alpha = w[0] * u[1] - w[1] * u[0]      # det(w, u): coefficient of f
    beta = f[0] * w[1] - f[1] * w[0]       # det(f, w): coefficient of u
    if alpha < 0:
        f, alpha = [-f[0], -f[1]], -alpha
    t = -(-beta // alpha)
    k = alpha * t - beta
    f1 = [f[0] + t * u[0], f[1] + t * u[1]]
    coeffs = []
    p, q = n, k
    while q:
        c = -(-p // q)
        coeffs.append(c)
        p, q = q, c * q - p
    seq = [(0, 1), (1, 0)]
    for c in coeffs:
        seq.append((c * seq[-1][0] - seq[-2][0], c * seq[-1][1] - seq[-2][1]))
    if seq[-1] != (n, -k):
        raise AssertionError("continued fraction did not end on the second ray")
    return {(x * f1[0] + y * u[0], x * f1[1] + y * u[1]) for x, y in seq}


def _ext_gcd(a, b):
    """(g, x, y) with a x + b y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0
