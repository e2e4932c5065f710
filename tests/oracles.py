"""Independent brute-force oracles used to freeze expected values.

Deliberately share no code with the library: membership tests run through a
local Gaussian solver, Hilbert bases come from exhaustive box enumeration,
cone membership from Fourier-Motzkin elimination, quotient groups from
residue-class exploration keyed by fractional parts, the rays of a dual
cone one ray at a time or from tight subsets of its inequalities, canonical
JSON from the standard library's encoder, the text report from the keys of
the report's entry dicts,
the saturation check from a walk over the whole box of coefficients, fan
validation from every pair of maximal cones with every circuit of their rays,
the sign masks of dual rows from one plain dot product per ray,
the closeness and saturation of a submonoid from Fourier-Motzkin and
every lattice point of a box, multiplicities, stacky multiplicities,
tameness and the cokernel of a free resolution from gcds of minors, and
the irreducible elements of a monoid in the orthant from a search that
subtracts its generators.
"""

import json
import math
from fractions import Fraction
from functools import cache
from itertools import combinations, product

_JSON_SAFE_INT = 2 ** 53 - 1


def solve_square(rows, rhs):
    """Gaussian elimination over Q; returns None when singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def det(rows):
    """Determinant over Q by Gaussian elimination (no Bareiss)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return result


def determinantal_divisors(rows, minor=det):
    """D_1, ..., D_r of an r x d integer matrix: D_k is the gcd of its k x k
    minors, each ``minor`` (by default ``det``) of a tuple of row tuples. A
    gcd stops at 1, which no minor lowers."""
    out = []
    for k in range(1, len(rows) + 1):
        g = 0
        for picked in combinations(rows, k):
            for columns in combinations(range(len(rows[0])), k):
                g = math.gcd(g, int(minor(tuple(tuple(row[j] for j in columns) for row in picked))))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
    return out


def basis_coordinates(basis, v):
    """Integer coordinates of v in a basis of a saturated sublattice holding it.

    Solved over Q on the first invertible square block of rows, then checked
    on every row.
    """
    r, d = len(basis), len(v)
    for picked in combinations(range(d), r):
        square = [[b[j] for b in basis] for j in picked]
        if det(square) != 0:
            x = solve_square(square, [v[j] for j in picked])
            assert all(sum(c * b[j] for c, b in zip(x, basis)) == v[j] for j in range(d))
            assert all(c.denominator == 1 for c in x)
            return tuple(int(c) for c in x)
    raise ValueError("basis vectors are linearly dependent")


def coordinate_matrix(generators):
    """The matrix of Z^r -> the lattice with basis ``generators`` (r vectors
    of ``Fraction``s spanning Q^r): column j holds the coordinates of e_j in
    that basis, by Gaussian elimination. Asserts that every entry is an
    integer, as it is for a free resolution's realized generators, whose
    lattice F^gp holds P^gp = Z^r."""
    columns = [solve_square([list(row) for row in zip(*generators)],
                            [int(k == j) for k in range(len(generators))])
               for j in range(len(generators))]
    assert all(x.denominator == 1 for col in columns for x in col), generators
    return [[int(col[i]) for col in columns] for i in range(len(generators))]


def cokernel_invariant_factors(generators):
    """The invariant factors above 1 of F^gp / P^gp, F^gp the lattice with
    basis ``generators`` and P^gp = Z^r: the quotients D_k / D_(k-1) of the
    determinantal divisors of ``coordinate_matrix``."""
    divisors = [1] + determinantal_divisors(coordinate_matrix(generators))
    return tuple(b // a for a, b in zip(divisors, divisors[1:]) if b // a > 1)


def coordinate_rays(basis, ray_vectors):
    """Rays of the dual of a simplicial cone, in basis coordinates, lex-sorted.

    ``basis`` spans the saturated lattice of the span of the linearly
    independent rays. For each ray j on its own, the functional equal to 1 on
    ray j and 0 on the others is solved for and made primitive; it is paired
    with j. Returns ([(dual ray, j)] in lex order, the rays in basis
    coordinates).
    """
    local = [basis_coordinates(basis, v) for v in ray_vectors]
    out = []
    for j in range(len(local)):
        w = solve_square(local, [int(k == j) for k in range(len(local))])
        scale = math.lcm(*(x.denominator for x in w))
        ints = [int(x * scale) for x in w]
        g = math.gcd(*ints)
        out.append((tuple(x // g for x in ints), j))
    return sorted(out), local


def box_hilbert_basis(ray_vectors, d):
    """Hilbert basis of a full-dimensional simplicial cone by box enumeration.

    Enumerates every lattice point of the closed fundamental parallelepiped
    {sum a_i v_i : 0 <= a_i <= 1} through its bounding box, then filters to
    irreducible elements by pairwise subtraction. Membership tests run on the
    integer adjugate so the box sweep stays cheap.
    """
    cols = [list(col) for col in zip(*ray_vectors)]  # matrix with ray columns
    dv = det(cols)
    assert dv != 0, "rays must be linearly independent and full-dimensional"
    # integer scaled inverse: row i of (det * cols^-1)
    scaled = []
    for i in range(d):
        unit = [Fraction(int(j == i)) for j in range(d)]
        col = solve_square(cols, unit)  # column i of the inverse
        scaled.append([x * dv for x in col])
    assert all(x.denominator == 1 for row in scaled for x in row)
    sign = 1 if dv > 0 else -1
    bound = abs(dv)
    # transpose back, the sign folded in
    adj_rows = [[sign * int(scaled[j][i]) for j in range(d)] for i in range(d)]

    def scaled_coords(x):
        # sign * det * (cone coordinates of x), all integers
        return [sum(a * b for a, b in zip(row, x)) for row in adj_rows]

    lo = [sum(min(0, v[j]) for v in ray_vectors) for j in range(d)]
    hi = [sum(max(0, v[j]) for v in ray_vectors) for j in range(d)]
    candidates = set()
    for point in product(*(range(lo[j], hi[j] + 1) for j in range(d))):
        if all(x == 0 for x in point):
            continue
        if all(0 <= c <= bound for c in scaled_coords(point)):
            candidates.add(point)

    basis = []
    for h in sorted(candidates):
        reducible = False
        for g in candidates:
            if g == h:
                continue
            diff = tuple(a - b for a, b in zip(h, g))
            if any(diff):
                if all(c >= 0 for c in scaled_coords(diff)):
                    reducible = True
                    break
        if not reducible:
            basis.append(h)
    return basis


def fm_cone_contains(generators, v):
    """Feasibility of v = sum a_i g_i, a_i >= 0, by Fourier-Motzkin.

    Rows are (coefficients, bound) meaning coeffs . a <= bound.
    """
    n = len(generators)
    d = len(v)
    rows = []
    for i in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(-1)
        rows.append((coeffs, Fraction(0)))
    for j in range(d):
        coeffs = [Fraction(generators[i][j]) for i in range(n)]
        rows.append((list(coeffs), Fraction(v[j])))
        rows.append(([-c for c in coeffs], Fraction(-v[j])))
    for var in range(n):
        pos, neg, rest = [], [], []
        for coeffs, bound in rows:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, bound))
            elif c < 0:
                neg.append((coeffs, bound))
            else:
                rest.append((coeffs, bound))
        new_rows = rest
        for cp, bp in pos:
            for cn, bn in neg:
                scale_p, scale_n = -cn[var], cp[var]
                coeffs = [scale_p * a + scale_n * b for a, b in zip(cp, cn)]
                new_rows.append((coeffs, scale_p * bp + scale_n * bn))
        dedup = {}
        for coeffs, bound in new_rows:
            key = tuple(coeffs)
            if key not in dedup or bound < dedup[key]:
                dedup[key] = bound
        rows = [(list(k), b) for k, b in dedup.items()]
    return all(bound >= 0 for _, bound in rows)


def quotient_classes(square_cols):
    """Residue classes of Z^d modulo the column span of a nonsingular matrix.

    Classes are explored from 0 by unit steps; the canonical key of x is the
    tuple of fractional parts of the cone coordinates, which is constant on
    classes and distinct across them. Returns (class count, key function).
    """
    d = len(square_cols[0])
    rows = [list(r) for r in zip(*[list(c) for c in square_cols])]  # columns -> matrix

    def key(x):
        coords = solve_square(rows, list(x))
        return tuple(c - (c.numerator // c.denominator) for c in coords)

    seen = {key((0,) * d): (0,) * d}
    frontier = [(0,) * d]
    while frontier:
        nxt = []
        for x in frontier:
            for j in range(d):
                for step in (1, -1):
                    y = list(x)
                    y[j] += step
                    y = tuple(y)
                    k = key(y)
                    if k not in seen:
                        seen[k] = y
                        nxt.append(y)
        frontier = nxt
    return seen, key


def quotient_torsion_counts(square_cols, ks):
    """For each k in ks, the number of residue classes killed by k."""
    seen, key = quotient_classes(square_cols)
    zero = key(tuple(0 for _ in square_cols[0]))
    counts = {}
    for k in ks:
        counts[k] = sum(1 for rep in seen.values()
                        if key(tuple(k * x for x in rep)) == zero)
    return len(seen), counts


def _json_value(value):
    """value with keys as strings, tuples as lists, integers beyond 2^53-1
    as decimal strings and fractions as "p/q" strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _JSON_SAFE_INT else value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_emit_json(obj):
    """Canonical report JSON through ``json.dumps``: sorted keys, indent 2."""
    return json.dumps(_json_value(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _reference_table(rows, header):
    """The lines of a text table: every column as wide as its widest cell."""
    cells = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    return [fmt.format(*cells[0]), fmt.format(*["-" * w for w in widths])] \
        + [fmt.format(*row) for row in cells[1:]]


def reference_report_text(data):
    """The text report of ``report_data``' output built as one dict
    (``conftest.built``), each line formatted from the keys of its entries."""
    fan = data["fan"]
    lines = [f"stacky fan report (rank {fan['rank']}, {fan['num_rays']} rays, "
             f"{fan['num_cones']} cones)",
             f"characteristics: {fan['characteristics']}",
             f"complete: {fan['complete']}   tame: {fan['tame']}   "
             f"Deligne-Mumford: {fan['deligne_mumford']}"]
    if fan.get("note"):
        lines.append(fan["note"])
    lines.append("")
    lines += _reference_table([[c["id"] or "(zero)", c["dim"], c["multiplicity"],
                                c["stacky_multiplicity"], c["stabilizer"]["cartier_dual"]]
                               for c in data["cones"]],
                              ["cone", "dim", "mult", "stacky mult", "stabilizer"])
    lines.append("")
    for chart in data["charts"]:
        lines.append(f"chart over cone [{chart['cone']}]: "
                     f"[A^{chart['r']}/{chart['group']['cartier_dual']}]"
                     f" x T^{chart['torus_rank']}"
                     f"   Kummer-log-etale: {chart['kummer_log_etale']}")
        lines.append(f"  action weights: {chart['action_weights']}"
                     f"   coordinate levels: {chart['coordinate_levels']}"
                     f"   coordinate rays: {chart['coordinate_fan_rays']}")
        lines.append(f"  coarse Hilbert basis: {chart['coarse_hilbert_basis']}")
        lines += [f"  cycle [{ci['cone'] or 'zero'}]: coordinates "
                  f"{ci['chart_coordinates']} coarse {ci['coarse_generators']}"
                  for ci in chart["cycle_ideals"]]
        lines.append("")
    lines += _reference_table([[b["ray"], b["level"], b["generic_stabilizer"],
                                json.dumps(b["chart_coordinates"], sort_keys=True)]
                               for b in data["boundary_divisors"]],
                              ["ray", "level", "generic stab", "chart coordinate"])
    return "\n".join(lines) + "\n"


def box_saturation_check(res, degree_bound):
    """Saturation check of a free resolution over the whole coefficient box.

    Walks every coefficient tuple in {0, ..., b}^d, keeps those with
    0 < sum <= b, and asks that each resulting element of F lying in the
    lattice M lies in the source monoid P.
    """
    gens = res.realized_generators
    scale = math.lcm(*(Fraction(x).denominator for g in gens for x in g))
    scaled = [[int(x * scale) for x in g] for g in gens]
    for a in product(range(degree_bound + 1), repeat=res.rank):
        if sum(a) > degree_bound or sum(a) == 0:
            continue
        x = [sum(c * g[j] for c, g in zip(a, scaled)) for j in range(res.rank)]
        if not any(v % scale for v in x):
            if not res.source.contains(tuple(v // scale for v in x)):
                return False
    return True


def rank(rows):
    """Rank over Q by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][col] / a[r][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def kernel_line(columns):
    """The relation among the columns when they span a one-dimensional
    relation space, else None: reduced row echelon form over Q, free
    variable set to 1."""
    n = len(columns)
    a = [[Fraction(c[j]) for c in columns] for j in range(len(columns[0]))]
    pivots, r = [], 0
    for col in range(n):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    free = [col for col in range(n) if col not in pivots]
    if len(free) != 1:
        return None
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        x[col] = -a[i][free[0]]
    return x


def tight_subset_rays(rows, d):
    """Extreme rays of the pointed cone {x in Q^d : r.x >= 0 for every row r},
    whose rows span Q^d, as primitive integer vectors in lex order.

    Every extreme ray is the line cut out by d - 1 of the rows, taken with
    the sign that is >= 0 on every row, so each subset of d - 1 rows with a
    one-dimensional kernel is tried.
    """
    out = set()
    for subset in combinations(rows, d - 1):
        x = kernel_line([[r[j] for r in subset] for j in range(d)])
        if x is None:
            continue
        signs = [sum(a * b for a, b in zip(r, x)) for r in rows]
        if all(s <= 0 for s in signs):
            x = [-v for v in x]
        elif not all(s >= 0 for s in signs):
            continue
        scale = math.lcm(*(v.denominator for v in x))
        ints = [int(v * scale) for v in x]
        g = math.gcd(*ints)
        out.add(tuple(v // g for v in ints))
    return sorted(out)


def _overlap(rays, c1, c2):
    """Whether cones c1 and c2 meet outside the cone on their shared rays.

    Tries the functional summing c1's dual rays at its rays outside the
    shared ones (full-dimensional c1 only), from either side; otherwise
    looks for a circuit of the rays of both cones that is >= 0 on c1's own
    rays and <= 0 on c2's, or the reverse, over every subset of the rays.
    """
    shared = set(c1) & set(c2)
    d = len(rays[0])
    for x, y in ((c1, c2), (c2, c1)):
        if len(x) == d:
            m = [Fraction(0)] * d
            for j, i in enumerate(x):
                if i not in shared:
                    u = solve_square([rays[k] for k in x], [int(k == j) for k in range(d)])
                    m = [p + q for p, q in zip(m, u)]
            if all(sum(p * q for p, q in zip(m, rays[i])) < 0 for i in y if i not in shared):
                return False
    a = [i for i in c1 if i not in shared]
    b = [i for i in c2 if i not in shared]
    indices = a + b + sorted(shared)
    for size in range(2, len(indices) + 1):
        for subset in combinations(range(len(indices)), size):
            c = kernel_line([rays[indices[k]] for k in subset])
            if c is None or 0 in c:
                continue
            full = [Fraction(0)] * len(indices)
            for k, x in zip(subset, c):
                full[k] = x
            on_a, on_b = full[:len(a)], full[len(a):len(a) + len(b)]
            if ((min(on_a) >= 0 and max(on_b) <= 0)
                    or (max(on_a) <= 0 and min(on_b) >= 0)):
                return True
    return False


def sign_masks(rays, cone, rows):
    """Per row of a cone, the row at ray cone[k] being rows[k]: an int with
    bit j set where the row pairs < 0 with rays[j], and the bit of the
    row's own ray, from one plain dot product per ray."""
    masks = []
    for i, row in zip(cone, rows):
        mask = 1 << i
        for j, r in enumerate(rays):
            if sum(p * q for p, q in zip(row, r)) < 0:
                mask |= 1 << j
        masks.append(mask)
    return masks


def paired_by_position(cone):
    """Whether the rays of a cone are lex-sorted and its i-th dual ray pairs
    positively with its i-th ray and to zero with every other ray."""
    rays, dual_rays = cone.rays, cone.dual_rays
    pairings = [[sum(a * b for a, b in zip(u, v)) for v in rays] for u in dual_rays]
    return (list(rays) == sorted(rays) and len(dual_rays) == len(rays)
            and all((x > 0) if i == k else (x == 0)
                    for i, row in enumerate(pairings) for k, x in enumerate(row)))


def pairwise_validate_fan(rays, maximal_cones, d):
    """Fan validation that compares every pair of maximal cones, as the
    library did before it read complete fans from their walls.

    Returns (None, (cones, maximal)) for a fan, with its face closure sorted
    by (size, indices), or (name of the library's exception class, detail)
    for the first rule broken, in the library's order; the detail of
    ``IntersectionNotFace`` is its pair of cones.
    """
    rays = [tuple(r) for r in rays]
    for i, r in enumerate(rays):
        if len(r) != d:
            return "FanError", i
        if not any(r) or math.gcd(*r) != 1:
            return "NonPrimitiveRay", i
    for i, r in enumerate(rays):
        if r in rays[:i]:
            return "DuplicateRay", i
    for c in maximal_cones:
        if any(not 0 <= i < len(rays) for i in c):
            return "RayIndexOutOfRange", tuple(c)
    listed = []
    for c in maximal_cones:
        idx = tuple(sorted(set(c)))
        if len(idx) != len(c):
            return "FanError", tuple(c)
        if rank([rays[i] for i in idx]) != len(idx):
            return "NonSimplicial", idx
        listed.append(idx)
    listed = set(listed) or {()}
    maximal = sorted(c for c in listed if not any(c != o and set(c) <= set(o) for o in listed))
    for c1, c2 in combinations(maximal, 2):
        if _overlap(rays, c1, c2):
            return "IntersectionNotFace", (c1, c2)
    cones = {f for c in maximal for k in range(len(c) + 1) for f in combinations(c, k)}
    return None, (sorted(cones, key=lambda c: (len(c), c)), maximal)


def _scaled_inverse_rows(vectors):
    """(rows, q): integer rows with rows . x / q the coordinates of x in the
    basis ``vectors`` (d independent vectors in Z^d), q > 0."""
    d = len(vectors)
    cols = [[v[j] for v in vectors] for j in range(d)]  # vectors as columns
    q = abs(det(cols))
    inverse_cols = [solve_square(cols, [int(i == j) for i in range(d)]) for j in range(d)]
    return [[int(inverse_cols[j][i] * q) for j in range(d)] for i in range(d)], int(q)


def box_quotient_verdict(p_rays, q_generators):
    """Closeness and saturation of Q = <q_generators> inside P = C(P) cap Z^d.

    ``p_rays`` are d independent rays of C(P). Returns "not close" when some
    ray is outside the cone on the generators (Fourier-Motzkin), "not
    saturated" when some lattice point of C(P) in Q^gp is missing from Q,
    else the order of Z^d / Q^gp. Every point of C(P) cap Q^gp is a point of
    the closed parallelepiped of the generators plus an element of Q, so the
    points of C(P) in that parallelepiped's bounding box decide saturation:
    Q^gp membership by residues modulo d independent generators, Q
    membership by subtracting generators inside C(P) down to the origin.
    """
    d = len(p_rays)
    gens = sorted({tuple(g) for g in q_generators if any(g)})
    if not gens or not all(fm_cone_contains(gens, v) for v in p_rays):
        return "not close"
    dual, _ = _scaled_inverse_rows(p_rays)  # row i . x >= 0: coordinate i of x

    def in_cone(x):
        return all(sum(a * b for a, b in zip(row, x)) >= 0 for row in dual)

    square = next(c for c in combinations(gens, d) if det(c) != 0)
    adj, q = _scaled_inverse_rows(square)

    def residue(x):  # class of x in Z^d / span(square)
        return tuple(sum(a * b for a, b in zip(row, x)) % q for row in adj)

    steps = [residue(g) for g in gens]
    classes, frontier = {residue((0,) * d)}, [residue((0,) * d)]
    while frontier:  # the subgroup Q^gp / span(square)
        frontier = [tuple((a + b) % q for a, b in zip(c, s)) for c in frontier for s in steps]
        frontier = [c for c in set(frontier) if c not in classes]
        classes.update(frontier)

    @cache
    def in_q(x):
        return not any(x) or any(
            in_cone(y) and in_q(y) for y in (tuple(a - b for a, b in zip(x, g)) for g in gens))

    lo = [sum(min(0, g[j]) for g in gens) for j in range(d)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(d)]
    for x in product(*(range(lo[j], hi[j] + 1) for j in range(d))):
        if in_cone(x) and residue(x) in classes and not in_q(x):
            return "not saturated"
    return q // len(classes)


def generator_coordinates(generators, x):
    """Coordinates of x in the basis ``generators`` of Q^d, by Gaussian
    elimination: a tuple of ``Fraction``s."""
    return tuple(solve_square([list(row) for row in zip(*generators)], x))


def multiplicity(rays, minor=det):
    """Index of the lattice that linearly independent rays span in its
    saturation: D_r, the gcd of their r x r minors (1 for no rays)."""
    return ([1] + determinantal_divisors(rays, minor))[-1]


def stacky_multiplicity(rays, levels, minor=det):
    """The multiplicity of the rays times the product of their levels, the
    order of the stabilizer of the cone they span."""
    return multiplicity(rays, minor) * math.prod(levels)


def is_tame(rays, levels, maximal_cones, characteristics):
    """Whether every maximal cone's stacky multiplicity is prime to every
    nonzero characteristic. A face's stabilizer is a quotient of its cone's,
    so its order divides the cone's and the maximal cones decide it."""
    return all(math.gcd(stacky_multiplicity([rays[i] for i in c], [levels[i] for i in c]), p) == 1
               for c in maximal_cones for p in characteristics if p)


def irreducible_elements(generators):
    """The irreducible elements of the monoid generated by vectors with
    nonnegative entries: the nonzero generators that are no sum of a
    generator and a nonzero element of the monoid, by a memoised search
    that subtracts generators down to the origin."""
    gens = sorted({tuple(g) for g in generators if any(g)})

    def minus(v, g):
        diff = tuple(a - b for a, b in zip(v, g))
        return diff if min(diff) >= 0 else None

    @cache
    def member(v):
        return not any(v) or any((w := minus(v, g)) is not None and member(w) for g in gens)

    return sorted(g for g in gens if not any(
        h != g and (w := minus(g, h)) is not None and member(w) for h in gens))
