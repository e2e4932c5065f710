import dataclasses
import functools
import json
import math
import random
import sys
from itertools import combinations, product

import pytest

from conftest import (
    FIXTURES,
    a1_singularity_fan,
    a2_fan,
    p1_fan,
    p2_fan,
    random_full_cone_rays,
    random_stacky,
    shuffled,
    zoo_fans,
)
from oracles import (
    coordinate_rays,
    det,
    generator_coordinates,
    is_tame,
    multiplicity,
    stacky_multiplicity,
)

from toristack.cones import Cone, dual_cone
from toristack.charts import (
    LocalChart,
    boundary_divisors_from_charts,
    face_group,
    is_kummer_etale_chart,
    local_chart,
    split_cone,
    stabilizer,
)
from toristack.cli import check_document, document_from_json
from toristack.linalg import (
    FiniteAbelianGroup,
    determinant,
    dot,
    primitive_vector,
    smith_normal_form,
)
from toristack.monoids import AffineMonoid, admissible_resolution, split_coordinates
from toristack.stackyfan import StackyFan, validate_fan


def ray_fan(level=1):
    return StackyFan.build(validate_fan([(1,)], [[0]]), {0: level})


def cone_multiplicity(sf, cone):
    return multiplicity([sf.fan.rays[i] for i in cone])


def cone_stacky_multiplicity(sf, cone):
    return stacky_multiplicity([sf.fan.rays[i] for i in cone], [sf.levels[i] for i in cone])


def tame(sf, chars):
    return is_tame(sf.fan.rays, sf.levels, sf.fan.maximal_cones, chars)


def boundary_divisors(sf):
    return boundary_divisors_from_charts(
        sf, {c: local_chart(sf, c) for c in sf.fan.maximal_cones})


# -- splitting -------------------------------------------------------------------

def test_split_full_dimensional():
    n1, n2 = split_cone([(1, 0), (1, 2)], 2)
    assert n1 == [(1, 0), (0, 1)]
    assert n2 == []


def test_split_plane_cone_in_3d():
    n1, n2 = split_cone([(1, 1, 0), (1, -1, 0)], 3)
    assert n1 == [(1, 0, 0), (0, 1, 0)]
    assert n2 == [(0, 0, 1)]
    assert abs(determinant(n1 + n2)) == 1


def test_split_zero_cone():
    n1, n2 = split_cone([], 3)
    assert n1 == []
    assert len(n2) == 3
    assert abs(determinant(n2)) == 1


def test_split_random_direct_sum():
    rng = random.Random(4242)
    for _ in range(40):
        d = rng.randint(1, 4)
        k = rng.randint(1, d)
        vecs = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        c = Cone.from_generators(vecs, d)
        if not c.strictly_convex or not c.rays:
            continue
        n1, n2 = split_cone(c.rays, d)
        assert abs(determinant(list(n1) + list(n2))) == 1


# -- local charts ------------------------------------------------------------------

def test_smooth_chart_is_plain_affine_space():
    sf = StackyFan.build(a2_fan(), {})
    chart = local_chart(sf, [0, 1])
    assert chart.r == 2 and chart.torus_rank == 0
    assert chart.group == FiniteAbelianGroup()
    assert chart.action_weights == ((), ())


def test_a1_chart_weights():
    sf = StackyFan.build(a1_singularity_fan(), {})
    chart = local_chart(sf, [0, 1])
    assert chart.r == 2
    assert chart.group.invariant_factors == (2,)
    # both coordinates carry the nontrivial character of Z/2: a zero weight
    # would leave a coordinate invariant, contradicting R[P] = R[F]^G
    assert chart.action_weights == ((1,), (1,))


def test_ray_level_three_chart():
    chart = local_chart(ray_fan(3), [0])
    assert chart.r == 1
    assert chart.group.invariant_factors == (3,)
    assert chart.action_weights == ((1,),)


def test_zero_cone_chart_is_torus():
    sf = StackyFan.build(a1_singularity_fan(), {})
    chart = local_chart(sf, [])
    assert chart.r == 0 and chart.torus_rank == 2
    assert chart.group == FiniteAbelianGroup()


def test_lower_dimensional_cone_chart():
    fan = validate_fan([(1, 0, 0), (0, 1, 0)], [[0, 1]])
    sf = StackyFan.build(fan, {0: 2})
    chart = local_chart(sf, [0, 1])
    assert chart.r == 2 and chart.torus_rank == 1
    assert chart.group.invariant_factors == (2,)


# -- stabilizers -------------------------------------------------------------------

def test_stabilizer_zero_cone_trivial():
    sf = StackyFan.build(p2_fan(), {})
    assert stabilizer(sf, []) == FiniteAbelianGroup()


def test_stabilizer_a1():
    sf = StackyFan.build(a1_singularity_fan(), {})
    g = stabilizer(sf, [0, 1])
    assert g.invariant_factors == (2,)
    assert g.order == cone_stacky_multiplicity(sf, [0, 1]) == 2


def test_stabilizer_ray_level():
    g = stabilizer(ray_fan(3), [0])
    assert g.invariant_factors == (3,)


def test_stabilizer_formula_random():
    rng = random.Random(321)
    for fan in zoo_fans():
        sf = random_stacky(rng, fan)
        for c in fan.cones:
            assert stabilizer(sf, c).order == cone_stacky_multiplicity(sf, c)


def test_stabilizer_divides_up_the_face_lattice():
    rng = random.Random(654)
    for fan in zoo_fans():
        sf = random_stacky(rng, fan)
        for c in fan.cones:
            big = stabilizer(sf, c).order
            for tau in fan.cones:
                if set(tau) <= set(c):
                    assert big % stabilizer(sf, tau).order == 0


def test_weights_generate_group():
    rng = random.Random(987)
    for fan in zoo_fans():
        sf = random_stacky(rng, fan)
        for c in fan.maximal_cones:
            chart = local_chart(sf, c)
            factors = chart.group.invariant_factors
            if not factors:
                continue
            # subgroup generated by the weights is everything iff stacking
            # the relations diag(d_k) with the weight columns has cokernel 0
            cols = [[d if i == j else 0 for i, _ in enumerate(factors)]
                    for j, d in enumerate(factors)]
            cols += [list(w) for w in chart.action_weights]
            s, _, _ = smith_normal_form(list(map(list, zip(*cols))))
            diag = [s[i][i] for i in range(len(factors))]
            assert all(x == 1 for x in diag), (c, chart.action_weights)


def test_invariant_monomials_are_exactly_p():
    # monomials of F fixed by every character are the images of P elements
    rng = random.Random(135)
    degree = 6
    for _ in range(10):
        d = rng.randint(1, 2)
        fan_rays = random_full_cone_rays(rng, d, 3)
        try:
            fan = validate_fan(fan_rays, [list(range(d))])
        except Exception:
            continue
        sf = random_stacky(rng, fan, max_level=3)
        chart = local_chart(sf, list(range(d)))
        p = AffineMonoid.from_dual_cone(dual_cone(fan.cone_geometry(tuple(range(d)))))
        res = admissible_resolution(
            p, dict(zip(p.defining_cone.rays, chart.levels)))
        factors = chart.group.invariant_factors
        image = {tuple(int(x) for x in generator_coordinates(res.realized_generators, h))
                 for h in p.hilbert_basis}

        def monoid_member(vec):
            # membership in the submonoid generated by the P images
            target = list(vec)
            stack = [(0, tuple(target))]
            seenv = set()
            while stack:
                idx, rest = stack.pop()
                if all(x == 0 for x in rest):
                    return True
                if rest in seenv:
                    continue
                seenv.add(rest)
                for g in image:
                    nxt = tuple(a - b for a, b in zip(rest, g))
                    if all(x >= 0 for x in nxt):
                        stack.append((0, nxt))
            return False

        for monomial in product(range(degree + 1), repeat=chart.r):
            if sum(monomial) > degree:
                continue
            fixed = all(
                sum(w[k] * monomial[i] for i, w in enumerate(chart.action_weights))
                % factors[k] == 0
                for k in range(len(factors)))
            assert fixed == monoid_member(monomial), (fan_rays, monomial)


# -- tameness flags ----------------------------------------------------------------

def deligne_mumford(sf, chars):
    return all(is_kummer_etale_chart(local_chart(sf, c), chars) for c in sf.fan.maximal_cones)


def test_dm_examples():
    # the stack is Deligne-Mumford exactly when the stacky fan is tame
    smooth = StackyFan.build(a2_fan(), {})
    assert deligne_mumford(smooth, [2, 3, 5]) and tame(smooth, [2, 3, 5])
    sfa1 = StackyFan.build(a1_singularity_fan(), {})
    assert not deligne_mumford(sfa1, [2]) and not tame(sfa1, [2])
    assert deligne_mumford(sfa1, [0]) and tame(sfa1, [0])


def test_dm_equals_tame_random():
    # Deligne-Mumford, read as every maximal cone's chart being Kummer log
    # etale, agrees with tameness from the oracle's stacky multiplicities
    rng = random.Random(246)
    for fan in zoo_fans():
        for _ in range(3):
            sf = random_stacky(rng, fan)
            chars = rng.sample([0, 2, 3, 5, 7], k=rng.randint(1, 3))
            assert deligne_mumford(sf, chars) == tame(sf, chars)


def test_kummer_etale_chart():
    trivial = local_chart(StackyFan.build(a2_fan(), {}), [0, 1])
    assert is_kummer_etale_chart(trivial, [2, 3])
    two = local_chart(StackyFan.build(a1_singularity_fan(), {}), [0, 1])
    assert not is_kummer_etale_chart(two, [2])
    assert is_kummer_etale_chart(two, [5])
    six = local_chart(StackyFan.build(p1_fan(), {0: 6}), [0])
    assert is_kummer_etale_chart(six, [5])
    assert not is_kummer_etale_chart(six, [3])


# -- cycle coordinates ---------------------------------------------------------------

def test_cycle_coordinates_single_ray():
    sf = StackyFan.build(a2_fan(), {})
    chart = local_chart(sf, [0, 1])
    coords = chart.cycle_coordinates((0,))
    assert len(coords) == 1
    assert chart.fan_rays[coords[0]] == 0


def test_cycle_coordinates_full_cone():
    sf = StackyFan.build(a1_singularity_fan(), {})
    assert local_chart(sf, [0, 1]).cycle_coordinates((0, 1)) == [0, 1]


def test_cycle_coordinates_zero_cone():
    sf = StackyFan.build(a1_singularity_fan(), {})
    assert local_chart(sf, [0, 1]).cycle_coordinates(()) == []


def test_boundary_divisors_p1():
    sf = StackyFan.build(p1_fan(), {})
    table = boundary_divisors(sf)
    assert len(table) == 2
    for entry in table:
        assert len(entry["chart_coordinates"]) == 1
        assert set(entry["chart_coordinates"].values()) == {0}


def test_boundary_divisors_p2():
    sf = StackyFan.build(p2_fan(), {})
    table = boundary_divisors(sf)
    assert len(table) == 3
    for entry in table:
        # each ray lies in exactly two of the three maximal cones
        assert len(entry["chart_coordinates"]) == 2
    per_chart = {}
    for entry in table:
        for cone_key, coord in entry["chart_coordinates"].items():
            per_chart.setdefault(cone_key, []).append(coord)
    assert all(sorted(v) == [0, 1] for v in per_chart.values())


def test_boundary_divisors_p1_levels():
    sf = StackyFan.build(p1_fan(), {0: 2, 1: 3})
    table = boundary_divisors(sf)
    assert [e["level"] for e in table] == [2, 3]
    assert stabilizer(sf, [0]).invariant_factors == (2,)
    assert stabilizer(sf, [1]).invariant_factors == (3,)


def test_correspondence_cardinalities_every_chart():
    rng = random.Random(777)
    for fan in zoo_fans():
        sf = random_stacky(rng, fan)
        for c in fan.maximal_cones:
            chart = local_chart(sf, c)
            assert len(chart.fan_rays) == chart.r == len(c)
            assert sorted(chart.fan_rays) == list(c)
            assert len(chart.action_weights) == chart.r


# -- coordinates name their fan rays --------------------------------------------------

def stacky_fans_with_shuffled_rays():
    """The fixtures, the zoo with permuted ray indices and random levels, and
    single random cones of rank 2-4 and |det| <= 60 whose rays are listed in
    random order."""
    out = [check_document(document_from_json(path.read_text()))[1]
           for path in sorted(FIXTURES.glob("*.json"))]
    rng = random.Random(2718)
    out += [random_stacky(rng, shuffled(rng, fan)) for fan in zoo_fans()]
    while len(out) < 60:
        d = rng.randint(2, 4)
        rays = [primitive_vector(v) for v in random_full_cone_rays(rng, d, 3)]
        if abs(det(rays)) <= 60:
            out.append(random_stacky(rng, validate_fan(rays, [list(range(d))])))
    return out


def element_order(weight, factors):
    return math.lcm(*(d // math.gcd(x, d) for x, d in zip(weight, factors)))


def test_coordinates_pair_with_their_fan_rays():
    # coordinate i sits on the i-th ray of C(P) in lex order, which pairs
    # positively with exactly one ray of the cone: that ray is fan_rays[i]
    # and carries the level of the coordinate
    for sf in stacky_fans_with_shuffled_rays():
        fan = sf.fan
        for c in fan.cones[1:]:
            chart = local_chart(sf, c)
            stars, local = coordinate_rays(chart.n_prime_basis, [fan.rays[i] for i in c])
            for i, (w, _) in enumerate(stars):
                rho = chart.fan_rays[i]
                assert [j for j, u in zip(c, local) if dot(w, u) > 0] == [rho], (fan.rays, c)
                assert chart.levels[i] == sf.levels[rho], (fan.rays, c)
            if abs(det(local)) == 1:
                # over a smooth cone G is the product of the mu_n of its rays
                # and coordinate i generates the factor of its own ray
                orders = [element_order(w, chart.group.invariant_factors)
                          for w in chart.action_weights]
                assert orders == list(chart.levels), (fan.rays, c)


def test_local_chart_builds_no_cone_monoid_or_resolution(monkeypatch):
    # a chart is one inverse and one Smith normal form: no Cone, Hilbert
    # basis or free resolution
    import toristack.charts as charts_mod
    import toristack.monoids as monoids_mod

    sfs = stacky_fans_with_shuffled_rays()
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"local_chart called {name}")
        return record

    monkeypatch.setattr(Cone, "from_generators", classmethod(forbidden("Cone.from_generators")))
    for module in (monoids_mod, charts_mod):
        for name in ("hilbert_basis", "admissible_resolution", "minimal_free_resolution"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    monkeypatch.setattr(monoids_mod, "_hilbert_basis_full", forbidden("_hilbert_basis_full"))
    monkeypatch.setattr(monoids_mod.FreeResolution, "__post_init__", forbidden("FreeResolution"))
    for sf in sfs:
        for c in sf.fan.cones:
            local_chart(sf, c)
    assert calls == []


def test_full_dimensional_chart_runs_one_smith_normal_form(monkeypatch):
    # N' = Z^d for a full-dimensional cone: the splitting runs no normal
    # form, and the chart's only one is the Smith elimination of its
    # free-net matrix in its coordinates, which gives the group and the
    # action weights
    import toristack.charts as charts_mod
    import toristack.linalg as linalg_mod
    import toristack.monoids as monoids_mod

    calls = []

    def counting(name, fn):
        def record(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return record

    for module in (linalg_mod, charts_mod, monoids_mod):
        for name in ("smith_elimination", "hermite_elimination"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    full = [(sf, c) for sf in stacky_fans_with_shuffled_rays()
            for c in sf.fan.maximal_cones if len(c) == sf.fan.ambient_rank]
    assert len(full) > 50
    for sf, c in full:
        calls.clear()
        chart = local_chart(sf, c)
        assert calls == ["smith_elimination"]
        assert chart.n_doubleprime_basis == ()


def chart_through_resolution(sf, c):
    """(group, weights, fan rays, levels) the long way: the local cone, the
    Hilbert basis of its dual, the ray-star bijection one ray of C(P) at a
    time, the level-scaled resolution, its coordinate matrix and its Smith
    normal form."""
    rays = [sf.fan.rays[i] for i in c]
    local = split_coordinates(rays, *split_cone(rays, sf.fan.ambient_rank))
    p = AffineMonoid.from_dual_cone(dual_cone(Cone.from_generators(local, len(c))))
    fan_rays = []
    for w in p.defining_cone.rays:
        hits = [rho for rho, u in zip(c, local) if dot(w, u) > 0]
        assert len(hits) == 1
        fan_rays.append(hits[0])
    levels = tuple(sf.levels[rho] for rho in fan_rays)
    res = admissible_resolution(p, dict(zip(p.defining_cone.rays, levels)))
    s, u, _ = smith_normal_form(res.coordinate_matrix())
    diag = [s[i][i] for i in range(len(c))]
    torsion = [i for i, x in enumerate(diag) if x > 1]
    weights = tuple(tuple(u[row][i] % diag[row] for row in torsion) for i in range(len(c)))
    return FiniteAbelianGroup(tuple(diag[i] for i in torsion)), weights, tuple(fan_rays), levels


def test_chart_matches_the_resolution_path():
    for sf in stacky_fans_with_shuffled_rays():
        for c in sf.fan.cones[1:]:
            chart = local_chart(sf, c)
            assert (chart.group, chart.action_weights, chart.fan_rays, chart.levels) \
                == chart_through_resolution(sf, c), (sf.fan.rays, sf.levels, c)
            assert chart.multiplicity == cone_multiplicity(sf, c)


def test_face_group_and_multiplicity_need_no_splitting(monkeypatch):
    # a face's group is the quotient of a maximal cone's group by the action
    # weights of the coordinates off the face, and its multiplicity |G_tau|
    # over the levels on it: face_group splits, inverts and Hermite-reduces
    # nothing. Whichever maximal cone holds the face, it agrees with the
    # face's own chart, the multiplicity of its cone and the stabilizer.
    # The charts are built before anything is forbidden.
    import toristack.charts as charts_mod
    import toristack.linalg as linalg_mod

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"face_group called {name}")
        return fail

    charts = [(sf, local_chart(sf, m)) for sf in stacky_fans_with_shuffled_rays()
              for m in sf.fan.maximal_cones]
    for name in ("_coordinates", "split_cone", "saturate", "complete_to_basis", "determinant"):
        monkeypatch.setattr(charts_mod, name, forbidden(name))
    monkeypatch.setattr(linalg_mod, "hermite_elimination", forbidden("hermite_elimination"))
    inverse = linalg_mod.integer_inverse
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("toristack") and vars(module).get("integer_inverse") is inverse:
            monkeypatch.setattr(module, "integer_inverse", forbidden("integer_inverse"))
    built = [(sf, f, face_group(chart, f)) for sf, chart in charts
             for k in range(chart.r + 1) for f in combinations(chart.cone, k)]
    assert any(0 < len(f) < sf.fan.ambient_rank for sf, f, _ in built)
    monkeypatch.undo()
    for sf, f, (group, q) in built:
        assert q == cone_multiplicity(sf, f)
        assert group.order == cone_stacky_multiplicity(sf, f)
        assert stabilizer(sf, f) == group
        own = local_chart(sf, f)
        assert (own.group, own.multiplicity) == (group, q), (sf.fan.rays, sf.levels, f)


def test_only_cones_dualizes_a_simplicial_cone():
    # the charts and the fan read a cone's dual rows from Fan.dual_rows,
    # which cones.dual_rows fills; neither module inverts a matrix itself
    import toristack.charts as charts_mod
    import toristack.stackyfan as fan_mod

    for module in (charts_mod, fan_mod):
        assert "integer_inverse" not in vars(module), module.__name__


def test_report_splits_only_maximal_cones(tmp_path, monkeypatch, capsys):
    # (P^1)^3 has 27 cones; its report reads coordinates, weights and
    # splittings only over the 8 maximal ones
    import toristack.charts as charts_mod
    from toristack.cli import main

    split, coordinates = [], charts_mod._coordinates

    def counting(fan, key):
        split.append(key)
        return coordinates(fan, key)

    monkeypatch.setattr(charts_mod, "_coordinates", counting)
    rays = [e for i in range(3) for e in ([int(j == i) for j in range(3)],
                                          [-int(j == i) for j in range(3)])]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=3)]
    path = tmp_path / "p1_cubed.json"
    path.write_text(json.dumps({"rank": 3, "rays": rays, "max_cones": cones,
                                "levels": {"0": 2, "3": 3}}))
    assert main(["report", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fan"]["num_cones"] == 27
    assert sorted(split) == sorted(tuple(sorted(c)) for c in cones)


def test_chart_coordinates_check_the_group_and_multiplicity(monkeypatch):
    # the chart's group comes from its own Smith diagonal, and the
    # multiplicity from the raw rays (|det| at full dimension, their Smith
    # diagonal below it) is its witness: either one off trips the chart
    import toristack.charts as charts_mod

    full = StackyFan.build(a1_singularity_fan(), {0: 3})
    lower = StackyFan.build(validate_fan([(1, 0, 0), (1, 2, 0)], [[0, 1]]), {1: 3})
    charts = [(sf, local_chart(sf, [0, 1])) for sf in (full, lower)]
    assert [c.multiplicity for _, c in charts] == [2, 2]
    determinant, smith_elimination = charts_mod.determinant, charts_mod.smith_elimination

    def rays_diagonal_doubled(s, u=None, v=None):
        diag = smith_elimination(s, u, v)
        return diag if u is not None else [2 * diag[0]] + diag[1:]

    monkeypatch.setattr(charts_mod, "determinant", lambda rows: determinant(rows) + 1)
    monkeypatch.setattr(charts_mod, "smith_elimination", rays_diagonal_doubled)
    for (sf, chart), wrong in zip(charts, (9, 12)):
        with pytest.raises(AssertionError, match=f"stabilizer order 6 differs from "
                                                 f"stacky multiplicity {wrong}"):
            local_chart(sf, [0, 1])
    monkeypatch.undo()
    assert all(chart == local_chart(sf, [0, 1]) for sf, chart in charts)


def test_face_group_checks_that_the_levels_divide_its_order():
    # the levels on a face divide the order of its group; a chart whose
    # levels do not trips face_group
    chart = local_chart(ray_fan(3), [0])
    assert face_group(chart, (0,)) == (FiniteAbelianGroup((3,)), 1)
    assert face_group(chart, ()) == (FiniteAbelianGroup(), 1)
    smooth = local_chart(StackyFan.build(a2_fan(), {}), [0, 1])
    for wrong, face, message in ((dataclasses.replace(chart, levels=(9,)), (0,),
                                  r"levels 9 on face \(0,\) do not divide its stabilizer order 3"),
                                 (dataclasses.replace(smooth, levels=(2, 1)), (0, 1),
                                  r"levels 2 on face \(0, 1\) do not divide its stabilizer order 1")):
        with pytest.raises(AssertionError, match=message):
            face_group(wrong, face)


def test_group_order_is_checked_against_the_stacky_multiplicity(monkeypatch):
    # a multiplicity off by one trips the chart, the stabilizer that reads
    # one, and every command that reads a group (exit 3)
    import toristack.charts as charts_mod
    from toristack.cli import main

    determinant = charts_mod.determinant
    monkeypatch.setattr(charts_mod, "determinant", lambda rows: determinant(rows) + 1)
    sf = StackyFan.build(a1_singularity_fan(), {0: 3})
    message = "stabilizer order 6 differs from stacky multiplicity 9"
    for compute in (local_chart, stabilizer):
        with pytest.raises(AssertionError, match=message):
            compute(sf, (0, 1))
    for command in (["stabilizer", "--cone", "0,1"], ["mfr", "--cone", "0,1"], ["report"]):
        assert main([command[0], str(FIXTURES / "a1_cone.json"), *command[1:]]) == 3


def test_one_chart_computes_its_coordinates_once(monkeypatch):
    # a LocalChart is a plain frozen record, every field computed when it is
    # built, with no reference back to the stacky fan
    import toristack.charts as charts_mod

    fields = {f.name for f in dataclasses.fields(LocalChart)}
    assert "sf" not in fields
    assert not any(isinstance(v, functools.cached_property) for v in vars(LocalChart).values())
    calls = []
    coordinates = charts_mod._coordinates

    def counting(fan, key):
        calls.append(key)
        return coordinates(fan, key)

    monkeypatch.setattr(charts_mod, "_coordinates", counting)
    for sf in stacky_fans_with_shuffled_rays():
        for c in sf.fan.maximal_cones:
            calls.clear()
            chart = local_chart(sf, c)
            chart.action_weights, chart.fan_rays, chart.levels, chart.defining_cone
            assert calls == [c]  # once when built, not again when read
            with pytest.raises(dataclasses.FrozenInstanceError):
                chart.levels = ()

