"""Problem container, JSON round trip, and stock configuration tests."""
import json
import math

import pytest

from jetmin.errors import BadInputError
from jetmin.gain import GainFunction
from jetmin.geometry import DomainSpec, MarkedPoint
from jetmin.problems import (
    Numerics,
    Problem,
    dump_json,
    eps_bump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    random_concavity_problem,
    ring_problem,
    save_problem,
    single_point_problem,
    two_point_problem,
)
from jetmin.weights import WeightPair


def builders():
    return [
        single_point_problem(),
        two_point_problem(-1.0 / 3.0),
        two_point_problem(0.25 + 0.5j),
        eps_bump_problem(0.1),
        ring_problem(3),
        random_concavity_problem(11),
    ]


def test_round_trip_is_byte_identical():
    for p in builders():
        s1 = dump_json(problem_to_dict(p))
        p2 = problem_from_dict(json.loads(s1))
        s2 = dump_json(problem_to_dict(p2))
        assert s1 == s2


def test_save_load_round_trip(tmp_path):
    p = two_point_problem(0.7)
    path = tmp_path / "p.json"
    save_problem(p, path)
    q = load_problem(path)
    assert q.weights.marked == p.weights.marked
    assert q.gain == p.gain
    assert q.numerics == p.numerics
    # a second save produces the same bytes
    path2 = tmp_path / "q.json"
    save_problem(q, path2)
    assert path.read_text() == path2.read_text()


def test_moebius_domain_round_trip():
    dom = DomainSpec.moebius(2.0, 0.3, 0.1, 1.2)
    z0 = complex(dom.forward(0.3 - 0.2j))
    p = Problem(
        domain=dom,
        weights=WeightPair.standard((MarkedPoint(z0, jet_order=1, jet_coeff=2.0),)),
        gain=GainFunction.exponential(0.5),
        numerics=Numerics(N=10),
    )
    s1 = dump_json(problem_to_dict(p))
    p2 = problem_from_dict(json.loads(s1))
    assert p2.domain.kind == "moebius_image"
    assert p2.domain.map_coeffs == dom.map_coeffs
    assert p2.gain.rate == 0.5
    assert dump_json(problem_to_dict(p2)) == s1


def test_dump_json_sorts_keys_and_formats():
    s = dump_json({"b": 1, "a": True, "c": 1.0 / 3.0})
    assert s.index('"a"') < s.index('"b"') < s.index('"c"')
    assert "true" in s
    assert "0.33333333333333331" in s
    # short scalar lists stay on one line
    assert "[1, 2, 3]" in dump_json({"v": [1, 2, 3]})
    # complex values serialize as [re, im]
    assert "[1, -2]" in dump_json({"z": 1 - 2j})


def test_dump_json_round_trips_17_digits():
    vals = [math.pi, 6 * math.pi * math.e ** -2, 1e-300, -7.25]
    s = dump_json({"v": vals})
    back = json.loads(s)["v"]
    assert back == vals


def test_dump_json_rejects_non_finite():
    with pytest.raises(BadInputError):
        dump_json({"x": float("nan")})
    with pytest.raises(BadInputError):
        dump_json({"x": float("inf")})


def test_unknown_keys_rejected():
    base = problem_to_dict(single_point_problem())
    bad = dict(base)
    bad["extra"] = 1
    with pytest.raises(BadInputError):
        problem_from_dict(bad)
    bad = json.loads(dump_json(base))
    bad["marked"][0]["typo"] = 0
    with pytest.raises(BadInputError):
        problem_from_dict(bad)
    bad = json.loads(dump_json(base))
    bad["gain"]["delta"] = 0.5
    with pytest.raises(BadInputError):
        problem_from_dict(bad)
    bad = json.loads(dump_json(base))
    bad["numerics"]["mesh"]["rings"] = 9
    with pytest.raises(BadInputError):
        problem_from_dict(bad)


def test_marked_list_required():
    with pytest.raises(BadInputError):
        problem_from_dict({"marked": []})
    with pytest.raises(BadInputError):
        problem_from_dict({})


def test_bad_gain_kind_rejected():
    d = problem_to_dict(single_point_problem())
    d["gain"] = {"kind": "polynomial"}
    with pytest.raises(BadInputError):
        problem_from_dict(d)


def test_bad_domain_kind_rejected():
    d = problem_to_dict(single_point_problem())
    d["domain"] = {"kind": "bogus", "map_coeffs": [1, 0, 0, 1]}
    with pytest.raises(BadInputError, match="unknown domain kind"):
        problem_from_dict(d)
    d["domain"] = {"kind": "moebius_image"}
    with pytest.raises(BadInputError):
        problem_from_dict(d)


def test_scalar_complex_entries_accepted():
    p = problem_from_dict(
        {"marked": [{"location": [0.3, 0.0], "jet_coeff": 0.7, "coord_scale": 2}]}
    )
    pt = p.weights.marked[0]
    assert pt.jet_coeff == 0.7 + 0j
    assert pt.coord_scale == 2 + 0j
    assert pt.green_weight == 1.0
    assert p.numerics.N == 24 and p.numerics.r_count == 17
    assert p.gain.kind == "constant" and p.gain.value == 1.0


def test_minimal_dict_canonicalizes():
    d = {"marked": [{"location": [0.0, 0.0]}]}
    s1 = dump_json(problem_to_dict(problem_from_dict(d)))
    s2 = dump_json(problem_to_dict(problem_from_dict(json.loads(s1))))
    assert s1 == s2


def test_two_point_builder_structure():
    p = two_point_problem(-1.0 / 3.0)
    w = p.weights
    assert [pt.location for pt in w.marked] == [0j, 0.5 + 0j]
    assert [pt.green_weight for pt in w.marked] == [2.0, 1.0]
    assert [pt.jet_order for pt in w.marked] == [1, 0]
    assert w.marked[1].jet_coeff == -1.0 / 3.0 + 0j
    # standard pair: psi carries 2p Green masses, phi zeros match jet orders
    assert w.psi.green_terms == ((0j, 4.0), (0.5 + 0j, 2.0))
    assert w.phi.zeros == ((0j, 2), (0.5 + 0j, 1))
    assert w.phi.leading == 1 + 0j
    assert w.phi.bump == 0.0


def test_ring_builder_geometry():
    p = ring_problem(4, radius=0.3)
    locs = [pt.location for pt in p.weights.marked]
    assert len(locs) == 4
    assert all(abs(abs(z) - 0.3) < 1e-15 for z in locs)
    gaps = {abs(locs[j] - locs[(j + 1) % 4]) for j in range(4)}
    assert max(gaps) - min(gaps) < 1e-15
    with pytest.raises(BadInputError):
        ring_problem(0)
    with pytest.raises(BadInputError):
        ring_problem(2, radius=1.5)


def test_random_problem_deterministic_and_valid():
    d1 = problem_to_dict(random_concavity_problem(42))
    d2 = problem_to_dict(random_concavity_problem(42))
    assert dump_json(d1) == dump_json(d2)
    assert dump_json(d1) != dump_json(problem_to_dict(random_concavity_problem(43)))
    for seed in range(10):
        p = random_concavity_problem(seed)
        pts = p.weights.marked
        assert 2 <= len(pts) <= 4
        assert all(abs(pt.location) < 0.6 for pt in pts)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert abs(a.location - b.location) > 0.25
        assert all(0.5 <= pt.green_weight <= 3.0 for pt in pts)
        assert all(pt.jet_order <= 1 for pt in pts)
        assert all(abs(pt.jet_coeff) >= 0.2 for pt in pts)
        assert p.gain.kind in ("constant", "exponential")


def test_numerics_validation():
    with pytest.raises(BadInputError):
        Numerics(N=-1)
    with pytest.raises(BadInputError):
        Numerics(r_count=4)
    with pytest.raises(BadInputError):
        Numerics(tolerance=0.0)
    with pytest.raises(BadInputError):
        Numerics(tolerance=2.0)


def test_integer_fields_take_integral_numbers_only():
    base = {"marked": [{"location": [0, 0]}]}
    p = problem_from_dict({**base, "numerics": {"N": 24.0, "mesh": {"levels": 1.0}}})
    assert p.numerics.N == 24 and isinstance(p.numerics.N, int)
    assert p.numerics.mesh.levels == 1
    for numerics in ({"N": 24.7}, {"N": True}, {"r_count": 9.5}, {"tolerance": False},
                     {"mesh": {"angular": "64"}}):
        with pytest.raises(BadInputError):
            problem_from_dict({**base, "numerics": numerics})


def test_marked_point_outside_domain_rejected():
    with pytest.raises(BadInputError):
        Problem(
            domain=DomainSpec.unit_disc(),
            weights=WeightPair.standard((MarkedPoint(1.5 + 0j),)),
            gain=GainFunction.constant(1.0),
        )


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(BadInputError):
        load_problem(path)
