import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplab.codec import Encoder
from dplab.distcore import (
    builtin_source,
    conditional_x_given_z,
    gaussian_grid,
    joint_from_encoder,
    make_distribution,
    source_from_json,
)

GRID = {"kind": "gaussian-grid", "mean": 0.0, "std": 1.0, "n": 9, "halfwidth": 4.0}
PAIR = {"points": [[1.0], [2.0]], "probs": [0.5, 0.5]}


def test_u4_construction():
    d = builtin_source("u4")
    assert d.n == 4 and d.dim == 1
    assert np.array_equal(d.points, np.arange(4.0).reshape(4, 1))
    assert np.array_equal(d.probs, np.full(4, 0.25))


def test_duplicate_merge():
    d = make_distribution([0.0, 0.0, 1.0], [0.25, 0.25, 0.5])
    assert d.points.ravel().tolist() == [0.0, 1.0]
    assert d.probs.tolist() == [0.5, 0.5]


def test_zero_mass_atoms_dropped():
    d = make_distribution([5.0, 7.0, 9.0], [0.5, 0.0, 0.5])
    assert d.points.ravel().tolist() == [5.0, 9.0]


def test_mass_error():
    with pytest.raises(ValueError, match="deviates from 1"):
        make_distribution([0.0, 1.0], [0.6, 0.6])


def test_negative_prob_error():
    with pytest.raises(ValueError, match="negative"):
        make_distribution([0.0, 1.0], [1.5, -0.5])


def test_length_mismatch_error():
    with pytest.raises(ValueError):
        make_distribution([0.0, 1.0, 2.0], [0.5, 0.5])


@pytest.mark.parametrize("points", [[[]], np.zeros((3, 0))], ids=["json", "array"])
def test_zero_coordinate_points_refused(points):
    probs = np.full(len(points), 1.0 / len(points))
    with pytest.raises(ValueError, match="same-dimension vectors"):
        make_distribution(points, probs)
    with pytest.raises(ValueError, match="same-dimension vectors"):
        source_from_json({"points": np.asarray(points).tolist(), "probs": probs.tolist()})


def test_nonfinite_point_error():
    with pytest.raises(ValueError):
        make_distribution([0.0, np.inf], [0.5, 0.5])


def test_small_drift_renormalized():
    probs = np.array([0.5, 0.5 + 5e-10])
    d = make_distribution([0.0, 1.0], probs)
    assert abs(d.probs.sum() - 1.0) <= 1e-12


def test_large_drift_rejected():
    with pytest.raises(ValueError, match="deviates"):
        make_distribution([0.0, 1.0], [0.5, 0.5 + 5e-9])


def test_lexicographic_sort_2d():
    d = make_distribution([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.25, 0.25, 0.5])
    assert d.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    assert d.probs.tolist() == [0.5, 0.25, 0.25]


def test_immutability():
    d = builtin_source("u4")
    with pytest.raises(ValueError):
        d.points[0, 0] = 99.0
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


@st.composite
def _raw_instances(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    dim = draw(st.integers(min_value=1, max_value=3))
    # small integer grid forces duplicates; weights kept away from zero
    pts = draw(st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim),
        min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    return np.asarray(pts, dtype=np.float64), np.asarray(weights)


@given(_raw_instances())
@settings(max_examples=150, deadline=None)
def test_canonicalization_properties(raw):
    pts, weights = raw
    probs = weights / weights.sum()
    d = make_distribution(pts, probs)

    again = make_distribution(d.points, d.probs)
    assert np.array_equal(d.points, again.points)
    assert np.array_equal(d.probs, again.probs)

    perm = np.random.default_rng(0).permutation(len(probs))
    shuffled = make_distribution(pts[perm], probs[perm])
    assert np.array_equal(d.points, shuffled.points)
    assert np.array_equal(d.probs, shuffled.probs)
    # a mass drift inside the input tolerance is renormalized just as stably
    drifted = probs * (1 + 3e-10)
    assert np.array_equal(make_distribution(pts, drifted).probs,
                          make_distribution(pts[perm], drifted[perm]).probs)

    assert abs(d.probs.sum() - 1.0) <= 1e-12
    assert np.unique(d.points, axis=0).shape[0] == d.n
    for i in range(d.n - 1):
        assert tuple(d.points[i]) < tuple(d.points[i + 1])


@given(st.lists(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), min_size=2, max_size=2),
                min_size=1, max_size=8).flatmap(lambda rows: st.tuples(st.just(rows),
                                                                      st.permutations(rows))))
@settings(max_examples=150, deadline=None)
def test_signed_zeros_permutation_invariant(rows):
    # −0.0 and +0.0 are one point, whichever sign comes first
    pts, perm = (np.asarray(r) for r in rows)
    probs = np.full(len(pts), 1.0 / len(pts))
    d, shuffled = make_distribution(pts, probs), make_distribution(perm, probs)
    assert d.points.tobytes() == shuffled.points.tobytes()
    assert d.probs.tobytes() == shuffled.probs.tobytes()
    assert not np.signbit(d.points[d.points == 0]).any()


def _make_distribution_unique(pts, probs):
    """make_distribution's canonical form through np.unique(axis=0), the form
    the lexsort helper replaced; −0.0 is read as +0.0 first."""
    uniq, inverse = np.unique(pts + 0.0, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.lexsort((probs, inverse))
    total = float(probs[order].sum())
    if abs(total - 1.0) > 1e-12:
        probs = probs / total
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, inverse[order], probs[order])
    keep = merged > 0.0
    return uniq[keep], merged[keep]


def test_make_distribution_matches_unique_reference():
    rng = np.random.default_rng(20)
    for t in range(3000):
        n, dim = int(rng.integers(1, 25)), 1 + t % 3
        # a small value set forces duplicates and signed-zero groups
        pts = rng.choice([-1.5, -1.0, -0.0, 0.0, 1.0, 2.0], size=(n, dim))
        probs = rng.random(n) * (rng.random(n) < 0.8)  # some zero masses
        if probs.sum() == 0:
            probs[0] = 1.0
        probs = probs / probs.sum()
        d = make_distribution(pts, probs)
        ref_points, ref_probs = _make_distribution_unique(pts, probs)
        assert d.points.shape == ref_points.shape, t
        assert d.points.tobytes() == ref_points.tobytes(), t
        assert d.probs.tobytes() == ref_probs.tobytes(), t


def test_gaussian_grid_shape_and_symmetry():
    d = gaussian_grid(0.0, 1.0, 33, 4.0)
    assert d.n == 33
    xs = d.points.ravel()
    assert xs[0] == -4.0 and xs[-1] == 4.0
    assert np.allclose(xs, -xs[::-1], atol=0)
    assert np.allclose(d.probs, d.probs[::-1], atol=0)
    assert abs(d.probs @ xs) <= 1e-15
    # weights peak at the center
    assert d.probs.argmax() == 16


def test_gaussian_grid_validation():
    with pytest.raises(ValueError):
        gaussian_grid(0.0, 1.0, 0, 4.0)
    with pytest.raises(ValueError):
        gaussian_grid(0.0, -1.0, 5, 4.0)
    with pytest.raises(ValueError):
        gaussian_grid(0.0, 1.0, 5, 0.0)


def test_source_from_json_points_form():
    d = source_from_json({"points": [[0.0], [1.0]], "probs": [0.5, 0.5]})
    assert d.n == 2
    assert source_from_json({"points": [0, 1], "probs": [0.5, 0.5]}).n == 2


def test_source_from_json_grid_form():
    d = source_from_json({"kind": "gaussian-grid", "mean": 0, "std": 1, "n": 33, "halfwidth": 4})
    ref = builtin_source("gauss33")
    assert np.array_equal(d.points, ref.points)
    assert np.array_equal(d.probs, ref.probs)
    # an integral float is a valid point count
    assert source_from_json({**GRID, "n": 9.0}).n == 9


def test_source_from_json_errors():
    with pytest.raises(ValueError, match="missing field"):
        source_from_json({"kind": "gaussian-grid", "mean": 0})
    with pytest.raises(ValueError):
        source_from_json({"nope": 1})
    with pytest.raises(ValueError):
        source_from_json([1, 2])
    # the CLI parses the file itself; a JSON string is not a spec
    with pytest.raises(ValueError, match="must be a JSON object"):
        source_from_json('{"points": [0, 1], "probs": [0.5, 0.5]}')


@pytest.mark.parametrize("spec", [
    {**GRID, "n": 9.7},
    {**GRID, "n": True},
    {**GRID, "n": "9"},
    {**GRID, "mean": "0"},
    {**GRID, "mean": True},
    {**GRID, "std": 10**400},
    {**PAIR, "points": [["1"], ["2"]]},
    {**PAIR, "points": [[True], [False]]},
    {**PAIR, "probs": ["0.5", "0.5"]},
], ids=["n-fraction", "n-bool", "n-string", "mean-string", "mean-bool", "std-huge-int",
        "points-strings", "points-bools", "probs-strings"])
def test_source_json_fields_must_be_numbers(spec):
    with pytest.raises(ValueError, match="must be a finite|numbers only"):
        source_from_json(spec)


def test_builtin_source_names():
    assert builtin_source("u2").n == 2
    assert builtin_source("gauss33").n == 33
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_source("u5")


def test_joint_from_encoder_u4():
    u4 = builtin_source("u4")
    enc = Encoder(np.array([0, 0, 1, 1]), 2)
    mass = joint_from_encoder(u4, enc)
    expected = np.array([[0.25, 0.25, 0.0, 0.0], [0.0, 0.0, 0.25, 0.25]])
    assert np.array_equal(mass, expected)
    assert np.array_equal(mass.sum(axis=1), [0.5, 0.5])
    assert np.array_equal(mass.sum(axis=0), u4.probs)


def test_joint_rate_zero():
    u4 = builtin_source("u4")
    mass = joint_from_encoder(u4, Encoder(np.zeros(4, dtype=int), 1))
    assert np.array_equal(mass, np.full((1, 4), 0.25))


def test_joint_interleaved_cells():
    u4 = builtin_source("u4")
    mass = joint_from_encoder(u4, Encoder(np.array([0, 1, 1, 0]), 2))
    assert mass[0, 0] == 0.25 and mass[0, 3] == 0.25
    assert mass[1, 1] == 0.25 and mass[1, 2] == 0.25


def test_joint_unassigned_point_error():
    u4 = builtin_source("u4")
    with pytest.raises(ValueError, match="unassigned support point"):
        joint_from_encoder(u4, Encoder(np.array([0, 0, 1]), 2))


def test_joint_code_range_guard():
    # a duck-typed encoder skips Encoder's own check; a -1 code must not
    # write into the last row
    u4 = builtin_source("u4")
    enc = types.SimpleNamespace(assignment=np.array([-1, 0, 0, 0]), K=2)
    with pytest.raises(ValueError, match=re.escape("code index out of range [0, 2)")):
        joint_from_encoder(u4, enc)


def test_conditional_examples():
    u4 = builtin_source("u4")
    mass = joint_from_encoder(u4, Encoder(np.array([0, 0, 1, 1]), 2))
    c0 = conditional_x_given_z(u4, mass, 0)
    assert c0.points.ravel().tolist() == [0.0, 1.0]
    assert c0.probs.tolist() == [0.5, 0.5]

    mass1 = joint_from_encoder(u4, Encoder(np.zeros(4, dtype=int), 1))
    c = conditional_x_given_z(u4, mass1, 0)
    assert np.array_equal(c.points, u4.points)
    assert np.array_equal(c.probs, u4.probs)


def test_conditional_zero_mass_cell_error():
    u4 = builtin_source("u4")
    mass = joint_from_encoder(u4, Encoder(np.zeros(4, dtype=int), 2))
    with pytest.raises(ValueError, match="zero-mass cell"):
        conditional_x_given_z(u4, mass, 1)
