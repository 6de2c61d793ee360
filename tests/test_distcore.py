import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplab.codec import Encoder
from dplab.distcore import (
    builtin_source,
    conditional_x_given_z,
    expectation,
    gaussian_grid,
    joint_from_encoder,
    make_distribution,
    source_from_json,
)


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


def test_gaussian_grid_shape_and_symmetry():
    d = gaussian_grid(0.0, 1.0, 33, 4.0)
    assert d.n == 33
    xs = d.points.ravel()
    assert xs[0] == -4.0 and xs[-1] == 4.0
    assert np.allclose(xs, -xs[::-1], atol=0)
    assert np.allclose(d.probs, d.probs[::-1], atol=0)
    assert abs(d.mean()[0]) <= 1e-15
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


def test_source_from_json_string_and_grid_form():
    d = source_from_json(json.dumps(
        {"kind": "gaussian-grid", "mean": 0, "std": 1, "n": 33, "halfwidth": 4}))
    ref = builtin_source("gauss33")
    assert np.array_equal(d.points, ref.points)
    assert np.array_equal(d.probs, ref.probs)


def test_source_from_json_errors():
    with pytest.raises(ValueError, match="missing field"):
        source_from_json({"kind": "gaussian-grid", "mean": 0})
    with pytest.raises(ValueError):
        source_from_json({"nope": 1})
    with pytest.raises(ValueError):
        source_from_json([1, 2])


def test_builtin_source_names():
    assert builtin_source("u2").n == 2
    assert builtin_source("gauss33").n == 33
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_source("u5")


def test_joint_from_encoder_u4():
    u4 = builtin_source("u4")
    enc = Encoder(np.array([0, 0, 1, 1]), 2)
    j = joint_from_encoder(u4, enc)
    expected = np.array([[0.25, 0.25, 0.0, 0.0], [0.0, 0.0, 0.25, 0.25]])
    assert np.array_equal(j.mass, expected)
    assert np.array_equal(j.z_marginal(), [0.5, 0.5])
    assert np.array_equal(j.x_marginal(), u4.probs)


def test_joint_rate_zero():
    u4 = builtin_source("u4")
    j = joint_from_encoder(u4, Encoder(np.zeros(4, dtype=int), 1))
    assert np.array_equal(j.mass, np.full((1, 4), 0.25))


def test_joint_interleaved_cells():
    u4 = builtin_source("u4")
    j = joint_from_encoder(u4, Encoder(np.array([0, 1, 1, 0]), 2))
    assert j.mass[0, 0] == 0.25 and j.mass[0, 3] == 0.25
    assert j.mass[1, 1] == 0.25 and j.mass[1, 2] == 0.25


def test_joint_unassigned_point_error():
    u4 = builtin_source("u4")
    with pytest.raises(ValueError, match="unassigned support point"):
        joint_from_encoder(u4, Encoder(np.array([0, 0, 1]), 2))


def test_conditional_examples():
    u4 = builtin_source("u4")
    j = joint_from_encoder(u4, Encoder(np.array([0, 0, 1, 1]), 2))
    c0 = conditional_x_given_z(j, 0)
    assert c0.points.ravel().tolist() == [0.0, 1.0]
    assert c0.probs.tolist() == [0.5, 0.5]

    j1 = joint_from_encoder(u4, Encoder(np.zeros(4, dtype=int), 1))
    c = conditional_x_given_z(j1, 0)
    assert np.array_equal(c.points, u4.points)
    assert np.array_equal(c.probs, u4.probs)


def test_conditional_zero_mass_cell_error():
    u4 = builtin_source("u4")
    j = joint_from_encoder(u4, Encoder(np.zeros(4, dtype=int), 2))
    with pytest.raises(ValueError, match="zero-mass cell"):
        conditional_x_given_z(j, 1)


def test_expectation_examples():
    u4 = builtin_source("u4")
    assert expectation(u4, lambda x: x[0]) == 1.5
    assert expectation(u4, lambda x: (x[0] - 1.5) ** 2) == 1.25
    pm = make_distribution([7.0], [1.0])
    assert expectation(pm, lambda x: x[0] ** 2) == 49.0


def test_expectation_on_joint():
    u4 = builtin_source("u4")
    j = joint_from_encoder(u4, Encoder(np.array([0, 0, 1, 1]), 2))
    assert expectation(j, lambda x, z: float(z)) == 0.5
    assert expectation(j, lambda x, z: x[0]) == 1.5


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_expectation_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    w = rng.random(n) + 0.05
    d = make_distribution(rng.normal(size=n), w / w.sum())
    f = lambda x: float(np.sin(x[0]))
    g = lambda x: float(x[0] ** 2)
    combo = expectation(d, lambda x: a * f(x) + b * g(x))
    split = a * expectation(d, f) + b * expectation(d, g)
    assert abs(combo - split) <= 1e-12 * max(1.0, abs(split))
