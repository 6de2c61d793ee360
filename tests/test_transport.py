import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplab.distcore import builtin_source, make_distribution
from dplab.transport import (
    SIZE_CAP,
    solve_transport_lp,
    w1_exact,
    w2sq_exact,
    w_1d_closed_form,
)

U4 = builtin_source("u4")
HALF_POINTS = make_distribution([0.5, 2.5], [0.5, 0.5])


def _vertex_optimum(cost, a, b):
    """Minimum cost over all basic feasible solutions of the transportation
    polytope, found by brute-force basis enumeration. Independent of linprog."""
    nr, nc = cost.shape
    rows = np.zeros((nr + nc, nr * nc))
    for i in range(nr):
        rows[i, i * nc:(i + 1) * nc] = 1.0
    for j in range(nc):
        rows[nr + j, j::nc] = 1.0
    # the constraints have rank nr+nc-1; drop the redundant last one
    mat = rows[:-1]
    rhs = np.concatenate([a, b])[:-1]
    flat = cost.reshape(-1)
    best = np.inf
    for basis in itertools.combinations(range(nr * nc), nr + nc - 1):
        sub = mat[:, basis]
        try:
            x = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        best = min(best, float(flat[list(basis)] @ x))
    return best


def test_w1_self_distance_zero():
    assert w1_exact(U4, U4).cost <= 1e-12


def test_w1_point_masses():
    a = make_distribution([0.0], [1.0])
    b = make_distribution([3.0], [1.0])
    assert abs(w1_exact(a, b).cost - 3.0) <= 1e-12


def test_w1_u4_vs_cell_means():
    assert abs(w1_exact(U4, HALF_POINTS).cost - 0.5) <= 1e-10


def test_w2sq_self_distance_zero():
    assert w2sq_exact(U4, U4).cost <= 1e-12


def test_w2sq_u4_vs_cell_means():
    assert abs(w2sq_exact(U4, HALF_POINTS).cost - 0.25) <= 1e-10


def test_w2sq_u4_vs_interpolated_support():
    b = make_distribution([0.25, 0.75, 2.25, 2.75], np.full(4, 0.25))
    assert abs(w2sq_exact(U4, b).cost - 0.0625) <= 1e-10


def test_w1_asymmetric_masses():
    a = make_distribution([0.0, 1.0], [0.75, 0.25])
    b = make_distribution([0.0, 1.0], [0.25, 0.75])
    assert abs(w1_exact(a, b).cost - 0.5) <= 1e-10
    assert abs(w2sq_exact(a, b).cost - 0.5) <= 1e-10


def test_closed_form_examples():
    a = make_distribution([0.0, 1.0], [0.5, 0.5])
    b = make_distribution([2.0, 3.0], [0.5, 0.5])
    assert w_1d_closed_form(a, a, 1) == 0.0
    assert w_1d_closed_form(a, a, 2) == 0.0
    assert abs(w_1d_closed_form(a, b, 2) - 4.0) <= 1e-12
    assert abs(w_1d_closed_form(U4, HALF_POINTS, 2) - 0.25) <= 1e-12
    assert abs(w_1d_closed_form(U4, HALF_POINTS, 1) - 0.5) <= 1e-12


def test_closed_form_validation():
    two_d = make_distribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="dimension 1"):
        w_1d_closed_form(two_d, two_d, 1)
    with pytest.raises(ValueError, match="order"):
        w_1d_closed_form(U4, U4, 3)


def test_lp_1x1():
    plan = solve_transport_lp(np.array([[7.5]]), [1.0], [1.0])
    assert plan.pi.tolist() == [[1.0]]
    assert plan.cost == 7.5


def test_lp_2x2_perfect_matching():
    plan = solve_transport_lp(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], [0.5, 0.5])
    assert plan.cost <= 1e-12
    assert np.allclose(plan.pi, np.diag([0.5, 0.5]), atol=1e-10)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_lp_matches_vertex_enumeration(shape, seed):
    rng = np.random.default_rng(seed)
    cost = rng.random(shape)
    a = rng.random(shape[0]) + 0.1
    b = rng.random(shape[1]) + 0.1
    a, b = a / a.sum(), b / b.sum()
    plan = solve_transport_lp(cost, a, b)
    assert abs(plan.cost - _vertex_optimum(cost, a, b)) <= 1e-9


def test_plan_invariants():
    rng = np.random.default_rng(7)
    a = make_distribution(rng.normal(size=(6, 2)), np.full(6, 1 / 6))
    wb = rng.random(5) + 0.1
    b = make_distribution(rng.normal(size=(5, 2)), wb / wb.sum())
    plan = w2sq_exact(a, b)
    assert np.abs(plan.pi.sum(axis=1) - a.probs).max() <= 1e-9
    assert np.abs(plan.pi.sum(axis=0) - b.probs).max() <= 1e-9
    assert np.all(plan.pi >= 0)
    d = a.points[:, None, :] - b.points[None, :, :]
    sq = np.einsum("ijk,ijk->ij", d, d)
    assert abs(plan.cost - float(np.sum(plan.pi * sq))) <= 1e-12


def test_dimension_mismatch_error():
    two_d = make_distribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="dimension mismatch"):
        w1_exact(U4, two_d)


def test_size_cap_error():
    big = make_distribution(np.arange(SIZE_CAP + 1, dtype=np.float64),
                            np.full(SIZE_CAP + 1, 1.0 / (SIZE_CAP + 1)))
    with pytest.raises(ValueError, match="size cap"):
        w1_exact(big, HALF_POINTS)


def test_size_cap_refused_before_cost(monkeypatch):
    # the refusal comes before the (n, m, d) distance array is built
    def no_cost(a, b):
        raise AssertionError("cost built for an oversized pair")

    monkeypatch.setattr("dplab.transport.sq_dists", no_cost)
    pts = np.random.default_rng(0).normal(size=(SIZE_CAP + 1, 2))
    big = make_distribution(pts, np.full(SIZE_CAP + 1, 1.0 / (SIZE_CAP + 1)))
    small = make_distribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    for w in (w1_exact, w2sq_exact):
        for a, b in ((big, small), (small, big)):
            with pytest.raises(ValueError, match="size cap exceeded"):
                w(a, b)


def test_lp_input_errors():
    c = np.zeros((2, 2))
    with pytest.raises(ValueError, match="infeasible marginals"):
        solve_transport_lp(c, [0.5, 0.5], [0.25, 0.25])
    with pytest.raises(ValueError, match="negative"):
        solve_transport_lp(c, [1.5, -0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="shape"):
        solve_transport_lp(c, [0.5, 0.5], [0.25, 0.25, 0.5])
    with pytest.raises(ValueError, match="finite"):
        solve_transport_lp(np.array([[np.inf, 0.0], [0.0, 0.0]]), [0.5, 0.5], [0.5, 0.5])


@st.composite
def _pairs_1d(draw):
    def one(tag):
        n = draw(st.integers(min_value=1, max_value=8))
        pts = draw(st.lists(st.integers(min_value=-6, max_value=6),
                            min_size=n, max_size=n, unique=True))
        w = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
        w = np.asarray(w, dtype=np.float64)
        return make_distribution(np.asarray(pts, dtype=np.float64) / 2.0, w / w.sum())

    return one("a"), one("b")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(_pairs_1d(), st.sampled_from([0, -17, -40]))
@settings(max_examples=60, deadline=None)
def test_lp_agrees_with_closed_form(pair, j):
    # both laws scaled by 2^j: an order-p cost, and so the bound, scales by 2^(p·j)
    a, b = (make_distribution(np.ldexp(d.points, j), d.probs) for d in pair)
    assert abs(w1_exact(a, b).cost - w_1d_closed_form(a, b, 1)) <= np.ldexp(1e-10, j)
    assert abs(w2sq_exact(a, b).cost - w_1d_closed_form(a, b, 2)) <= np.ldexp(1e-10, 2 * j)


@given(_pairs_1d())
@settings(max_examples=40, deadline=None)
def test_symmetry(pair):
    a, b = pair
    assert abs(w1_exact(a, b).cost - w1_exact(b, a).cost) <= 1e-10
    assert abs(w2sq_exact(a, b).cost - w2sq_exact(b, a).cost) <= 1e-10


@given(_pairs_1d(), _pairs_1d())
@settings(max_examples=40, deadline=None)
def test_triangle_inequality_w1(pair, pair2):
    a, b = pair
    c, _ = pair2
    ab = w1_exact(a, b).cost
    bc = w1_exact(b, c).cost
    ac = w1_exact(a, c).cost
    assert ac <= ab + bc + 1e-10


@given(_pairs_1d())
@settings(max_examples=40, deadline=None)
def test_identity_of_indiscernibles(pair):
    a, b = pair
    assert w1_exact(a, a).cost <= 1e-12
    same = np.array_equal(a.points, b.points) and np.allclose(a.probs, b.probs, atol=1e-15)
    if not same:
        # distinct finite laws are separated by W1
        assert w1_exact(a, b).cost > 1e-12
