import numpy as np
import pytest

import emdflow
from emdflow import transport
from emdflow.diff import EmdGradients, FlowJacobian, SingularKktError, backward_similarity
from emdflow.metric import EmbeddingSet, cost_matrix, cross_reference_weights
from emdflow.transport import (ORACLE_MAX_CELLS, TransportProblem, TransportSolution,
                               _tree_bases, solve, solve_oracle)

from conftest import random_problem

EPS = 1e-6


def _fd_objective(p, dc, ds, dd):
    plus = TransportProblem(cost=p.cost + EPS * dc, supply=p.supply + EPS * ds,
                            demand=p.demand + EPS * dd)
    minus = TransportProblem(cost=p.cost - EPS * dc, supply=p.supply - EPS * ds,
                             demand=p.demand - EPS * dd)
    return (solve(plus, "simplex").objective - solve(minus, "simplex").objective) / (2 * EPS)


def _fd_flows(p, dc, ds, dd):
    plus = TransportProblem(cost=p.cost + EPS * dc, supply=p.supply + EPS * ds,
                            demand=p.demand + EPS * dd)
    minus = TransportProblem(cost=p.cost - EPS * dc, supply=p.supply - EPS * ds,
                             demand=p.demand - EPS * dd)
    return (solve(plus, "simplex").flows - solve(minus, "simplex").flows) / (2 * EPS)


def _similarity(p):
    sol = solve(p, "simplex")
    return float(np.sum((1.0 - p.cost) * sol.flows))


def _balanced_directions(rng, m, k):
    ds = rng.standard_normal(m); ds -= ds.mean()
    dd = rng.standard_normal(k); dd -= dd.mean()
    return ds, dd


def test_grad_objective_single_cell():
    p = TransportProblem(cost=np.array([[0.7]]), supply=np.array([1.0]),
                         demand=np.array([1.0]))
    assert np.array_equal(solve(p, "simplex").flows, np.array([[1.0]]))


def test_grad_objective_matches_assignment_flows():
    p = TransportProblem(cost=np.array([[1.0, 2.0], [3.0, 4.0]]),
                         supply=np.array([1.0, 1.0]), demand=np.array([1.0, 1.0]))
    sol = solve(p, "simplex")
    assert np.allclose(sol.flows, np.eye(2))
    assert sol.objective == pytest.approx(5.0)


def test_grad_objective_cost_finite_difference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_problem(rng, 3, 3)
        sol = solve(p, "simplex")
        dc = rng.standard_normal((3, 3))
        fd = _fd_objective(p, dc, np.zeros(3), np.zeros(3))
        pred = float(np.sum(sol.flows * dc))
        assert pred == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_dual_sensitivity_rebalanced():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_problem(rng, 3, 3)
        sol = solve(p, "interior_point")
        ds, dd = _balanced_directions(rng, 3, 3)
        fd = _fd_objective(p, np.zeros((3, 3)), ds, dd)
        pred = float(sol.duals_eq[:3] @ ds + sol.duals_eq[3:] @ dd)
        assert pred == pytest.approx(fd, rel=1e-3, abs=1e-6)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(40):
        m, k = rng.integers(2, 4), rng.integers(2, 4)
        p = random_problem(rng, m, k)
        sol = solve(p, "interior_point")
        try:
            jac = FlowJacobian(sol, p)
        except SingularKktError:
            continue
        checked += 1
        dc = rng.standard_normal((m, k))
        ds, dd = _balanced_directions(rng, m, k)
        pred = jac.apply(dc, ds, dd)
        fd = _fd_flows(p, dc, ds, dd)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(pred - fd)) / scale < 1e-3
    assert checked >= 20


def test_jacobian_row_sums_track_supply():
    rng = np.random.default_rng(3)
    for _ in range(15):
        p = random_problem(rng, 3, 3)
        sol = solve(p, "simplex")
        try:
            jac = FlowJacobian(sol, p)
        except SingularKktError:
            continue
        ds, dd = _balanced_directions(rng, 3, 3)
        d_flows = jac.apply(np.zeros((3, 3)), ds, dd)
        assert np.allclose(d_flows.sum(axis=1), ds, atol=1e-8)
        assert np.allclose(d_flows.sum(axis=0), dd, atol=1e-8)


def test_constant_cost_is_gated():
    p = TransportProblem(cost=np.ones((2, 2)), supply=np.array([0.5, 0.5]),
                         demand=np.array([0.5, 0.5]))
    with pytest.raises(SingularKktError):
        FlowJacobian(solve(p, "simplex"), p)
    with pytest.raises(SingularKktError):
        FlowJacobian(solve(p, "interior_point"), p)


def test_degenerate_optimum_raises_the_one_class_the_tracer_counts():
    """perfbench/tracer.py counts diff.full gate trips by the exception's
    class name, so every gate raises transport's SingularKktError, which
    diff and the package re-export; the interior point only flags it."""
    p = TransportProblem(cost=np.ones((2, 2)), supply=np.full(2, 0.5), demand=np.full(2, 0.5))
    with pytest.raises(Exception) as tied:
        backward_similarity(1.0, solve(p, "simplex"), p, mode="full")
    assert type(tied.value).__name__ == "SingularKktError"
    assert (tied.value.gate, tied.value.gap) == ("complementarity", 0.0)
    assert SingularKktError is transport.SingularKktError is emdflow.SingularKktError
    for cells, gate in (([0, 1], "spanning_tree"), ([0, 1, 2, 3], "cycle")):
        with pytest.raises(SingularKktError) as tree:
            transport._BasisTree(2, 2, cells)
        assert type(tree.value) is SingularKktError and tree.value.gate == gate
    assert transport.solve_interior_point(p).degenerate


def test_tree_jacobian_matches_oracle_basis_inverse():
    """Tree walks against the explicit inverse of the oracle's winning basis."""
    rng = np.random.default_rng(4)
    checked = 0
    for m, k in ((1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (2, 8), (4, 4)):
        assert m * k <= ORACLE_MAX_CELLS
        cells, inverses = _tree_bases(m, k)
        for _ in range(5):
            p = random_problem(rng, m, k)
            sol = solve_oracle(p)
            jac = FlowJacobian(sol, p)
            basis = np.flatnonzero(sol.flows > sol.duals_ineq)
            (t,) = np.flatnonzero(np.all(cells == basis, axis=1))
            ds, dd = rng.standard_normal(m), rng.standard_normal(k)
            expected = np.zeros(m * k)
            expected[cells[t]] = inverses[t] @ np.concatenate([ds, dd[:k - 1]])
            assert np.allclose(jac.apply(np.zeros((m, k)), ds, dd).ravel(), expected,
                               rtol=0.0, atol=1e-12)
            w = rng.standard_normal((m, k))
            y = inverses[t].T @ w.ravel()[cells[t]]
            d_supply, d_demand = jac.vjp(w)
            assert np.allclose(d_supply, y[:m], rtol=0.0, atol=1e-12)
            assert np.allclose(d_demand, np.append(y[m:], 0.0), rtol=0.0, atol=1e-12)
            checked += 1
    assert checked == 40


def test_non_tree_support_is_gated():
    """A support with the right cell count but a cycle is not a basis."""
    p = TransportProblem(cost=np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]]),
                         supply=np.array([0.5, 0.5]), demand=np.array([0.5, 0.5, 0.0]))
    flows = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0]])
    sol = TransportSolution(flows=flows, objective=float(np.sum(p.cost * flows)),
                            duals_eq=np.array([0.0, 0.0, 1.0, 1.0, 0.0]),
                            duals_ineq=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]]),
                            solver_tag="hand")
    with pytest.raises(SingularKktError, match="spanning tree"):
        FlowJacobian(sol, p)
    with pytest.raises(SingularKktError, match="spanning tree"):
        backward_similarity(1.0, sol, p, mode="full")


def test_singular_kkt_error_carries_gate_and_gap():
    """The gate that tripped and the gap it measured, as attributes."""
    p = TransportProblem(cost=np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]]),
                         supply=np.array([0.5, 0.5]), demand=np.array([0.5, 0.5, 0.0]))
    flows = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0]])
    sol = TransportSolution(flows=flows, objective=float(np.sum(p.cost * flows)),
                            duals_eq=np.array([0.0, 0.0, 1.0, 1.0, 0.0]),
                            duals_ineq=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]]),
                            solver_tag="hand")
    with pytest.raises(SingularKktError) as cycle:
        FlowJacobian(sol, p)
    # Complementarity held: min x/mass + lambda/max|c| over the support is 0.25.
    assert (cycle.value.gate, cycle.value.gap) == ("cycle", 0.25)
    tied = TransportProblem(cost=np.ones((2, 2)), supply=np.full(2, 0.5), demand=np.full(2, 0.5))
    with pytest.raises(SingularKktError) as gap:
        FlowJacobian(solve(tied, "simplex"), tied)
    assert gap.value.gate == "complementarity" and gap.value.gap == 0.0


@pytest.mark.parametrize("solver", ["simplex", "oracle", "interior_point"])
def test_gate_is_scale_invariant(solver):
    """Scaling mass or cost changes neither the gate's verdict nor B^-1."""
    rng = np.random.default_rng(12)
    problems = [random_problem(rng, 3, 3) for _ in range(5)]
    problems.append(TransportProblem(cost=np.ones((2, 2)), supply=np.array([0.5, 0.5]),
                                     demand=np.array([0.5, 0.5])))
    accepted = 0
    for p in problems:
        ds, dd = _balanced_directions(rng, p.m, p.k)
        try:
            unit = FlowJacobian(solve(p, solver), p).apply(0.0, ds, dd)
        except SingularKktError:
            unit = None
        accepted += unit is not None
        for mass, cost in ((1e-12, 1.0), (1e-6, 1.0), (1e6, 1.0), (1.0, 1e-12), (1.0, 1e12)):
            q = TransportProblem(cost=cost * p.cost, supply=mass * p.supply,
                                 demand=mass * p.demand)
            try:
                scaled = FlowJacobian(solve(q, solver), q).apply(0.0, ds, dd)
            except SingularKktError:
                assert unit is None, (mass, cost)
                continue
            assert unit is not None, (mass, cost)
            assert np.allclose(scaled, unit, rtol=0.0, atol=1e-9)
    assert accepted >= 3


def test_envelope_d_cost_is_negative_flows_bitwise():
    rng = np.random.default_rng(5)
    p = random_problem(rng, 4, 3)
    sol = solve(p, "simplex")
    g = backward_similarity(1.0, sol, p, mode="envelope")
    assert np.array_equal(g.d_cost, -sol.flows)


def test_backward_similarity_single_cell_both_modes():
    p = TransportProblem(cost=np.array([[0.3]]), supply=np.array([1.0]),
                         demand=np.array([1.0]))
    sol = solve(p, "interior_point")
    for mode in ("envelope", "full"):
        g = backward_similarity(1.0, sol, p, mode=mode)
        assert g.d_cost[0, 0] == pytest.approx(-1.0, abs=1e-6)


def test_full_mode_matches_finite_differences():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(25):
        p = random_problem(rng, 3, 3)
        sol = solve(p, "interior_point")
        try:
            g = backward_similarity(1.0, sol, p, mode="full")
        except SingularKktError:
            continue
        checked += 1
        dc = rng.standard_normal((3, 3))
        plus = TransportProblem(cost=p.cost + EPS * dc, supply=p.supply, demand=p.demand)
        minus = TransportProblem(cost=p.cost - EPS * dc, supply=p.supply, demand=p.demand)
        fd = (_similarity(plus) - _similarity(minus)) / (2 * EPS)
        pred = float(np.sum(g.d_cost * dc))
        assert pred == pytest.approx(fd, rel=1e-3, abs=1e-6)
    assert checked >= 10


def test_full_mode_weight_gradient_matches_finite_differences():
    """Balanced directions that change total mass (sum ds = sum dd != 0)."""
    rng = np.random.default_rng(11)
    for _ in range(15):
        p = random_problem(rng, 3, 4)
        sol = solve(p, "simplex")
        g = backward_similarity(1.5, sol, p, mode="full")
        ds = rng.uniform(0.2, 1.0, 3)
        dd = rng.standard_normal(4)
        dd += (ds.sum() - dd.sum()) / 4
        plus = TransportProblem(cost=p.cost, supply=p.supply + EPS * ds,
                                demand=p.demand + EPS * dd)
        minus = TransportProblem(cost=p.cost, supply=p.supply - EPS * ds,
                                 demand=p.demand - EPS * dd)
        fd = 1.5 * (_similarity(plus) - _similarity(minus)) / (2 * EPS)
        pred = float(g.d_supply @ ds + g.d_demand @ dd)
        assert pred == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_envelope_weight_path_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(15):
        p = random_problem(rng, 3, 3)
        sol = solve(p, "simplex")
        g = backward_similarity(1.0, sol, p, mode="envelope")
        ds, dd = _balanced_directions(rng, 3, 3)
        plus = TransportProblem(cost=p.cost, supply=p.supply + EPS * ds,
                                demand=p.demand + EPS * dd)
        minus = TransportProblem(cost=p.cost, supply=p.supply - EPS * ds,
                                 demand=p.demand - EPS * dd)
        fd = (_similarity(plus) - _similarity(minus)) / (2 * EPS)
        pred = float(g.d_supply @ ds + g.d_demand @ dd)
        assert pred == pytest.approx(fd, rel=1e-3, abs=1e-6)


def test_full_and_envelope_agree_on_similarity_loss():
    rng = np.random.default_rng(8)
    for _ in range(15):
        p = random_problem(rng, 3, 3)
        sol = solve(p, "interior_point")
        try:
            full = backward_similarity(2.0, sol, p, mode="full")
        except SingularKktError:
            continue
        env = backward_similarity(2.0, sol, p, mode="envelope")
        assert np.allclose(full.d_cost, env.d_cost, rtol=1e-4, atol=1e-6)


def test_gradients_finite():
    rng = np.random.default_rng(9)
    for _ in range(15):
        p = random_problem(rng, 3, 4)
        sol = solve(p, "simplex")
        try:
            g = backward_similarity(1.0, sol, p, mode="full")
        except SingularKktError:
            continue
        for arr in (g.d_cost, g.d_supply, g.d_demand):
            assert np.all(np.isfinite(arr))


def test_unknown_mode_rejected():
    rng = np.random.default_rng(10)
    p = random_problem(rng, 2, 2)
    with pytest.raises(ValueError):
        backward_similarity(1.0, solve(p, "simplex"), p, mode="subgradient")


@pytest.mark.parametrize("solver", ["simplex", "interior_point"])
def test_full_mode_on_clamped_cross_reference_pairs(solver):
    """The ReLU in the cross-reference weights leaves zero-mass nodes.

    Full mode is gated on the mass support, so it accepts these pairs.  Along
    directions that keep zero masses at zero, the flow Jacobian and the
    full-mode similarity gradient match central differences.
    """
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(20):
        a = EmbeddingSet(rng.standard_normal((6, 8)))
        b = EmbeddingSet(rng.standard_normal((5, 8)))
        wa, wb = cross_reference_weights(a, b)
        if wa.all() and wb.all():
            continue
        p = TransportProblem(cost=cost_matrix(a, b), supply=wa, demand=wb)
        sol = solve(p, solver)
        g = backward_similarity(1.0, sol, p, mode="full")
        jac = FlowJacobian(sol, p)
        dc = rng.standard_normal(p.cost.shape)
        ds = np.where(wa > 0, rng.standard_normal(p.m), 0.0)
        ds[wa > 0] -= ds[wa > 0].mean()
        dd = np.where(wb > 0, rng.standard_normal(p.k), 0.0)
        dd[wb > 0] -= dd[wb > 0].mean()
        fd = _fd_flows(p, dc, ds, dd)
        assert np.max(np.abs(jac.apply(dc, ds, dd) - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))
        plus = TransportProblem(cost=p.cost + EPS * dc, supply=p.supply + EPS * ds,
                                demand=p.demand + EPS * dd)
        minus = TransportProblem(cost=p.cost - EPS * dc, supply=p.supply - EPS * ds,
                                 demand=p.demand - EPS * dd)
        fd_sim = (_similarity(plus) - _similarity(minus)) / (2 * EPS)
        pred = float(np.sum(g.d_cost * dc) + g.d_supply @ ds + g.d_demand @ dd)
        assert pred == pytest.approx(fd_sim, rel=1e-4, abs=1e-7)
        checked += 1
    assert checked >= 15
