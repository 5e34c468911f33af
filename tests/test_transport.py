import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emdflow.transport import (
    InstanceTooLargeError, IterationLimitError, TransportProblem,
    UnbalancedProblemError, reduced_incidence, solve,
    solve_interior_point, solve_oracle, solve_simplex,
)

from conftest import random_problem


def test_unbalanced_rejected():
    with pytest.raises(UnbalancedProblemError):
        TransportProblem(cost=np.ones((1, 1)), supply=np.array([1.0]),
                         demand=np.array([0.5]))


def test_zero_total_mass_rejected():
    with pytest.raises(ValueError):
        TransportProblem(cost=np.ones((2, 2)), supply=np.zeros(2),
                         demand=np.zeros(2))


def test_single_cell_forced_flow():
    p = TransportProblem(cost=np.array([[0.5]]), supply=np.array([1.0]),
                         demand=np.array([1.0]))
    for solver in ("simplex", "interior_point", "oracle"):
        sol = solve(p, solver)
        assert sol.objective == pytest.approx(0.5, abs=1e-9)
        assert sol.flows[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_identity_assignment():
    # unit supplies/demands with cheapest cost on the diagonal
    p = TransportProblem(cost=np.array([[1.0, 2.0], [3.0, 4.0]]),
                         supply=np.array([1.0, 1.0]), demand=np.array([1.0, 1.0]))
    sol = solve_simplex(p)
    assert np.allclose(sol.flows, np.eye(2))
    assert sol.objective == pytest.approx(5.0)


def test_reduced_incidence_full_rank():
    A = reduced_incidence(3, 4)
    assert A.shape == (6, 12)
    assert np.linalg.matrix_rank(A) == 6


@pytest.mark.parametrize("solver", ["simplex", "interior_point"])
def test_matches_oracle(solver):
    rng = np.random.default_rng(42)
    for _ in range(60):
        m, k = rng.integers(1, 5), rng.integers(1, 5)
        p = random_problem(rng, m, k)
        sol = solve(p, solver)
        ref = solve_oracle(p)
        assert sol.objective == pytest.approx(ref.objective, abs=1e-7)


def test_oracle_size_cap():
    rng = np.random.default_rng(0)
    with pytest.raises(InstanceTooLargeError):
        solve_oracle(random_problem(rng, 5, 4))


@pytest.mark.parametrize("solver", ["simplex", "interior_point"])
def test_feasibility_and_duals(solver):
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = random_problem(rng, 5, 5)
        sol = solve(p, solver)
        assert np.allclose(sol.flows.sum(axis=1), p.supply, rtol=1e-7, atol=1e-9)
        assert np.allclose(sol.flows.sum(axis=0), p.demand, rtol=1e-7, atol=1e-9)
        assert np.all(sol.flows >= -1e-9)
        # reduced costs nonnegative and complementary with flows
        red = p.cost - sol.duals_eq[:5, None] - sol.duals_eq[None, 5:]
        assert red.min() >= -1e-7
        # strong duality
        dual_obj = sol.duals_eq[:5] @ p.supply + sol.duals_eq[5:] @ p.demand
        assert dual_obj == pytest.approx(sol.objective, abs=1e-6)


def test_zero_supply_row():
    p = TransportProblem(cost=np.array([[0.2, 0.9], [0.4, 0.1]]),
                         supply=np.array([0.0, 1.0]),
                         demand=np.array([0.5, 0.5]))
    for solver in ("simplex", "oracle"):
        sol = solve(p, solver)
        assert np.allclose(sol.flows[0], 0.0, atol=1e-9)
        assert sol.objective == pytest.approx(0.25, abs=1e-8)


def test_degenerate_integer_costs_agree():
    # heavy ties: integer costs and equal masses force degenerate pivots
    rng = np.random.default_rng(3)
    for _ in range(30):
        m, k = rng.integers(2, 5), rng.integers(2, 5)
        cost = rng.integers(0, 3, (m, k)).astype(float)
        p = TransportProblem(cost=cost, supply=np.full(m, 1.0 / m),
                             demand=np.full(k, 1.0 / k))
        s1 = solve_simplex(p)
        ref = solve_oracle(p)
        assert s1.objective == pytest.approx(ref.objective, abs=1e-8)


def test_interior_point_residual_tolerance():
    rng = np.random.default_rng(11)
    p = random_problem(rng, 4, 4)
    sol = solve_interior_point(p, tol=1e-10)
    assert np.allclose(sol.flows.sum(axis=1), p.supply, atol=1e-9)
    assert np.allclose(sol.flows.sum(axis=0), p.demand, atol=1e-9)


def test_iteration_limit_raises():
    rng = np.random.default_rng(5)
    p = random_problem(rng, 4, 4)
    with pytest.raises(IterationLimitError):
        solve_interior_point(p, max_iter=1)


def test_unknown_solver():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        solve(random_problem(rng, 2, 2), "sinkhorn")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_property_objective_bounds(seed, m, k):
    rng = np.random.default_rng(seed)
    p = random_problem(rng, m, k)
    sol = solve_simplex(p)
    total = p.supply.sum()
    assert p.cost.min() * total - 1e-9 <= sol.objective <= p.cost.max() * total + 1e-9
    ref = solve_oracle(p)
    assert sol.objective == pytest.approx(ref.objective, abs=1e-7)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_property_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    p = random_problem(rng, 3, 4)
    pi = rng.permutation(3)
    rho = rng.permutation(4)
    q = TransportProblem(cost=p.cost[np.ix_(pi, rho)], supply=p.supply[pi],
                         demand=p.demand[rho])
    sa, sb = solve_simplex(p), solve_simplex(q)
    assert sb.objective == pytest.approx(sa.objective, abs=1e-9)
    assert np.allclose(sb.flows, sa.flows[np.ix_(pi, rho)], atol=1e-8)


def test_cost_scale_equivariance():
    rng = np.random.default_rng(21)
    p = random_problem(rng, 3, 3)
    sol = solve_simplex(p)
    alpha = 3.7
    scaled = TransportProblem(cost=alpha * p.cost, supply=p.supply, demand=p.demand)
    sol2 = solve_simplex(scaled)
    assert sol2.objective == pytest.approx(alpha * sol.objective, rel=1e-9)
    # the original flow stays optimal under the scaled cost
    red = scaled.cost - sol2.duals_eq[:3, None] - sol2.duals_eq[None, 3:]
    assert float(np.sum(scaled.cost * sol.flows)) == pytest.approx(sol2.objective, abs=1e-8)
    assert red.min() >= -1e-8


def test_weight_scale_equivariance():
    rng = np.random.default_rng(22)
    p = random_problem(rng, 3, 4)
    beta = 2.5
    q = TransportProblem(cost=p.cost, supply=beta * p.supply, demand=beta * p.demand)
    sa, sb = solve_simplex(p), solve_simplex(q)
    assert sb.objective == pytest.approx(beta * sa.objective, rel=1e-8)
    assert np.allclose(sb.flows, beta * sa.flows, rtol=1e-8, atol=1e-10)


def test_objective_consistent_with_flows():
    rng = np.random.default_rng(23)
    for solver in ("simplex", "interior_point"):
        p = random_problem(rng, 4, 3)
        sol = solve(p, solver)
        assert sol.objective == pytest.approx(float(np.sum(p.cost * sol.flows)), rel=1e-9)


def test_interior_point_complementary_slackness():
    rng = np.random.default_rng(24)
    for _ in range(10):
        p = random_problem(rng, 3, 3)
        sol = solve(p, "interior_point")
        assert np.max(sol.duals_ineq * sol.flows) <= 1e-6


def test_constant_cost_objective():
    p = TransportProblem(cost=np.full((3, 2), 0.8), supply=np.array([0.2, 0.3, 0.5]),
                         demand=np.array([0.6, 0.4]))
    for solver in ("simplex", "interior_point", "oracle"):
        assert solve(p, solver).objective == pytest.approx(0.8, abs=1e-8)


def test_forced_split_oracle():
    p = TransportProblem(cost=np.array([[1.0, 0.0]]), supply=np.array([1.0]),
                         demand=np.array([0.5, 0.5]))
    sol = solve_oracle(p)
    assert np.allclose(sol.flows, [[0.5, 0.5]])
    assert sol.objective == pytest.approx(0.5)
