from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emdflow.metric import EmbeddingSet, cost_matrix, cross_reference_weights
from emdflow.transport import (
    DEGENERATE_RTOL, MAX_PIVOTS, CyclingError, InstanceTooLargeError, IterationLimitError,
    SingularKktError, TransportProblem, UnbalancedProblemError, reduced_incidence, solve,
    solve_interior_point, solve_oracle, solve_simplex, _BasisTree, _Forest, _least_cost_start,
    _normal_solver, _optimal_basis, _simplex,
)
import emdflow.transport as transport

from conftest import random_problem


def test_unbalanced_rejected():
    with pytest.raises(UnbalancedProblemError):
        TransportProblem(cost=np.ones((1, 1)), supply=np.array([1.0]),
                         demand=np.array([0.5]))


def test_zero_total_mass_rejected():
    with pytest.raises(ValueError):
        TransportProblem(cost=np.ones((2, 2)), supply=np.zeros(2),
                         demand=np.zeros(2))


@pytest.mark.parametrize("side", ["supply", "demand"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_mass_rejected(side, bad):
    masses = {"supply": np.ones(2), "demand": np.ones(2)}
    masses[side] = np.array([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        TransportProblem(cost=np.ones((2, 2)), **masses)


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
    degenerate = 0
    for _ in range(30):
        m, k = rng.integers(2, 5), rng.integers(2, 5)
        cost = rng.integers(0, 3, (m, k)).astype(float)
        p = TransportProblem(cost=cost, supply=np.full(m, 1.0 / m),
                             demand=np.full(k, 1.0 / k))
        s1 = solve_simplex(p)
        ref = solve_oracle(p)
        assert s1.objective == pytest.approx(ref.objective, abs=1e-8)
        assert 0 <= s1.stats.degenerate_pivots <= s1.stats.pivots
        degenerate += s1.stats.degenerate_pivots
    assert degenerate > 0  # the stats see the degenerate pivots


def test_interior_point_residual_tolerance():
    rng = np.random.default_rng(11)
    p = random_problem(rng, 4, 4)
    sol = solve_interior_point(p, tol=1e-10)
    assert np.allclose(sol.flows.sum(axis=1), p.supply, atol=1e-9)
    assert np.allclose(sol.flows.sum(axis=0), p.demand, atol=1e-9)


@pytest.mark.parametrize("solver", ["simplex", "ipm"])
@pytest.mark.parametrize("tol", [0.0, -1e-9, np.inf, np.nan])
def test_solver_tol_must_be_finite_and_positive(solver, tol):
    """An infinite tol stopped both solvers short of the optimum, and nan made
    the simplex raise IndexError: both are refused up front."""
    p = random_problem(np.random.default_rng(3), 5, 5)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve(p, solver, tol=tol)


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


def _masked_argmin_start(cost, supply, demand):
    """Least-cost start by repeated argmin over a cost copy whose closed
    lines are masked to inf; ties go to the lowest flat index."""
    m, k = cost.shape
    a, b = supply.copy(), demand.copy()
    flows = np.zeros((m, k))
    basis = []
    masked = cost.copy()
    active_rows, active_cols = m, k
    while True:
        idx = int(np.argmin(masked))
        i, j = idx // k, idx % k
        x = min(a[i], b[j])
        flows[i, j] = x
        basis.append(idx)
        a[i] -= x
        b[j] -= x
        if active_rows == 1 and active_cols == 1:
            return flows, basis
        if (a[i] <= b[j] and active_rows > 1) or active_cols == 1:
            masked[i, :] = np.inf
            active_rows -= 1
        else:
            masked[:, j] = np.inf
            active_cols -= 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 6), k=st.integers(1, 6),
       tied=st.booleans(), integer_mass=st.booleans(), exponent=st.integers(-12, 12))
def test_least_cost_start_matches_masked_argmin(seed, m, k, tied, integer_mass, exponent):
    rng = np.random.default_rng(seed)
    if tied:
        cost = rng.integers(0, 3, (m, k)).astype(float)
    else:
        cost = rng.uniform(0.0, 2.0, (m, k))
    if integer_mass:  # equal partial sums exercise the a[i] == b[j] branch
        supply = rng.integers(1, 4, m).astype(float)
        demand = rng.multinomial(int(supply.sum()), np.full(k, 1.0 / k)).astype(float)
    else:
        supply, demand = rng.uniform(0.2, 1.0, m), rng.uniform(0.2, 1.0, k)
        demand *= supply.sum() / demand.sum()
    scale = 10.0 ** exponent
    supply, demand = supply * scale, demand * scale
    flows, basis = _least_cost_start(cost, supply, demand)
    ref_flows, ref_basis = _masked_argmin_start(cost, supply, demand)
    assert basis == ref_basis
    assert len(basis) == m + k - 1
    assert np.array(flows).tobytes() == ref_flows.ravel().tobytes()


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


@pytest.mark.parametrize("solver", ["simplex", "oracle"])
def test_degenerate_flag_is_scale_relative(solver):
    rng = np.random.default_rng(24)
    for _ in range(5):
        p = random_problem(rng, 4, 4)
        tiny = TransportProblem(cost=p.cost, supply=1e-12 * p.supply,
                                demand=1e-12 * p.demand)
        assert not solve(p, solver).degenerate
        assert not solve(tiny, solver).degenerate


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


SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)


@pytest.mark.parametrize("cost_scale", SCALES)
@pytest.mark.parametrize("mass_scale", SCALES)
def test_simplex_matches_oracle_at_any_scale(mass_scale, cost_scale):
    """Pricing is relative to max|cost|, the stall and leaving tie to mass."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        m, k = rng.integers(1, 5), rng.integers(1, 5)
        base = random_problem(rng, m, k)
        p = TransportProblem(cost=cost_scale * base.cost, supply=mass_scale * base.supply,
                             demand=mass_scale * base.demand)
        sol, ref = solve_simplex(p), solve_oracle(p)
        assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
        assert np.allclose(sol.flows.sum(axis=1), p.supply, rtol=0.0, atol=1e-9 * mass_scale)
        assert np.allclose(sol.flows.sum(axis=0), p.demand, rtol=0.0, atol=1e-9 * mass_scale)


def test_duals_share_one_gauge():
    """Every solver pins the last demand potential to 0, so duals agree."""
    rng = np.random.default_rng(25)
    checked = 0
    for _ in range(30):
        m, k = rng.integers(1, 5), rng.integers(1, 5)
        p = random_problem(rng, m, k)
        ref = solve_oracle(p)
        if ref.degenerate:
            continue
        checked += 1
        for solver in ("simplex", "interior_point"):
            assert np.allclose(solve(p, solver).duals_eq, ref.duals_eq, rtol=0.0, atol=1e-7)
    assert checked >= 20


# ---------------------------------------------------------------------------
# zero-mass nodes: the simplex solves the mass support, the interior point the
# full problem; both must certify the full problem against the oracle.


def _zero_mass_problem(rng, pattern, mass=1.0):
    """Up to 4 x 4 problem whose zero masses follow ``pattern``."""
    m, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    if pattern == "tied_costs":
        cost = rng.integers(0, 3, (m, k)).astype(float)
    else:
        cost = rng.uniform(0.05, 1.95, (m, k))
    supply, demand = rng.uniform(0.2, 1.0, m), rng.uniform(0.2, 1.0, k)
    if pattern in ("zero_rows", "tied_costs"):
        supply[rng.permutation(m)[:m // 2]] = 0.0
    if pattern in ("zero_cols", "tied_costs"):
        demand[rng.permutation(k)[:k // 2]] = 0.0
    if pattern == "all_but_one":
        supply[np.arange(m) != rng.integers(m)] = 0.0
        demand[np.arange(k) != rng.integers(k)] = 0.0
    if pattern == "last_demander":
        demand[-1] = 0.0
        supply[rng.integers(m)] = 0.0
    return TransportProblem(cost=cost, supply=mass * supply / supply.sum(),
                            demand=mass * demand / demand.sum())


def _assert_certifies_full_problem(p, sol, ref, rtol):
    """Objective, marginals and the dual certificate of ``sol`` on all of ``p``."""
    m, mass, cmax = p.m, p.supply.sum(), np.abs(p.cost).max() or 1.0
    assert (p.supply == 0).any() or (p.demand == 0).any()
    assert sol.objective == pytest.approx(ref.objective, rel=rtol, abs=rtol * mass * cmax)
    assert np.allclose(sol.flows.sum(axis=1), p.supply, rtol=0.0, atol=rtol * mass)
    assert np.allclose(sol.flows.sum(axis=0), p.demand, rtol=0.0, atol=rtol * mass)
    u, v = sol.duals_eq[:m], sol.duals_eq[m:]
    assert (p.cost - u[:, None] - v).min() >= -rtol * cmax  # dropped cells included
    assert u @ p.supply + v @ p.demand == pytest.approx(sol.objective, rel=rtol,
                                                        abs=rtol * mass * cmax)
    assert v[-1] == 0.0


PATTERNS = ("zero_rows", "zero_cols", "all_but_one", "last_demander", "tied_costs")


@pytest.mark.parametrize("pattern", PATTERNS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_simplex_zero_mass_nodes(pattern, seed):
    p = _zero_mass_problem(np.random.default_rng(seed), pattern)
    _assert_certifies_full_problem(p, solve_simplex(p), solve_oracle(p), rtol=1e-9)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_interior_point_zero_mass_nodes(pattern):
    for seed in range(30):
        p = _zero_mass_problem(np.random.default_rng(seed), pattern)
        _assert_certifies_full_problem(p, solve_interior_point(p), solve_oracle(p), rtol=1e-6)


@pytest.mark.xfail(raises=IterationLimitError, strict=True,
                   reason="the interior point solves the full problem, whose duals are "
                          "unbounded on zero-mass nodes; it stalls on rare cases")
def test_interior_point_zero_mass_stall():
    p = _zero_mass_problem(np.random.default_rng(5423), "last_demander")
    solve_interior_point(p)


def test_interior_point_on_relu_clamped_weights():
    """10 x 10 nodes with cross-reference weights, zero rows included."""
    rng = np.random.default_rng(27)
    clamped = 0
    for _ in range(5):
        a, b = EmbeddingSet(rng.standard_normal((10, 8))), EmbeddingSet(rng.standard_normal((10, 8)))
        supply, demand = cross_reference_weights(a, b)
        clamped += int((supply == 0).sum())
        p = TransportProblem(cost=cost_matrix(a, b), supply=supply, demand=demand)
        ref = solve_simplex(p)
        assert solve_interior_point(p).objective == pytest.approx(ref.objective, rel=1e-8)
    assert clamped > 0


@pytest.mark.parametrize("m, k", [(1, 1), (1, 2), (1, 4), (2, 1), (4, 1)])
def test_interior_point_edge_shapes(m, k):
    """k = 1 leaves the normal matrix no demand block; m = 1 one supply row."""
    rng = np.random.default_rng(28)
    for _ in range(5):
        p = random_problem(rng, m, k)
        sol, ref = solve_interior_point(p), solve_oracle(p)
        assert sol.objective == pytest.approx(ref.objective, rel=1e-8)
        assert np.allclose(sol.flows, ref.flows, rtol=0.0, atol=1e-8)
        assert np.allclose(sol.duals_eq, ref.duals_eq, rtol=0.0, atol=1e-7)
        assert sol.degenerate == ref.degenerate


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       shape=st.sampled_from([(12, 2), (30, 3), (2, 12), (3, 30), (1, 6), (6, 1), (1, 1), (5, 5)]),
       zero_row=st.booleans())
def test_property_normal_solver_matches_dense(seed, shape, zero_row):
    """The Schur-complement Newton solve equals the dense A diag(d) A^T solve;
    a row of d at 0 gets the minimum-norm solution, dy 0 on that row."""
    rng = np.random.default_rng(seed)
    m, k = shape
    d = rng.uniform(0.05, 2.0, (m, k))
    if zero_row:
        d[rng.integers(m)] = 0.0
    A = reduced_incidence(m, k)
    r = rng.standard_normal(m + k - 1)
    want = np.linalg.lstsq(A @ (d.ravel()[:, None] * A.T), r, rcond=None)[0]
    solve_normal, factored = _normal_solver(d)
    assert factored or (zero_row and m == 1)
    assert np.linalg.norm(solve_normal(r) - want) <= 1e-10 * np.linalg.norm(want)


def test_interior_point_counts_fallbacks(monkeypatch):
    """``ipm_fallbacks`` counts the iterations whose Schur factor failed, and
    the least-squares steps of those iterations still reach the optimum.

    No tested input fails the factor, so it is made to fail on every third
    iteration."""
    factored = []
    real_solver, real_dpotrf = transport._normal_solver, transport.dpotrf

    def recorded(d):
        solve_normal, ok = real_solver(d)
        factored.append(ok)
        return solve_normal, ok

    def failing(S, clean=0):  # len(factored) is the current iteration
        factor, info = real_dpotrf(S, clean=clean)
        return factor, 1 if len(factored) % 3 == 0 else info

    monkeypatch.setattr(transport, "_normal_solver", recorded)
    monkeypatch.setattr(transport, "dpotrf", failing)
    total = 0
    for seed in range(10):
        factored.clear()
        p = _zero_mass_problem(np.random.default_rng(seed), "last_demander")
        sol = solve_interior_point(p)
        stats = sol.stats
        assert stats.ipm_fallbacks == factored.count(False)
        assert len(factored) == stats.ipm_iterations
        assert sol.objective == pytest.approx(solve_simplex(p).objective, rel=1e-8)
        total += stats.ipm_fallbacks
    assert total > 0


def test_interior_point_grounds_on_a_positive_mass_demander():
    """A zero last demand does not pin the reduced system: the largest
    demander does, and the duals come back shifted to v_k = 0."""
    p = TransportProblem(cost=np.array([[0.1, 0.8, 0.6], [0.9, 0.2, 0.3], [0.5, 0.4, 0.7]]),
                         supply=np.array([0.3, 0.3, 0.4]), demand=np.array([0.6, 0.4, 0.0]))
    sol = solve_interior_point(p)
    assert sol.stats.ipm_fallbacks == 0
    assert sol.duals_eq[-1] == 0.0
    assert sol.objective == pytest.approx(solve_simplex(p).objective, rel=1e-8)
    assert sum(solve_interior_point(_zero_mass_problem(np.random.default_rng(seed), pattern))
               .stats.ipm_fallbacks for pattern in PATTERNS for seed in range(30)) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), pattern=st.sampled_from(PATTERNS))
def test_property_interior_point_column_permutation_equivariance(seed, pattern):
    """Permuting the demand columns permutes the flows and keeps the
    objective and the dual certificate, whichever demander is the ground.
    The multipliers of zero-mass lines are not unique, so they are checked
    as the reduced costs of the reported potentials."""
    rng = np.random.default_rng(seed)
    p = _zero_mass_problem(rng, pattern)
    perm = rng.permutation(p.k)
    q = TransportProblem(cost=p.cost[:, perm], supply=p.supply, demand=p.demand[perm])
    ref, sol = solve_interior_point(p), solve_interior_point(q)
    assert np.allclose(sol.flows, ref.flows[:, perm], rtol=0.0, atol=1e-8)
    _assert_certifies_full_problem(q, sol, ref, rtol=1e-8)
    u, v = sol.duals_eq[:q.m], sol.duals_eq[q.m:]
    assert np.allclose(sol.duals_ineq, q.cost - u[:, None] - v, rtol=0.0, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), exponent=st.floats(-12.0, 12.0),
       side=st.sampled_from(["mass", "cost"]))
def test_property_interior_point_scale_equivariance(seed, exponent, side):
    """Scaling mass or cost by s scales the interior point's objective by s."""
    rng = np.random.default_rng(seed)
    p = random_problem(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
    s = 10.0 ** exponent
    mass, cost = (s, 1.0) if side == "mass" else (1.0, s)
    q = TransportProblem(cost=cost * p.cost, supply=mass * p.supply, demand=mass * p.demand)
    unit = solve_interior_point(p).objective
    assert solve_interior_point(q).objective == pytest.approx(s * unit, rel=1e-9)


@pytest.mark.parametrize("mass", SCALES)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_simplex_on_support_at_any_mass(pattern, mass):
    rng = np.random.default_rng(18)
    for _ in range(10):
        p = _zero_mass_problem(rng, pattern, mass)
        _assert_certifies_full_problem(p, solve_simplex(p), solve_oracle(p), rtol=1e-9)


def test_simplex_degenerate_flag_describes_the_support():
    """Zero-mass rows make the full optimum degenerate, not the kept one."""
    rng = np.random.default_rng(26)
    for _ in range(20):
        p = _zero_mass_problem(rng, "zero_rows")
        assert solve_oracle(p).degenerate
        kept = TransportProblem(cost=p.cost[p.supply > 0], supply=p.supply[p.supply > 0],
                                demand=p.demand)
        assert solve_simplex(p).degenerate == solve_oracle(kept).degenerate


def test_interior_point_degenerate_flag():
    """Read off the same x/mass vs lambda/max|c| basis as the flow Jacobian."""
    tight = TransportProblem(cost=np.array([[0.1, 0.9], [0.8, 0.2]]),
                             supply=np.array([0.3, 0.7]), demand=np.array([0.3, 0.7]))
    for solver in ("simplex", "interior_point", "oracle"):
        assert solve(tight, solver).degenerate, solver
    tiny = TransportProblem(cost=np.array([[0.2, 0.9, 0.5], [0.7, 0.1, 0.4]]),
                            supply=1e-9 * np.array([0.4, 0.6]),
                            demand=1e-9 * np.array([0.3, 0.3, 0.4]))
    for solver in ("simplex", "interior_point", "oracle"):
        assert not solve(tiny, solver).degenerate, solver


# ---------------------------------------------------------------------------
# warm starts: the kernel restarted from a given basis tree


def _spanning_cells(m, k, candidates):
    """Flat cells of a spanning tree of K_{m,k}: Kruskal over ``candidates``
    in the given order, in the order taken."""
    root = list(range(m + k))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a
    cells = []
    for cell in candidates:
        a, b = find(cell // k), find(m + cell % k)
        if a != b:
            root[a] = b
            cells.append(cell)
    return cells


def _random_tree(rng, m, k):
    """Flat cells of a random spanning tree of K_{m,k} (Kruskal on shuffled cells)."""
    return _spanning_cells(m, k, rng.permutation(m * k).tolist())


def _warm_problem(rng, m, k, tied, integer_mass, zero_lines):
    cost = rng.integers(0, 3, (m, k)).astype(float) if tied else rng.uniform(0.05, 1.95, (m, k))
    if integer_mass:  # exact arithmetic: multinomial demands leave zero lines too
        supply = rng.integers(0 if zero_lines else 1, 4, m).astype(float)
        supply[rng.integers(m)] += 1.0
        demand = rng.multinomial(int(supply.sum()), np.full(k, 1.0 / k)).astype(float)
    else:
        supply, demand = rng.uniform(0.2, 1.0, m), rng.uniform(0.2, 1.0, k)
        if zero_lines:
            supply[rng.permutation(m)[:m // 2]] = 0.0
            demand[rng.permutation(k)[:k // 2]] = 0.0
        demand *= supply.sum() / demand.sum()
    return cost, supply, demand


def _assert_optimal(cost, supply, demand, run, objective):
    m, mass, cmax = cost.shape[0], supply.sum(), np.abs(cost).max() or 1.0
    x, u, v = run.flows, run.pot[:m], run.pot[m:]
    assert x.min() >= -1e-12 * mass
    assert np.allclose(x.sum(axis=1), supply, rtol=0.0, atol=1e-9 * mass)
    assert np.allclose(x.sum(axis=0), demand, rtol=0.0, atol=1e-9 * mass)
    assert (cost - u[:, None] - v).min() >= -1e-9 * cmax
    assert float(np.sum(cost * x)) == pytest.approx(objective, rel=1e-9, abs=1e-12 * mass * cmax)
    assert u @ supply + v @ demand == pytest.approx(objective, rel=1e-9, abs=1e-9 * mass * cmax)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 6), k=st.integers(1, 6),
       tied=st.booleans(), integer_mass=st.booleans(), zero_lines=st.booleans())
def test_property_simplex_warm_start(seed, m, k, tied, integer_mass, zero_lines):
    rng = np.random.default_rng(seed)
    cost, supply, demand = _warm_problem(rng, m, k, tied, integer_mass, zero_lines)
    cold = _simplex(cost, supply, demand)
    objective = float(np.sum(cost * cold.flows))
    # The least-cost start of another cost is a primal-feasible tree; a
    # random tree is often infeasible.
    for start in (_least_cost_start(rng.uniform(0.0, 2.0, (m, k)), supply, demand)[1],
                  _random_tree(rng, m, k)):
        # A start tree is re-listed as a build from sorted cells lists it.
        basic = _BasisTree(m, k, sorted(start)).flows(np.concatenate([supply, demand]),
                                                      np.zeros(m * k))
        run = _simplex(cost, supply, demand, start=_BasisTree(m, k, start))
        assert run.warm == bool(basic[start].min() >= 0.0)
        if run.warm:
            _assert_optimal(cost, supply, demand, run, objective)
        else:  # fall back to the cold start, bit for bit
            assert run.flows.tobytes() == cold.flows.tobytes()
            assert run.pot.tobytes() == cold.pot.tobytes()
            assert (run.pivots, run.basis) == (cold.pivots, cold.basis)
    # From the cold optimum's own basis: no pivot, the same potentials, and
    # the same flows up to the rounding of the leaf-to-root pass, exact when
    # the masses add up exactly.
    again = _simplex(cost, supply, demand, start=_BasisTree(m, k, cold.basis))
    assert again.pot.tobytes() == cold.pot.tobytes()
    if integer_mass:
        assert again.warm
    if again.warm:
        assert again.pivots == 0 and again.basis == cold.basis
        assert np.allclose(again.flows, cold.flows, rtol=0.0, atol=1e-15 * supply.sum())
        if integer_mass:
            assert again.flows.tobytes() == cold.flows.tobytes()
    # Not a spanning tree: a node left out, or a cycle.
    with pytest.raises(SingularKktError):
        _BasisTree(m, k, cold.basis[:-1])
    if m > 1 and k > 1:
        extra = next(c for c in range(m * k) if c not in cold.basis)
        with pytest.raises(SingularKktError, match="cycle"):
            _BasisTree(m, k, cold.basis + [extra])


# ---------------------------------------------------------------------------
# the kernel pinned, bit for bit, to the dict-walk tree that in-place pivots
# replaced


class _ReferenceTree:
    """The basis tree before in-place pivots: dict adjacency, and each pivot
    re-walks and re-prices the whole detached subtree."""

    def __init__(self, m, k, cells):
        self.m, self.k = m, k
        n = m + k
        self.adj = [{} for _ in range(n)]
        for cell in cells:
            i, j = divmod(cell, k)
            self.adj[i][m + j] = cell
            self.adj[m + j][i] = cell
        self.parent = [-1] * n
        self.edge = [-1] * n
        self.depth = [0] * n
        self.order = self._hang(n - 1)
        if len(self.order) != n - 1:
            raise SingularKktError("basic cells do not form a spanning tree", "spanning_tree")

    def _hang(self, top):
        parent, edge, depth, adj = self.parent, self.edge, self.depth, self.adj
        hung, seen, stack = [], {top}, [top]
        while stack:
            node = stack.pop()
            for nbr, cell in adj[node].items():
                if nbr == parent[node]:
                    continue
                if nbr in seen:
                    raise SingularKktError("basic cells hold a cycle, not a spanning tree",
                                           "cycle")
                seen.add(nbr)
                parent[nbr], edge[nbr], depth[nbr] = node, cell, depth[node] + 1
                hung.append(nbr)
                stack.append(nbr)
        return hung

    def flows(self, rest, out):
        edge, parent = self.edge, self.parent
        for node in reversed(self.order):
            out[edge[node]] = rest[node]
            rest[parent[node]] -= rest[node]
        return out

    def potentials(self, values, pot, nodes):
        edge, parent = self.edge, self.parent
        for node in nodes:
            pot[node] = values[edge[node]] - pot[parent[node]]
        return pot

    def cycle(self, cell):
        parent, edge, depth = self.parent, self.edge, self.depth
        a, b = divmod(cell, self.k)
        b += self.m
        up_a, up_b = [], []
        while depth[a] > depth[b]:
            up_a.append(edge[a])
            a = parent[a]
        while depth[b] > depth[a]:
            up_b.append(edge[b])
            b = parent[b]
        while a != b:
            up_a.append(edge[a])
            a = parent[a]
            up_b.append(edge[b])
            b = parent[b]
        return [cell] + up_a + up_b[::-1]

    def replace_edge(self, leave, enter):
        m, k, adj = self.m, self.k, self.adj
        l1, l2 = leave // k, m + leave % k
        e1, e2 = enter // k, m + enter % k
        del adj[l1][l2], adj[l2][l1]
        adj[e1][e2] = adj[e2][e1] = enter
        cut_child = l1 if self.parent[l1] == l2 else l2
        node = e1
        while node != -1 and node != cut_child:
            node = self.parent[node]
        top, attach_to = (e1, e2) if node == cut_child else (e2, e1)
        self.parent[top], self.edge[top] = attach_to, enter
        self.depth[top] = self.depth[attach_to] + 1
        return [top] + self._hang(top)


def _reference_simplex(cost, supply, demand, tol=1e-10, start=None):
    """The kernel before in-place pivots: ``start`` is a list of flat cells,
    and basic cells are masked out of every pricing.  Returns the fields
    :func:`_run_fields` reads."""
    m, k = cost.shape
    total = float(supply.sum())
    warm = start is not None
    if warm:
        tree, basis = _ReferenceTree(m, k, start), start
        flows = tree.flows(supply.tolist() + demand.tolist(), [0.0] * (m * k))
        warm = min([flows[c] for c in basis]) >= 0.0
    if not warm:
        flows, basis = _least_cost_start(cost, supply, demand)
        tree = _ReferenceTree(m, k, basis)
    values = cost.ravel().tolist()
    pot = tree.potentials(values, np.zeros(m + k), tree.order)
    in_basis = np.zeros(m * k, dtype=bool)
    in_basis[basis] = True
    price_tol = tol * float(np.abs(cost).max())
    stall = degenerate_pivots = 0
    stall_limit = m + k + 2
    bland = False
    for pivots in range(MAX_PIVOTS):
        red = (cost - pot[:m, None] - pot[None, m:]).ravel()
        red[in_basis] = np.inf
        enter = int(red.argmin())
        if red[enter] >= -price_tol:
            flows_np = np.array(flows).reshape(m, k)
            return SimpleNamespace(
                flows=flows_np, pot=pot,
                degenerate=bool(flows_np.ravel()[in_basis].min() < DEGENERATE_RTOL * total),
                basis=np.flatnonzero(in_basis).tolist(), pivots=pivots,
                degenerate_pivots=degenerate_pivots, bland=bland, warm=warm)
        if stall >= stall_limit:
            enter = int(np.flatnonzero(red < -price_tol)[0])
            bland = True
        cycle = tree.cycle(enter)
        plus, minus = cycle[::2], cycle[1::2]
        theta = min([flows[c] for c in minus])
        stall = stall + 1 if theta < 1e-12 * total else 0
        degenerate_pivots += stall > 0
        bound = theta + 1e-15 * total
        leave = min([c for c in minus if flows[c] <= bound])
        for c in plus:
            flows[c] += theta
        for c in minus:
            flows[c] -= theta
        flows[leave] = 0.0
        in_basis[leave] = False
        in_basis[enter] = True
        tree.potentials(values, pot, tree.replace_edge(leave, enter))
    raise CyclingError("simplex exceeded pivot limit")


def _run_fields(run):
    return (run.flows.tobytes(), run.pot.tobytes(), run.degenerate, run.basis, run.pivots,
            run.degenerate_pivots, run.bland, run.warm)


@contextmanager
def _checked_pivots():
    """Check, after every pivot, that the tree pivoted in place and its
    potentials equal a fresh build from the current cells; yield the list
    of checked pivots."""
    real, checked = _BasisTree.replace_edge, []

    def replace_edge(tree, leave, enter, values, pot):
        real(tree, leave, enter, values, pot)
        fresh = _BasisTree(tree.m, tree.k, sorted(tree.edge[:-1]))
        assert (tree.parent, tree.edge, tree.depth) == (fresh.parent, fresh.edge, fresh.depth)
        assert [sorted(kids) for kids in tree.children] == fresh.children
        again = fresh.potentials(values, np.zeros(tree.m + tree.k), fresh.order)
        assert pot.tobytes() == again.tobytes()
        checked.append(enter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BasisTree, "replace_edge", replace_edge)
        yield checked


def _assert_restarts_match(cost, supply, demand, tree, cells):
    """Restart the kernel from a kept ``tree`` and the reference from its
    ``cells``; both, and a restart from a fresh build of ``cells``, agree
    bit for bit.  Returns the kernel's run."""
    fresh = _simplex(cost, supply, demand, start=_BasisTree(*cost.shape, cells))
    run = _simplex(cost, supply, demand, start=tree)
    ref = _reference_simplex(cost, supply, demand, start=cells)
    assert _run_fields(run) == _run_fields(ref) == _run_fields(fresh)
    return run


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 6), k=st.integers(1, 6),
       tied=st.booleans(), integer_mass=st.booleans(), zero_lines=st.booleans())
def test_kernel_is_bit_equal_to_dict_walk_reference(seed, m, k, tied, integer_mass, zero_lines):
    """Cold runs, then restarts as an SFC pair's later visits make them:
    cost and masses move, the support stays.  The kernel restarted from
    the tree it kept equals the reference restarted from the cell list."""
    rng = np.random.default_rng(seed)
    cost, supply, demand = _warm_problem(rng, m, k, tied, integer_mass, zero_lines)
    with _checked_pivots():
        run = _simplex(cost, supply, demand)
        assert _run_fields(run) == _run_fields(_reference_simplex(cost, supply, demand))
        for _ in range(3):
            if tied:
                cost = np.where(rng.random((m, k)) < 0.3, rng.integers(0, 3, (m, k)), cost)
            else:
                cost = cost + rng.uniform(-0.1, 0.1, (m, k))
            if not integer_mass:
                supply = supply * rng.uniform(0.8, 1.2, m)
                demand = demand * rng.uniform(0.8, 1.2, k)
                demand *= supply.sum() / demand.sum()
            run = _assert_restarts_match(cost, supply, demand, run.tree, run.basis)
    run.tree.relist()
    assert run.tree.order == _BasisTree(m, k, run.basis).order


@pytest.mark.parametrize("n", [16, 25])
def test_kernel_is_bit_equal_to_reference_through_blands_rule(n):
    """Equal unit masses on a square grid: restarted from the optimal
    assignment joined by the dearest cells, every pivot is degenerate, and
    long runs of them hand the entering choice to Bland's rule."""
    blands = 0
    with _checked_pivots() as pivots:
        for seed in range(4):
            rng = np.random.default_rng(seed)
            cost, mass = rng.uniform(0.0, 1.0, (n, n)), np.ones(n)
            assignment = _simplex(cost, mass, mass).flows.argmax(axis=1)
            cells = sorted(_spanning_cells(
                n, n, [i * n + j for i, j in enumerate(assignment.tolist())]
                + np.argsort(-cost, axis=None, kind="stable").tolist()))
            run = _assert_restarts_match(cost, mass, mass, _BasisTree(n, n, cells), cells)
            assert run.warm and run.pivots == run.degenerate_pivots
            blands += run.bland
    assert blands > 0 and len(pivots) > 0


def test_forest_passes_equal_each_trees_relist_then_flows():
    """One stacked pass over several trees equals each tree's relist() then
    flows(), and its potentials(), bit for bit.  In the first tree supplier
    0 hangs three demanders whose balances differ by orders of magnitude,
    listed out of index order: subtracted in ascending order they would
    leave a different last bit."""
    rng = np.random.default_rng(3)
    demand = np.array([0.5, 3e-9, 7e-17, 0.2, 0.1])
    supply = np.array([0.5 + 3e-9 + 7e-17 + 0.15, 0.15])
    ascending = supply[0] - demand[0] - demand[1] - demand[2]
    assert ascending != supply[0] - demand[2] - demand[1] - demand[0]
    trees = [_BasisTree(2, 5, [2, 0, 9, 1, 8, 3]), _BasisTree(1, 1, [0]),
             _BasisTree(3, 4, _random_tree(rng, 3, 4))]
    assert sorted(trees[0].children[0]) == [2, 3, 4] and trees[0].children[0] != [2, 3, 4]
    balances = [np.concatenate([supply, demand]), np.array([0.7, 0.7]),
                rng.uniform(0.0, 1.0, 7) * 10.0 ** rng.integers(-12, 3, 7)]
    costs = [rng.uniform(0.0, 2.0, (t.m, t.k)) for t in trees]
    forest = _Forest(trees)
    flows = forest.flows(np.concatenate(balances))
    values = np.concatenate([cost.ravel()[t.edge] for t, cost in zip(trees, costs)])
    pot = forest.potentials(values)
    for t, rest, cost, a in zip(trees, balances, costs, forest.offsets.tolist()):
        n = t.m + t.k
        t.relist()
        want = t.flows(rest.tolist(), [0.0] * (t.m * t.k))
        assert [want[e] for e in t.edge[:-1]] == flows[a:a + n - 1].tolist()
        want = t.potentials(cost.ravel().tolist(), np.zeros(n), t.order)
        assert want.tobytes() == pot[a:a + n].tobytes()
    assert flows[0] == supply[0] - demand[2] - demand[1] - demand[0] != ascending


def test_solver_stats():
    rng = np.random.default_rng(29)
    p = _zero_mass_problem(rng, "zero_rows")
    sol = solve_simplex(p)
    assert sol.stats.kept == (int((p.supply > 0).sum()), p.k)
    assert sol.stats.pivots >= 0 and sol.stats.bland is False
    assert 0 <= sol.stats.degenerate_pivots <= sol.stats.pivots
    assert sol.stats.ipm_iterations is None and sol.stats.residual is None
    assert sol.stats.ipm_fallbacks is None
    ipm = solve_interior_point(random_problem(rng, 3, 4), tol=1e-9)
    assert ipm.stats.kept == (3, 4) and ipm.stats.pivots is None
    assert ipm.stats.degenerate_pivots is None
    assert ipm.stats.ipm_iterations > 0 and 0 <= ipm.stats.residual <= 1e-9
    assert 0 <= ipm.stats.ipm_fallbacks <= ipm.stats.ipm_iterations
    oracle = solve_oracle(random_problem(rng, 2, 2)).stats
    assert oracle.kept == (2, 2) and oracle.degenerate_pivots is None
    assert oracle.ipm_fallbacks is None


def test_basis_error_names_its_gate():
    """A missing node and a cycle are told apart as attributes, with no gap
    measured; the complementarity gate reports the gap it measured."""
    with pytest.raises(SingularKktError) as missing:
        _BasisTree(2, 2, [0, 1])
    assert (missing.value.gate, missing.value.gap) == ("spanning_tree", None)
    with pytest.raises(SingularKktError) as cycle:
        _BasisTree(2, 2, [0, 1, 2, 3])
    assert (cycle.value.gate, cycle.value.gap) == ("cycle", None)
    p = TransportProblem(cost=np.ones((2, 2)), supply=np.full(2, 0.5), demand=np.full(2, 0.5))
    sol = solve_simplex(p)
    with pytest.raises(SingularKktError) as tied:
        _optimal_basis(p, sol.flows, sol.duals_ineq)
    assert tied.value.gate == "complementarity" and tied.value.gap == 0.0


def test_negative_masses_rejected():
    with pytest.raises(ValueError, match="must be non-negative"):
        transport.check_masses(np.array([1.5, -0.5]), np.array([1.0]))
    with pytest.raises(ValueError, match="must be non-negative"):
        transport.check_masses(np.array([1.0]), np.array([-0.5, 1.5]))


@pytest.mark.parametrize("cost, supply, demand, match", [
    (np.ones(2), np.ones(2), np.ones(2), "cost must be m x k"),
    (np.ones((0, 2)), np.ones(0), np.ones(2), "cost must be m x k"),
    (np.ones((2, 2)), np.full(3, 1 / 3), np.full(2, 0.5), "lengths must match"),
    (np.ones((2, 2)), np.full(2, 0.5), np.ones(1), "lengths must match"),
    (np.array([[0.5, np.nan], [0.5, 0.5]]), np.full(2, 0.5), np.full(2, 0.5), "must be finite"),
])
def test_problem_rejects_bad_arrays(cost, supply, demand, match):
    with pytest.raises(ValueError, match=match):
        TransportProblem(cost=cost, supply=supply, demand=demand)


def test_pivot_limit_raises_cycling_error(monkeypatch):
    monkeypatch.setattr(transport, "MAX_PIVOTS", 0)
    p = TransportProblem(cost=np.array([[0.1, 0.9], [0.8, 0.2]]), supply=np.full(2, 0.5),
                         demand=np.full(2, 0.5))
    with pytest.raises(CyclingError, match="pivot limit"):
        solve_simplex(p)
