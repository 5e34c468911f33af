"""Backward pass through the transportation LP.

Two routes:

* the envelope (Danskin) gradient of the optimal value — free, exact for
  losses of the value itself;
* the full implicit-function Jacobian of the optimal flows, obtained by
  linearizing the KKT optimality system at the optimum and solving the
  resulting linear system.

The optimality system stacks stationarity, scaled complementarity, and
the equality constraints.  One equality row of the balanced problem is
redundant, so the linearization is solved on the reduced system with the
last demand potential pinned to zero; this leaves the primal block of the
Jacobian unchanged for balanced parameter perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .transport import TransportProblem, TransportSolution, reduced_incidence

COMPLEMENTARITY_GATE = 1e-8
CONDITION_GATE = 1e12
SUPPORT_TOL = 1e-6


class SingularKktError(RuntimeError):
    """Degenerate optimum: the flow Jacobian is not defined."""


@dataclass(frozen=True)
class EmdGradients:
    """Gradients of a scalar loss with respect to the LP parameters."""

    d_cost: np.ndarray
    d_supply: np.ndarray
    d_demand: np.ndarray


def grad_objective(sol: TransportSolution, p: TransportProblem) -> EmdGradients:
    """Envelope gradient of the optimal objective value.

    d objective / d cost = optimal flows; d objective / d supply and
    demand = the equality duals (marginal prices).
    """
    m = p.m
    return EmdGradients(
        d_cost=sol.flows.copy(),
        d_supply=sol.duals_eq[:m].copy(),
        d_demand=sol.duals_eq[m:].copy(),
    )


class KktSystem:
    """Linearized optimality system at an LP optimum.

    Holds the LU factorization of the reduced Jacobian so that multiple
    parameter directions (or the adjoint) reuse one factorization.
    Blocks, with n = m*k primal flows, n multipliers, m+k-1 potentials:

        [ 0          -I     A_r^T ]
        [ -diag(lam) -diag(x)  0  ]
        [ A_r         0        0  ]
    """

    def __init__(self, sol: TransportSolution, p: TransportProblem):
        m, k = p.m, p.k
        n = m * k
        x = sol.flows.ravel()
        lam = sol.duals_ineq.ravel()

        gap = float(np.min(x + lam))
        if gap <= COMPLEMENTARITY_GATE:
            raise SingularKktError(
                f"strict complementarity fails (min x+lambda = {gap:.3e})"
            )
        # A vertex optimum has at most m+k-1 active flows; more means the
        # optimal face is not a point and the Jacobian does not exist.
        support = int(np.count_nonzero(x > SUPPORT_TOL * max(x.max(), 1e-300)))
        if support > m + k - 1:
            raise SingularKktError(
                f"optimal flow support {support} exceeds basis size {m + k - 1}; "
                "multiple optimal flows"
            )

        A = reduced_incidence(m, k)
        nr = m + k - 1
        size = 2 * n + nr
        J = np.zeros((size, size))
        J[:n, n:2 * n] = -np.eye(n)
        J[:n, 2 * n:] = A.T
        J[n:2 * n, :n] = -np.diag(lam)
        J[n:2 * n, n:2 * n] = -np.diag(x)
        J[2 * n:, :n] = A

        cond = np.linalg.cond(J)
        if not np.isfinite(cond) or cond > CONDITION_GATE:
            raise SingularKktError(f"KKT matrix condition estimate {cond:.3e}")

        self.m, self.k, self.n = m, k, n
        self.jac_x = J
        self.condition = float(cond)
        self._lu = scipy.linalg.lu_factor(J, check_finite=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.lu_solve(self._lu, rhs, check_finite=False)

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.lu_solve(self._lu, rhs, trans=1, check_finite=False)

    def parameter_rhs(self, d_cost, d_supply, d_demand) -> np.ndarray:
        """Right-hand side -J_theta g . v for a parameter direction v.

        Cost enters stationarity with identity; supply/demand enter the
        equality block with -identity (last demand row dropped).
        """
        m, k, n = self.m, self.k, self.n
        rhs = np.zeros(2 * n + m + k - 1)
        rhs[:n] = -np.asarray(d_cost, dtype=float).ravel()
        db = np.concatenate([np.asarray(d_supply, dtype=float),
                             np.asarray(d_demand, dtype=float)[:k - 1]])
        rhs[2 * n:] = db
        return rhs


class FlowJacobian:
    """Action of the flow Jacobian on parameter perturbations.

    ``apply`` maps a direction (d_cost, d_supply, d_demand) to the induced
    first-order change in the optimal flows.  Weight perturbations must be
    balanced (sum of d_supply equal to sum of d_demand) to stay inside the
    feasible family.
    """

    def __init__(self, system: KktSystem):
        self.system = system

    def apply(self, d_cost, d_supply, d_demand) -> np.ndarray:
        sysm = self.system
        rhs = sysm.parameter_rhs(d_cost, d_supply, d_demand)
        delta = sysm.solve(rhs)
        return delta[:sysm.n].reshape(sysm.m, sysm.k)


def jacobian_flows(sol: TransportSolution, p: TransportProblem) -> FlowJacobian:
    """Flow Jacobian at a strictly complementary, nondegenerate optimum.

    Raises :class:`SingularKktError` when the degeneracy gate trips.
    """
    return FlowJacobian(KktSystem(sol, p))


def backward_similarity(upstream: float, sol: TransportSolution,
                        p: TransportProblem, mode: str = "envelope") -> EmdGradients:
    """Gradients of a loss through the similarity score sum((1-c) * flows).

    The similarity equals total flow minus objective.  Total flow is fixed
    by the weights; its unit contribution is attributed to the supply side,
    which is immaterial for balanced weight perturbations.

    ``envelope`` uses the value-function gradient (exact for losses of the
    similarity).  ``full`` additionally routes through the flow Jacobian,
    which validates the implicit-function route and is required when the
    loss touches individual flows.
    """
    m, k = p.m, p.k
    n = m * k
    if mode == "envelope":
        return EmdGradients(
            d_cost=-upstream * sol.flows,
            d_supply=upstream * (1.0 - sol.duals_eq[:m]),
            d_demand=-upstream * sol.duals_eq[m:],
        )
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")

    system = KktSystem(sol, p)
    # Adjoint solve: w is the sensitivity of the similarity to each flow.
    w = upstream * (1.0 - p.cost).ravel()
    rhs = np.zeros(2 * n + m + k - 1)
    rhs[:n] = w
    y = system.solve_transpose(rhs)
    d_cost = -upstream * sol.flows - y[:n].reshape(m, k)
    d_supply = upstream * np.ones(m) + y[2 * n:2 * n + m]
    d_demand = np.concatenate([y[2 * n + m:], [0.0]])
    grads = EmdGradients(d_cost=d_cost, d_supply=d_supply, d_demand=d_demand)
    for arr in (grads.d_cost, grads.d_supply, grads.d_demand):
        if not np.all(np.isfinite(arr)):
            raise SingularKktError("non-finite gradient from KKT solve")
    return grads
