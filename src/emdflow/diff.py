"""Backward pass through the transportation LP.

Two routes:

* the envelope (Danskin) gradient of the optimal value — free, exact for
  losses of the value itself;
* the implicit-function Jacobian of the optimal flows, read off the
  optimal basis tree.

At a strictly complementary optimum the KKT linearization collapses onto
the basis B: the m+k-1 cells where the flow exceeds its multiplier, which
form a spanning tree of the m+k bipartite nodes.  Nonbasic flows stay at
zero, so d flows / d cost = 0 and d flows_B / d (supply, demand) = B^-1.
The tree is the simplex's own ``transport._BasisTree``, hung from the last
demander, whose redundant equality row is dropped; that pins its potential
to zero, the gauge every solver reports.  B^-1 is a leaf-to-root pass over
the tree's order, and its transpose is the tree's potential recurrence with
the flow cotangent in place of cost, both O(m+k).  Flows are compared in
units of total mass and multipliers in units of max|cost|, so the gate does
not move with scale.  The x > lambda partition also crosses interior-point
solutions over to their basis.

Gate and basis are taken on the mass support (``transport._optimal_basis``),
so zero-mass nodes do not make the optimum degenerate.  Each hangs from the
tree by the zero-flow cell where its completed potential is tight: ``apply``
returns the full m x k flows, and ``vjp`` gives it the potential across that
cell, the one-sided derivative for growing its mass from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transport import BasisError, TransportProblem, TransportSolution, _optimal_basis


class SingularKktError(RuntimeError):
    """Degenerate optimum: the flow Jacobian is not defined.

    ``gate`` and ``gap`` are those of the :class:`~emdflow.transport.BasisError`
    that tripped.
    """

    def __init__(self, message, gate=None, gap=None):
        super().__init__(message)
        self.gate, self.gap = gate, gap


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


class FlowJacobian:
    """Flow Jacobian at a nondegenerate optimum, held as its basis tree.

    ``apply`` maps a parameter direction to the change in the optimal
    flows; ``vjp`` maps a flow cotangent back to supply and demand.
    Raises :class:`SingularKktError` when the degeneracy gate trips.
    """

    def __init__(self, sol: TransportSolution, p: TransportProblem):
        try:
            self._tree = _optimal_basis(p, sol.flows, sol.duals_ineq)
        except BasisError as exc:
            raise SingularKktError(f"degenerate optimum: {exc}", exc.gate, exc.gap) from exc

    def apply(self, d_cost, d_supply, d_demand) -> np.ndarray:
        """First-order change in the optimal flows along a parameter direction.

        Flows are constant in cost, so ``d_cost`` has no effect.  The flow
        on each node's parent edge is what the node still needs after its
        children; the root's own balance (the dropped row) is not imposed,
        so weight perturbations should be balanced (sum of d_supply equal to
        sum of d_demand) to stay inside the feasible family.
        """
        tree = self._tree
        rest = np.concatenate([np.asarray(d_supply, dtype=float),
                               np.asarray(d_demand, dtype=float)])
        return tree.flows(rest, np.zeros(tree.m * tree.k)).reshape(tree.m, tree.k)

    def vjp(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Pull a flow cotangent ``w`` (m, k) back to (d_supply, d_demand).

        Solves B^T y = w_B: potentials with y_i + y_j = w_ij on basic cells
        and the last demand potential pinned to zero.
        """
        tree = self._tree
        y = tree.potentials(np.asarray(w, dtype=float).ravel(),
                            np.zeros(tree.m + tree.k), tree.order)
        return y[:tree.m], y[tree.m:]


def envelope_grads(upstream: float, flows: np.ndarray, u: np.ndarray,
                   v: np.ndarray) -> EmdGradients:
    """Envelope gradients of upstream * sum((1 - c) * flows) at an optimum.

    ``u`` and ``v`` are the supplier and demander potentials of the problem
    ``flows`` solves.  The similarity is total flow minus objective, and
    the total flow is attributed to the supply side.  The formula is
    element-wise, so a stack of problems may pass its flows and potentials
    in any layout at once.
    """
    return EmdGradients(
        d_cost=-upstream * flows,
        d_supply=upstream * (1.0 - u),
        d_demand=-upstream * v,
    )


def backward_similarity(upstream: float, sol: TransportSolution,
                        p: TransportProblem, mode: str = "envelope") -> EmdGradients:
    """Gradients of a loss through the similarity score sum((1-c) * flows).

    ``envelope`` uses the value-function gradient (exact for losses of the
    similarity).  It writes the similarity as total flow minus objective and
    attributes the total flow to the supply side.  ``full`` routes through
    the flow Jacobian instead: d_cost is the direct term -flows, and the
    weight gradients are the tree potentials of upstream * (1 - c), which
    already count total flow.  It validates the implicit-function route
    and is required when the loss touches individual flows.
    """
    if mode == "envelope":
        return envelope_grads(upstream, sol.flows, sol.duals_eq[:p.m], sol.duals_eq[p.m:])
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")

    d_supply, d_demand = FlowJacobian(sol, p).vjp(upstream * (1.0 - p.cost))
    return EmdGradients(d_cost=-upstream * sol.flows, d_supply=d_supply, d_demand=d_demand)
