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
One equality row of the balanced problem is redundant; it is dropped by
rooting the tree at the last demander, which pins that node's potential
to zero.  B^-1 is then a leaf-to-root flow walk and its transpose a
root-to-leaf potential walk, both O(m+k).  The x > lambda partition also
crosses interior-point solutions over to their basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transport import TransportProblem, TransportSolution

COMPLEMENTARITY_GATE = 1e-8


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


class FlowJacobian:
    """Flow Jacobian at a nondegenerate optimum, held as its basis tree.

    Nodes 0..m-1 are suppliers and m..m+k-1 demanders.  Every node but the
    root (the last demander) carries the basic cell joining it to its
    parent.  ``apply`` maps a parameter direction to the change in the
    optimal flows; ``vjp`` maps a flow cotangent back to supply and demand.
    """

    def __init__(self, sol: TransportSolution, p: TransportProblem):
        m, k = p.m, p.k
        x = sol.flows.ravel()
        lam = sol.duals_ineq.ravel()

        gap = float(np.min(x + lam))
        if gap <= COMPLEMENTARITY_GATE:
            raise SingularKktError(
                f"strict complementarity fails (min x+lambda = {gap:.3e})"
            )
        basis = np.flatnonzero(x > lam).tolist()
        if len(basis) != m + k - 1:
            raise SingularKktError(
                f"optimal basis has {len(basis)} cells, a vertex has {m + k - 1}; "
                "multiple optimal flows"
            )
        adj = [[] for _ in range(m + k)]
        for cell in basis:
            i, j = divmod(cell, k)
            adj[i].append((m + j, cell))
            adj[m + j].append((i, cell))
        root = m + k - 1
        parent = [-1] * (m + k)
        edge = [-1] * (m + k)
        order = [root]
        for node in order:  # breadth first; ``order`` grows while it is read
            for nbr, cell in adj[node]:
                if nbr != root and parent[nbr] == -1:
                    parent[nbr] = node
                    edge[nbr] = cell
                    order.append(nbr)
        # m+k-1 cells reaching all m+k nodes form a tree.
        if len(order) != m + k:
            raise SingularKktError("optimal basis cells do not form a spanning tree")
        self.m, self.k = m, k
        self._order = order[1:]
        self._parent = parent
        self._edge = edge

    def apply(self, d_cost, d_supply, d_demand) -> np.ndarray:
        """First-order change in the optimal flows along a parameter direction.

        Flows are constant in cost, so ``d_cost`` has no effect.  The flow
        on each node's parent edge is what the node still needs after its
        children; the root's own balance (the dropped row) is not imposed,
        so weight perturbations should be balanced (sum of d_supply equal to
        sum of d_demand) to stay inside the feasible family.
        """
        rest = np.concatenate([np.asarray(d_supply, dtype=float),
                               np.asarray(d_demand, dtype=float)])
        d_flows = np.zeros(self.m * self.k)
        for node in reversed(self._order):
            d_flows[self._edge[node]] = rest[node]
            rest[self._parent[node]] -= rest[node]
        return d_flows.reshape(self.m, self.k)

    def vjp(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Pull a flow cotangent ``w`` (m, k) back to (d_supply, d_demand).

        Solves B^T y = w_B: potentials with y_i + y_j = w_ij on basic cells
        and the last demand potential pinned to zero.
        """
        w = np.asarray(w, dtype=float).ravel()
        y = np.zeros(self.m + self.k)
        for node in self._order:
            y[node] = w[self._edge[node]] - y[self._parent[node]]
        return y[:self.m], y[self.m:]


def jacobian_flows(sol: TransportSolution, p: TransportProblem) -> FlowJacobian:
    """Flow Jacobian at a strictly complementary, nondegenerate optimum.

    Raises :class:`SingularKktError` when the degeneracy gate trips.
    """
    return FlowJacobian(sol, p)


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
        m = p.m
        return EmdGradients(
            d_cost=-upstream * sol.flows,
            d_supply=upstream * (1.0 - sol.duals_eq[:m]),
            d_demand=-upstream * sol.duals_eq[m:],
        )
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")

    d_supply, d_demand = jacobian_flows(sol, p).vjp(upstream * (1.0 - p.cost))
    return EmdGradients(d_cost=-upstream * sol.flows, d_supply=d_supply, d_demand=d_demand)
