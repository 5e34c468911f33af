"""Transportation-problem solvers.

Three routes to the same optimum:

* :func:`solve_simplex` — transportation simplex (least-cost start,
  Bland's rule against cycling).  Fast path for inference.
* :func:`solve_interior_point` — primal-dual path following with
  Mehrotra-style centering.  Its converged duals feed differentiation.
* :func:`solve_oracle` — exhaustive spanning-tree enumeration for tiny
  instances; the verification reference for both solvers above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

BALANCE_RTOL = 1e-9
DEGENERATE_RTOL = 1e-9  # basic flows below this share of total mass count as zero
ORACLE_MAX_CELLS = 16


class UnbalancedProblemError(ValueError):
    """Total supply and total demand disagree beyond tolerance."""


class CyclingError(RuntimeError):
    """Simplex failed to terminate (should not happen with Bland's rule)."""


class IterationLimitError(RuntimeError):
    """Interior point hit the iteration cap before reaching tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class InstanceTooLargeError(ValueError):
    """Oracle enumeration is restricted to m*k <= 16 cells."""


@dataclass(frozen=True)
class TransportProblem:
    """Balanced transportation LP: cost (m,k), supply (m,), demand (k,)."""

    cost: np.ndarray
    supply: np.ndarray
    demand: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=np.float64)
        supply = np.asarray(self.supply, dtype=np.float64)
        demand = np.asarray(self.demand, dtype=np.float64)
        if cost.ndim != 2 or cost.shape[0] < 1 or cost.shape[1] < 1:
            raise ValueError(f"cost must be m x k with m,k >= 1, got {cost.shape}")
        if supply.shape != (cost.shape[0],) or demand.shape != (cost.shape[1],):
            raise ValueError("supply/demand lengths must match cost dimensions")
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost entries must be finite")
        if np.any(supply < 0) or np.any(demand < 0):
            raise ValueError("supply and demand must be non-negative")
        ts, td = float(supply.sum()), float(demand.sum())
        if ts <= 0 or td <= 0:
            raise ValueError("total supply and total demand must be positive")
        if abs(ts - td) > BALANCE_RTOL * max(ts, td):
            raise UnbalancedProblemError(
                f"unbalanced problem: total supply {ts} vs total demand {td}"
            )
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)

    @property
    def m(self) -> int:
        return self.cost.shape[0]

    @property
    def k(self) -> int:
        return self.cost.shape[1]


@dataclass(frozen=True)
class TransportSolution:
    """Optimal flows plus the dual certificate.

    ``duals_eq`` holds the supplier potentials followed by the demander
    potentials, in the sign convention where they are marginal prices:
    the derivative of the optimal objective with respect to supply i is
    ``duals_eq[i]`` (up to the usual constant-shift gauge of balanced
    problems).  ``duals_ineq`` are the non-negativity multipliers, equal
    to clamped reduced costs for basis solvers.
    """

    flows: np.ndarray
    objective: float
    duals_eq: np.ndarray
    duals_ineq: np.ndarray
    solver_tag: str
    degenerate: bool = False


def reduced_incidence(m: int, k: int) -> np.ndarray:
    """Equality matrix with the redundant last demand row dropped (full rank)."""
    A = np.zeros((m + k - 1, m * k))
    for i in range(m):
        A[i, i * k:(i + 1) * k] = 1.0
    for j in range(k - 1):
        A[m + j, j::k] = 1.0
    return A


# ---------------------------------------------------------------------------
# transportation simplex


def _least_cost_start(cost, supply, demand):
    """Initial basic feasible solution by the least-cost rule.

    Same triangular-basis guarantee as the northwest-corner rule but
    starts much closer to the optimum, cutting pivot counts roughly 3x.
    """
    m, k = cost.shape
    a = supply.copy()
    b = demand.copy()
    flows = np.zeros((m, k))
    basis = []
    masked = cost.copy()
    active_rows = m
    active_cols = k
    while True:
        idx = int(np.argmin(masked))
        i, j = idx // k, idx % k
        x = min(a[i], b[j])
        flows[i, j] = x
        basis.append((i, j))
        a[i] -= x
        b[j] -= x
        if active_rows == 1 and active_cols == 1:
            break
        # Deactivate exactly one line per step so the basis stays a tree.
        if (a[i] <= b[j] and active_rows > 1) or active_cols == 1:
            masked[i, :] = np.inf
            active_rows -= 1
        else:
            masked[:, j] = np.inf
            active_cols -= 1
    return flows, basis


class _BasisTree:
    """Rooted spanning tree of the m+k bipartite nodes backing the simplex.

    Nodes 0..m-1 are suppliers, m..m+k-1 demanders.  Maintains parent,
    depth, and potential per node; pivots only rescan the re-hung subtree.
    """

    def __init__(self, m, k, cost_rows, basis_cells):
        self.m = m
        self.k = k
        self.cost_rows = cost_rows
        n = m + k
        self.adj = [set() for _ in range(n)]
        for (i, j) in basis_cells:
            self.adj[i].add(m + j)
            self.adj[m + j].add(i)
        self.parent = [-1] * n
        self.depth = [0] * n
        self.pot = [0.0] * n
        self.u = np.zeros(m)
        self.v = np.zeros(k)
        self.rescan(0, -1)

    def _edge_cost(self, a, b):
        return (self.cost_rows[a][b - self.m] if a < self.m
                else self.cost_rows[b][a - self.m])

    def rescan(self, root, attach_to):
        """Recompute parent/depth/potential below ``root`` hung on ``attach_to``."""
        parent, depth, pot = self.parent, self.depth, self.pot
        parent[root] = attach_to
        if attach_to == -1:
            depth[root] = 0
            pot[root] = 0.0
        else:
            depth[root] = depth[attach_to] + 1
            # u_i + v_j = c_ij on basic cells
            pot[root] = self._edge_cost(root, attach_to) - pot[attach_to]
        self._store(root)
        stack = [root]
        while stack:
            node = stack.pop()
            pn = pot[node]
            dn = depth[node]
            for nbr in self.adj[node]:
                if nbr != parent[node]:
                    parent[nbr] = node
                    depth[nbr] = dn + 1
                    pot[nbr] = self._edge_cost(node, nbr) - pn
                    self._store(nbr)
                    stack.append(nbr)

    def _store(self, node):
        if node < self.m:
            self.u[node] = self.pot[node]
        else:
            self.v[node - self.m] = self.pot[node]

    def cycle_cells(self, ei, ej):
        """Cells of the unique basis cycle closed by entering cell (ei, ej).

        Ordered along the cycle starting at the entering cell, so signs
        alternate +, -, +, ...
        """
        m = self.m
        parent, depth = self.parent, self.depth
        a, b = ei, m + ej
        path_a, path_b = [], []
        while depth[a] > depth[b]:
            path_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            path_b.append(b)
            b = parent[b]
        while a != b:
            path_a.append(a)
            a = parent[a]
            path_b.append(b)
            b = parent[b]
        nodes = path_a + [a] + path_b[::-1]  # ei ... lca ... m+ej
        cells = [(ei, ej)]
        for x, y in zip(nodes, nodes[1:]):
            cells.append((x, y - m) if x < m else (y, x - m))
        return cells

    def replace_edge(self, leave, enter):
        """Swap basis edges and re-hang the detached subtree."""
        m = self.m
        l1, l2 = leave[0], m + leave[1]
        e1, e2 = enter[0], m + enter[1]
        self.adj[l1].discard(l2)
        self.adj[l2].discard(l1)
        self.adj[e1].add(e2)
        self.adj[e2].add(e1)
        cut_child = l1 if self.parent[l1] == l2 else l2
        # The entering endpoint inside the detached subtree becomes its root.
        node, in_sub = e1, False
        while node != -1:
            if node == cut_child:
                in_sub = True
                break
            node = self.parent[node]
        if in_sub:
            self.rescan(e1, e2)
        else:
            self.rescan(e2, e1)


def solve_simplex(p: TransportProblem, tol: float = 1e-10,
                  max_pivots: int = 100_000) -> TransportSolution:
    """Transportation simplex.

    Entering variable is the most negative reduced cost (ties by lowest
    flat index).  After a run of degenerate pivots the rule falls back to
    Bland's lowest-index selection, which guarantees termination.
    """
    m, k = p.m, p.k
    cost = p.cost
    flows_np, basis_cells = _least_cost_start(cost, p.supply, p.demand)
    flows = flows_np.tolist()  # scalar cell updates are hot; stay in pure python
    tree = _BasisTree(m, k, cost.tolist(), basis_cells)
    in_basis = np.zeros(m * k, dtype=bool)
    in_basis[[i * k + j for (i, j) in basis_cells]] = True

    stall = 0
    stall_limit = m + k + 2
    for _ in range(max_pivots):
        red = (cost - tree.u[:, None] - tree.v[None, :]).ravel()
        candidates = np.flatnonzero((red < -tol) & ~in_basis)
        if candidates.size == 0:
            flows_np = np.array(flows)
            return TransportSolution(
                flows=flows_np,
                objective=float(np.sum(cost * flows_np)),
                duals_eq=np.concatenate([tree.u, tree.v]),
                duals_ineq=np.maximum(red.reshape(m, k), 0.0),
                solver_tag="simplex",
                degenerate=bool(flows_np.ravel()[in_basis].min()
                                < DEGENERATE_RTOL * p.supply.sum()),
            )
        if stall >= stall_limit:
            enter_flat = int(candidates[0])  # Bland: lowest flat index
        else:
            enter_flat = int(candidates[np.argmin(red[candidates])])
        enter = (enter_flat // k, enter_flat % k)
        cycle = tree.cycle_cells(*enter)
        minus = cycle[1::2]
        theta = min(flows[i][j] for (i, j) in minus)
        stall = stall + 1 if theta < 1e-12 else 0
        # Bland again on the leaving tie: lowest flat index among argmins.
        leave = min(
            (c for c in minus if flows[c[0]][c[1]] <= theta + 1e-15),
            key=lambda c: c[0] * k + c[1],
        )
        for idx, (i, j) in enumerate(cycle):
            flows[i][j] += theta if idx % 2 == 0 else -theta
        flows[leave[0]][leave[1]] = 0.0
        in_basis[leave[0] * k + leave[1]] = False
        in_basis[enter_flat] = True
        tree.replace_edge(leave, enter)
    raise CyclingError("simplex exceeded pivot limit")


# ---------------------------------------------------------------------------
# primal-dual interior point


def solve_interior_point(p: TransportProblem, tol: float = 1e-9,
                         max_iter: int = 200) -> TransportSolution:
    """Mehrotra-style predictor-corrector on the reduced equality system.

    Works in the standard form min c.x, A x = b, x >= 0 with duals (y, z),
    z = reduced costs >= 0.  The reported equality duals are y (marginal
    prices), with the dropped last demand row pinning its potential to 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m, k = p.m, p.k
    n = m * k
    nr = m + k - 1
    A = reduced_incidence(m, k)
    b = np.concatenate([p.supply, p.demand[:k - 1]])
    c = p.cost.ravel()
    total = float(p.supply.sum())

    # Strictly interior start: product-form feasible point plus a shift.
    x = np.outer(p.supply, p.demand).ravel() / total + 1e-2 * total / n
    y = np.zeros(nr)
    z = np.ones(n)

    def kkt_residual(x, y, z):
        rb = A @ x - b
        rc = A.T @ y + z - c
        return max(
            np.abs(rb).max(initial=0.0),
            np.abs(rc).max(initial=0.0),
            np.abs(x * z).max(initial=0.0),
        )

    for _ in range(max_iter):
        rb = A @ x - b
        rc = A.T @ y + z - c
        mu = float(x @ z) / n
        if kkt_residual(x, y, z) <= tol:
            break

        d = x / z
        M = (A * d) @ A.T

        def newton(r_xz):
            rhs = -rb + A @ (r_xz / z) - (A * d) @ rc
            try:
                cho = scipy.linalg.cho_factor(M, check_finite=False)
                dy = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
            except scipy.linalg.LinAlgError:
                dy = np.linalg.lstsq(M, rhs, rcond=None)[0]
            dz = -rc - A.T @ dy
            dx = -(r_xz + x * dz) / z
            return dx, dy, dz

        def max_step(w, dw):
            neg = dw < 0
            if not np.any(neg):
                return np.inf
            return float(np.min(-w[neg] / dw[neg]))

        # Predictor
        dx_a, dy_a, dz_a = newton(x * z)
        ap = min(1.0, max_step(x, dx_a))
        ad = min(1.0, max_step(z, dz_a))
        mu_aff = float((x + ap * dx_a) @ (z + ad * dz_a)) / n
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector
        dx, dy, dz = newton(x * z + dx_a * dz_a - sigma * mu)
        eta = 0.99
        ap = min(1.0, eta * max_step(x, dx))
        ad = min(1.0, eta * max_step(z, dz))
        x = x + ap * dx
        y = y + ad * dy
        z = z + ad * dz
    else:
        raise IterationLimitError(
            f"interior point did not reach tol {tol} in {max_iter} iterations "
            f"(residual {kkt_residual(x, y, z):.3e})",
            residual=kkt_residual(x, y, z),
        )

    flows = x.reshape(m, k)
    duals_eq = np.concatenate([y, [0.0]])
    support = int(np.count_nonzero(x > 1e-5 * x.max()))
    return TransportSolution(
        flows=flows,
        objective=float(np.sum(p.cost * flows)),
        duals_eq=duals_eq,
        duals_ineq=z.reshape(m, k),
        solver_tag="interior_point",
        degenerate=bool(support > m + k - 1 or np.min(x + z) < 1e-8),
    )


# ---------------------------------------------------------------------------
# exhaustive oracle

_TREE_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _tree_bases(m: int, k: int):
    """All spanning-tree bases of K_{m,k} with precomputed basis inverses.

    Returns (cells, inverses): cells is (T, m+k-1) of flat indices, and
    inverses[t] maps the reduced right-hand side to basic flows.
    """
    key = (m, k)
    if key in _TREE_CACHE:
        return _TREE_CACHE[key]
    A = reduced_incidence(m, k)
    nb = m + k - 1
    cells_list = []
    inv_list = []
    for combo in itertools.combinations(range(m * k), nb):
        B = A[:, combo]
        det = np.linalg.det(B)
        if abs(det) > 0.5:  # incidence determinants are 0 or +-1
            cells_list.append(combo)
            inv_list.append(np.linalg.inv(B))
    cells = np.array(cells_list, dtype=np.intp)
    inverses = np.array(inv_list)
    _TREE_CACHE[key] = (cells, inverses)
    return cells, inverses


def solve_oracle(p: TransportProblem) -> TransportSolution:
    """Exact optimum by enumerating every spanning-tree basis."""
    m, k = p.m, p.k
    if m * k > ORACLE_MAX_CELLS:
        raise InstanceTooLargeError(
            f"oracle limited to {ORACLE_MAX_CELLS} cells, got {m * k}"
        )
    cells, inverses = _tree_bases(m, k)
    b_red = np.concatenate([p.supply, p.demand[:k - 1]])
    basic_flows = inverses @ b_red                    # (T, nb)
    total = float(p.supply.sum())
    feasible = np.all(basic_flows >= -1e-12 * total, axis=1)
    costs = p.cost.ravel()[cells]                     # (T, nb)
    objectives = np.einsum("tb,tb->t", costs, basic_flows)
    objectives = np.where(feasible, objectives, np.inf)
    best = int(np.argmin(objectives))
    flows = np.zeros(m * k)
    flows[cells[best]] = np.maximum(basic_flows[best], 0.0)
    flows = flows.reshape(m, k)
    # Duals from the winning basis: B^T y = c_B (last demand potential = 0).
    y = inverses[best].T @ costs[best]
    duals_eq = np.concatenate([y[:m], y[m:], [0.0]])
    red = p.cost - duals_eq[:m, None] - duals_eq[None, m:]
    return TransportSolution(
        flows=flows,
        objective=float(np.sum(p.cost * flows)),
        duals_eq=duals_eq,
        duals_ineq=np.maximum(red, 0.0),
        solver_tag="oracle",
        degenerate=bool(np.min(basic_flows[best]) < DEGENERATE_RTOL * total),
    )


SOLVERS = {
    "simplex": solve_simplex,
    "interior_point": solve_interior_point,
    "ipm": solve_interior_point,
    "oracle": solve_oracle,
}


def solve(p: TransportProblem, solver: str = "simplex", **kwargs) -> TransportSolution:
    """Dispatch to a solver by name ('simplex', 'ipm'/'interior_point', 'oracle')."""
    try:
        fn = SOLVERS[solver]
    except KeyError:
        raise ValueError(f"unknown solver {solver!r}") from None
    return fn(p, **kwargs)
