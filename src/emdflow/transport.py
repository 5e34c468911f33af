"""Transportation-problem solvers.

Three routes to the same optimum:

* :func:`solve_simplex` — transportation simplex (least-cost start,
  Bland's rule against cycling).  Fast path for inference.  Its kernel,
  ``_simplex``, pivots its basis tree in place, the network-simplex update
  (Ahuja, Magnanti & Orlin, *Network Flows*, ch. 11): parent links reverse
  only on the path to the cut, and potentials and depths are renewed only
  over the subtree that moved.  It also takes a start tree (a warm start),
  which the SFC fit uses to restart each solve on the tree that pair last
  ended on.
* :func:`solve_interior_point` — primal-dual path following with
  Mehrotra-style centering.  Its normal equations are built from the row
  and column sums of the m x k grid, never from the incidence matrix, and it
  iterates on mass and cost scaled to unit size, stopping on the largest of
  the primal and dual residuals and the duality gap Σ x∘z.
* :func:`solve_oracle` — exhaustive spanning-tree enumeration for tiny
  instances; the verification reference for both solvers above.

A zero-mass node (the cross-reference ReLU clamps many) carries no flow at
any optimum; it only adds cells and pivots and makes every optimum
primal-degenerate.  So the simplex solves the mass support, and the
interior point's degeneracy test and the flow-Jacobian gate read the basis
off that support (:func:`_optimal_basis`).  Every solution carries a
:class:`SolveStats` record of what its solve did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

BALANCE_RTOL = 1e-9
DEGENERATE_RTOL = 1e-9  # basic flows below this share of total mass count as zero
COMPLEMENTARITY_GATE = 1e-8  # min(x/mass + lambda/max|cost|) at or below this: not strict
ORACLE_MAX_CELLS = 16
MAX_PIVOTS = 100_000  # a simplex run past this many pivots raises CyclingError


class UnbalancedProblemError(ValueError):
    """Total supply and total demand disagree beyond tolerance."""


class CyclingError(RuntimeError):
    """Simplex failed to terminate (should not happen with Bland's rule)."""


class IterationLimitError(RuntimeError):
    """Interior point hit the iteration cap before reaching tolerance.

    ``residual`` is the stopping measure of the last iterate: the largest of
    the primal residual in units of total mass, the dual residual in units of
    max|cost|, and the duality gap Σ x∘z in units of both.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class InstanceTooLargeError(ValueError):
    """Oracle enumeration is restricted to m*k <= 16 cells."""


class BasisError(ValueError):
    """No strictly complementary spanning-tree basis of the m+k nodes.

    ``gate`` names the test that failed: ``"complementarity"``,
    ``"spanning_tree"`` (a node is missing) or ``"cycle"``.  ``gap`` is the
    measured min x/mass + lambda/max|c| where the gate took it
    (:func:`_optimal_basis`), else None.
    """

    def __init__(self, message, gate=None, gap=None):
        super().__init__(message)
        self.gate, self.gap = gate, gap


def check_masses(supply: np.ndarray, demand: np.ndarray, totals=None) -> None:
    """Raise unless both mass vectors are finite, >= 0, positive in total and balanced.

    A batch of problems passes all its supplies and all its demands at once,
    with ``totals`` = (supply totals, demand totals), one pair per problem.
    """
    if not (np.all(np.isfinite(supply)) and np.all(np.isfinite(demand))):
        raise ValueError("cost, supply and demand entries must be finite")
    if np.any(supply < 0) or np.any(demand < 0):
        raise ValueError("supply and demand must be non-negative")
    for ts, td in (zip(*totals) if totals is not None
                   else [(float(supply.sum()), float(demand.sum()))]):
        if ts <= 0 or td <= 0:
            raise ValueError("total supply and total demand must be positive")
        if abs(ts - td) > BALANCE_RTOL * max(ts, td):
            raise UnbalancedProblemError(
                f"unbalanced problem: total supply {ts} vs total demand {td}"
            )


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
            raise ValueError("cost, supply and demand entries must be finite")
        check_masses(supply, demand)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)

    @property
    def m(self) -> int:
        return self.cost.shape[0]

    @property
    def k(self) -> int:
        return self.cost.shape[1]


class SolveStats(NamedTuple):
    """What one solve did.

    ``kept`` is the (rows, columns) shape the solver worked on: the mass
    support for the simplex, the whole problem otherwise.  The simplex
    reports its ``pivots``, how many of them moved less than 1e-12 of the
    total mass (``degenerate_pivots``) and whether Bland's rule took over
    (``bland``); the interior point its ``ipm_iterations`` and the stopping
    measure it ended on (``residual``).  Fields a solver does not report
    stay None.
    """

    kept: tuple
    pivots: int = None
    degenerate_pivots: int = None
    bland: bool = None
    ipm_iterations: int = None
    residual: float = None


@dataclass(frozen=True)
class TransportSolution:
    """Optimal flows plus the dual certificate.

    ``duals_eq`` holds the supplier potentials followed by the demander
    potentials, in the sign convention where they are marginal prices:
    the derivative of the optimal objective with respect to supply i is
    ``duals_eq[i]``.  Balanced problems leave one constant shift free;
    every solver fixes it the same way, with the last demand potential
    at 0.  ``duals_ineq`` are the non-negativity multipliers, equal to
    clamped reduced costs for basis solvers.

    The simplex solves on the mass support: zero-mass nodes get zero flows
    and completed potentials (:func:`_complete`), so the certificate holds
    for the full problem.  ``degenerate`` describes the kept subproblem: a
    zero basic flow of the simplex, or no strictly complementary tree basis
    of the interior point (:func:`_optimal_basis`).  The oracle's flag is a
    zero basic flow of the full problem.  ``stats`` (:class:`SolveStats`) is
    set by every solver; a solution built by hand may leave it None.
    """

    flows: np.ndarray
    objective: float
    duals_eq: np.ndarray
    duals_ineq: np.ndarray
    solver_tag: str
    degenerate: bool = False
    stats: SolveStats = None


def reduced_incidence(m: int, k: int) -> np.ndarray:
    """Equality matrix with the redundant last demand row dropped (full rank)."""
    A = np.zeros((m + k - 1, m * k))
    for i in range(m):
        A[i, i * k:(i + 1) * k] = 1.0
    for j in range(k - 1):
        A[m + j, j::k] = 1.0
    return A


# ---------------------------------------------------------------------------
# mass support


def _complete(cost, rows, cols, u, v):
    """Fill in, in place, the potentials of the nodes off ``rows`` / ``cols``.

    Each dropped supplier takes u_i = min over kept j of (c_ij - v_j), then
    each dropped demander v_j = min over all i of (c_ij - u_i): every reduced
    cost stays >= 0, and each dropped line has a cell where it is 0.
    """
    drop_r, drop_c = ~rows, ~cols
    u[drop_r] = (cost[drop_r][:, cols] - v[cols]).min(axis=1)
    v[drop_c] = (cost[:, drop_c] - u[:, None]).min(axis=0)


def _optimal_basis(p: TransportProblem, flows, duals_ineq) -> _BasisTree:
    """Basis tree of an optimal solution, read off its flows and multipliers.

    On the mass support the basic cells are those whose flow, in units of
    total mass, exceeds their multiplier, in units of max|cost|.  Each
    zero-mass node hangs, at zero flow, from the cell of least multiplier on
    its line (a dropped supplier from a kept demander), where its completed
    potential is tight (:func:`_complete`).  Raises :class:`BasisError` when
    strict complementarity fails on the support or the basic cells are not
    a spanning tree (multiple optimal flows).
    """
    m, k = p.m, p.k
    rows, cols = p.supply > 0, p.demand > 0
    kept = rows[:, None] & cols
    x = flows / p.supply.sum()
    lam = duals_ineq / (np.abs(p.cost).max() or 1.0)
    gap = float(np.min((x + lam)[kept]))
    if gap <= COMPLEMENTARITY_GATE:
        raise BasisError(
            f"strict complementarity fails (min x/mass + lambda/max|c| = {gap:.3e})",
            "complementarity", gap)
    cells = np.flatnonzero((x > lam) & kept).tolist()
    if not kept.all():
        drop_r, drop_c = np.flatnonzero(~rows), np.flatnonzero(~cols)
        cells += (drop_r * k + np.where(cols, lam, np.inf)[drop_r].argmin(axis=1)).tolist()
        cells += (lam[:, drop_c].argmin(axis=0) * k + drop_c).tolist()
    try:
        return _BasisTree(m, k, cells)
    except BasisError as exc:
        exc.gap = gap  # complementarity held at this gap
        raise


# ---------------------------------------------------------------------------
# transportation simplex


def _least_cost_start(cost, supply, demand):
    """Initial basic feasible solution by the least-cost rule.

    Walks the cells by ascending cost, ties by lowest flat index, and takes
    each one whose row and column are both still open; every step closes
    exactly one of them, so the m+k-1 cells taken form a tree.  Returns the
    flat flows (a list) and the flat indices of the basic cells, in the
    order taken.
    """
    m, k = cost.shape
    a = supply.tolist()
    b = demand.tolist()
    flows = [0.0] * (m * k)
    basis = []
    row_open = [True] * m
    col_open = [True] * k
    active_rows = m
    active_cols = k
    order = np.argsort(cost, axis=None, kind="stable")
    rows, cols = np.divmod(order, k)
    for idx, i, j in zip(order.tolist(), rows.tolist(), cols.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        x = min(a[i], b[j])
        flows[idx] = x
        basis.append(idx)
        a[i] -= x
        b[j] -= x
        if active_rows == 1 and active_cols == 1:
            break
        # Close exactly one line per step so the basis stays a tree.
        if (a[i] <= b[j] and active_rows > 1) or active_cols == 1:
            row_open[i] = False
            active_rows -= 1
        else:
            col_open[j] = False
            active_cols -= 1
    return flows, basis


class _BasisTree:
    """Spanning tree of the m+k bipartite nodes over flat basic cells.

    Nodes 0..m-1 are suppliers, m..m+k-1 demanders.  The tree hangs from
    the last demander, the node whose row :func:`reduced_incidence` drops,
    so potentials computed on it pin that demander's potential to zero.
    Per node it keeps the ``parent``, the flat cell ``edge`` joining the
    node to its parent, the ``depth`` and the ``children``.  ``order``
    lists every node but the root, each after its parent; a build lists
    each node's children in the order of ``cells``.  A pivot
    (:meth:`replace_edge`) updates the tree in place but not ``order``,
    which :meth:`relist` renews.  Raises :class:`BasisError` when the cells
    hold a cycle or miss a node.
    """

    def __init__(self, m, k, cells):
        self.m, self.k = m, k
        n = m + k
        adj = [{} for _ in range(n)]  # neighbour -> flat cell
        for cell in cells:
            i, j = divmod(cell, k)
            adj[i][m + j] = cell
            adj[m + j][i] = cell
        parent, edge, depth = [-1] * n, [-1] * n, [0] * n
        children = [[] for _ in range(n)]
        order, seen, stack = [], {n - 1}, [n - 1]
        while stack:
            node = stack.pop()
            for nbr, cell in adj[node].items():
                if nbr == parent[node]:
                    continue
                if nbr in seen:
                    raise BasisError("basic cells hold a cycle, not a spanning tree", "cycle")
                seen.add(nbr)
                parent[nbr], edge[nbr], depth[nbr] = node, cell, depth[node] + 1
                children[node].append(nbr)
                order.append(nbr)
                stack.append(nbr)
        if len(order) != n - 1:
            raise BasisError("basic cells do not form a spanning tree", "spanning_tree")
        self.parent, self.edge, self.depth, self.children = parent, edge, depth, children
        self.order = order

    def relist(self):
        """Renew ``order`` with every node's children in ascending index, as
        a build from sorted cells lists them."""
        children = self.children
        order, stack = [], [self.m + self.k - 1]
        while stack:
            kids = children[stack.pop()]
            kids.sort()
            order += kids
            stack += kids
        self.order = order

    def flows(self, rest, out):
        """Basic flows meeting the node balances ``rest`` (supplies, then
        demands), written into ``out`` (flat cells); return ``out``.

        A leaf-to-root pass: each node's parent cell carries what the node
        still needs after its children.  The root's own balance is not
        imposed.  ``rest`` is used up.
        """
        edge, parent = self.edge, self.parent
        for node in reversed(self.order):
            out[edge[node]] = rest[node]
            rest[parent[node]] -= rest[node]
        return out

    def potentials(self, values, pot, nodes):
        """Solve pot[i] + pot[j] = values[cell] on the parent cells of ``nodes``
        (each listed after its parent), in place; return ``pot``."""
        edge, parent = self.edge, self.parent
        for node in nodes:
            pot[node] = values[edge[node]] - pot[parent[node]]
        return pot

    def cycle(self, cell):
        """Flat cells of the basis cycle closed by entering ``cell``.

        Ordered along the cycle starting at the entering cell, so signs
        alternate +, -, +, ...
        """
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

    def replace_edge(self, leave, enter, values, pot):
        """Swap basis cells in place, and renew depth and the potentials
        ``pot`` (on cell ``values``) over the subtree that moved.

        The subtree cut off by ``leave`` re-hangs from the entering endpoint
        inside it: parent links reverse only on the path from that endpoint
        up to the cut, and the subtree is walked parent before child.
        """
        m, k = self.m, self.k
        parent, edge, depth, children = self.parent, self.edge, self.depth, self.children
        l1, l2 = leave // k, m + leave % k
        e1, e2 = enter // k, m + enter % k
        cut = l1 if parent[l1] == l2 else l2
        node = e1
        while depth[node] > depth[cut]:
            node = parent[node]
        top, up = (e1, e2) if node == cut else (e2, e1)
        node, cell = top, enter
        while True:  # reverse the path top .. cut
            old_parent, old_edge = parent[node], edge[node]
            children[old_parent].remove(node)
            children[up].append(node)
            parent[node], edge[node] = up, cell
            if node == cut:
                break
            up, cell, node = node, old_edge, old_parent
        depth[top] = depth[parent[top]] + 1
        pot[top] = values[enter] - pot[parent[top]]
        stack = [top]
        while stack:
            node = stack.pop()
            d, p = depth[node] + 1, pot[node]
            for child in children[node]:
                depth[child] = d
                pot[child] = values[edge[child]] - p
            stack += children[node]


def solve_simplex(p: TransportProblem, tol: float = 1e-10) -> TransportSolution:
    """Transportation simplex.

    Entering variable is the most negative reduced cost below
    ``-tol * max|cost|`` (ties by lowest flat index).  After a run of
    degenerate pivots the rule falls back to Bland's lowest-index
    selection, which guarantees termination.  Zero-mass nodes are dropped
    before the solve; their potentials are completed after it
    (:func:`_complete`) and pinned, like all, to the last demand potential 0.
    """
    m = p.m
    if p.supply.all() and p.demand.all():  # masses are >= 0: no zero-mass node
        run = _simplex(p.cost, p.supply, p.demand, tol)
        flows, pot = run.flows, run.pot
    else:
        rows, cols = p.supply > 0, p.demand > 0
        kept = rows[:, None] & cols
        supply, demand = p.supply[rows], p.demand[cols]
        run = _simplex(p.cost[kept].reshape(supply.size, demand.size),
                       supply, demand, tol)
        flows = np.zeros((m, p.k))
        flows[kept] = run.flows.ravel()
        pot = np.empty(m + p.k)
        pot[np.concatenate([rows, cols])] = run.pot
        _complete(p.cost, rows, cols, pot[:m], pot[m:])
        shift = pot[-1]
        pot[:m] += shift
        pot[m:] -= shift
    return TransportSolution(
        flows=flows,
        objective=float(np.sum(p.cost * flows)),
        duals_eq=pot,
        duals_ineq=np.maximum(p.cost - pot[:m, None] - pot[None, m:], 0.0),
        solver_tag="simplex",
        degenerate=run.degenerate,
        stats=SolveStats(kept=run.flows.shape, pivots=run.pivots,
                         degenerate_pivots=run.degenerate_pivots, bland=run.bland),
    )


class _SimplexRun(NamedTuple):
    """What :func:`_simplex` returns."""

    flows: np.ndarray   # m x k optimal flows
    pot: np.ndarray     # supplier then demander potentials, the last demander's 0
    degenerate: bool    # a basic flow below DEGENERATE_RTOL of the total mass
    basis: list         # flat cells of the final basis tree, ascending
    tree: _BasisTree    # the final basis tree, a valid ``start``
    pivots: int
    degenerate_pivots: int  # pivots whose step moved less than 1e-12 of the total mass
    bland: bool         # Bland's rule chose an entering cell at least once
    warm: bool          # the run began from the given ``start``


def _simplex(cost, supply, demand, tol=1e-10, start=None):
    """The simplex on arrays; returns a :class:`_SimplexRun`.

    ``start`` is an optional start basis: a :class:`_BasisTree` of the same
    m x k grid, such as an earlier run's ``tree``.  It is re-listed
    (:meth:`_BasisTree.relist`) and its basic flows come from the tree's
    leaf-to-root pass; it is used, and pivoted in place, when all of them
    are >= 0, and the least-cost start is used otherwise.  A warm start
    from an optimal basis costs no pivot.
    """
    m, k = cost.shape
    total = float(supply.sum())
    warm = start is not None
    if warm:
        tree = start
        tree.relist()
        flows = tree.flows(supply.tolist() + demand.tolist(), [0.0] * (m * k))
        basis = tree.edge[:-1]  # every node but the root, the last
        warm = min([flows[c] for c in basis]) >= 0.0  # primal feasible
    if not warm:
        flows, basis = _least_cost_start(cost, supply, demand)  # scalar cell updates are hot: lists
        tree = _BasisTree(m, k, basis)
    values = cost.ravel().tolist()
    pot = tree.potentials(values, np.zeros(m + k), tree.order)
    priced = np.array(cost, dtype=float)  # cost, with basic cells at +inf: they never enter
    priced_flat = priced.reshape(-1)
    priced_flat[basis] = np.inf
    price_tol = tol * float(np.abs(cost).max())
    u, v = pot[:m, None], pot[m:]  # views: pivots update pot in place
    red_grid = np.empty((m, k))
    red = red_grid.reshape(-1)

    stall = degenerate_pivots = 0
    stall_limit = m + k + 2
    bland = False
    for pivots in range(MAX_PIVOTS):
        np.subtract(priced, u, out=red_grid)
        red_grid -= v
        enter = int(red.argmin())  # most negative, ties by lowest flat index
        if red[enter] >= -price_tol:
            basis = sorted(tree.edge[:-1])
            basic = [flows[c] for c in basis]
            out = np.zeros(m * k)  # nonbasic flows are 0
            out[basis] = basic
            return _SimplexRun(out.reshape(m, k), pot, min(basic) < DEGENERATE_RTOL * total,
                               basis, tree, pivots, degenerate_pivots, bland, warm)
        if stall >= stall_limit:
            enter = int(np.flatnonzero(red < -price_tol)[0])  # Bland: lowest flat index
            bland = True
        cycle = tree.cycle(enter)
        plus, minus = cycle[::2], cycle[1::2]
        theta = min([flows[c] for c in minus])
        stall = stall + 1 if theta < 1e-12 * total else 0
        degenerate_pivots += stall > 0
        # Bland again on the leaving tie: lowest flat index among argmins.
        bound = theta + 1e-15 * total
        leave = min([c for c in minus if flows[c] <= bound])
        for c in plus:
            flows[c] += theta
        for c in minus:
            flows[c] -= theta
        flows[leave] = 0.0
        priced_flat[leave] = values[leave]
        priced_flat[enter] = np.inf
        tree.replace_edge(leave, enter, values, pot)
    raise CyclingError("simplex exceeded pivot limit")


# ---------------------------------------------------------------------------
# primal-dual interior point


def solve_interior_point(p: TransportProblem, tol: float = 1e-9,
                         max_iter: int = 200) -> TransportSolution:
    """Mehrotra-style predictor-corrector on the reduced equality system.

    Works in the standard form min c.x, A x = b, x >= 0 with duals (y, z),
    z = reduced costs >= 0, where A is :func:`reduced_incidence`; A is never
    built.  On the m x k grid, A x is the row sums of X followed by the column
    sums of X[:, :k-1], and A^T y is u_i + v_j with v_k = 0.  So the normal
    matrix A D A^T has the blocks diag(row sums of D), D[:, :k-1] and
    diag(column sums of D[:, :k-1]); its Cholesky factor, taken once per
    iteration and shared by predictor and corrector, is the only cubic term.

    The iteration runs on mass divided by its total and cost divided by
    max|cost|, and stops once the largest primal residual, the largest dual
    residual and the duality gap Σ x∘z are all at most ``tol`` in those
    units.  Flows and duals are scaled back on output, and the objective is
    taken on the caller's cost.  The reported equality duals are y (marginal
    prices), with the dropped last demand row pinning its potential to 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m, k = p.m, p.k
    n = m * k
    mass = float(p.supply.sum())
    scale = float(np.abs(p.cost).max()) or 1.0
    supply, demand = p.supply / mass, p.demand / mass
    b = np.concatenate([supply, demand[:k - 1]])
    c = p.cost / scale

    def a_dot(X):
        return np.concatenate([X.sum(axis=1), X[:, :k - 1].sum(axis=0)])

    def at_dot(y):
        return np.add.outer(y[:m], np.append(y[m:], 0.0))

    def residuals(x, y, z):
        rb = a_dot(x) - b
        rc = at_dot(y) + z - c
        return rb, rc, max(np.abs(rb).max(), np.abs(rc).max(), float(np.sum(x * z)))

    def max_step(w, dw):  # longest step keeping w + step * dw >= 0, for w > 0
        shrink = float(np.min(dw / w))
        return -1.0 / shrink if shrink < 0 else np.inf

    # Strictly interior start: product-form feasible point plus a shift.
    x = np.outer(supply, demand) + 1e-2 / n
    y = np.zeros(m + k - 1)
    z = np.ones((m, k))
    M = np.zeros((m + k - 1, m + k - 1))  # normal matrix; only its blocks change

    for iterations in range(max_iter):
        rb, rc, residual = residuals(x, y, z)
        if residual <= tol:
            break
        xz = x * z
        mu = float(xz.sum()) / n

        d = x / z
        M[:m, m:] = d[:, :k - 1]
        M[m:, :m] = d[:, :k - 1].T
        np.fill_diagonal(M, a_dot(d))
        try:
            cho = scipy.linalg.cho_factor(M, check_finite=False)
        except scipy.linalg.LinAlgError:
            cho = None  # numerically singular near the optimum: least squares instead

        def newton(r_xz):
            rhs = a_dot((r_xz - x * rc) / z) - rb
            if cho is None:  # gelsy (complete orthogonal factorization): ~1/3 of SVD's time
                dy = scipy.linalg.lstsq(M, rhs, lapack_driver="gelsy", check_finite=False)[0]
            else:
                dy = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
            dz = -rc - at_dot(dy)
            dx = -(r_xz + x * dz) / z
            return dx, dy, dz

        # Predictor
        dx_a, dy_a, dz_a = newton(xz)
        ap = min(1.0, max_step(x, dx_a))
        ad = min(1.0, max_step(z, dz_a))
        mu_aff = float(np.sum((x + ap * dx_a) * (z + ad * dz_a))) / n
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector
        dx, dy, dz = newton(xz + dx_a * dz_a - sigma * mu)
        eta = 0.99
        ap = min(1.0, eta * max_step(x, dx))
        ad = min(1.0, eta * max_step(z, dz))
        x = x + ap * dx
        y = y + ad * dy
        z = z + ad * dz
    else:
        residual = residuals(x, y, z)[2]
        raise IterationLimitError(
            f"interior point did not reach tol {tol} in {max_iter} iterations "
            f"(residual {residual:.3e})",
            residual=residual,
        )

    flows = mass * x
    duals_ineq = scale * z
    try:
        _optimal_basis(p, flows, duals_ineq)
        degenerate = False
    except BasisError:
        degenerate = True
    return TransportSolution(
        flows=flows,
        objective=float(np.sum(p.cost * flows)),
        duals_eq=scale * np.append(y, 0.0),
        duals_ineq=duals_ineq,
        solver_tag="interior_point",
        degenerate=degenerate,
        stats=SolveStats(kept=(m, k), ipm_iterations=iterations, residual=float(residual)),
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
        stats=SolveStats(kept=(m, k)),
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
