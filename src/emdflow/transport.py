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
  and column sums of the m x k grid, never from the incidence matrix, and
  solved through the (k-1)² Schur complement of their diagonal supplier
  block, with a least-squares fallback on that complement where its
  Cholesky factor fails.  That complement is grounded on a demander with
  mass (the largest, where the last demand is 0), so the fallback fires on
  no tested input.  Each solve allocates its m x k work grids once and
  forms every grid quantity once per iteration, in place.  It iterates on
  mass and cost scaled to unit size, stopping on the largest of the primal
  and dual residuals and the duality gap Σ x∘z.
* :func:`solve_oracle` — exhaustive spanning-tree enumeration for tiny
  instances; the verification reference for both solvers above.

A zero-mass node (the cross-reference ReLU clamps many) carries no flow at
any optimum; it only adds cells and pivots and makes every optimum
primal-degenerate.  So every simplex solve runs on the mass support
(:func:`_solve_support`), and the interior point's degeneracy test and the
flow-Jacobian gate read the basis off it (:func:`_optimal_basis`).  Every
solution carries a :class:`SolveStats` record of what its solve did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

BALANCE_RTOL = 1e-9
DEGENERATE_RTOL = 1e-9  # basic flows below this share of total mass count as zero
COMPLEMENTARITY_GATE = 1e-8  # min(x/mass + lambda/max|cost|) at or below this: not strict
ORACLE_MAX_CELLS = 16
MAX_PIVOTS = 100_000  # a simplex run past this many pivots raises CyclingError
SIMPLEX_TOL = 1e-10  # default pricing tolerance: optimal when every reduced cost >= -tol max|cost|
_TINY = np.finfo(float).tiny  # smallest normal float


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


def _check_tol(tol) -> None:
    if not 0 < tol < np.inf:  # nan fails both comparisons
        raise ValueError(f"tol must be finite and positive, got {tol}")


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
    (``bland``); the interior point its ``ipm_iterations``, the stopping
    measure it ended on (``residual``) and how many iterations found no
    Cholesky factor and took the least-squares fallback (``ipm_fallbacks``).
    Fields a solver does not report stay None.
    """

    kept: tuple
    pivots: int = None
    degenerate_pivots: int = None
    bland: bool = None
    ipm_iterations: int = None
    residual: float = None
    ipm_fallbacks: int = None


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
    """Fill in, in place, the potentials of the nodes off the kept ``rows`` / ``cols``.

    Each dropped supplier takes u_i = min over kept j of (c_ij - v_j), then
    each dropped demander v_j = min over all i of (c_ij - u_i): every reduced
    cost stays >= 0, and each dropped line has a cell where it is 0.
    """
    drop_r, drop_c = np.delete(np.arange(u.size), rows), np.delete(np.arange(v.size), cols)
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


class _Forest:
    """Basis trees numbered one after another (tree t's node i is node
    ``offsets[t] + i``; ``edge`` is its own flat cell, -1 at a root), for
    passes that take one numpy step per depth level and are bit-equal to
    each tree's own.  ``levels`` lists the non-root nodes by depth, then by
    parent, then by descending node: the order in which
    :meth:`_BasisTree.flows` after :meth:`_BasisTree.relist` subtracts them.
    """

    def __init__(self, trees):
        sizes = [t.m + t.k for t in trees]
        self.offsets = np.cumsum([0] + sizes)
        parent, edge, depth = [], [], []
        for t in trees:
            parent += t.parent
            edge += t.edge
            depth += t.depth
        n = len(parent)
        self.parent = np.fromiter(parent, np.intp, n) + np.repeat(self.offsets[:-1], sizes)
        self.edge, depth = np.fromiter(edge, np.intp, n), np.fromiter(depth, np.intp, n)
        # One sort key for (depth, parent, descending node); parents and nodes are < n.
        nodes = np.argsort((depth * n + self.parent) * n - np.arange(n))
        bounds = np.searchsorted(depth[nodes], np.arange(1, depth.max() + 2))
        self.levels = [nodes[a:b] for a, b in zip(bounds, bounds[1:])]

    def potentials(self, values):
        """Every tree's :meth:`_BasisTree.potentials` from its root (pinned
        at 0): ``values[n]`` is the value of node n's parent cell."""
        pot = np.zeros(self.parent.size)
        for nodes in self.levels:
            pot[nodes] = values[nodes] - pot[self.parent[nodes]]
        return pot

    def flows(self, rest):
        """Every tree's :meth:`_BasisTree.flows` on the node balances
        ``rest``, in place: afterwards ``rest[n]`` is the flow on node n's
        parent cell (at a root, what its own balance is left)."""
        for nodes in reversed(self.levels):
            np.subtract.at(rest, self.parent[nodes], rest[nodes])
        return rest


def solve_simplex(p: TransportProblem, tol: float = SIMPLEX_TOL) -> TransportSolution:
    """Transportation simplex.

    Entering variable is the most negative reduced cost below
    ``-tol * max|cost|`` (ties by lowest flat index).  After a run of
    degenerate pivots the rule falls back to Bland's lowest-index
    selection, which guarantees termination.  It solves the mass support
    (:func:`_solve_support`); dropped nodes' potentials are completed after
    it (:func:`_complete`) and pinned, like all, to the last demand potential 0.
    """
    _check_tol(tol)
    m = p.m
    flows = np.zeros((m, p.k))
    run, rows, cols, _ = _solve_support(p.cost, p.supply, p.demand, flows, tol)
    pot = run.pot
    if run.flows.shape != flows.shape:  # a zero-mass node was dropped
        pot = np.empty(m + p.k)
        pot[np.concatenate([rows, m + cols])] = run.pot
        _complete(p.cost, rows, cols, pot[:m], pot[m:])
        pot[:m] += pot[-1]  # pin the last demand potential at 0
        pot[m:] -= pot[-1]
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


def _solve_support(cost, supply, demand, out, tol=SIMPLEX_TOL, last=None):
    """Every simplex solve: :func:`_simplex` on one block's mass support, its
    flows written into ``out`` (the zeroed block, or a view into a stack).

    The pair's ``last`` result restarts the kernel from its tree while the
    kept rows and columns are unchanged.  Returns (run, rows, cols, kept
    cost), the kept lines as index arrays.
    """
    rows, cols = supply.nonzero()[0], demand.nonzero()[0]
    kept = cost.take(rows, 0).take(cols, 1)
    same = (last is not None and rows.tobytes() == last[1].tobytes()
            and cols.tobytes() == last[2].tobytes())
    run = _simplex(kept, supply[rows], demand[cols], tol, last[0].tree if same else None)
    out[rows[:, None], cols] = run.flows
    return run, rows, cols, kept


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


def _simplex(cost, supply, demand, tol=SIMPLEX_TOL, start=None):
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


def _normal_solver(d):
    """Solver for the normal equations A diag(d) A^T dy = r of the m x k grid ``d``.

    A is :func:`reduced_incidence`, so A diag(d) A^T has the diagonal supplier
    block diag(dr), dr the row sums of d, beside B = d[:, :k-1] and
    diag(column sums of B).  Eliminating the supplier block leaves the
    (k-1)² Schur complement S = diag(B.sum(0)) - B^T diag(1/dr) B, factored
    once here: dy2 = S^-1 (r2 - B^T (r1/dr)) and dy1 = (r1 - B dy2) / dr.
    A row whose d sum underflowed (below the smallest normal float) gets
    dy1 = 0, the minimum-norm value.  Where the Cholesky factor of S fails,
    each solve takes S's least squares instead (gelsy, a complete orthogonal
    factorization: about a third of an SVD's time).  Returns (solve,
    factored), factored False on that fallback.
    """
    m, k = d.shape
    dr = d.sum(axis=1)
    inv_dr = np.divide(1.0, dr, out=np.zeros(m), where=dr >= _TINY)
    B = d[:, :k - 1]
    Bt_dr = B.T * inv_dr
    # S_jj = sum_i B_ij (dr_i - B_ij) / dr_i: the sum of row j of W = B^T diag(1/dr) d
    # off its diagonal, which has no cancellation where B_ij dominates its row.
    W = Bt_dr @ d
    np.fill_diagonal(W, 0.0)
    S = -W[:, :k - 1]
    np.fill_diagonal(S, W.sum(axis=1))
    factor, info = dpotrf(S, clean=0)  # info > 0: S not numerically positive definite

    def solve(r):
        r1 = r[:m]
        r2 = r[m:] - Bt_dr @ r1
        if info:
            dy2 = scipy.linalg.lstsq(S, r2, lapack_driver="gelsy", check_finite=False)[0]
        else:
            dy2 = dpotrs(factor, r2)[0] if k > 1 else r2  # LAPACK takes no 0 x 0
        return np.concatenate([(r1 - B @ dy2) * inv_dr, dy2])

    return solve, info == 0


def solve_interior_point(p: TransportProblem, tol: float = 1e-9,
                         max_iter: int = 200) -> TransportSolution:
    """Mehrotra-style predictor-corrector on the reduced equality system.

    Works in the standard form min c.x, A x = b, x >= 0 with duals (y, z),
    z = reduced costs >= 0, where A is :func:`reduced_incidence`; A is never
    built.  On the m x k grid, A x is the row sums of X followed by the column
    sums of X[:, :k-1], and A^T y is u_i + v_j with v_k = 0.  So the normal
    matrix A D A^T has the blocks diag(row sums of D), D[:, :k-1] and
    diag(column sums of D[:, :k-1]).  Its supplier block is diagonal, so each
    Newton system is solved through the (k-1)² Schur complement of that
    block (:func:`_normal_solver`): one Cholesky factor per iteration, shared
    by predictor and corrector, is the only cubic term.  Where that factor
    fails (near the optimum, D spans many orders of magnitude), both steps
    take the least-squares solution of the Schur system instead, and
    ``stats.ipm_fallbacks`` counts those iterations.

    The dropped row pins its demander's potential, so that demander must
    keep weight: where the last demand is 0 its d = x/z goes to 0 and the
    Schur complement loses its ground below rounding.  There the largest
    demander's column is swapped with the last for the solve, swapped back
    after, and the duals are shifted (u + v_k, v - v_k) to report v_k = 0;
    with that ground the fallback fires on no tested input.  Otherwise the
    last demander is the ground, as in :func:`reduced_incidence`.  The duals
    of zero-mass nodes stay unbounded: one tested 3 x 4 problem with a zero
    supply as well reaches a residual of ~2e-9 by iteration 8-14 with
    either ground, then diverges to the iteration limit.

    Each solve allocates its m x k work grids once (-rc, x∘z, d, -x, dx,
    dz, w and a scratch grid), and each iteration forms every grid quantity
    once, into them: Σ x∘z serves both the stopping gap and μ, and -rc and
    -x are shared by predictor and corrector.

    The iteration runs on mass divided by its total and cost divided by
    max|cost|, and stops once the largest primal residual, the largest dual
    residual and the duality gap Σ x∘z are all at most ``tol`` in those
    units.  Flows and duals are scaled back on output, and the objective is
    taken on the caller's cost.  The reported equality duals are y (marginal
    prices), with the last demand potential at 0.
    """
    _check_tol(tol)
    m, k = p.m, p.k
    n = m * k
    mass = float(p.supply.sum())
    scale = float(np.abs(p.cost).max()) or 1.0
    cols = np.arange(k)  # solve order of the demand columns; a swap is its own inverse
    if p.demand[-1] == 0:
        ground = int(p.demand.argmax())
        cols[[ground, -1]] = cols[[-1, ground]]
    supply, demand = p.supply / mass, p.demand[cols] / mass
    b = np.concatenate([supply, demand[:k - 1]])
    c = p.cost[:, cols] / scale

    neg_rc, xz, d, neg_x, dx, dz, w, tmp = np.empty((8, m, k))
    rb, rhs, rhs_w = np.empty((3, m + k - 1))

    def a_dot(X, out):  # A x into ``out``: row sums, then the first k-1 column sums
        X.sum(axis=1, out=out[:m])
        X[:, :k - 1].sum(axis=0, out=out[m:])
        return out

    def at_dot(y, out):  # A^T y into the grid ``out``; y holds v_k = 0 at its end
        return np.add(y[:m, None], y[m:], out=out)

    def residuals():  # rb, -rc and x∘z at (x, y, z); returns the stopping measure and Σ x∘z
        np.subtract(a_dot(x, rb), b, out=rb)
        np.add(at_dot(y, neg_rc), z, out=neg_rc)
        np.negative(np.subtract(neg_rc, c, out=neg_rc), out=neg_rc)
        gap = float(np.multiply(x, z, out=xz).sum())
        return max(np.abs(rb).max(), np.abs(neg_rc, out=tmp).max(), gap), gap

    def max_step(v, dv):  # longest step keeping v + step * dv >= 0, for v > 0
        shrink = float(np.divide(dv, v, out=tmp).min())
        return -1.0 / shrink if shrink < 0 else np.inf

    def newton(solve_normal, r, w=None):
        # A Newton step on the complementarity residual x∘z + w∘z (w = 0 for
        # the predictor) solves A D A^T dy = A(x - d∘rc + w) - rb = r, then
        # takes dz = -rc - A^T dy and dx = -x - d∘dz - w, into dy, dz and dx.
        dy[:-1] = solve_normal(r)
        np.subtract(neg_rc, at_dot(dy, dz), out=dz)
        np.subtract(neg_x, np.multiply(d, dz, out=dx), out=dx)
        if w is not None:
            np.subtract(dx, w, out=dx)

    # Strictly interior start: product-form feasible point plus a shift.
    x = np.outer(supply, demand) + 1e-2 / n
    y, dy = np.zeros((2, m + k))  # their last entry, v_k, stays 0
    z = np.ones((m, k))
    fallbacks = 0

    for iterations in range(max_iter):
        residual, gap = residuals()
        if residual <= tol:
            break
        mu = gap / n

        np.divide(x, z, out=d)
        solve_normal, factored = _normal_solver(d)
        fallbacks += not factored
        np.negative(x, out=neg_x)
        np.add(x, np.multiply(d, neg_rc, out=tmp), out=tmp)
        np.subtract(a_dot(tmp, rhs), rb, out=rhs)

        # Predictor
        newton(solve_normal, rhs)
        ap = min(1.0, max_step(x, dx))
        ad = min(1.0, max_step(z, dz))
        np.add(x, np.multiply(ap, dx, out=tmp), out=tmp)
        tmp *= np.add(z, np.multiply(ad, dz, out=w), out=w)
        mu_aff = float(tmp.sum()) / n
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector
        np.multiply(dx, dz, out=w)
        w -= sigma * mu
        w /= z
        newton(solve_normal, np.add(rhs, a_dot(w, rhs_w), out=rhs_w), w)
        eta = 0.99
        ap = min(1.0, eta * max_step(x, dx))
        ad = min(1.0, eta * max_step(z, dz))
        x += np.multiply(ap, dx, out=dx)
        y += ad * dy
        z += np.multiply(ad, dz, out=dz)
    else:
        residual = residuals()[0]
        raise IterationLimitError(
            f"interior point did not reach tol {tol} in {max_iter} iterations "
            f"(residual {residual:.3e})",
            residual=residual,
        )

    flows = mass * x[:, cols]
    duals_ineq = scale * z[:, cols]
    duals_eq = scale * y
    duals_eq[m:] = duals_eq[m + cols]
    duals_eq[:m] += duals_eq[-1]  # 0 unless another demander was the ground
    duals_eq[m:] -= duals_eq[-1]
    try:
        _optimal_basis(p, flows, duals_ineq)
        degenerate = False
    except BasisError:
        degenerate = True
    return TransportSolution(
        flows=flows,
        objective=float(np.sum(p.cost * flows)),
        duals_eq=duals_eq,
        duals_ineq=duals_ineq,
        solver_tag="interior_point",
        degenerate=degenerate,
        stats=SolveStats(kept=(m, k), ipm_iterations=iterations, residual=float(residual),
                         ipm_fallbacks=fallbacks),
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
