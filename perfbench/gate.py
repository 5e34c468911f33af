"""Correctness gate: checks on the outputs of a run, made outside its timed region.

The references here are written against the textbook definitions, not
against emdflow's code paths: an LP optimality certificate, the cosine cost
and cross-reference weights in plain numpy, the exhaustive oracle on tiny
instances, central finite differences and MAP@R from a similarity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CERT_RTOL = 1e-8     # certificate, oracle and metric-layer agreement
IPM_RTOL = 1e-6      # interior point vs simplex objective; ~1e-9 is typical
FD_EPS = 1e-6       # the step `emdflow gradcheck` takes, at most
FD_RTOL = 1e-3       # the tolerance `emdflow gradcheck` applies
TIE_MARGIN = 1e-9    # similarities closer than this make an argmax ambiguous


@dataclass(frozen=True)
class Check:
    """One gate check; a failed one counts as a failed operation."""

    name: str
    ok: bool
    detail: str = ""


def check(name: str, issues: list) -> Check:
    """A check that passes when ``issues`` (violation messages) is empty."""
    return Check(name, not issues, "; ".join(issues))


def _scales(p):
    mass = float(p.supply.sum())
    cost_scale = float(np.abs(p.cost).max()) or 1.0
    return mass, cost_scale


def certificate(p, sol, rtol: float = CERT_RTOL) -> list:
    """Violations of the LP optimality certificate of ``sol`` for ``p``.

    Primal feasibility (non-negative flows, marginals equal to supply and
    demand), dual feasibility (reduced costs c_ij - u_i - v_j >= 0) and a
    zero duality gap, each relative to the problem's mass and cost scale.
    """
    mass, cost_scale = _scales(p)
    x = sol.flows
    u, v = sol.duals_eq[:p.m], sol.duals_eq[p.m:]
    out = []
    if x.min() < -rtol * mass:
        out.append(f"negative flow {x.min():.3e}")
    marg = max(np.abs(x.sum(axis=1) - p.supply).max(), np.abs(x.sum(axis=0) - p.demand).max())
    if marg > rtol * mass:
        out.append(f"marginal error {marg:.3e} at mass {mass:.3e}")
    red = p.cost - u[:, None] - v[None, :]
    if red.min() < -rtol * cost_scale:
        out.append(f"reduced cost {red.min():.3e}")
    primal = float(np.sum(p.cost * x))
    dual = float(u @ p.supply + v @ p.demand)
    scale = max(abs(primal), cost_scale * mass)
    if abs(primal - dual) > rtol * scale:
        out.append(f"duality gap {primal - dual:.3e}")
    if abs(sol.objective - primal) > rtol * scale:
        out.append(f"reported objective {sol.objective!r} vs sum(c*x) {primal!r}")
    return out


def reference_problem(a: np.ndarray, b: np.ndarray):
    """Cosine cost and clamped cross-reference weights for node matrices a, b."""
    def unit(mat):
        norms = np.linalg.norm(mat, axis=1)
        return mat / np.where(norms > 0, norms, 1.0)[:, None]

    cost = np.clip(1.0 - unit(a) @ unit(b).T, 0.0, 2.0)
    weights = []
    for own, other in ((a, b), (b, a)):
        raw = np.maximum(own @ other.mean(axis=0), 0.0)
        total = raw.sum()
        weights.append(raw / total if total > 0 else np.full(len(own), 1.0 / len(own)))
    return cost, weights[0], weights[1]


def certified_similarity(em, a, b):
    """Similarity of node sets a, b from a certified simplex solve.

    Also checks emdflow's cost matrix and weights against the reference
    formulas.  Returns (similarity, list of violations).
    """
    cost, wa, wb = reference_problem(a.vectors, b.vectors)
    issues = []
    if not np.allclose(em.metric.cost_matrix(a, b), cost, rtol=0.0, atol=CERT_RTOL):
        issues.append("cost_matrix differs from the cosine reference")
    la, lb = em.metric.cross_reference_weights(a, b)
    if not (np.allclose(la, wa, rtol=0.0, atol=CERT_RTOL)
            and np.allclose(lb, wb, rtol=0.0, atol=CERT_RTOL)):
        issues.append("cross_reference_weights differ from the reference")
    p = em.transport.TransportProblem(cost=cost, supply=wa, demand=wb)
    sol = em.transport.solve_simplex(p)
    issues += certificate(p, sol)
    return float(np.sum((1.0 - cost) * sol.flows)), issues


def oracle_agreement(em, p, *solutions) -> list:
    """Objective gaps between each solution and the exhaustive oracle."""
    ref = em.transport.solve_oracle(p)
    mass, cost_scale = _scales(p)
    scale = max(abs(ref.objective), cost_scale * mass)
    return [f"{sol.solver_tag} objective {sol.objective!r} vs oracle {ref.objective!r}"
            for sol in solutions if abs(sol.objective - ref.objective) > CERT_RTOL * scale]


def oracle_subproblem_check(em, a_vec: np.ndarray, b_vec: np.ndarray) -> Check:
    """Simplex vs oracle on the first four nodes of each set (16 cells)."""
    cost, wa, wb = reference_problem(a_vec[:4], b_vec[:4])
    p = em.transport.TransportProblem(cost=cost, supply=wa, demand=wb)
    return check("oracle.4x4", oracle_agreement(em, p, em.transport.solve_simplex(p)))


def ipm_agreement(simplex_sol, ipm_sol) -> list:
    ref = simplex_sol.objective
    gap = abs(ipm_sol.objective - ref)
    if gap > IPM_RTOL * max(abs(ref), 1e-300):
        return [f"interior point objective {ipm_sol.objective!r} vs simplex {ref!r}"]
    return []


def fd_gradcheck(em, p, sol, grads, rng, directions: int = 3) -> float:
    """Worst relative error of the similarity gradient against central differences.

    Directions perturb cost freely and supply/demand by zero-sum vectors,
    so the perturbed problems stay balanced.  The step stays far inside
    the region where the optimal basis is fixed: min(flow + reduced cost)
    is the distance to the nearest basis change, and a fixed 1e-6 step
    crosses it on some 25-node optima, where the gradient jumps.
    """
    total = float(p.supply.sum())
    step = min(FD_EPS, 1e-3 * float(np.min(sol.flows + sol.duals_ineq)))

    def similarity(cost, supply, demand):
        q = em.transport.TransportProblem(cost=cost, supply=supply, demand=demand)
        return total - em.transport.solve_simplex(q).objective

    worst = 0.0
    for _ in range(directions):
        dc = rng.standard_normal(p.cost.shape)
        ds = rng.standard_normal(p.m)
        ds -= ds.mean()
        dd = rng.standard_normal(p.k)
        dd -= dd.mean()
        pred = float(np.sum(grads.d_cost * dc) + grads.d_supply @ ds + grads.d_demand @ dd)
        fd = (similarity(p.cost + step * dc, p.supply + step * ds, p.demand + step * dd)
              - similarity(p.cost - step * dc, p.supply - step * ds, p.demand - step * dd)
              ) / (2 * step)
        worst = max(worst, abs(pred - fd) / max(1.0, abs(fd)))
    return worst


def map_at_r(similarity: np.ndarray, labels) -> float:
    """Self-retrieval MAP@R with the diagonal excluded.

    Ranking is by descending similarity, ties by ascending index; each of a
    query's R same-label items contributes hits-so-far / rank, divided by R.
    """
    labels = list(labels)
    n = len(labels)
    total = 0.0
    for q in range(n):
        order = sorted((j for j in range(n) if j != q), key=lambda j: (-similarity[q, j], j))
        r = sum(labels[j] == labels[q] for j in order)
        hits, score = 0, 0.0
        for rank, j in enumerate(order, start=1):
            if labels[j] == labels[q]:
                hits += 1
                score += hits / rank
        total += score / r
    return total / n


def argmax_agrees(sims, predicted: int) -> bool:
    """``predicted`` is the argmax of ``sims``, or within TIE_MARGIN of it."""
    sims = np.asarray(sims, dtype=float)
    return bool(sims.max() - sims[predicted] <= TIE_MARGIN)
