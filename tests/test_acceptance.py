"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines.
"""

import time

import numpy as np
import pytest

from emdflow.cli import main as cli_main
from emdflow.diff import FlowJacobian, SingularKktError, backward_similarity
from emdflow.fewshot import (Episode, classify_1shot, classify_kshot, episode_loss_and_grad,
                             sample_episode, train_projection)
from emdflow.metric import EmbeddingSet, cross_reference_weights, extract_pyramid, pair_similarity
from emdflow.retrieval import metrics, rank_gallery
from emdflow.synth import SynthSpec, generate
from emdflow.tensor_io import DenseTensor
from emdflow.transport import TransportProblem, solve, solve_oracle

from conftest import random_problem


def _report(name, detail):
    print(f"\nPASS {name}: {detail}")


def test_acceptance_01_lp_oracle_equivalence():
    """Simplex and interior point match the exhaustive oracle on 500 instances."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        m, k = rng.integers(1, 5), rng.integers(1, 5)
        p = random_problem(rng, m, k)
        ref = solve_oracle(p).objective
        for solver in ("simplex", "interior_point"):
            worst = max(worst, abs(solve(p, solver).objective - ref))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    _report("1 LP oracle equivalence",
            f"max objective deviation {worst:.2e} over 500 instances in {elapsed:.1f}s")


def test_acceptance_02_feasibility_and_certificates():
    """1000 random 5x5 problems: marginals within 1e-7, reduced costs >= -1e-8."""
    rng = np.random.default_rng(102)
    worst_feas = worst_red = 0.0
    for _ in range(1000):
        p = random_problem(rng, 5, 5)
        sol = solve(p, "simplex")
        feas = max(np.max(np.abs(sol.flows.sum(axis=1) - p.supply) / p.supply.sum()),
                   np.max(np.abs(sol.flows.sum(axis=0) - p.demand) / p.demand.sum()))
        red = p.cost - sol.duals_eq[:5, None] - sol.duals_eq[None, 5:]
        worst_feas = max(worst_feas, float(feas))
        worst_red = min(worst_red, float(red.min()))
    assert worst_feas < 1e-7
    assert worst_red >= -1e-8
    _report("2 feasibility & certificates",
            f"worst marginal error {worst_feas:.2e}, min reduced cost {worst_red:.2e}")


def test_acceptance_03_flow_jacobian_gradcheck():
    """Full-mode flow Jacobian vs finite differences on 200 nondegenerate 3x3."""
    rng = np.random.default_rng(103)
    eps = 1e-6
    checked = gated = 0
    worst = 0.0
    while checked < 200:
        p = random_problem(rng, 3, 3)
        sol = solve(p, "interior_point")
        try:
            jac = FlowJacobian(sol, p)
        except SingularKktError:
            gated += 1
            continue
        checked += 1
        dc = rng.standard_normal((3, 3))
        ds = rng.standard_normal(3); ds -= ds.mean()
        dd = rng.standard_normal(3); dd -= dd.mean()
        pred = jac.apply(dc, ds, dd)
        plus = TransportProblem(cost=p.cost + eps * dc, supply=p.supply + eps * ds,
                                demand=p.demand + eps * dd)
        minus = TransportProblem(cost=p.cost - eps * dc, supply=p.supply - eps * ds,
                                 demand=p.demand - eps * dd)
        fd = (solve(plus, "simplex").flows - solve(minus, "simplex").flows) / (2 * eps)
        err = np.max(np.abs(pred - fd)) / max(1.0, np.max(np.abs(fd)))
        worst = max(worst, float(err))
        env = backward_similarity(1.0, sol, p, mode="envelope")
        assert np.array_equal(env.d_cost, -sol.flows)
    # a fully degenerate instance must be gated, not mis-differentiated
    const = TransportProblem(cost=np.ones((2, 2)), supply=np.array([0.5, 0.5]),
                             demand=np.array([0.5, 0.5]))
    with pytest.raises(SingularKktError):
        FlowJacobian(solve(const, "interior_point"), const)
    assert worst <= 1e-3
    _report("3 flow-Jacobian gradient check",
            f"max relative error {worst:.2e} on 200 instances ({gated} gated)")


def test_acceptance_04_dual_sensitivity():
    """Interior-point duals predict rebalanced finite differences of the value."""
    rng = np.random.default_rng(104)
    eps = 1e-6
    checked = 0
    worst = 0.0
    while checked < 100:
        p = random_problem(rng, 3, 3)
        sol = solve(p, "interior_point")
        try:
            FlowJacobian(sol, p)  # nondegeneracy gate
        except SingularKktError:
            continue
        checked += 1
        d_supply, d_demand = sol.duals_eq[:3], sol.duals_eq[3:]
        for i in range(3):
            ds = np.zeros(3); ds[i] = 1.0
            dd = np.full(3, 1.0 / 3.0)  # uniform rebalancing
            plus = TransportProblem(cost=p.cost, supply=p.supply + eps * ds,
                                    demand=p.demand + eps * dd)
            minus = TransportProblem(cost=p.cost, supply=p.supply - eps * ds,
                                     demand=p.demand - eps * dd)
            fd = (solve(plus, "simplex").objective
                  - solve(minus, "simplex").objective) / (2 * eps)
            pred = d_supply[i] + d_demand.mean()
            err = abs(pred - fd) / max(1e-3, abs(fd))
            worst = max(worst, float(err))
    assert worst <= 1e-3
    _report("4 dual sensitivity", f"max relative error {worst:.2e} on 100 instances")


def test_acceptance_05_metric_properties():
    """Symmetry, unit self-similarity, and single-node cosine collapse."""
    rng = np.random.default_rng(105)
    worst_sym = worst_self = worst_collapse = 0.0
    for _ in range(200):
        a = EmbeddingSet(rng.standard_normal((rng.integers(2, 6), 6)))
        b = EmbeddingSet(rng.standard_normal((rng.integers(2, 6), 6)))
        s_ab, _ = pair_similarity(a, b)
        s_ba, _ = pair_similarity(b, a)
        worst_sym = max(worst_sym, abs(s_ab - s_ba))
        s_aa, _ = pair_similarity(a, a)
        worst_self = max(worst_self, abs(s_aa - 1.0))
        fa = rng.standard_normal((3, 3, 6))
        fb = rng.standard_normal((3, 3, 6))
        pa = extract_pyramid(DenseTensor.from_array(fa), [1])
        pb = extract_pyramid(DenseTensor.from_array(fb), [1])
        sim, _ = pair_similarity(pa, pb)
        ma, mb = fa.mean(axis=(0, 1)), fb.mean(axis=(0, 1))
        cos = float(ma @ mb / (np.linalg.norm(ma) * np.linalg.norm(mb)))
        worst_collapse = max(worst_collapse, abs(sim - cos))
    assert worst_sym < 1e-8
    assert worst_self < 1e-8
    assert worst_collapse < 1e-10
    _report("5 metric properties",
            f"symmetry {worst_sym:.1e}, self-sim {worst_self:.1e}, "
            f"cosine collapse {worst_collapse:.1e} over 200 pairs")


def test_acceptance_06_cross_reference_benefit():
    """Cross-reference weights beat equal weights on cluttered data."""
    col = generate(SynthSpec(class_count=6, sets_per_class=10, spatial=(4, 4),
                             channels=6, cluster_sep=3.0, background_fraction=0.5,
                             background_scale=1.5, seed=17))
    cross, equal = [], []
    for e in range(500):
        ep = sample_episode(col, 5, 1, 1, seed=e)
        cross.append(classify_1shot(ep, "cross_reference")[1])
        equal.append(classify_1shot(ep, "equal")[1])
    c, q = float(np.mean(cross)), float(np.mean(equal))
    assert c >= q - 0.02
    assert c > q  # strictly better in expectation on this corpus
    _report("6 cross-reference benefit",
            f"cross-reference {c:.3f} vs equal weights {q:.3f} over 500 episodes")


def test_acceptance_07_chance_and_separable_sanity():
    """Indistinct classes score at chance; well-separated classes near 1."""
    chance_col = generate(SynthSpec(class_count=6, sets_per_class=10, spatial=(2, 2),
                                    channels=8, cluster_sep=0.0, seed=107))
    hits = total = 0
    e = 0
    while total < 2000:
        ep = sample_episode(chance_col, 5, 1, 4, seed=e)
        _, acc = classify_1shot(ep)
        hits += acc * len(ep.query)
        total += len(ep.query)
        e += 1
    chance = hits / total
    sep_col = generate(SynthSpec(class_count=6, sets_per_class=10, spatial=(2, 2),
                                 channels=8, cluster_sep=8.0, seed=108))
    accs = [classify_1shot(sample_episode(sep_col, 5, 1, 4, seed=e))[1]
            for e in range(25)]
    separable = float(np.mean(accs))
    assert 0.17 <= chance <= 0.23
    assert separable >= 0.99
    _report("7 chance/separable sanity",
            f"chance accuracy {chance:.3f} over {total} queries, "
            f"separable accuracy {separable:.3f}")


def test_acceptance_08_kshot_trend():
    """SFC accuracy grows with k and beats nearest-neighbor at k=10."""
    col = generate(SynthSpec(class_count=6, sets_per_class=13, spatial=(2, 2),
                             channels=8, cluster_sep=4.0, background_fraction=0.25,
                             background_scale=2.0, seed=109))
    episodes = 15
    sfc_means, nn_means = {}, {}
    for k in (1, 5, 10):
        sfc, nn = [], []
        for e in range(episodes):
            ep = sample_episode(col, 5, k, 2, seed=500 + e)
            sfc.append(classify_kshot(ep, "sfc", sfc_kwargs={"iterations": 30}))
            nn.append(classify_kshot(ep, "nn"))
        sfc_means[k] = float(np.mean(sfc))
        nn_means[k] = float(np.mean(nn))
    # k = 1 reductions are exact
    ep1 = sample_episode(col, 5, 1, 2, seed=999)
    _, base = classify_1shot(ep1)
    for method in ("nn", "fusion", "merge"):
        assert classify_kshot(ep1, method) == base
    assert sfc_means[1] <= sfc_means[5] <= sfc_means[10]
    assert sfc_means[10] >= nn_means[10] - 0.02
    _report("8 k-shot trend",
            f"sfc {sfc_means[1]:.3f}/{sfc_means[5]:.3f}/{sfc_means[10]:.3f} "
            f"for k=1/5/10, nn at k=10 {nn_means[10]:.3f}")


def test_acceptance_09_end_to_end_differentiability():
    """Projection gradients match finite differences; training never hurts."""
    col = generate(SynthSpec(class_count=5, sets_per_class=8, spatial=(2, 2),
                             channels=5, cluster_sep=3.0, seed=110))
    ep = sample_episode(col, 4, 1, 2, seed=3)
    rng = np.random.default_rng(0)
    W = np.eye(5) + 0.05 * rng.standard_normal((5, 5))
    _, grad = episode_loss_and_grad(W, ep)
    eps = 1e-6
    worst = 0.0
    for i, j in [(0, 0), (1, 3), (3, 2), (4, 4)]:
        Wp, Wm = W.copy(), W.copy()
        Wp[i, j] += eps
        Wm[i, j] -= eps
        fd = (episode_loss_and_grad(Wp, ep)[0]
              - episode_loss_and_grad(Wm, ep)[0]) / (2 * eps)
        worst = max(worst, abs(grad[i, j] - fd) / max(1e-3, abs(fd)))
    assert worst <= 1e-3

    def val_accuracy(weight):
        accs = []
        for e in range(10):
            vep = sample_episode(col, 4, 1, 2, seed=2000 + e)
            proj = Episode(
                n_way=4, k_shot=1, q_per_class=2,
                support=tuple((l, EmbeddingSet(s.vectors @ weight))
                              for l, s in vep.support),
                query=tuple((l, EmbeddingSet(s.vectors @ weight))
                            for l, s in vep.query),
            )
            accs.append(classify_1shot(proj)[1])
        return float(np.mean(accs))

    model = train_projection(col, epochs=8, lr=0.02, n_way=4, seed=7)
    init = train_projection(col, epochs=0, lr=0.02, n_way=4, seed=7).weight
    before = val_accuracy(init)
    after = val_accuracy(model.weight)
    assert after >= before
    _report("9 end-to-end differentiability",
            f"gradient max relative error {worst:.2e}; validation accuracy "
            f"{before:.3f} -> {after:.3f}")


def test_acceptance_10_retrieval_hand_check():
    """Hand-built 6-item gallery reproduces exact metric values."""
    angles = np.deg2rad([0.0, 10.0, 80.0, 90.0, 105.0, 165.0])
    labels = [0, 0, 0, 1, 1, 1]
    items = [(lab, EmbeddingSet(np.array([[np.cos(t), np.sin(t)]])))
             for lab, t in zip(labels, angles)]
    run = rank_gallery(items, items)
    p1, rp, mapr = metrics(run)
    # rankings follow angle distance; hand-enumerated per query:
    # q0 [1,2,3,4,5], q1 [0,2,3,4,5] -> perfect; q2 [3,4,1,0,5] -> hits at 3,4;
    # q3 [2,4,5,1,0] -> hits at 2,3; q4 [3,2,5,0,1] -> hits at 1,3; q5 [4,3,2,1,0]
    assert p1 == pytest.approx(4 / 6, abs=1e-12)
    assert rp == pytest.approx(4 / 6, abs=1e-12)
    assert mapr == pytest.approx(29 / 36, abs=1e-12)
    # an exact copy of a gallery item ranks first
    copy_run = rank_gallery([(0, items[0][1])], items)
    assert copy_run.ranking[0][0] == 0
    _report("10 retrieval hand check",
            f"P@1 {p1:.6f}, RP {rp:.6f}, MAP@R {mapr:.6f} match exact values")


def test_acceptance_11_timing_properties(tmp_path):
    """Simplex beats interior point at 5x5; dims barely affect solve time."""
    import csv

    t0 = time.perf_counter()
    out = tmp_path / "bench"
    assert cli_main(["--seed", "11", "bench", "--sizes", "5",
                     "--dims", "256", "2048", "--repeats", "15",
                     "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    rows = list(csv.reader(open(out / "bench.csv")))[1:]
    times = {(row[3], int(row[2])): float(row[5]) for row in rows}
    simplex = [times[("simplex", 256)], times[("simplex", 2048)]]
    ipm = [times[("ipm", 256)], times[("ipm", 2048)]]
    assert max(simplex) < min(ipm)
    assert max(ipm) / min(ipm) < 2.0
    assert elapsed < 60.0
    _report("11 timing properties",
            f"simplex {simplex[0]:.2f}/{simplex[1]:.2f} ms vs "
            f"ipm {ipm[0]:.2f}/{ipm[1]:.2f} ms at dims 256/2048; "
            f"bench took {elapsed:.1f}s")
