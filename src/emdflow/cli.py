"""Command-line interface.

Subcommands: solve, gradcheck, gen, episodes, retrieve, train, flows,
bench; ``--tol`` is honoured only by solve and gradcheck, and rejected by
the others.  Structured results go to JSON, tabular results to CSV; both
carry a format_version field.  Exit codes: 0 success, 1 validation failure,
2 numerical failure (divergence / degenerate optimum / iteration limit).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import statistics
import sys
import time

import numpy as np

from . import diff, fewshot, metric, retrieval, synth, tensor_io, transport

FORMAT_VERSION = 1

_VALIDATION_ERRORS = (ValueError, OSError, json.JSONDecodeError,
                      fewshot.InsufficientDataError)
_NUMERICAL_ERRORS = (diff.SingularKktError, fewshot.DivergenceError,
                     transport.IterationLimitError, transport.CyclingError)


def _load_problem(path) -> transport.TransportProblem:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        return transport.TransportProblem(
            cost=np.asarray(spec["cost"], dtype=float),
            supply=np.asarray(spec["supply"], dtype=float),
            demand=np.asarray(spec["demand"], dtype=float),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: problem file needs cost/supply/demand arrays") from exc


def _json_text(payload: dict) -> str:
    # No bare NaN/Infinity tokens: strict JSON parsers reject them.
    return json.dumps({"format_version": FORMAT_VERSION, **payload}, indent=2, sort_keys=True,
                      allow_nan=False)


def _write_json(payload: dict, out_dir, name: str):
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(_json_text(payload) + "\n")


def _write_csv(rows, header, out_dir, name: str):
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["format_version", *header])
        for row in rows:
            writer.writerow([FORMAT_VERSION, *row])


def _extraction_config(args) -> metric.ExtractionConfig:
    return metric.ExtractionConfig(
        strategy=args.strategy,
        grid_rows=args.grid_rows, grid_cols=args.grid_cols,
        patch_count=args.patch_count,
        context_enlarge=args.context_enlarge,
        pyramid_levels=tuple(args.pyramid_levels or ()),
        rng_seed=args.seed,
    )


def _add_extraction_flags(p: argparse.ArgumentParser):
    p.add_argument("--strategy", choices=["fcn", "grid", "sampling"], default="fcn")
    p.add_argument("--grid-rows", type=int, default=2)
    p.add_argument("--grid-cols", type=int, default=2)
    p.add_argument("--patch-count", type=int, default=9)
    p.add_argument("--context-enlarge", type=float, default=2.0)
    p.add_argument("--pyramid-levels", type=int, nargs="*", default=None,
                   help="pool these LxL levels instead of the base strategy")


def _solve(p: transport.TransportProblem, args) -> transport.TransportSolution:
    """Solve with ``--solver``, passing ``--tol`` only when it was given."""
    return transport.solve(p, args.solver,
                           **({} if args.tol is None else {"tol": args.tol}))


def cmd_solve(args) -> int:
    p = _load_problem(args.problem)
    sol = _solve(p, args)
    print(f"objective {sol.objective:.10g}")
    print("flows:")
    for row in sol.flows:
        print("  " + " ".join(f"{v:.6g}" for v in row))
    print("duals_supply: " + " ".join(f"{v:.6g}" for v in sol.duals_eq[:p.m]))
    print("duals_demand: " + " ".join(f"{v:.6g}" for v in sol.duals_eq[p.m:]))
    _write_json({
        "objective": sol.objective,
        "flows": sol.flows.tolist(),
        "duals_eq": sol.duals_eq.tolist(),
        "duals_ineq": sol.duals_ineq.tolist(),
        "solver": sol.solver_tag,
        "degenerate": sol.degenerate,
        "stats": sol.stats._asdict(),
    }, args.out, "solution.json")
    return 0


def _random_problem(rng, m, k) -> transport.TransportProblem:
    cost = rng.uniform(0.05, 1.95, (m, k))
    supply = rng.uniform(0.2, 1.0, m)
    demand = rng.uniform(0.2, 1.0, k)
    return transport.TransportProblem(cost=cost, supply=supply / supply.sum(),
                                      demand=demand / demand.sum())


def _mass_direction(rng, masses):
    """Zero-sum direction over the positive masses, in units of total mass.

    Zero masses stay at zero, so the perturbed problems keep the support.
    """
    kept = masses > 0
    d = np.where(kept, rng.standard_normal(masses.size), 0.0)
    d[kept] -= d[kept].mean()
    return masses.sum() * d


def cmd_gradcheck(args) -> int:
    """Central differences along balanced directions against the flow
    Jacobian (``full``) or the similarity gradient (``envelope``).

    Directions and the error floor follow the problem's scale: cost moves
    in units of max|cost| and supply and demand in units of total mass.
    Degenerate optima are skipped: neither derivative exists there, and
    the JSON names the gate that tripped and the gap it measured.
    """
    if args.directions < 1:
        raise ValueError(f"--directions must be >= 1, got {args.directions}")
    rng = np.random.default_rng(args.seed)
    if args.problem:
        p = _load_problem(args.problem)
    else:
        p = _random_problem(rng, args.size, args.size)
    sol = _solve(p, args)
    info = {"mode": args.mode, "size": [p.m, p.k], "stats": sol.stats._asdict()}
    try:
        jac = diff.FlowJacobian(sol, p)
    except diff.SingularKktError as exc:
        print(f"SKIP-degenerate: {exc}")
        _write_json({**info, "skipped": True, "gate": exc.gate, "gap": exc.gap},
                    args.out, "gradcheck.json")
        return 0

    mass = float(p.supply.sum())
    cost_scale = float(np.abs(p.cost).max()) or 1.0
    if args.mode == "envelope":
        g = diff.backward_similarity(1.0, sol, p, mode="envelope")
        floor = mass * max(1.0, cost_scale)

        def predict(dc, ds, dd):
            return np.sum(g.d_cost * dc) + g.d_supply @ ds + g.d_demand @ dd

        def measure(q):
            return np.sum((1.0 - q.cost) * transport.solve(q, "simplex").flows)
    else:
        predict = jac.apply
        floor = mass

        def measure(q):
            return transport.solve(q, "simplex").flows

    eps = 1e-6
    worst = 0.0
    for _ in range(args.directions):
        dc = cost_scale * rng.standard_normal(p.cost.shape)
        ds = _mass_direction(rng, p.supply)
        dd = _mass_direction(rng, p.demand)
        pred = predict(dc, ds, dd)
        plus = transport.TransportProblem(cost=p.cost + eps * dc,
                                          supply=p.supply + eps * ds,
                                          demand=p.demand + eps * dd)
        minus = transport.TransportProblem(cost=p.cost - eps * dc,
                                           supply=p.supply - eps * ds,
                                           demand=p.demand - eps * dd)
        fd = (measure(plus) - measure(minus)) / (2 * eps)
        err = np.max(np.abs(pred - fd)) / max(floor, np.max(np.abs(fd)))
        worst = max(worst, float(err))
    ok = worst <= 1e-3
    print(f"max relative error {worst:.3e}: {'PASS' if ok else 'FAIL'}")
    _write_json({**info, "skipped": False, "max_relative_error": worst, "passed": ok},
                args.out, "gradcheck.json")
    return 0 if ok else 1


def cmd_gen(args) -> int:
    spec = synth.SynthSpec(
        class_count=args.classes, sets_per_class=args.sets_per_class,
        spatial=(args.height, args.width), channels=args.channels,
        cluster_sep=args.sep, background_fraction=args.background_fraction,
        background_scale=args.background_scale, seed=args.seed,
    )
    if not args.out:
        raise ValueError("gen requires --out")
    col = synth.generate(spec)
    manifest = tensor_io.save_collection(col, args.out)
    print(f"wrote {len(col.sets)} sets to {manifest}")
    return 0


def cmd_episodes(args) -> int:
    if args.episodes < 0:
        raise ValueError(f"--episodes must be >= 0, got {args.episodes}")
    if args.method != "1shot" and args.weighting != "cross_reference":
        raise ValueError(f"--weighting {args.weighting} is honoured only by --method 1shot; "
                         f"{args.method} scores with cross_reference weights")
    col = tensor_io.load_collection(args.collection)
    cfg = _extraction_config(args)
    rows, accs = [], []
    for e in range(args.episodes):
        ep = fewshot.sample_episode(col, args.n_way, args.k_shot, args.q,
                                    seed=args.seed + e, cfg=cfg)
        if args.method == "1shot":
            _, acc = fewshot.classify_1shot(ep, weighting=args.weighting, solver=args.solver)
        else:
            acc = fewshot.classify_kshot(ep, method=args.method, solver=args.solver)
        rows.append([e, args.method, args.n_way, args.k_shot, f"{acc:.6f}"])
        accs.append(acc)
    _write_csv(rows, ["episode_id", "method", "n_way", "k_shot", "accuracy"],
               args.out, "episodes.csv")
    mean, ci = fewshot.mean_ci95(accs) if accs else (None, None)
    _write_json({"mean": mean, "ci95": ci, "episode_count": len(accs), "method": args.method,
                 "n_way": args.n_way, "k_shot": args.k_shot, "q_per_class": args.q,
                 "weighting": args.weighting, "solver": args.solver}, args.out, "episodes.json")
    if accs:
        print(f"accuracy {mean:.4f} +/- {ci:.4f} over {len(accs)} episodes")
    else:
        print("no episodes requested")
    return 0


def cmd_retrieve(args) -> int:
    col = tensor_io.load_collection(args.collection)
    cfg = _extraction_config(args)
    items = [(label, metric.extract(t, cfg)) for label, t in col.sets]
    run = retrieval.rank_gallery(items, items, weighting=args.weighting, solver=args.solver)
    p1, rp, mapr = retrieval.metrics(run)
    rows = [[qi, run.query_labels[qi], " ".join(map(str, run.ranking[qi]))]
            for qi in range(len(items))]
    rows.append(["summary", f"p_at_1={p1:.6f}", f"rp={rp:.6f} map_at_r={mapr:.6f}"])
    _write_csv(rows, ["query", "label", "ranking"], args.out, "retrieval.csv")
    _write_json({"weighting": args.weighting, "solver": args.solver, "p_at_1": p1,
                 "r_precision": rp, "map_at_r": mapr}, args.out, "retrieval.json")
    print(f"P@1 {p1:.4f}  RP {rp:.4f}  MAP@R {mapr:.4f}")
    return 0


def cmd_train(args) -> int:
    col = tensor_io.load_collection(args.collection)
    model = fewshot.train_projection(
        col, epochs=args.epochs, lr=args.lr, temperature=args.temperature,
        seed=args.seed, n_way=args.n_way, cfg=_extraction_config(args),
        solver=args.solver,
    )
    _write_json({"loss_curve": model.loss_curve,
                 "temperature": model.temperature, "solver": args.solver,
                 "weight_shape": list(model.weight.shape)}, args.out, "train.json")
    if args.out:
        tensor_io.save_tensor(tensor_io.DenseTensor.from_array(model.weight),
                              os.path.join(args.out, "projection.dtn"))
    first = model.loss_curve[0] if model.loss_curve else float("nan")
    last = model.loss_curve[-1] if model.loss_curve else float("nan")
    print(f"trained {args.epochs} epochs, loss {first:.4f} -> {last:.4f}")
    return 0


def cmd_flows(args) -> int:
    cfg = _extraction_config(args)
    a = metric.extract(tensor_io.load_tensor(args.query), cfg)
    b = metric.extract(tensor_io.load_tensor(args.support), cfg)
    wa, wb = metric.cross_reference_weights(a, b)
    sim, sol = metric.emd_similarity(a, b, wa, wb, solver=args.solver)
    # A node of weight 0 carries no flow, so it matches nothing: -1.
    best = np.where(wa > 0, np.argmax(sol.flows, axis=1), -1)
    payload = {
        "nodes_a": a.vectors.tolist(), "nodes_b": b.vectors.tolist(),
        "weights_a": wa.tolist(), "weights_b": wb.tolist(),
        "flow_matrix": sol.flows.tolist(),
        "best_match": best.tolist(),
        "similarity": sim,
        "stats": sol.stats._asdict(),
    }
    if args.out:
        _write_json(payload, args.out, "flows.json")
        print(f"similarity {sim:.6f}")
    else:
        print(_json_text(payload))  # the text --out writes
    return 0


def cmd_bench(args) -> int:
    for flag, values in (("--sizes", args.sizes), ("--dims", args.dims),
                         ("--repeats", [args.repeats])):
        if min(values) < 1:
            raise ValueError(f"{flag} must be >= 1, got {min(values)}")
    rng = np.random.default_rng(args.seed)
    rows = []
    for size in args.sizes:
        n = size * size
        for dim in args.dims:
            feats_a = rng.standard_normal((n, dim))
            feats_b = rng.standard_normal((n, dim))
            a = metric.EmbeddingSet(feats_a)
            b = metric.EmbeddingSet(feats_b)
            wa, wb = metric.cross_reference_weights(a, b)
            for solver in args.solvers:
                times = []
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    metric.emd_similarity(a, b, wa, wb, solver=solver)
                    times.append(time.perf_counter() - t0)
                med = statistics.median(times)
                rows.append([size, dim, solver, args.repeats, f"{med * 1e3:.4f}"])
                print(f"size {size}x{size} dim {dim} {solver}: median {med * 1e3:.3f} ms")
    _write_csv(rows, ["size", "dim", "solver", "repeats", "median_ms"],
               args.out, "bench.csv")
    return 0


def _global_flags(parser: argparse.ArgumentParser, suppress: bool):
    # Registered on the top parser (real defaults) and on every subparser
    # (SUPPRESS defaults) so the flags are accepted in either position.
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--solver", choices=["simplex", "ipm"], default=d("simplex"))
    parser.add_argument("--out", default=d(None), help="output directory")
    parser.add_argument("--tol", type=float, default=d(None),
                        help="solver tolerance; honoured only by solve and gradcheck")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emdflow",
                                     description="Differentiable EMD toolkit")
    _global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a transportation problem file")
    p.add_argument("problem")
    _global_flags(p, suppress=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gradcheck", help="check LP gradients against finite differences")
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--mode", choices=["envelope", "full"], default="full")
    p.add_argument("--directions", type=int, default=5)
    p.add_argument("--problem", default=None)
    _global_flags(p, suppress=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gen", help="generate a synthetic collection")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--sets-per-class", type=int, default=20)
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--sep", type=float, default=4.0)
    p.add_argument("--background-fraction", type=float, default=0.0)
    p.add_argument("--background-scale", type=float, default=1.0)
    _global_flags(p, suppress=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("episodes", help="evaluate few-shot episodes")
    p.add_argument("--collection", required=True)
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--method", default="1shot",
                   choices=["1shot", *fewshot.KSHOT_METHODS])
    p.add_argument("--weighting", default="cross_reference", choices=metric.WEIGHTINGS)
    _add_extraction_flags(p)
    _global_flags(p, suppress=True)
    p.set_defaults(func=cmd_episodes)

    p = sub.add_parser("retrieve", help="rank a collection against itself")
    p.add_argument("--collection", required=True)
    p.add_argument("--weighting", default="cross_reference", choices=metric.WEIGHTINGS)
    _add_extraction_flags(p)
    _global_flags(p, suppress=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("train", help="train the toy node projection")
    p.add_argument("--collection", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--temperature", type=float, default=0.1)
    p.add_argument("--n-way", type=int, default=5)
    _add_extraction_flags(p)
    _global_flags(p, suppress=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("flows", help="dump the matching flows for a tensor pair")
    p.add_argument("query")
    p.add_argument("support")
    _add_extraction_flags(p)
    _global_flags(p, suppress=True)
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser("bench", help="time the solvers across sizes and dims")
    p.add_argument("--sizes", type=int, nargs="+", default=[5])
    p.add_argument("--dims", type=int, nargs="+", default=[256, 2048])
    p.add_argument("--solvers", nargs="+", default=["simplex", "ipm"],
                   choices=["simplex", "ipm"])
    p.add_argument("--repeats", type=int, default=10)
    _global_flags(p, suppress=True)
    p.set_defaults(func=cmd_bench)
    return parser


def _join_float_values(argv):
    """``--tol -inf`` as ``--tol=-inf``: argparse takes a token that starts
    with ``-`` for an option unless it looks like ``-1`` or ``-.5``, so
    ``-inf`` and ``-1e-3`` would never reach the option's own check."""
    joined = []
    for token in argv:
        if (joined and re.fullmatch(r"--[^=]+", joined[-1]) and token.startswith("-")
                and not re.fullmatch(r"-\d+|-\d*\.\d+", token) and _is_float(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.tol is not None and not 0 < args.tol < float("inf"):
        print("error: --tol must be positive and finite", file=sys.stderr)
        return 1
    if args.tol is not None and args.command not in ("solve", "gradcheck"):
        print("error: --tol is honoured only by solve and gradcheck", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
