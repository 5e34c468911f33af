import csv
import json

import numpy as np
import pytest

from emdflow import synth, transport
from emdflow.cli import main
from emdflow.tensor_io import DenseTensor, save_tensor


def _write_problem(tmp_path, payload, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def single_cell(tmp_path):
    return _write_problem(tmp_path, {"cost": [[0.5]], "supply": [1.0], "demand": [1.0]})


def test_solve_single_cell(single_cell, tmp_path, capsys):
    assert main(["solve", single_cell, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "objective 0.5" in out
    payload = json.loads((tmp_path / "o" / "solution.json").read_text())
    assert payload["format_version"] == 1
    assert payload["objective"] == pytest.approx(0.5)


@pytest.mark.parametrize("solver", ["simplex", "ipm"])
def test_solve_writes_stats(tmp_path, solver):
    """The solution JSON says what the solve did: the simplex on the mass
    support, the interior point on the whole problem."""
    prob = _write_problem(tmp_path, {"cost": [[0.2, 0.9, 0.5], [0.7, 0.1, 0.4]],
                                     "supply": [0.4, 0.6], "demand": [0.5, 0.0, 0.5]})
    assert main(["--solver", solver, "solve", prob, "--out", str(tmp_path / "o")]) == 0
    stats = json.loads((tmp_path / "o" / "solution.json").read_text())["stats"]
    if solver == "simplex":
        assert stats["kept"] == [2, 2]
        assert stats["pivots"] >= 0 and stats["bland"] is False
        assert 0 <= stats["degenerate_pivots"] <= stats["pivots"]
        assert stats["ipm_iterations"] is None and stats["residual"] is None
        assert stats["ipm_fallbacks"] is None
    else:
        assert stats["kept"] == [2, 3]
        assert stats["ipm_iterations"] > 0 and 0 <= stats["residual"] <= 1e-9
        assert 0 <= stats["ipm_fallbacks"] <= stats["ipm_iterations"]
        assert stats["pivots"] is None and stats["degenerate_pivots"] is None
    assert set(stats) == {"kept", "pivots", "degenerate_pivots", "bland", "ipm_iterations",
                          "residual", "ipm_fallbacks"}


def test_solve_cross_solver_agreement(tmp_path, capsys):
    rng = np.random.default_rng(0)
    cost = rng.uniform(0.1, 1.9, (3, 3))
    s = rng.uniform(0.2, 1.0, 3); s /= s.sum()
    d = rng.uniform(0.2, 1.0, 3); d /= d.sum()
    prob = _write_problem(tmp_path, {"cost": cost.tolist(), "supply": s.tolist(),
                                     "demand": d.tolist()})
    objs = []
    for solver in ("simplex", "ipm"):
        assert main(["--solver", solver, "solve", prob]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        objs.append(float(line.split()[1]))
    assert objs[0] == pytest.approx(objs[1], abs=1e-6)


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    assert capsys.readouterr().err != ""


def test_solve_unbalanced_file(tmp_path):
    prob = _write_problem(tmp_path, {"cost": [[1.0]], "supply": [1.0], "demand": [2.0]})
    assert main(["solve", prob]) == 1


@pytest.mark.parametrize("supply", [[float("nan"), 1.0], [float("inf"), 1.0]])
def test_solve_nonfinite_mass_rejected(tmp_path, capsys, supply):
    prob = _write_problem(tmp_path, {"cost": [[1.0, 2.0], [2.0, 1.0]],
                                     "supply": supply, "demand": [1.0, 1.0]})
    assert main(["solve", prob]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["cost", "supply", "demand"])
def test_solve_problem_without_an_array_exits_1(tmp_path, capsys, missing):
    payload = {"cost": [[0.5]], "supply": [1.0], "demand": [1.0]}
    del payload[missing]
    assert main(["solve", _write_problem(tmp_path, payload)]) == 1
    assert "problem file needs cost/supply/demand arrays" in capsys.readouterr().err


def test_solve_exits_2_past_the_pivot_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(transport, "MAX_PIVOTS", 0)
    prob = _write_problem(tmp_path, {"cost": [[0.1, 0.9], [0.8, 0.2]],
                                     "supply": [0.5, 0.5], "demand": [0.5, 0.5]})
    assert main(["solve", prob]) == 2
    assert "simplex exceeded pivot limit" in capsys.readouterr().err


def test_flows_of_sets_whose_norms_underflow_exits_1(tmp_path, capsys):
    """Node vectors at 1e-170 have a sum of squares that underflows float64:
    an error, not a similarity of 0."""
    rng = np.random.default_rng(0)
    paths = []
    for name in ("a.dtn", "b.dtn"):
        save_tensor(DenseTensor.from_array(1e-170 * rng.standard_normal((2, 2, 8))),
                    tmp_path / name)
        paths.append(str(tmp_path / name))
    assert main(["flows", *paths]) == 1
    assert "underflows" in capsys.readouterr().err


def test_gradcheck_full_passes(capsys):
    assert main(["--seed", "3", "gradcheck", "--size", "3", "--mode", "full"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_envelope_exact(capsys):
    assert main(["gradcheck", "--mode", "envelope"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_envelope_writes_json(tmp_path):
    prob = _write_problem(tmp_path, {"cost": [[0.2, 0.9, 0.5], [0.7, 0.1, 0.4]],
                                     "supply": [0.4, 0.6], "demand": [0.3, 0.3, 0.4]})
    out = tmp_path / "gc"
    assert main(["gradcheck", "--problem", prob, "--mode", "envelope", "--out", str(out)]) == 0
    payload = json.loads((out / "gradcheck.json").read_text())
    assert payload["mode"] == "envelope"
    assert payload["size"] == [2, 3]
    assert payload["passed"] is True
    assert payload["max_relative_error"] < 1e-6
    assert payload["skipped"] is False


def test_gradcheck_degenerate_skipped(tmp_path, capsys):
    prob = _write_problem(tmp_path, {"cost": [[1.0, 1.0], [1.0, 1.0]],
                                     "supply": [0.5, 0.5], "demand": [0.5, 0.5]})
    assert main(["gradcheck", "--problem", prob, "--mode", "full"]) == 0
    assert "SKIP-degenerate" in capsys.readouterr().out


def test_gradcheck_degenerate_writes_json(tmp_path):
    """A skipped check still writes its JSON: the gate that tripped, the gap
    it measured and the solve's stats."""
    prob = _write_problem(tmp_path, {"cost": [[1.0, 1.0], [1.0, 1.0]],
                                     "supply": [0.5, 0.5], "demand": [0.5, 0.5]})
    out = tmp_path / "gc"
    assert main(["gradcheck", "--problem", prob, "--mode", "full", "--out", str(out)]) == 0
    payload = json.loads((out / "gradcheck.json").read_text())
    assert payload["skipped"] is True
    assert payload["gate"] == "complementarity" and payload["gap"] == 0.0
    assert payload["size"] == [2, 2] and payload["mode"] == "full"
    assert payload["stats"]["kept"] == [2, 2] and payload["stats"]["pivots"] >= 0
    assert "passed" not in payload


@pytest.mark.parametrize("directions", ["0", "-3"])
def test_gradcheck_rejects_directions_below_one(capsys, directions):
    """Checking no direction is an error, not a PASS."""
    assert main(["gradcheck", "--directions", directions]) == 1
    out, err = capsys.readouterr()
    assert "error: --directions must be >= 1" in err
    assert "PASS" not in out


@pytest.mark.parametrize("mode", ["full", "envelope"])
def test_gradcheck_follows_mass_scale(tmp_path, capsys, mode):
    prob = _write_problem(tmp_path, {"cost": [[0.2, 0.9, 0.5], [0.7, 0.1, 0.4]],
                                     "supply": [4e-10, 6e-10],
                                     "demand": [3e-10, 3e-10, 4e-10]})
    assert main(["gradcheck", "--problem", prob, "--mode", mode]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["full", "envelope"])
def test_gradcheck_keeps_zero_masses(tmp_path, capsys, mode):
    """Clamped weights: the check runs on the support instead of skipping."""
    prob = _write_problem(tmp_path, {"cost": [[0.2, 0.9, 0.5, 0.3], [0.7, 0.1, 0.4, 0.6],
                                              [0.5, 0.5, 0.2, 0.8]],
                                     "supply": [0.4, 0.0, 0.6],
                                     "demand": [0.3, 0.4, 0.3, 0.0]})
    assert main(["gradcheck", "--problem", prob, "--mode", mode]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--tol", "-1", "bench", "--sizes", "2", "--dims", "4", "--repeats", "1"],
    ["episodes", "--collection", "missing.tsv", "--tol", "0"],
    ["--tol", "nan", "gradcheck"],
    ["--tol", "inf", "gradcheck"],
    ["--solver", "ipm", "--tol", "inf", "gradcheck"],
    # -inf and -1e-3 are joined to --tol: argparse would take them for options.
    ["--tol", "-inf", "gradcheck"], ["gradcheck", "--tol", "-inf"],
    ["--tol", "-1e-3", "gradcheck"], ["gradcheck", "--tol", "-1e-3"],
])
def test_tol_validated_for_every_subcommand(argv, capsys):
    assert main(argv) == 1
    assert "--tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen"], ["episodes", "--collection", "missing.tsv"], ["retrieve", "--collection", "missing.tsv"],
    ["train", "--collection", "missing.tsv"], ["flows", "a.dtn", "b.dtn"], ["bench"],
])
def test_tol_rejected_where_no_solve_takes_it(argv, tmp_path, capsys):
    """Only solve and gradcheck pass --tol to a solver; the others refuse it
    rather than ignore it, before doing any work."""
    out = tmp_path / "out"
    assert main([*argv, "--tol", "1e-3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --tol is honoured only by solve and gradcheck\n"
    assert not out.exists()


def test_tol_accepted_by_solve_and_gradcheck(single_cell, capsys):
    assert main(["solve", single_cell, "--tol", "1e-8"]) == 0
    assert main(["gradcheck", "--tol", "1e-8"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gen_rejects_missing_out_before_generating(monkeypatch, capsys):
    def refuse(spec):
        raise AssertionError("collection generated")
    monkeypatch.setattr(synth, "generate", refuse)
    assert main(["gen"]) == 1
    assert capsys.readouterr().err == "error: gen requires --out\n"


@pytest.mark.parametrize("flags", [["--sep", "inf"], ["--sep", "nan"],
                                   ["--background-scale", "nan", "--background-fraction", "0.5"],
                                   ["--background-scale", "-inf"]])
def test_gen_rejects_non_finite_scales(tmp_path, capsys, flags):
    out = tmp_path / "col"
    assert main(["gen", "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == (
        "error: cluster_sep and background_scale must be finite and >= 0\n")
    assert not out.exists()


def _gen_collection(tmp_path, **overrides):
    out = tmp_path / "col"
    args = {"--classes": "5", "--sets-per-class": "6", "--height": "2",
            "--width": "2", "--channels": "8", "--sep": "6.0"}
    args.update(overrides)
    argv = ["gen", "--out", str(out)]
    for key, val in args.items():
        argv += [key, val]
    assert main(argv) == 0
    return str(out / "manifest.tsv")


def test_gen_writes_manifest(tmp_path):
    manifest = _gen_collection(tmp_path)
    lines = open(manifest).read().strip().splitlines()
    assert len(lines) == 30


def test_episodes_csv_and_json(tmp_path, capsys):
    manifest = _gen_collection(tmp_path)
    out = tmp_path / "eps"
    assert main(["episodes", "--collection", manifest, "--episodes", "4",
                 "--q", "2", "--out", str(out)]) == 0
    with open(out / "episodes.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["format_version", "episode_id", "method", "n_way",
                       "k_shot", "accuracy"]
    assert len(rows) == 5
    payload = json.loads((out / "episodes.json").read_text())
    assert payload["episode_count"] == 4
    assert 0.0 <= payload["mean"] <= 1.0


def test_episodes_zero_is_ok(tmp_path):
    manifest = _gen_collection(tmp_path)
    out = tmp_path / "eps0"
    assert main(["episodes", "--collection", manifest, "--episodes", "0",
                 "--out", str(out)]) == 0
    with open(out / "episodes.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_episodes_zero_writes_strict_json(tmp_path):
    manifest = _gen_collection(tmp_path)
    out = tmp_path / "eps0"
    assert main(["episodes", "--collection", manifest, "--episodes", "0",
                 "--out", str(out)]) == 0
    payload = _strict_json(out / "episodes.json")
    assert payload["episode_count"] == 0
    assert payload["mean"] is None and payload["ci95"] is None


def test_episodes_rejects_negative_count(tmp_path, capsys):
    manifest = _gen_collection(tmp_path)
    out = tmp_path / "eps"
    assert main(["episodes", "--collection", manifest, "--episodes", "-3",
                 "--out", str(out)]) == 1
    assert "--episodes must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("enlarge", ["inf", "nan"])
def test_episodes_rejects_non_finite_context_enlarge(tmp_path, capsys, enlarge):
    manifest = _gen_collection(tmp_path)
    out = tmp_path / "eps"
    assert main(["episodes", "--collection", manifest, "--strategy", "grid",
                 "--context-enlarge", enlarge, "--episodes", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: context_enlarge must be finite and >= 1")
    assert not out.exists()


def test_episodes_without_queries_rejected(tmp_path, capsys):
    manifest = _gen_collection(tmp_path)
    assert main(["episodes", "--collection", manifest, "--q", "0"]) == 1
    assert "q_per_class" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["nn", "fusion", "merge", "sfc", "prototype"])
def test_episodes_kshot_rejects_weighting(tmp_path, capsys, method):
    """Only 1shot honours --weighting; the k-shot methods refuse a non-default one."""
    manifest = _gen_collection(tmp_path)
    out = tmp_path / "eps"
    assert main(["episodes", "--collection", manifest, "--method", method, "--k-shot", "2",
                 "--episodes", "1", "--weighting", "equal", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "only by --method 1shot" in err
    assert not out.exists()


def test_episodes_1shot_takes_weighting(tmp_path):
    manifest = _gen_collection(tmp_path)
    out = tmp_path / "eps"
    assert main(["episodes", "--collection", manifest, "--episodes", "1",
                 "--weighting", "equal", "--out", str(out)]) == 0
    assert json.loads((out / "episodes.json").read_text())["episode_count"] == 1


def test_episodes_json_records_the_episode_shape(tmp_path):
    """episodes.json records n_way, k_shot and q_per_class as the CSV rows
    carry the first two, also when no episode ran."""
    manifest = _gen_collection(tmp_path, **{"--sets-per-class": "4", "--classes": "3"})
    for count in ("1", "0"):
        out = tmp_path / f"eps{count}"
        assert main(["episodes", "--collection", manifest, "--n-way", "3", "--k-shot", "2",
                     "--q", "2", "--method", "nn", "--episodes", count, "--out", str(out)]) == 0
        payload = _strict_json(out / "episodes.json")
        assert (payload["n_way"], payload["k_shot"], payload["q_per_class"]) == (3, 2, 2)
        assert payload["episode_count"] == int(count)


def test_outputs_record_weighting_and_solver(tmp_path):
    manifest = _gen_collection(tmp_path, **{"--sets-per-class": "3", "--classes": "3"})
    out = tmp_path / "out"
    assert main(["episodes", "--collection", manifest, "--n-way", "3", "--episodes", "1",
                 "--weighting", "equal", "--solver", "ipm", "--out", str(out)]) == 0
    payload = json.loads((out / "episodes.json").read_text())
    assert (payload["weighting"], payload["solver"]) == ("equal", "ipm")
    assert main(["retrieve", "--collection", manifest, "--weighting", "equal",
                 "--out", str(out)]) == 0
    payload = _strict_json(out / "retrieval.json")
    assert (payload["weighting"], payload["solver"]) == ("equal", "simplex")
    summary = list(csv.reader(open(out / "retrieval.csv")))[-1]
    assert summary[2:] == [f"p_at_1={payload['p_at_1']:.6f}",
                           f"rp={payload['r_precision']:.6f} map_at_r={payload['map_at_r']:.6f}"]


def test_episodes_deterministic_bytes(tmp_path):
    manifest = _gen_collection(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--seed", "5", "episodes", "--collection", manifest,
                     "--episodes", "3", "--out", str(out)]) == 0
        outs.append((out / "episodes.csv").read_bytes()
                    + (out / "episodes.json").read_bytes())
    assert outs[0] == outs[1]


def test_retrieve(tmp_path, capsys):
    manifest = _gen_collection(tmp_path, **{"--sets-per-class": "3", "--classes": "3"})
    out = tmp_path / "ret"
    assert main(["retrieve", "--collection", manifest, "--out", str(out)]) == 0
    assert "P@1" in capsys.readouterr().out
    rows = list(csv.reader(open(out / "retrieval.csv")))
    assert len(rows) == 11  # header + 9 queries + summary


def test_retrieve_empty_manifest(tmp_path, capsys):
    """An empty collection is a validation error with a message, not a traceback."""
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("")
    assert main(["retrieve", "--collection", str(manifest)]) == 1
    assert "error: retrieval metrics need at least one query" in capsys.readouterr().err


def test_train(tmp_path, capsys):
    manifest = _gen_collection(tmp_path)
    out = tmp_path / "tr"
    assert main(["train", "--collection", manifest, "--epochs", "2",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "train.json").read_text())
    assert len(payload["loss_curve"]) == 2
    assert payload["solver"] == "simplex"
    assert (out / "projection.dtn").exists()


def test_train_divergence_exits_2(tmp_path, capsys):
    """A learning rate whose first step overflows the projection is a
    numerical failure (exit 2), not a run that reports a loss."""
    manifest = _gen_collection(tmp_path, **{"--sets-per-class": "4"})
    assert main(["train", "--collection", manifest, "--epochs", "4", "--lr", "1e300"]) == 2
    assert "diverged at iteration 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--temperature", "-0.1"), ("--temperature", "0"),
                                         ("--lr", "nan"), ("--epochs", "-1"),
                                         ("--lr", "-1e-3"), ("--lr", "-inf")])
def test_train_rejects_settings_that_cannot_train(tmp_path, capsys, flag, value):
    manifest = _gen_collection(tmp_path)
    assert main(["train", "--collection", manifest, flag, value]) == 1
    assert "must be" in capsys.readouterr().err


def test_flows_identity_best_match(tmp_path):
    rng = np.random.default_rng(1)
    # offset keeps every node positively aligned with the set mean, so no
    # node weight clamps to zero and the diagonal matching is unique
    arr = rng.standard_normal((2, 2, 5)) + 2.0
    t = tmp_path / "map.dtn"
    save_tensor(DenseTensor.from_array(arr), t)
    out = tmp_path / "fl"
    assert main(["flows", str(t), str(t), "--out", str(out)]) == 0
    payload = json.loads((out / "flows.json").read_text())
    assert payload["best_match"] == [0, 1, 2, 3]
    flows = np.array(payload["flow_matrix"])
    assert np.allclose(flows.sum(axis=1), payload["weights_a"], atol=1e-7)
    assert sum(payload["weights_a"]) == pytest.approx(1.0, abs=1e-12)
    assert sum(payload["weights_b"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("solver", ["simplex", "ipm"])
def test_flows_best_match_is_minus_one_for_zero_weight_nodes(tmp_path, solver):
    """Query nodes opposite the support's mean clamp to weight 0 and match
    nothing, although the interior point leaves tiny flows on their rows."""
    rng = np.random.default_rng(3)
    d = np.array([1.0, 0.5, -0.5, 2.0])
    maps = {"a.dtn": np.stack([d, -d, d, -d]), "b.dtn": np.tile(d, (4, 1))}
    paths = []
    for name, nodes in maps.items():
        paths.append(str(tmp_path / name))
        vectors = nodes + 0.1 * rng.standard_normal((4, 4))
        save_tensor(DenseTensor.from_array(vectors.reshape(2, 2, 4)), paths[-1])
    out = tmp_path / "fl"
    assert main(["--solver", solver, "flows", *paths, "--out", str(out)]) == 0
    payload = json.loads((out / "flows.json").read_text())
    weights = np.array(payload["weights_a"])
    assert weights[[1, 3]].tolist() == [0.0, 0.0] and weights[[0, 2]].min() > 0
    best = payload["best_match"]
    assert [best[1], best[3]] == [-1, -1]
    flows = np.array(payload["flow_matrix"])
    assert [best[0], best[2]] == np.argmax(flows[[0, 2]], axis=1).tolist()


@pytest.mark.parametrize("solver", ["simplex", "ipm"])
def test_flows_writes_stats(tmp_path, solver):
    rng = np.random.default_rng(2)
    paths = []
    for name in ("a.dtn", "b.dtn"):
        paths.append(str(tmp_path / name))
        save_tensor(DenseTensor.from_array(rng.standard_normal((2, 3, 4))), paths[-1])
    out = tmp_path / "fl"
    assert main(["--solver", solver, "flows", *paths, "--out", str(out)]) == 0
    payload = json.loads((out / "flows.json").read_text())
    stats = payload["stats"]
    kept = [int(np.count_nonzero(payload["weights_a"])), int(np.count_nonzero(payload["weights_b"]))]
    if solver == "simplex":
        assert stats["kept"] == kept and stats["pivots"] >= 0
        assert stats["ipm_iterations"] is None and stats["ipm_fallbacks"] is None
    else:
        assert stats["kept"] == [6, 6] and stats["ipm_iterations"] > 0
        assert 0 <= stats["ipm_fallbacks"] <= stats["ipm_iterations"]
        assert stats["pivots"] is None


def test_flows_stdout_is_the_out_files_text(tmp_path, capsys):
    """Without --out, flows prints the strict JSON text --out writes."""
    rng = np.random.default_rng(4)
    paths = []
    for name in ("a.dtn", "b.dtn"):
        paths.append(str(tmp_path / name))
        save_tensor(DenseTensor.from_array(rng.standard_normal((2, 2, 3))), paths[-1])
    capsys.readouterr()
    assert main(["flows", *paths]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "fl"
    assert main(["flows", *paths, "--out", str(out)]) == 0
    assert printed == (out / "flows.json").read_text()
    assert _strict_json(out / "flows.json")["format_version"] == 1


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--sizes", "3", "--dims", "16", "--repeats", "2",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "bench.csv")))
    assert rows[0] == ["format_version", "size", "dim", "solver", "repeats", "median_ms"]
    assert len(rows) == 3  # simplex + ipm


def test_bench_single_repeat(tmp_path):
    out = tmp_path / "bench1"
    assert main(["bench", "--sizes", "2", "--dims", "8", "--solvers", "simplex",
                 "--repeats", "1", "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "bench1" / "bench.csv"))) if False else \
        list(csv.reader(open(out / "bench.csv")))
    assert len(rows) == 2


@pytest.mark.parametrize("flag, value", [("--sizes", "0"), ("--dims", "0"), ("--repeats", "0"),
                                         ("--repeats", "-2")])
def test_bench_rejects_counts_below_one(tmp_path, capsys, flag, value):
    """An empty or negative size, dimension or repeat count is named up
    front, and nothing is timed or written."""
    flags = {"--sizes": "2", "--dims": "4", "--repeats": "1", flag: value}
    out = tmp_path / "bench"
    argv = ["bench", "--solvers", "simplex", "--out", str(out)]
    assert main(argv + [part for item in flags.items() for part in item]) == 1
    out_text, err = capsys.readouterr()
    assert f"error: {flag} must be >= 1, got {value}" in err
    assert out_text == "" and not out.exists()


def test_global_flags_both_positions(single_cell):
    assert main(["--seed", "2", "solve", single_cell]) == 0
    assert main(["solve", single_cell, "--seed", "2"]) == 0
