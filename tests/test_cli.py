import hashlib
import inspect
import json
import math
import os
import struct
import threading

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from coles import cli, coles_solver, diagnostics, evaluation
from coles.cli import ConfigError, _coles_config, _parse_args, build_parser, main
from coles.coles_solver import ColesConfig, solve_linear_coles
from coles.diagnostics import pair_scores, score_densities
from coles.evaluation import SplitSpec, logreg_fit
from coles.graph_core import SparseSym, load_edge_list, save_edge_list
from coles.io import read_clsm, read_dense, write_clsm, write_csv, write_labels
from coles.negative_sampling import NegSampleConfig
from coles.spectral_filters import FilterConfig
from coles.rng import Xoshiro256StarStar
from coles.synthetic import SbmSpec
from helpers import CountedThread, stream_key


EVAL_COMMANDS = ("eval-classify", "eval-cluster", "diagnose")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run("synth", "--out", out, "--classes", 3, "--per-block", 12,
               "--p-in", "0.4", "--p-out", "0.05", "--feat-dim", 6, "--seed", 5) == 0
    return out


def embed_args(synth_dir, out, **over):
    args = ["embed", "--edges", synth_dir / "edges.txt",
            "--features", synth_dir / "features.csv", "--out", out,
            "--dim", 3, "--kappa", 2, "--per-node", 2, "--k-steps", 2, "--seed", 1]
    for key, val in over.items():
        args += [f"--{key.replace('_', '-')}", val]
    return args


def test_synth_writes_artifacts(synth_dir):
    for name in ("edges.txt", "features.csv", "labels.txt", "config.json"):
        assert (synth_dir / name).is_file()
    cfg = json.loads((synth_dir / "config.json").read_text())
    assert cfg["subcommand"] == "synth"
    assert cfg["per_block"] == 12


def test_synth_rejects_bad_probabilities(tmp_path, capsys):
    assert run("synth", "--out", tmp_path / "o", "--p-in", "0.1", "--p-out", "0.5") == 1
    assert "p_out" in capsys.readouterr().err


def test_embed_writes_consistent_sidecar(synth_dir, tmp_path):
    out = tmp_path / "emb"
    assert run(*embed_args(synth_dir, out)) == 0
    y = read_clsm(out / "embeddings.clsm")
    assert y.shape == (36, 3)
    meta = json.loads((out / "embedding_meta.json").read_text())
    assert abs(meta["objective"] - sum(meta["eigenvalues"])) < 1e-8
    assert "eigengap" in meta and "wall_clock_sec" in meta
    assert len(meta["eigenvalues"]) == 3


def test_embed_missing_features_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = run("embed", "--edges", tmp_path / "e.txt", "--features", missing,
               "--out", tmp_path / "o")
    assert code == 1
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("special", ["directory", "device"])
@pytest.mark.parametrize("command,flag", [("embed", "--features"),
                                          ("eval-cluster", "--embeddings")])
def test_input_that_is_not_a_regular_file_is_named(synth_dir, tmp_path, capsys, special,
                                                   command, flag):
    # refused before any open(), which would block on a FIFO
    path = tmp_path if special == "directory" else os.devnull
    inputs = {"embed": ["--edges", synth_dir / "edges.txt"],
              "eval-cluster": ["--labels", synth_dir / "labels.txt"]}[command]
    code = run(command, flag, path, *inputs, "--out", tmp_path / "o")
    assert_refused(code, capsys.readouterr().err, 1, f"{flag}: not a regular file: {path}",
                   tmp_path / "o")


@pytest.mark.parametrize("hash_dim", [None, 4])
def test_embed_refuses_features_without_columns(synth_dir, tmp_path, capsys, hash_dim):
    write_clsm(np.zeros((36, 0)), tmp_path / "features.clsm")
    argv = ["embed", "--edges", synth_dir / "edges.txt", "--features", tmp_path / "features.clsm",
            "--out", tmp_path / "o"]
    code = run(*argv, *(["--hash-dim", hash_dim] if hash_dim else []))
    assert_refused(code, capsys.readouterr().err, 1,
                   f"--features: {tmp_path / 'features.clsm'} has no columns", tmp_path / "o")


def test_embed_deterministic_bytes(synth_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(*embed_args(synth_dir, out1, write_csv=None)[:-2] + ["--write-csv"]) == 0
    assert run(*embed_args(synth_dir, out2, write_csv=None)[:-2] + ["--write-csv"]) == 0
    assert (out1 / "embeddings.clsm").read_bytes() == (out2 / "embeddings.clsm").read_bytes()
    assert (out1 / "embeddings.csv").read_bytes() == (out2 / "embeddings.csv").read_bytes()


def _first_run(subcommand, data, tmp_path):
    """Run subcommand once on the synth fixture, non-default on/off values included."""
    if subcommand == "synth":
        return data
    emb = tmp_path / "emb"
    assert run(*embed_args(data, emb), "--no-self-loops", "--write-csv") == 0
    if subcommand == "embed":
        return emb
    out = tmp_path / "first"
    extra = {"eval-classify": ["--per-class", 5, "--n-splits", 2, "--val-size", 6,
                               "--epochs", 20],
             "eval-cluster": ["--n-runs", 2],
             "diagnose": ["--edges", data / "edges.txt", "--no-normalize",
                          "--grid-points", 64]}[subcommand]
    assert run(subcommand, "--embeddings", emb / "embeddings.clsm",
               "--labels", data / "labels.txt", "--out", out, "--seed", 3, *extra) == 0
    return out


def _outputs(out):
    """Every file under out, with the echoed --out and the wall clock taken out."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes().replace(str(out).encode(), b"<out>")
        if path.name == "embedding_meta.json":
            meta = json.loads(data)
            del meta["wall_clock_sec"]
            data = json.dumps(meta, sort_keys=True).encode()
        files[path.name] = data
    return files


@pytest.mark.parametrize("subcommand",
                         ["synth", "embed", "eval-classify", "eval-cluster", "diagnose"])
def test_rerun_from_echoed_config(synth_dir, tmp_path, subcommand):
    first = _first_run(subcommand, synth_dir, tmp_path)
    rerun = tmp_path / "rerun"
    assert run(subcommand, "--config", first / "config.json", "--out", rerun) == 0
    assert _outputs(rerun) == _outputs(first)


def test_config_unknown_key_rejected(synth_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"filtr": "s2gc"}))
    code = run("embed", "--edges", synth_dir / "edges.txt",
               "--features", synth_dir / "features.csv",
               "--out", tmp_path / "o", "--config", bad)
    assert code == 1
    assert "filtr" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,bad,named", [
    ("embed", {"dim": "abc"}, "--dim"), ("embed", {"kappa": 1.5}, "--kappa"),
    ("embed", {"dim": True}, "--dim"), ("embed", {"self_loops": "no"}, "self_loops"),
    ("eval-classify", {"per_class": 7}, "--per-class"), ("embed", {"out": None}, "out"),
    ("embed", ["dim", 3], "expected a JSON object"),
], ids=["str-for-int", "float-for-int", "bool-for-int", "str-for-on-off", "bad-choice",
        "null-value", "array-not-object"])
def test_bad_config_value_exits_1(synth_dir, separable_embedding, tmp_path, capsys,
                                  subcommand, bad, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    emb, lab = separable_embedding
    inputs = {"embed": ["--edges", synth_dir / "edges.txt",
                        "--features", synth_dir / "features.csv"],
              "eval-classify": ["--embeddings", emb, "--labels", lab]}[subcommand]
    out = tmp_path / "o"
    assert run(subcommand, *inputs, "--out", out, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert "coles: config error" in err and named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture()
def separable_embedding(tmp_path):
    """Trivially separable 3-blob embedding + labels on disk."""
    rng = Xoshiro256StarStar(2)
    centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]])
    labels = np.repeat(np.arange(3), 30)
    y = centers[labels] + np.array(rng.normals(90 * 2)).reshape(90, 2)
    emb = tmp_path / "emb.csv"
    lab = tmp_path / "labels.txt"
    write_csv(y, emb)
    write_labels(labels, lab)
    return emb, lab


def test_eval_classify_separable_single_split(separable_embedding, tmp_path):
    emb, lab = separable_embedding
    out = tmp_path / "ev"
    assert run("eval-classify", "--embeddings", emb, "--labels", lab, "--out", out,
               "--per-class", 5, "--n-splits", 1, "--val-size", 15, "--seed", 3) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["per_split"][0]["accuracy"] == 1.0


def test_eval_classify_fifty_split_schema(separable_embedding, tmp_path):
    emb, lab = separable_embedding
    out = tmp_path / "ev50"
    assert run("eval-classify", "--embeddings", emb, "--labels", lab, "--out", out,
               "--per-class", 5, "--n-splits", 50, "--val-size", 10,
               "--epochs", 50, "--seed", 3) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_splits"] == 50
    assert len(metrics["per_split"]) == 50
    assert set(metrics["mean"]) == {"accuracy", "macro_f1", "micro_f1", "nmi"}
    assert set(metrics["std"]) == {"accuracy", "macro_f1", "micro_f1", "nmi"}


def test_eval_classify_seed_changes_splits(separable_embedding, tmp_path):
    emb, lab = separable_embedding
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"ev{seed}"
        assert run("eval-classify", "--embeddings", emb, "--labels", lab, "--out", out,
                   "--per-class", 5, "--n-splits", 2, "--val-size", 15,
                   "--epochs", 20, "--seed", seed) == 0
        outs.append(json.loads((out / "metrics.json").read_text()))
    assert set(outs[0]) == set(outs[1])  # same schema


def test_eval_classify_metrics_digest(tmp_path):
    # pins the splits and fits through their predictions; recorded before the
    # splits and the fits were batched
    rng = Xoshiro256StarStar(17)
    labels = np.repeat(np.arange(3), [25, 30, 35])
    centers = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 2.0, -1.0]])
    y = centers[labels] + np.array(rng.normals(90 * 3)).reshape(90, 3)
    write_csv(y, tmp_path / "emb.csv")
    write_labels(labels, tmp_path / "labels.txt")
    out = tmp_path / "ev"
    assert run("eval-classify", "--embeddings", tmp_path / "emb.csv",
               "--labels", tmp_path / "labels.txt", "--out", out, "--per-class", 5,
               "--n-splits", 30, "--val-size", 20, "--epochs", 40, "--seed", 9) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    del metrics["config"]  # it echoes tmp_path
    assert hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest() == (
        "e542bdec6397b236498aef83367c5d89e2a86233aa54fd296a8f247c17e7c604")


def test_eval_classify_ten_class_metrics_digest(tmp_path):
    # pins a ten-class run: past the 8 terms from which numpy would add a
    # contiguous class axis pairwise; the fit adds the classes in order
    rng = Xoshiro256StarStar(31)
    labels = np.repeat(np.arange(10), np.arange(12, 22))
    centers = 1.5 * np.array(rng.normals(10 * 4)).reshape(10, 4)
    y = centers[labels] + np.array(rng.normals(labels.size * 4)).reshape(-1, 4)
    write_csv(y, tmp_path / "emb.csv")
    write_labels(labels, tmp_path / "labels.txt")
    out = tmp_path / "ev"
    assert run("eval-classify", "--embeddings", tmp_path / "emb.csv",
               "--labels", tmp_path / "labels.txt", "--out", out, "--per-class", 5,
               "--n-splits", 20, "--val-size", 20, "--epochs", 60, "--seed", 9) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    del metrics["config"]  # it echoes tmp_path
    assert hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest() == (
        "ca26c64ff8f0e2c1dc0f70c33673b7ecbc72406453d49a9db59fba1fc7db35b8")


def test_eval_cluster(separable_embedding, tmp_path):
    emb, lab = separable_embedding
    out = tmp_path / "cl"
    assert run("eval-cluster", "--embeddings", emb, "--labels", lab, "--out", out,
               "--n-runs", 3, "--seed", 4) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["config"]["k"] == 3
    assert len(metrics["per_run"]) == 3
    assert metrics["mean"]["accuracy"] == 1.0
    assert metrics["mean"]["nmi"] == 1.0


def test_eval_cluster_more_clusters_than_classes_digest(separable_embedding, tmp_path):
    # 12 clusters of 3 classes: a 12 x 12 table with 9 empty class columns,
    # whose matching takes augmenting paths; pins metrics.json's bytes
    emb, lab = separable_embedding
    out = tmp_path / "cl"
    assert run("eval-cluster", "--embeddings", emb, "--labels", lab, "--out", out,
               "--n-runs", 3, "--seed", 4, "--k", 12) == 0
    raw = (out / "metrics.json").read_text().replace(str(tmp_path), "TMP")
    assert hashlib.sha256(raw.encode()).hexdigest() == (
        "0b1c5b26f1694c49f41c04140110cd2d481ef97741d275a571aea1687cc23ddd")


@pytest.mark.parametrize("gap", [5, 50])
def test_eval_cluster_default_k_is_the_label_count(tmp_path, gap):
    # labels 0 and gap: two clusters, not gap + 1 (gap 50 would exceed the 40 rows)
    rng = Xoshiro256StarStar(6)
    labels = np.repeat([0, gap], 20)
    y = np.where(labels[:, None] == 0, 0.0, 30.0) + np.array(rng.normals(80)).reshape(40, 2)
    write_csv(y, tmp_path / "emb.csv")
    write_labels(labels, tmp_path / "labels.txt")
    out = tmp_path / "cl"
    assert run("eval-cluster", "--embeddings", tmp_path / "emb.csv",
               "--labels", tmp_path / "labels.txt", "--out", out, "--n-runs", 2) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["config"]["k"] == 2
    assert metrics["mean"]["accuracy"] == metrics["mean"]["nmi"] == 1.0


def test_eval_cluster_runs_draw_distinct_restart_streams(separable_embedding, tmp_path,
                                                        monkeypatch):
    # kmeans keys restart t of a run seeded s with stream_key(s, t); keying the
    # runs by stream_key(seed, r) too made run r's restart t run t's restart r,
    # 46 distinct streams of 100; all runs go to one kmeans call
    seeds = []

    def recording_kmeans(y, k, run_seeds):
        seeds.extend(run_seeds)
        return evaluation.kmeans(y, k, run_seeds)

    monkeypatch.setattr(cli, "kmeans", recording_kmeans)
    emb, lab = separable_embedding
    assert run("eval-cluster", "--embeddings", emb, "--labels", lab, "--out", tmp_path / "cl",
               "--n-runs", 10, "--seed", 7) == 0
    assert len(seeds) == 10
    assert len({stream_key(s, t) for s in seeds
                for t in range(evaluation.KMEANS_RESTARTS)}) == 100


def _evaluate(command, y, labels, tmp_path):
    """Run an evaluation command on y and labels, with a ring graph for diagnose."""
    n = labels.size
    write_clsm(y, tmp_path / "emb.clsm")
    write_labels(labels, tmp_path / "labels.txt")
    save_edge_list(SparseSym.from_edges(n, [(i, (i + 1) % n) for i in range(n)]).edge_list(),
                   tmp_path / "edges.txt")
    extra = {"eval-classify": ["--per-class", 5, "--val-size", 10, "--n-splits", 3],
             "eval-cluster": [], "diagnose": ["--edges", tmp_path / "edges.txt"]}[command]
    out = tmp_path / command
    code = run(command, "--embeddings", tmp_path / "emb.clsm", "--labels", tmp_path / "labels.txt",
               "--out", out, *extra)
    return code, out


def test_label_ids_far_above_the_node_count(tmp_path):
    # read_labels takes ids up to 2**63 - 1; classes are counted by np.unique,
    # never by arrays as long as the largest id
    rng = Xoshiro256StarStar(8)
    labels = np.repeat([0, 2**62], 30)
    y = np.where(labels[:, None] == 0, 0.0, 30.0) + np.array(rng.normals(120)).reshape(60, 2)
    results = {c: _evaluate(c, y, labels, tmp_path) for c in EVAL_COMMANDS}
    assert [code for code, _ in results.values()] == [0, 0, 0]
    for command in ("eval-classify", "eval-cluster"):
        metrics = json.loads((results[command][1] / "metrics.json").read_text())
        assert metrics["mean"]["accuracy"] > 0.9
    diag = json.loads((results["diagnose"][1] / "diagnostics.json").read_text())
    assert diag["homophily_neg_expected"] == 0.5


@pytest.mark.parametrize("command", EVAL_COMMANDS)
def test_embeddings_without_columns_rejected(tmp_path, capsys, command):
    code, _ = _evaluate(command, np.zeros((6, 0)), np.repeat([0, 1], 3), tmp_path)
    assert code == 1
    assert "--embeddings" in capsys.readouterr().err


@pytest.mark.parametrize("command", EVAL_COMMANDS)
def test_label_count_must_match_the_embedding_rows(tmp_path, capsys, command):
    code, out = _evaluate(command, np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0]),
                          tmp_path)
    assert_refused(code, capsys.readouterr().err, 1, "--labels: 5 labels for 6 embeddings", out)


@pytest.mark.parametrize("subcommand,dropped", [
    ("embed", "--features"), ("diagnose", "--edges"), ("eval-classify", "--labels"),
    ("eval-cluster", "--out"),
])
def test_missing_required_option_is_named(synth_dir, tmp_path, capsys, subcommand, dropped):
    emb = tmp_path / "emb"
    assert run(*embed_args(synth_dir, emb)) == 0
    paths = {"--out": tmp_path / "o", "--edges": synth_dir / "edges.txt",
             "--features": synth_dir / "features.csv", "--embeddings": emb / "embeddings.clsm",
             "--labels": synth_dir / "labels.txt"}
    flags = {"embed": ("--out", "--edges", "--features"),
             "diagnose": ("--out", "--embeddings", "--edges", "--labels"),
             "eval-classify": ("--out", "--embeddings", "--labels"),
             "eval-cluster": ("--out", "--embeddings", "--labels")}[subcommand]
    argv = [arg for flag in flags if flag != dropped for arg in (flag, paths[flag])]
    capsys.readouterr()
    code = run(subcommand, *argv)
    assert_refused(code, capsys.readouterr().err, 1, f"missing required option: {dropped}",
                   tmp_path / "o")


def test_diagnose_outputs(synth_dir, tmp_path):
    emb_out = tmp_path / "emb"
    assert run(*embed_args(synth_dir, emb_out)) == 0
    out = tmp_path / "diag"
    assert run("diagnose", "--embeddings", emb_out / "embeddings.clsm",
               "--edges", synth_dir / "edges.txt", "--labels", synth_dir / "labels.txt",
               "--out", out, "--seed", 7) == 0
    header, *rows = (out / "densities.csv").read_text().splitlines()
    assert header == "grid,density_pos,density_neg"
    assert len(rows) == 512
    for row in rows:
        values = [float(tok) for tok in row.split(",")]
        assert len(values) == 3 and all(math.isfinite(v) for v in values)
    diag = json.loads((out / "diagnostics.json").read_text())
    for key in ("js", "w1", "homophily_pos", "homophily_neg_expected"):
        assert key in diag
    assert 0.0 <= diag["js"] <= np.log(2.0) + 1e-6
    assert abs(diag["homophily_neg_expected"] - 1.0 / 3.0) < 1e-12


@pytest.mark.parametrize("per_block", [40, 12], ids=["several-blocks", "toy-one-block"])
def test_diagnose_leaves_no_thread_behind(tmp_path, monkeypatch, per_block):
    # the benchmark refuses a run that leaves a thread running; a kernel of
    # one block starts none, however many CPUs there are
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--classes", 3, "--per-block", per_block,
               "--p-in", "0.4", "--p-out", "0.05", "--feat-dim", 6, "--seed", 5) == 0
    assert run(*embed_args(data, tmp_path / "emb")) == 0
    if per_block == 12:  # one block of the kernel for each density
        monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 7)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(CountedThread, "starts", 0)
    before = threading.active_count()
    assert run("diagnose", "--embeddings", tmp_path / "emb" / "embeddings.clsm",
               "--edges", data / "edges.txt", "--labels", data / "labels.txt",
               "--out", tmp_path / "diag", "--seed", 7) == 0
    assert threading.active_count() == before
    several = per_block == 40 and diagnostics._usable_cpus() > 1
    assert (CountedThread.starts > 0) == several


def test_graph_commands_run_no_transpose_check(tmp_path, monkeypatch):
    # every graph synth, embed and diagnose hold is built symmetric by from_edges
    checks = []
    validate = SparseSym._validate

    def counted_validate(s):
        checks.append(s.n)
        validate(s)

    monkeypatch.setattr(SparseSym, "_validate", counted_validate)
    data, emb = tmp_path / "data", tmp_path / "emb"
    assert run("synth", "--out", data, "--classes", 3, "--per-block", 12,
               "--p-in", "0.4", "--feat-dim", 6, "--seed", 5) == 0
    assert run(*embed_args(data, emb)) == 0
    assert run("diagnose", "--embeddings", emb / "embeddings.clsm", "--edges",
               data / "edges.txt", "--labels", data / "labels.txt",
               "--out", tmp_path / "diag") == 0
    assert checks == []


def test_embed_hash_dim_folds_features(synth_dir, tmp_path):
    out = tmp_path / "hashed"
    assert run("embed", "--edges", synth_dir / "edges.txt",
               "--features", synth_dir / "features.csv", "--out", out,
               "--hash-dim", 4, "--dim", 2, "--kappa", 1, "--per-node", 2,
               "--k-steps", 2, "--seed", 1) == 0
    assert read_clsm(out / "embeddings.clsm").shape == (36, 2)


def test_embed_no_self_loops_runs_on_connected_graph(synth_dir, tmp_path):
    out = tmp_path / "nosl"
    code = run("embed", "--edges", synth_dir / "edges.txt",
               "--features", synth_dir / "features.csv", "--out", out,
               "--no-self-loops", "--dim", 2, "--kappa", 0, "--k-steps", 1, "--seed", 1)
    # dense synth graph at p_in=0.4 has no isolated node, so this succeeds
    assert code == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["self_loops"] is False


def test_embed_no_self_loops_rejects_isolated_node(tmp_path, capsys):
    (tmp_path / "e.txt").write_text("0 1\n")
    write_csv(np.zeros((3, 2)) + np.arange(6).reshape(3, 2), tmp_path / "f.csv")
    code = run("embed", "--edges", tmp_path / "e.txt", "--features", tmp_path / "f.csv",
               "--out", tmp_path / "o", "--no-self-loops", "--dim", 1,
               "--kappa", 0, "--k-steps", 1)
    assert code == 1
    assert "zero degree" in capsys.readouterr().err


def test_embed_identity_filter_and_er_mode(synth_dir, tmp_path):
    out = tmp_path / "er"
    assert run("embed", "--edges", synth_dir / "edges.txt",
               "--features", synth_dir / "features.csv", "--out", out,
               "--filter", "identity", "--mode", "erdos-renyi", "--p-prime", "0.2",
               "--dim", 2, "--kappa", 2, "--seed", 6) == 0
    meta = json.loads((out / "embedding_meta.json").read_text())
    assert meta["config"]["mode"] == "erdos-renyi"


def test_an_empty_erdos_renyi_draw_embeds_and_diagnose_names_it(tmp_path, capsys):
    # at p' = 1e-300 every negative graph draws no edge and is the identity
    data, emb, diag = tmp_path / "data", tmp_path / "emb", tmp_path / "diag"
    assert run("synth", "--out", data, "--classes", 2, "--per-block", 10, "--p-in", "0.5",
               "--feat-dim", 4, "--seed", 3) == 0
    er = ("--mode", "erdos-renyi", "--p-prime", "1e-300")
    assert run("embed", "--edges", data / "edges.txt", "--features", data / "features.csv",
               "--out", emb, "--dim", 2, "--kappa", 2, *er) == 0
    capsys.readouterr()
    code = run("diagnose", "--embeddings", emb / "embeddings.clsm", "--edges", data / "edges.txt",
               "--labels", data / "labels.txt", "--out", diag, *er)
    assert_refused(code, capsys.readouterr().err, 1, "the negative graph has no pairs to score",
                   diag)


@pytest.mark.parametrize("extra,named", [
    (("--threads", 4), "--threads"), (("--dim", "abc"), "--dim"),
    (("--filter", "gcn"), "--filter"),
    (("--hash-dim", -3), "--hash-dim -3: n_buckets must be >= 1"),
], ids=["unknown-flag", "bad-value", "bad-choice", "negative-hash-dim"])
def test_embed_bad_command_line_exits_1(synth_dir, tmp_path, capsys, extra, named):
    out = tmp_path / "o"
    assert run(*embed_args(synth_dir, out), *extra) == 1
    err = capsys.readouterr().err
    assert "coles: config error" in err and named in err
    assert "Traceback" not in err
    assert not (out / "embeddings.clsm").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--help"])
    assert exc.value.code == 0
    assert "--eta-prime" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["per-node-k", "erdos-renyi"])
def test_embed_matches_library(synth_dir, tmp_path, mode):
    out = tmp_path / "emb"
    assert run(*embed_args(synth_dir, out), "--mode", mode, "--p-prime", "0.2") == 0
    cfg = ColesConfig(d_prime=3, filter=FilterConfig(kind="s2gc", k_steps=2),
                      negatives=NegSampleConfig(kappa=2, per_node=2, mode=mode,
                                                p_prime=0.2, seed=1))
    x = read_dense(synth_dir / "features.csv")
    res = solve_linear_coles(x, load_edge_list(synth_dir / "edges.txt", n=x.shape[0]), cfg)
    write_clsm(res.Y, tmp_path / "library.clsm")
    assert (out / "embeddings.clsm").read_bytes() == (tmp_path / "library.clsm").read_bytes()
    meta = json.loads((out / "embedding_meta.json").read_text())
    assert meta["eigenvalues"] == res.eigenvalues.tolist()
    assert meta["eigengap"] == res.eigengap


@pytest.mark.parametrize("subcommand", ["diagnose", "eval-cluster", "eval-classify"])
def test_negative_label_is_config_error(separable_embedding, tmp_path, capsys, subcommand):
    emb, lab = separable_embedding
    lab.write_text("-1\n" + lab.read_text().split("\n", 1)[1])
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n")
    extra = ["--edges", edges] if subcommand == "diagnose" else []
    code = run(subcommand, "--embeddings", emb, "--labels", lab, "--out", tmp_path / "o",
               *extra)
    err = capsys.readouterr().err
    assert code == 1
    assert f"{lab}:1: negative label -1" in err
    assert "Traceback" not in err


def test_bad_log_level_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLES_LOG", "verbose")
    assert run("synth", "--out", tmp_path / "o") == 1
    assert "COLES_LOG" in capsys.readouterr().err


def test_synth_empty_graph_is_numerical_failure(tmp_path, capsys):
    code = run("synth", "--out", tmp_path / "o", "--classes", 2, "--per-block", 2,
               "--p-in", "0.0000001", "--p-out", "0.0", "--seed", 1)
    assert code == 2
    assert "no edges" in capsys.readouterr().err


def test_diagnose_accepts_isolated_nodes(tmp_path):
    data, emb, diag = tmp_path / "data", tmp_path / "emb", tmp_path / "diag"
    assert run("synth", "--out", data, "--per-block", 100, "--p-in", "0.02",
               "--p-out", "0.001", "--seed", 7) == 0
    degrees = load_edge_list(data / "edges.txt", n=300).degrees()
    assert np.any(degrees == 0)  # the fixture does have isolated nodes
    assert run("embed", "--edges", data / "edges.txt", "--features", data / "features.csv",
               "--out", emb, "--dim", 4, "--kappa", 2, "--seed", 7) == 0
    assert run("diagnose", "--embeddings", emb / "embeddings.clsm",
               "--edges", data / "edges.txt", "--labels", data / "labels.txt",
               "--out", diag, "--seed", 7) == 0
    homophily = json.loads((diag / "diagnostics.json").read_text())["homophily_pos"]
    assert 0.0 <= homophily <= 1.0


@pytest.mark.parametrize("rows,cols", [(2**62, 8), (2**31, 2**31)])
def test_oversized_clsm_header_is_config_error(tmp_path, capsys, rows, cols):
    # the header declares far more values than the file holds; the reader
    # must refuse before trying to read (and allocate) the declared payload
    emb = tmp_path / "huge.clsm"
    emb.write_bytes(struct.pack("<4sIQQ", b"CLSM", 1, rows, cols) + bytes(64))
    write_labels([0, 1], tmp_path / "labels.txt")
    code = run("eval-cluster", "--embeddings", emb, "--labels", tmp_path / "labels.txt",
               "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 1
    assert "--embeddings" in err and "truncated" in err
    assert "Traceback" not in err


def test_embed_eigensolver_failure_exits_2(synth_dir, tmp_path, monkeypatch, capsys):
    def broken_eigh(*args, **kwargs):
        raise LinAlgError("dsyevd failed")

    monkeypatch.setattr("numpy.linalg.eigh", broken_eigh)  # sym_eig looks it up per call
    out = tmp_path / "emb"
    code = run(*embed_args(synth_dir, out))
    err = capsys.readouterr().err
    assert code == 2
    assert "eigensolver failed" in err
    assert "Traceback" not in err
    assert not (out / "embeddings.clsm").exists()


# -- the exit-code contract: hostile inputs end in one "coles:" line ----------------

def assert_refused(code, err, expected, named, out):
    assert code == expected
    assert err.startswith("coles: ") and named in err
    assert "Traceback" not in err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("extra,scale,named", [
    (("--lr", "nan"), 1.0, "lr"),
    (("--l2", "nan"), 1.0, "l2"),
    ((), 1e200, "weights are not finite"),
], ids=["nan-lr", "nan-l2", "huge-embeddings"])
def test_eval_classify_refuses_a_nan_model(separable_embedding, tmp_path, capsys, extra,
                                           scale, named):
    emb, lab = separable_embedding
    write_csv(scale * read_dense(emb), emb)
    out = tmp_path / "ev"
    code = run("eval-classify", "--embeddings", emb, "--labels", lab, "--out", out,
               "--per-class", 5, "--n-splits", 2, "--val-size", 15, "--epochs", 20, *extra)
    assert_refused(code, capsys.readouterr().err, 1, named, out)
    assert not (out / "metrics.json").exists()


def test_eval_classify_with_no_test_node_says_what_to_lower(separable_embedding, tmp_path,
                                                            capsys):
    # 90 nodes: 3 classes x 5 training nodes and 85 validation nodes leave no test node
    emb, lab = separable_embedding
    out = tmp_path / "ev"
    code = run("eval-classify", "--embeddings", emb, "--labels", lab, "--out", out,
               "--per-class", 5, "--val-size", 85)
    assert_refused(code, capsys.readouterr().err, 1,
                   "test set is empty; lower --val-size or --per-class", out)


@pytest.mark.parametrize("below", [False, True], ids=["out-is-file", "out-below-file"])
def test_out_blocked_by_file_is_file_error(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("x\n")
    out = blocker / "sub" if below else blocker
    code = run("synth", "--out", out, "--per-block", 4, "--feat-dim", 3)
    err = capsys.readouterr().err
    assert_refused(code, err, 1, str(out), tmp_path)
    assert "coles: file error" in err
    assert blocker.read_text() == "x\n"


@pytest.mark.parametrize("content", [b'{"classes": 3, "seed": "\xff"}', b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
def test_unreadable_config_file_names_it(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    out = tmp_path / "o"
    code = run("synth", "--config", cfg, "--out", out)
    assert_refused(code, capsys.readouterr().err, 1, str(cfg), out)
    assert not out.exists()


@pytest.fixture()
def diagnose_args(synth_dir, tmp_path):
    emb = tmp_path / "emb"
    assert run(*embed_args(synth_dir, emb)) == 0
    return ["diagnose", "--embeddings", emb / "embeddings.clsm",
            "--edges", synth_dir / "edges.txt", "--labels", synth_dir / "labels.txt",
            "--seed", 7]


@pytest.mark.parametrize("extra,expected,named", [
    # numpy refuses the 8 TiB grid when it is requested; nothing is allocated
    (("--grid-points", 2**40), 1, "grid_points"),
    (("--bandwidth", "inf"), 1, "bandwidth"),
    (("--bandwidth", "-1"), 1, "bandwidth"),
    (("--bandwidth", "1e-320"), 2, "non-finite"),
    (("--grid-points", 1), 1, "grid_points must be >= 2, got 1"),
    (("--grid-points", -3), 1, "grid_points must be >= 2, got -3"),
    (("--tau", "0"), 1, "tau must be finite and > 0, got 0.0"),  # every score would be 0
], ids=["oversized-grid", "infinite-bandwidth", "negative-bandwidth", "subnormal-bandwidth",
        "one-grid-point", "negative-grid-points", "zero-tau"])
def test_diagnose_refuses_unusable_densities(diagnose_args, tmp_path, capsys, extra,
                                             expected, named):
    out = tmp_path / "diag"
    code = run(*diagnose_args, "--out", out, *extra)
    assert_refused(code, capsys.readouterr().err, expected, named, out)
    assert not (out / "densities.csv").exists()
    assert not (out / "diagnostics.json").exists()


@pytest.mark.parametrize("extra,expected,named", [
    ((), 1, "filtered features overflow"),
    (("--filter", "sgc"), 1, "filtered features overflow"),
    (("--hash-dim", 1), 1, "hashed features overflow"),
    (("--filter", "identity"), 2, "eigensolver failed"),  # the d x d form overflows
], ids=["s2gc", "sgc", "hash-dim", "identity"])
def test_embed_overflowing_features_print_no_warning(synth_dir, tmp_path, capsys, extra,
                                                     expected, named):
    # every column signed as hash_features folds it, so no bucket sum cancels
    signs = coles_solver.hash_features(np.eye(6), 1, seed=1)[:, 0]
    features = tmp_path / "huge.csv"
    write_csv(np.tile(1.7e308 * signs, (36, 1)), features)
    out = tmp_path / "emb"
    args = embed_args(synth_dir, out, k_steps=8)
    args[args.index("--features") + 1] = features
    code = run(*args, *extra)
    err = capsys.readouterr().err
    assert_refused(code, err, expected, named, out)
    assert "Warning" not in err and err.count("\n") == 1
    assert not (out / "embeddings.clsm").exists()


@pytest.mark.parametrize("epochs", [0, -3])
def test_eval_classify_refuses_fewer_than_one_epoch(separable_embedding, tmp_path, capsys,
                                                    epochs):
    emb, lab = separable_embedding
    out = tmp_path / "ev"
    code = run("eval-classify", "--embeddings", emb, "--labels", lab, "--out", out,
               "--per-class", 5, "--n-splits", 2, "--val-size", 15, "--epochs", epochs)
    assert_refused(code, capsys.readouterr().err, 1, "epochs", out)
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("extra", [("--noise-sigma", "1e308"),
                                   ("--mean-sep", "1.7e308", "--noise-sigma", "1e308")],
                         ids=["noise-sigma", "mean-sep"])
def test_synth_overflowing_features_print_no_warning(tmp_path, capsys, extra):
    out = tmp_path / "data"
    code = run("synth", "--out", out, "--classes", 3, "--per-block", 4, "--feat-dim", 4, *extra)
    err = capsys.readouterr().err
    assert_refused(code, err, 1, "features overflow float64: lower noise_sigma or mean_sep", out)
    assert "Warning" not in err and err.count("\n") == 1
    assert not (out / "features.csv").exists()


@pytest.mark.parametrize("extra,named", [
    (("--noise-sigma", "nan"), "noise_sigma must be finite and >= 0, got nan"),
    (("--mean-sep", "nan"), "mean_sep must be finite, got nan"),
    (("--mean-sep", "inf"), "mean_sep must be finite, got inf"),
], ids=["nan-noise-sigma", "nan-mean-sep", "inf-mean-sep"])
def test_synth_refuses_non_finite_feature_settings(tmp_path, capsys, extra, named):
    out = tmp_path / "data"
    code = run("synth", "--out", out, "--classes", 3, "--per-block", 4, "--feat-dim", 4, *extra)
    err = capsys.readouterr().err
    assert_refused(code, err, 1, named, out)
    assert err.count("\n") == 1 and not (out / "features.csv").exists()


TWO_POW_63 = 2**63


@pytest.mark.parametrize("subcommand,flag,value,named", [
    ("synth", "--per-block", TWO_POW_63, "--per-block must lie in [-2**63, 2**63)"),
    ("embed", "--hash-dim", TWO_POW_63, "--hash-dim must lie in [-2**63, 2**63)"),
    # the n x hash_dim output: numpy's size limit, and more than the host holds
    ("embed", "--hash-dim", 2**62,
     "config error: --hash-dim 4611686018427387904: array is too big"),
    ("embed", "--hash-dim", 2**40, "out of memory: --hash-dim 1099511627776: Unable to allocate"),
    ("diagnose", "--grid-points", TWO_POW_63, "--grid-points must lie in [-2**63, 2**63)"),
    ("diagnose", "--grid-points", TWO_POW_63 - 1, "more values than a float64 array can hold"),
    ("eval-cluster", "--n-runs", 2**62, "config error: --n-runs 4611686018427387904 is too large"),
    ("eval-classify", "--n-splits", 2**62, "config error: --n-splits 4611686018427387904 is too large"),
], ids=["synth-per-block", "embed-hash-dim", "embed-hash-dim-too-big", "embed-hash-dim-no-memory",
        "diagnose-grid-points",
        "diagnose-grid-points-below-2**63", "eval-cluster-n-runs", "eval-classify-n-splits"])
def test_huge_integer_settings_are_refused_in_one_line(synth_dir, tmp_path, capsys, subcommand,
                                                       flag, value, named):
    # each value is refused before anything of that size is allocated or started
    emb = tmp_path / "emb"
    assert run(*embed_args(synth_dir, emb)) == 0
    inputs = {"synth": (),
              "embed": ("--edges", synth_dir / "edges.txt",
                        "--features", synth_dir / "features.csv"),
              "diagnose": ("--edges", synth_dir / "edges.txt",
                           "--embeddings", emb / "embeddings.clsm",
                           "--labels", synth_dir / "labels.txt"),
              "eval-cluster": ("--embeddings", emb / "embeddings.clsm",
                               "--labels", synth_dir / "labels.txt"),
              "eval-classify": ("--embeddings", emb / "embeddings.clsm",
                                "--labels", synth_dir / "labels.txt",
                                "--per-class", 5, "--val-size", 6)}[subcommand]
    out = tmp_path / "out"
    capsys.readouterr()
    code = run(subcommand, "--out", out, *inputs, flag, value)
    err = capsys.readouterr().err
    assert_refused(code, err, 1, named, out)
    assert err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())  # nothing written


@pytest.mark.parametrize("subcommand,flag,target,extra", [
    ("eval-classify", "--n-splits", "logreg_fit", ("--per-class", 5, "--val-size", 6)),
    ("eval-cluster", "--n-runs", "kmeans", ()),
])
def test_out_of_memory_after_the_count_check_names_the_count(
        separable_embedding, tmp_path, capsys, monkeypatch, subcommand, flag, target, extra):
    # the (count, 4) stream states fit, a later array scaled by the count does not
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.01 GiB for an array")

    monkeypatch.setattr(cli, target, exhausted)
    emb, lab = separable_embedding
    out = tmp_path / "out"
    code = run(subcommand, "--embeddings", emb, "--labels", lab, "--out", out, *extra, flag, 3)
    err = capsys.readouterr().err
    assert_refused(code, err, 1, f"coles: out of memory: {flag} 3: Unable to allocate", out)
    assert err.count("\n") == 1 and not (out / "metrics.json").exists()


# -- every float setting, walked from build_parser's own declarations --------------

def strict_json(path):
    """path parsed as RFC 8259 JSON: NaN, Infinity and -Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{path.name} holds the non-JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def subcommand_inputs(subcommand, synth_dir, emb):
    """The input flags and small sizes that let subcommand run on the synth fixture."""
    return {"synth": ["--classes", 3, "--per-block", 4, "--feat-dim", 4],
            "embed": ["--edges", synth_dir / "edges.txt", "--features", synth_dir / "features.csv",
                      "--dim", 3, "--kappa", 2, "--per-node", 2, "--k-steps", 2],
            "eval-classify": ["--embeddings", emb / "embeddings.clsm",
                              "--labels", synth_dir / "labels.txt", "--per-class", 5,
                              "--n-splits", 2, "--val-size", 6, "--epochs", 20],
            "eval-cluster": ["--embeddings", emb / "embeddings.clsm",
                             "--labels", synth_dir / "labels.txt", "--n-runs", 2],
            "diagnose": ["--embeddings", emb / "embeddings.clsm",
                         "--edges", synth_dir / "edges.txt",
                         "--labels", synth_dir / "labels.txt", "--grid-points", 64],
            }[subcommand]


@pytest.mark.parametrize("subcommand",
                         ["synth", "embed", "eval-classify", "eval-cluster", "diagnose"])
def test_every_float_setting_takes_any_literal_and_refuses_non_finite(
        synth_dir, tmp_path, capsys, subcommand):
    emb = tmp_path / "emb"
    assert run(*embed_args(synth_dir, emb)) == 0
    inputs = subcommand_inputs(subcommand, synth_dir, emb)
    parser = build_parser()
    for action in parser.subcommands[subcommand]._actions:
        if action.type is not float:
            continue
        flag = action.option_strings[0]
        # a negative literal is the flag's value whether or not "=" joins them
        assert (vars(parser.parse_args([subcommand, flag, "-1e5"]))
                == vars(parser.parse_args([subcommand, f"{flag}=-1e5"])))
        for value in ("nan", "inf", "-inf"):
            out = tmp_path / f"{action.dest}_{value}"
            capsys.readouterr()
            code = run(subcommand, *inputs, "--out", out, flag, value)
            err = capsys.readouterr().err
            assert code == 1, (flag, value, err)
            assert err.startswith("coles: ") and err.count("\n") == 1, (flag, value, err)
            assert flag in err or action.dest in err, (flag, value, err)
            assert "Traceback" not in err
            assert not (out / "config.json").exists()
    out = tmp_path / "ok"
    assert run(subcommand, *inputs, "--out", out) == 0
    written = sorted(out.glob("*.json"))
    assert out / "config.json" in written
    for path in written:
        strict_json(path)


@pytest.mark.parametrize("dim", [6, 9])
def test_dim_at_feature_width_writes_null_eigengap(synth_dir, tmp_path, dim):
    # the fixture has 6 feature columns: with d' = d no eigenvalue follows the top d'
    out = tmp_path / "emb"
    assert run(*embed_args(synth_dir, out, dim=dim)) == 0
    meta = strict_json(out / "embedding_meta.json")
    assert meta["eigengap"] is None and len(meta["eigenvalues"]) == 6


@pytest.mark.parametrize("subcommand",
                         ["synth", "embed", "eval-classify", "eval-cluster", "diagnose"])
def test_every_int_setting_refuses_values_outside_int64(subcommand):
    # refused while parsing, so no test can start the work such a count asks for;
    # main maps the ConfigError to exit 1
    parser = build_parser()
    for action in parser.subcommands[subcommand]._actions:
        if action.type is not int or action.dest == "seed":
            continue
        flag = action.option_strings[0]
        for value in (2**63, -2**63 - 1):
            with pytest.raises(ConfigError, match=flag):
                _parse_args([subcommand, f"{flag}={value}"])


def _params(fn, *names):
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in names}


def test_every_default_is_the_library_default_it_feeds():
    # only the subcommand is given, so every setting resolves to its default;
    # eval-cluster's settings feed no library default
    synth, embed, classify, diagnose = (vars(_parse_args([sub])) for sub in
                                        ("synth", "embed", "eval-classify", "diagnose"))
    assert SbmSpec(n_classes=synth["classes"], per_block=synth["per_block"],
                   p_in=synth["p_in"], p_out=synth["p_out"], feature_dim=synth["feat_dim"],
                   mean_sep=synth["mean_sep"], noise_sigma=synth["noise_sigma"],
                   seed=synth["seed"]) == SbmSpec()
    # d_prime is min(--dim, d): a wide d leaves --dim as it is
    assert _coles_config(embed, 10**6) == ColesConfig()
    assert SplitSpec(per_class=classify["per_class"], val_size=classify["val_size"],
                     seed=classify["seed"]) == SplitSpec()
    assert {key: classify[key] for key in ("lr", "l2", "epochs")} == _params(
        logreg_fit, "lr", "l2", "epochs")
    sampling = ("per_node", "mode", "p_prime", "seed")
    neg = NegSampleConfig()
    assert {key: diagnose[key] for key in sampling} == {key: getattr(neg, key) for key in sampling}
    assert {key: embed[key] for key in sampling} == {key: diagnose[key] for key in sampling}
    assert diagnose["grid_points"] == _params(score_densities, "grid_points")["grid_points"]
    assert {key: diagnose[key] for key in ("tau", "normalize")} == _params(
        pair_scores, "tau", "normalize")
