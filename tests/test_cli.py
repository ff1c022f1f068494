import json
import math
import struct

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from coles import coles_solver
from coles.cli import main
from coles.coles_solver import ColesConfig, solve_linear_coles
from coles.graph_core import SparseSym, load_edge_list
from coles.io import read_clsm, read_dense, write_clsm, write_csv, write_labels
from coles.negative_sampling import NegSampleConfig
from coles.spectral_filters import FilterConfig
from coles.rng import Xoshiro256StarStar


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
    assert "psd_margin" in meta and "wall_clock_sec" in meta
    assert len(meta["eigenvalues"]) == 3


def test_embed_missing_features_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = run("embed", "--edges", tmp_path / "e.txt", "--features", missing,
               "--out", tmp_path / "o")
    assert code == 1
    assert str(missing) in capsys.readouterr().err


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
], ids=["str-for-int", "float-for-int", "bool-for-int", "str-for-on-off", "bad-choice",
        "null-value"])
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


@pytest.mark.parametrize("extra,named", [
    (("--threads", 4), "--threads"), (("--dim", "abc"), "--dim"),
    (("--filter", "gcn"), "--filter"), (("--hash-dim", -1), "n_buckets"),
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
    assert meta["psd_margin"] == {"value": res.psd_margin.value,
                                  "converged": res.psd_margin.converged}


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
        raise LinAlgError("dsyevr failed")

    monkeypatch.setattr(coles_solver, "eigh", broken_eigh)
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
], ids=["oversized-grid", "infinite-bandwidth", "negative-bandwidth", "subnormal-bandwidth"])
def test_diagnose_refuses_unusable_densities(diagnose_args, tmp_path, capsys, extra,
                                             expected, named):
    out = tmp_path / "diag"
    code = run(*diagnose_args, "--out", out, *extra)
    assert_refused(code, capsys.readouterr().err, expected, named, out)
    assert not (out / "densities.csv").exists()
    assert not (out / "diagnostics.json").exists()
