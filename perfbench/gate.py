"""Correctness checks on the files the coles CLI wrote, and the eigenvalue oracle.

Each check returns a list of problems; an empty list means the output
passed. Output files are parsed here, not with coles.io, so a reader bug in
the program cannot hide a writer bug. The oracle rebuilds the quadratic form
through the public library functions and compares its spectrum with
numpy.linalg.eigvalsh.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

CLSM_HEADER = struct.Struct("<4sIQQ")
REL_TOL = 1e-9       # objective vs the sum of the eigenvalues
ORACLE_TOL = 1e-9    # eigenvalues vs eigvalsh, relative to max |lambda|
MATCH_TOL = 1e-12    # micro-F1 vs accuracy; score() asserts the same bound


def _load_json(path: str, problems: list):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: unreadable ({exc})")
        return None


def read_clsm(path: str) -> np.ndarray:
    """Strict CLSM reader; raises ValueError on any layout defect."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < CLSM_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, rows, cols = CLSM_HEADER.unpack_from(blob)
    if magic != b"CLSM" or version != 1:
        raise ValueError(f"{path}: bad magic or version")
    if len(blob) != CLSM_HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path}: {len(blob)} bytes, header says {rows}x{cols}")
    return np.frombuffer(blob, dtype="<f8", offset=CLSM_HEADER.size).reshape(rows, cols)


def check_embed(out: str, n: int, dim: int) -> list:
    problems: list = []
    try:
        y = read_clsm(os.path.join(out, "embeddings.clsm"))
        if y.shape != (n, dim):
            problems.append(f"embeddings are {y.shape[0]}x{y.shape[1]}, expected {n}x{dim}")
        if not np.all(np.isfinite(y)):
            problems.append("embeddings contain non-finite values")
    except (OSError, ValueError) as exc:
        problems.append(str(exc))
    meta = _load_json(os.path.join(out, "embedding_meta.json"), problems)
    if meta is None:
        return problems
    lam = np.asarray(meta.get("eigenvalues", []), dtype=np.float64)
    objective = meta.get("objective")
    if lam.shape != (dim,) or not np.all(np.isfinite(lam)):
        problems.append(f"expected {dim} finite eigenvalues, got {lam.tolist()}")
    elif np.any(np.diff(lam) > 0):
        problems.append("eigenvalues are not descending")
    if not isinstance(objective, (int, float)) or not math.isfinite(objective):
        problems.append(f"objective is not a finite number: {objective!r}")
    elif lam.size and abs(objective - lam.sum()) > REL_TOL * max(abs(objective), 1e-300):
        problems.append(f"objective {objective!r} != sum of eigenvalues {lam.sum()!r}")
    return problems


def _check_scores(records, label: str, problems: list) -> None:
    for rec in records:
        for key in ("accuracy", "macro_f1", "micro_f1", "nmi"):
            value = rec.get(key)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                problems.append(f"{label}: {key}={value!r} outside [0, 1]")
        micro, acc = rec.get("micro_f1"), rec.get("accuracy")
        if isinstance(micro, float) and isinstance(acc, float) and abs(micro - acc) > MATCH_TOL:
            problems.append(f"{label}: micro_f1 {micro!r} != accuracy {acc!r}")


def check_eval(out: str, per_key: str, count: int) -> list:
    """eval-classify (per_key "per_split") or eval-cluster ("per_run") output."""
    problems: list = []
    m = _load_json(os.path.join(out, "metrics.json"), problems)
    if m is None:
        return problems
    records = m.get(per_key, [])
    if len(records) != count:
        problems.append(f"{per_key}: {len(records)} records, expected {count}")
    _check_scores(records, per_key, problems)
    _check_scores([m.get("mean", {})], "mean", problems)
    return problems


def check_diagnose(out: str, grid_points: int) -> list:
    problems: list = []
    d = _load_json(os.path.join(out, "diagnostics.json"), problems)
    if d is not None:
        js, w1 = d.get("js"), d.get("w1")
        if not isinstance(js, float) or not 0.0 <= js <= math.log(2.0) + 1e-6:
            problems.append(f"js={js!r} outside [0, log 2]")
        if not isinstance(w1, float) or not (math.isfinite(w1) and w1 >= 0.0):
            problems.append(f"w1={w1!r} is not a finite non-negative number")
        for key in ("homophily_pos", "homophily_neg_expected"):
            value = d.get(key)
            if not isinstance(value, float) or not 0.0 <= value <= 1.0:
                problems.append(f"{key}={value!r} outside [0, 1]")
    try:
        with open(os.path.join(out, "densities.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[:1] != ["grid,density_pos,density_neg"] or len(lines) != grid_points + 1:
            problems.append(f"densities.csv: expected a header and {grid_points} rows")
        elif any(line.count(",") != 2 for line in lines[1:]):
            problems.append("densities.csv: a row does not have 3 fields")
    except OSError as exc:
        problems.append(f"densities.csv unreadable ({exc})")
    return problems


def density_values_parse(out: str) -> bool:
    """Whether every densities.csv field parses as a plain float.

    Reported beside the gate, not in it: at the time this benchmark was
    written `diagnose` formats numpy scalars with repr(), which writes
    `np.float64(...)` under numpy 2.
    """
    try:
        np.loadtxt(os.path.join(out, "densities.csv"), delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return False
    return True


def same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def oracle(fixture: str, embed_out: str, flags: dict) -> list:
    """Rebuild M = (FX)^T delta_w (FX) from the library and check the eigenvalues.

    The configuration is the one `embed` echoed; every flag the benchmark
    passed must appear in it unchanged.
    """
    from coles import (apply_filter, build_delta_w, build_quadratic_form, hash_features, io,
                       load_edge_list, normalized_adjacency, sample_negative_graph)
    from coles.negative_sampling import NegSampleConfig
    from coles.spectral_filters import FilterConfig

    problems: list = []
    meta = _load_json(os.path.join(embed_out, "embedding_meta.json"), problems)
    if meta is None:
        return problems
    cfg = meta["config"]
    for key, value in flags.items():
        if cfg.get(key) != value:
            problems.append(f"embed echoed {key}={cfg.get(key)!r}, was passed {value!r}")
    x = io.read_dense(os.path.join(fixture, "features.csv"))
    if cfg["hash_dim"]:
        x = hash_features(x, cfg["hash_dim"], seed=cfg["seed"])
    adjacency = load_edge_list(os.path.join(fixture, "edges.txt"), n=x.shape[0])
    w_pos = normalized_adjacency(adjacency, self_loops=cfg["self_loops"])
    neg_cfg = NegSampleConfig(kappa=cfg["kappa"], per_node=cfg["per_node"], mode=cfg["mode"],
                              p_prime=cfg["p_prime"], eta_prime=cfg["eta_prime"],
                              seed=cfg["seed"])
    negs = [sample_negative_graph(adjacency.n, neg_cfg, k) for k in range(cfg["kappa"])]
    delta_w = build_delta_w(w_pos, negs, cfg["eta_prime"])
    filt = FilterConfig(kind=cfg["filter"], k_steps=cfg["k_steps"], alpha=cfg["alpha"])
    m = build_quadratic_form(apply_filter(w_pos, x, filt), delta_w)
    spectrum = np.linalg.eigvalsh(m)[::-1]
    got = np.asarray(meta.get("eigenvalues", []), dtype=np.float64)
    want = spectrum[:got.size]
    gap = float(np.max(np.abs(got - want))) if got.size else math.inf
    if not gap <= ORACLE_TOL * float(np.max(np.abs(spectrum))):
        problems.append(f"eigenvalues differ from eigvalsh by {gap:.3g} "
                        f"(max |lambda| {np.max(np.abs(spectrum)):.3g})")
    return problems
