"""Command-line pipeline: synth -> embed -> eval-classify / eval-cluster / diagnose.

Every setting is declared once, in build_parser, which reads each default that
a library config declares from that config. argparse resolves the
configuration (defaults < --config JSON file < explicit flags), checking
config-file values exactly as it checks flags. Each subcommand is straight-line
code that returns its resolved configuration; main alone maps exceptions to
exit codes (0 success, 1 configuration, input, file or memory errors, 2
numerical failure) and echoes the resolved values to <out>/config.json only
on success. COLES_LOG={error|info|debug} controls verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np
from numpy.linalg import LinAlgError

from . import io
from .coles_solver import ColesConfig, hash_features, solve_linear_coles
from .diagnostics import (expected_negative_homophily, homophily, js_from_densities,
                          pair_scores, score_densities, wasserstein1)
from .evaluation import Metrics, SplitSpec, kmeans, logreg_fit, logreg_predict, random_splits, score
from .graph_core import load_edge_list
from .negative_sampling import MODES, NegSampleConfig, sample_negative_graph
from .rng import draw_u64s, streams
from .spectral_filters import KINDS, FilterConfig
from .synthetic import SbmSpec, generate_sbm

log = logging.getLogger("coles")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


def _setup_logging() -> None:
    level = os.environ.get("COLES_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"COLES_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="[coles] %(message)s", stream=sys.stderr)


def _require_file(path, key: str) -> str:
    if path is None:
        raise ConfigError(f"missing required option: {key}")
    if not os.path.isfile(path):  # open() on a FIFO would block
        reason = "not a regular file" if os.path.exists(path) else "file not found"
        raise ConfigError(f"{key}: {reason}: {path}")
    return path


def _read_input(reader, path, key: str, **kwargs):
    """reader(path, **kwargs) for a required input file; any failure names the flag."""
    try:
        return reader(_require_file(path, key), **kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _read_matrix(path, key: str) -> np.ndarray:
    """io.read_dense of a required input file, refused if it has no columns."""
    x = _read_input(io.read_dense, path, key)
    if x.shape[1] == 0:
        raise ConfigError(f"{key}: {path} has no columns")
    return x


def _load_config_file(path) -> dict:
    _require_file(path, "--config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (RecursionError, ValueError) as exc:  # not UTF-8, malformed or nested too deep
        raise ConfigError(f"--config {path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"--config {path}: expected a JSON object")
    return cfg


def _config_flags(cfg: dict, subcommand: str, subparser: argparse.ArgumentParser) -> list:
    """The flags that set what a --config object holds, for argparse to check."""
    found = cfg.pop("subcommand", None)
    if found is not None and found != subcommand:
        raise ConfigError(f"config file was echoed by {found!r}, not {subcommand!r}")
    settings = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    flags = []
    for key, value in cfg.items():
        action = settings.get(key)
        if action is None:
            raise ConfigError(f"unknown config key: {key!r}")
        if action.nargs == 0:  # an on/off setting
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
            if value == action.const:
                flags.append(action.option_strings[0])
        elif value is None or isinstance(value, (list, dict)):
            raise ConfigError(f"config key {key!r} needs a number or a string, got {value!r}")
        else:
            flags.append(f"{action.option_strings[0]}={value}")
    return flags


def _parse_args(argv) -> argparse.Namespace:
    """defaults < --config file < explicit flags, every value checked by argparse."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        flags = _config_flags(_load_config_file(args.config), args.subcommand,
                              parser.subcommands[args.subcommand])
        try:
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        except ConfigError as exc:
            raise ConfigError(f"--config {args.config}: {exc}") from None
    # sizes and counts reach numpy as int64; the seed is taken modulo 2**64
    for action in parser.subcommands[args.subcommand]._actions:
        value = getattr(args, action.dest, None)
        if action.type is int and action.dest != "seed" and not -2**63 <= value < 2**63:
            raise ConfigError(f"{action.option_strings[0]} must lie in [-2**63, 2**63), "
                              f"got {value}")
    return args


def _write_json(obj: dict, path: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)  # no half-written file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# -- synth --------------------------------------------------------------------

def cmd_synth(cfg: dict) -> dict:
    graph = generate_sbm(SbmSpec(n_classes=cfg["classes"], per_block=cfg["per_block"],
                                 p_in=cfg["p_in"], p_out=cfg["p_out"],
                                 feature_dim=cfg["feat_dim"], mean_sep=cfg["mean_sep"],
                                 noise_sigma=cfg["noise_sigma"], seed=cfg["seed"]))
    if graph.adjacency.nnz == 0:
        raise NumericalError("generated graph has no edges; raise p_in/p_out")
    io.write_fixture(graph, cfg["out"])
    log.info("wrote %s nodes / %s edges under %s", graph.adjacency.n,
             graph.adjacency.nnz // 2, cfg["out"])
    return cfg


# -- embed ---------------------------------------------------------------------

def _coles_config(cfg: dict, d: int) -> ColesConfig:
    return ColesConfig(
        d_prime=min(cfg["dim"], d),
        filter=FilterConfig(kind=cfg["filter"], k_steps=cfg["k_steps"], alpha=cfg["alpha"]),
        negatives=NegSampleConfig(kappa=cfg["kappa"], per_node=cfg["per_node"],
                                  mode=cfg["mode"], p_prime=cfg["p_prime"],
                                  eta_prime=cfg["eta_prime"], seed=cfg["seed"]),
        self_loops=cfg["self_loops"],
    )


def cmd_embed(cfg: dict) -> dict:
    out = cfg["out"]
    t0 = time.perf_counter()
    features = _read_matrix(cfg["features"], "--features")
    if cfg["hash_dim"]:
        try:
            features = hash_features(features, cfg["hash_dim"], seed=cfg["seed"])
        except ValueError as exc:  # also numpy's size limit on the n x hash_dim output
            raise ConfigError(f"--hash-dim {cfg['hash_dim']}: {exc}") from None
        except MemoryError as exc:
            raise MemoryError(f"--hash-dim {cfg['hash_dim']}: {exc}") from None
    adjacency = _read_input(load_edge_list, cfg["edges"], "--edges", n=features.shape[0])
    result = solve_linear_coles(features, adjacency, _coles_config(cfg, features.shape[1]))

    io.write_clsm(result.Y, os.path.join(out, "embeddings.clsm"))
    if cfg["write_csv"]:
        io.write_csv(result.Y, os.path.join(out, "embeddings.csv"))
    resolved = {**cfg, "dim": int(result.Y.shape[1])}
    sidecar = {
        "config": resolved,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "eigengap": result.eigengap,
        "objective": result.objective,
        "rank_warning": result.rank_warning,
        "wall_clock_sec": time.perf_counter() - t0,
    }
    _write_json(sidecar, os.path.join(out, "embedding_meta.json"))
    log.info("embedded %d nodes into %d dims, objective %.6g",
             result.Y.shape[0], result.Y.shape[1], result.objective)
    return resolved


# -- eval ------------------------------------------------------------------------

def _write_metrics(cfg: dict, unit: str, scores: list[Metrics]) -> tuple[dict, dict]:
    """metrics.json: the config, one record per <unit> and their mean and std."""
    records = [{unit: i, **dataclasses.asdict(m)} for i, m in enumerate(scores)]
    columns = {k: [r[k] for r in records] for k in records[0] if k != unit}
    mean = {k: float(np.mean(v)) for k, v in columns.items()}
    std = {k: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0 for k, v in columns.items()}
    _write_json({"config": cfg, f"n_{unit}s": len(records), f"per_{unit}": records,
                 "mean": mean, "std": std}, os.path.join(cfg["out"], "metrics.json"))
    return mean, std


def _read_labeled_embeddings(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    y = _read_matrix(cfg["embeddings"], "--embeddings")
    labels = _read_input(io.read_labels, cfg["labels"], "--labels")
    if labels.shape[0] != y.shape[0]:
        raise ConfigError(f"--labels: {labels.shape[0]} labels for {y.shape[0]} embeddings")
    return y, labels


@contextlib.contextmanager
def _stream_count(cfg: dict, key: str):
    """Check cfg[key], the number of runs or splits (at least 1, its (count, 4)
    uint64 stream states allocatable), then run the work it scales, naming its flag
    in a MemoryError."""
    flag = f"--{key.replace('_', '-')} {cfg[key]}"
    if cfg[key] < 1:
        raise ConfigError(f"{key} must be >= 1")
    try:
        np.empty((cfg[key], 4), dtype=np.uint64)
    except (ValueError, MemoryError):  # numpy's size limit, or the host's
        raise ConfigError(f"{flag} is too large to allocate") from None
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"{flag}: {exc}") from None


def cmd_eval_classify(cfg: dict) -> dict:
    y, labels = _read_labeled_embeddings(cfg)
    with _stream_count(cfg, "n_splits"):
        spec = SplitSpec(per_class=cfg["per_class"], val_size=cfg["val_size"], seed=cfg["seed"])
        train, _val, test = random_splits(labels, spec, cfg["n_splits"])
        if test.shape[1] == 0:
            raise ConfigError("test set is empty; lower --val-size or --per-class")
        labels = np.unique(labels, return_inverse=True)[1]  # classes 0..C-1, whatever the ids
        weights = logreg_fit(y[train], labels[train], l2=cfg["l2"], lr=cfg["lr"],
                             epochs=cfg["epochs"])
        scores = [score(pred, truth, mode="classification")
                  for pred, truth in zip(logreg_predict(weights, y[test]), labels[test])]
        mean, std = _write_metrics(cfg, "split", scores)
    log.info("classification over %d splits: acc %.4f +- %.4f",
             cfg["n_splits"], mean["accuracy"], std["accuracy"])
    return cfg


def cmd_eval_cluster(cfg: dict) -> dict:
    y, labels = _read_labeled_embeddings(cfg)
    k = cfg["k"] or int(np.unique(labels).size)
    resolved = {**cfg, "k": k}
    with _stream_count(cfg, "n_runs"):
        # a draw of substream r, not its key: kmeans XORs restart t into its seed too
        seeds = draw_u64s(streams(cfg["seed"], np.arange(cfg["n_runs"])), 1)[:, 0].tolist()
        scores = [score(assign, labels, mode="clustering") for assign in kmeans(y, k, seeds)]
        mean, _ = _write_metrics(resolved, "run", scores)
    log.info("clustering over %d runs: acc %.4f, nmi %.4f",
             cfg["n_runs"], mean["accuracy"], mean["nmi"])
    return resolved


# -- diagnose --------------------------------------------------------------------

def cmd_diagnose(cfg: dict) -> dict:
    y, labels = _read_labeled_embeddings(cfg)
    adjacency = _read_input(load_edge_list, cfg["edges"], "--edges", n=y.shape[0])
    neg_cfg = NegSampleConfig(per_node=cfg["per_node"], mode=cfg["mode"],
                              p_prime=cfg["p_prime"], seed=cfg["seed"])
    negative = sample_negative_graph(y.shape[0], neg_cfg, 0)
    if negative.nnz == negative.n:  # self-loops only: an Erdos-Renyi draw with no edge
        raise ConfigError(f"the negative graph has no pairs to score (--p-prime {cfg['p_prime']})")
    pos_scores = pair_scores(y, adjacency, normalize=cfg["normalize"], tau=cfg["tau"])
    neg_scores = pair_scores(y, negative, normalize=cfg["normalize"], tau=cfg["tau"])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        dens = score_densities(pos_scores, neg_scores, cfg["bandwidth"] or None,
                               cfg["grid_points"])
        js = js_from_densities(dens.p, dens.q, dens.grid)
        w1 = wasserstein1(pos_scores, neg_scores)
    if not all(np.isfinite(v).all() for v in (js, w1, *dens)):
        raise NumericalError(f"non-finite score densities (js {js}, w1 {w1}); "
                             "the bandwidth or the scores are out of range")
    h_graph = homophily(adjacency, labels)
    class_sizes = np.unique(labels, return_counts=True)[1]
    h_neg_expected = expected_negative_homophily(class_sizes / labels.size)

    io.write_csv(np.column_stack(dens), os.path.join(cfg["out"], "densities.csv"),
                 header="grid,density_pos,density_neg")
    _write_json({"config": cfg, "js": js, "w1": w1,
                 "homophily_pos": h_graph, "homophily_neg_expected": h_neg_expected},
                os.path.join(cfg["out"], "diagnostics.json"))
    log.info("diagnose: js %.4f (log2=%.4f), w1 %.4f", js, np.log(2.0), w1)
    return cfg


# -- parser ------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError (exit 1), not SystemExit(2)."""

    def error(self, message):
        raise ConfigError(message)

    def _parse_optional(self, arg_string):
        """A float literal such as -1e5 or -inf is a value, never an option."""
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_sampling(p: argparse.ArgumentParser, neg: NegSampleConfig) -> None:
    """The negative-graph flags that embed and diagnose share."""
    p.add_argument("--per-node", dest="per_node", type=int, default=neg.per_node)
    p.add_argument("--mode", choices=MODES, default=neg.mode)
    p.add_argument("--p-prime", dest="p_prime", type=float, default=neg.p_prime)


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every setting: its flag, type, default and choices."""
    sbm, coles, split = SbmSpec(), ColesConfig(), SplitSpec()
    filt, neg = coles.filter, coles.negatives
    parser = _Parser(
        prog="coles",
        description="Contrastive Laplacian eigenmap embeddings: generate, embed, evaluate, diagnose.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices

    p = sub.add_parser("synth", help="generate an SBM fixture (edges/features/labels)")
    _add_common(p)
    p.add_argument("--classes", type=int, default=sbm.n_classes)
    p.add_argument("--per-block", dest="per_block", type=int, default=sbm.per_block)
    p.add_argument("--p-in", dest="p_in", type=float, default=sbm.p_in)
    p.add_argument("--p-out", dest="p_out", type=float, default=sbm.p_out)
    p.add_argument("--feat-dim", dest="feat_dim", type=int, default=sbm.feature_dim)
    p.add_argument("--mean-sep", dest="mean_sep", type=float, default=sbm.mean_sep)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=sbm.noise_sigma)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("embed", help="compute embeddings in closed form")
    _add_common(p)
    p.add_argument("--edges")
    p.add_argument("--features")
    p.add_argument("--filter", choices=KINDS, default=filt.kind)
    p.add_argument("--k-steps", dest="k_steps", type=int, default=filt.k_steps)
    p.add_argument("--alpha", type=float, default=filt.alpha)
    p.add_argument("--dim", type=int, default=coles.d_prime)
    p.add_argument("--kappa", type=int, default=neg.kappa)
    _add_sampling(p, neg)
    p.add_argument("--eta-prime", dest="eta_prime", type=float, default=neg.eta_prime)
    p.add_argument("--no-self-loops", dest="self_loops", action="store_false",
                   help="skip the W+I renormalization convention")
    p.add_argument("--hash-dim", dest="hash_dim", type=int, default=0,
                   help="fold features into this many signed hash buckets first")
    p.add_argument("--write-csv", dest="write_csv", action="store_true",
                   help="also write embeddings.csv")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval-classify", help="logistic regression over random splits")
    _add_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--labels")
    p.add_argument("--per-class", dest="per_class", type=int, choices=(5, 20),
                   default=split.per_class)
    p.add_argument("--n-splits", dest="n_splits", type=int, default=50)
    p.add_argument("--val-size", dest="val_size", type=int, default=split.val_size)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--l2", type=float, default=1e-4)
    p.set_defaults(func=cmd_eval_classify)

    p = sub.add_parser("eval-cluster", help="k-means clustering metrics")
    _add_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--labels")
    p.add_argument("--k", type=int, default=0, help="clusters; 0 means one per label")
    p.add_argument("--n-runs", dest="n_runs", type=int, default=10)
    p.set_defaults(func=cmd_eval_cluster)

    p = sub.add_parser("diagnose", help="score densities, JS/W1 and homophily")
    _add_common(p)
    p.add_argument("--embeddings")
    p.add_argument("--edges")
    p.add_argument("--labels")
    _add_sampling(p, neg)
    p.add_argument("--bandwidth", type=float, default=0.0,
                   help="Parzen bandwidth; 0 means Silverman's rule per sample")
    p.add_argument("--grid-points", dest="grid_points", type=int, default=512)
    p.add_argument("--tau", type=float, default=1.0,
                   help="> 0: each row's norm before scoring; no effect under --no-normalize")
    p.add_argument("--no-normalize", dest="normalize", action="store_false",
                   help="score raw embeddings instead of tau-normalized rows")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place that turns an exception into an exit code."""
    try:
        _setup_logging()
        args = _parse_args(argv)
        cfg = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
        if cfg["out"] is None:
            raise ConfigError("missing required option: --out")
        os.makedirs(cfg["out"], exist_ok=True)
        resolved = args.func(cfg)
        _write_json(resolved, os.path.join(cfg["out"], "config.json"))
        return EXIT_OK
    except (NumericalError, LinAlgError) as exc:  # LinAlgError subclasses ValueError
        print(f"coles: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"coles: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"coles: file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"coles: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
