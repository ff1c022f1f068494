"""Fuzz the CLI's exit-code contract with hostile config files and input files.

Every run must end in exit 0, 1 or 2 with no traceback, and write
config.json exactly when it succeeds. Each subcommand starts from a small
base config on a 3 x 12 SBM fixture; a fuzzed config overrides it with the
subcommand's real setting names and some unknown keys, holding wrong-typed
JSON values. Every integer the fuzz can set lies in [-3, 16], so no run asks
for more than a 256-node graph, 16 epochs, splits, runs, restarts or grid
points: each call stays well under a second. Requests too large to allocate
are covered by test_cli.py, not here.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coles.cli import build_parser, main

INPUTS = {
    "synth": {},
    "embed": {"--edges": "edges.txt", "--features": "features.csv"},
    "eval-classify": {"--embeddings": "embeddings.clsm", "--labels": "labels.txt"},
    "eval-cluster": {"--embeddings": "embeddings.clsm", "--labels": "labels.txt"},
    "diagnose": {"--embeddings": "embeddings.clsm", "--edges": "edges.txt",
                 "--labels": "labels.txt"},
}
BASE = {
    "synth": {"per_block": 12, "feat_dim": 6, "p_in": 0.4, "p_out": 0.05},
    "embed": {"dim": 3, "kappa": 2, "per_node": 2, "k_steps": 2},
    "eval-classify": {"per_class": 5, "n_splits": 2, "val_size": 6, "epochs": 16},
    "eval-cluster": {"n_runs": 2},
    "diagnose": {"grid_points": 64},
}
UNKNOWN_KEYS = ["filtr", "threads", "beta", "help", "config", "func", "subcommand"]

ANY_VALUE = st.one_of(
    st.integers(-3, 16),
    st.floats(-2.0, 2.0),
    st.sampled_from([0, -1, 0.0, -0.5, 1e-320, 1e308, float("nan"), float("inf"),
                     float("-inf"), "nan", "inf", "-inf", "abc", "", "3", "0.5",
                     True, False, None, [], [1], {}, {"a": 1}]),
    st.text(max_size=4),
)
EDGE_FLOATS = st.sampled_from([0.0, -1.0, 1e-320, 1e308, float("nan"), float("inf")])
MUTATIONS = st.one_of(
    st.none(), st.none(), st.none(),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(1, 255)),
    st.tuples(st.just("non-utf8"), st.floats(0.0, 1.0)),
)


def setting_values(subcommand) -> dict:
    """Each setting's name -> values of its own type, in and out of range."""
    out = {}
    for a in build_parser().subcommands[subcommand]._actions:
        if a.dest in ("help", "config"):
            continue
        if a.nargs == 0:
            own = st.booleans()
        elif a.choices is not None:
            own = st.sampled_from(list(a.choices))
        elif a.type is int:
            own = st.integers(-3, 16)
        elif a.type is float:
            own = st.one_of(st.floats(0.0, 1.0), st.floats(-2.0, 2.0), EDGE_FLOATS)
        else:
            own = st.text(max_size=4)
        # values of the setting's own type are drawn more often than any value,
        # so that runs get past argparse and reach the library
        out[a.dest] = st.one_of(own, own, ANY_VALUE)
    return out


def mutate(data: bytes, mutation) -> bytes:
    kind, where = mutation[0], mutation[1]
    pos = min(int(where * len(data)), max(len(data) - 1, 0))
    if kind == "truncate":
        return data[:pos]
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ mutation[2]]) + data[pos + 1:] if data else data
    return data[:pos] + b"\xff\xfe\x80" + data[pos:]


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """edges.txt, features.csv, labels.txt and embeddings.clsm of one small run."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(root), "--classes", "3", "--per-block", "12",
                 "--p-in", "0.4", "--p-out", "0.05", "--feat-dim", "6", "--seed", "5"]) == 0
    assert main(["embed", "--edges", str(root / "edges.txt"),
                 "--features", str(root / "features.csv"), "--out", str(root / "emb"),
                 "--dim", "3", "--kappa", "2", "--per-node", "2", "--k-steps", "2"]) == 0
    shutil.copy(root / "emb" / "embeddings.clsm", root)
    return root


@pytest.mark.parametrize("subcommand", sorted(INPUTS))
@settings(max_examples=50)
@given(data=st.data())
def test_cli_exit_contract_under_fuzz(fixture_files, subcommand, data):
    values = setting_values(subcommand)
    keys = data.draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True))
    fuzzed = {key: data.draw(values[key], label=key) for key in keys}
    if data.draw(st.integers(0, 4), label="add an unknown key") == 4:
        fuzzed[data.draw(st.sampled_from(UNKNOWN_KEYS))] = data.draw(ANY_VALUE)
    inputs = INPUTS[subcommand]
    target = data.draw(st.sampled_from(sorted(inputs)), label="mutated input") if inputs else None
    mutation = data.draw(MUTATIONS, label="mutation") if inputs else None

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({**BASE[subcommand], **fuzzed}))
        argv = [subcommand, "--config", str(cfg), "--out", str(tmp / "out")]
        for flag, name in inputs.items():
            raw = (fixture_files / name).read_bytes()
            if flag == target and mutation is not None:
                raw = mutate(raw, mutation)
            (tmp / name).write_bytes(raw)
            argv += [flag, str(tmp / name)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert (tmp / "out" / "config.json").is_file() == (code == 0)
        if code:
            assert "coles: " in err
