import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coles
from coles import rng as rng_module
from coles.rng import (_LONG_FROM, _LONG_LANE, _SHORT_LANE, Xoshiro256StarStar, draw_u64s, mul_high,
                       shuffle_with, streams, units)
from helpers import (GOLDEN64, MASK64, ScalarXoshiro, bulk_everywhere, loop_distinct,
                     loop_normals, loop_shuffle, splitmix64, stream_key)

PROPERTY = settings(max_examples=30)
SEEDS64 = st.integers(0, MASK64)

# Vectors from the canonical C implementations (splitmix64 and xoshiro256**
# public-domain reference code), states seeded identically.
SPLITMIX_VECTORS = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679,
        17909611376780542444, 1961750202426094747],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858,
         6349198060258255764, 701532786141963250],
    0xDEADBEEF: [5395234354446855067, 16021672434157553954, 153047824787635229,
                 8387618351419058064, 4321915660117851420],
}
XOSHIRO_VECTORS = {
    0: [11091344671253066420, 13793997310169335082, 1900383378846508768,
        7684712102626143532, 13521403990117723737],
    42: [1546998764402558742, 6990951692964543102, 12544586762248559009,
         17057574109182124193, 18295552978065317476],
    0xDEADBEEF: [14219364052333592195, 7332719151195188792, 6122488799882574371,
                 4799409443904522999, 18090429560773761838],
}


@pytest.mark.parametrize("seed", sorted(SPLITMIX_VECTORS))
def test_splitmix64_reference_vectors(seed):
    state = seed
    outs = []
    for _ in range(5):
        state, z = splitmix64(state)
        outs.append(z)
    assert outs == SPLITMIX_VECTORS[seed]


@pytest.mark.parametrize("seed", sorted(XOSHIRO_VECTORS))
def test_xoshiro_reference_vectors(seed):
    rng = ScalarXoshiro(seed)
    assert [rng.next_u64() for _ in range(5)] == XOSHIRO_VECTORS[seed]
    assert Xoshiro256StarStar(seed).next_u64s(5).tolist() == XOSHIRO_VECTORS[seed]


def test_random_unit_interval():
    vals = units(Xoshiro256StarStar(123).next_u64s(2000))
    assert np.all((0.0 <= vals) & (vals < 1.0))
    assert abs(np.mean(vals) - 0.5) < 0.03


def test_below_range_and_rough_uniformity():
    counts = np.bincount(mul_high(Xoshiro256StarStar(9).next_u64s(7000), 7).astype(np.int64))
    assert counts.size == 7 and counts.sum() == 7000
    assert counts.min() > 700  # each bucket near 1000


def shuffle_one(rng, size):
    """One row of range(size) shuffled from rng's next size - 1 draws."""
    return shuffle_with(np.arange(size)[None], rng.next_u64s(max(size - 1, 0))[None])[0].tolist()


def test_distinct_draws():
    rng, scalar = Xoshiro256StarStar(5), ScalarXoshiro(5)
    got = rng.distinct_runs(10, 9)
    assert got.dtype == np.int64 and got.shape == (10, 9)
    for i, row in enumerate(got.tolist()):
        assert len(set(row)) == 9 and i not in row
        assert row == loop_distinct(scalar, 10, 9, exclude=i)
    assert rng.state.tolist() == [scalar.state]

    with pytest.raises(ValueError, match="cannot draw 4 distinct values from 3 candidates"):
        rng.distinct_runs(4, 4)
    with pytest.raises(ValueError, match="cannot draw 5 distinct values from 3 candidates"):
        rng.distinct_runs(4, 5)


def test_shuffle_is_permutation_and_deterministic():
    a = shuffle_one(Xoshiro256StarStar(77), 20)
    b = shuffle_one(Xoshiro256StarStar(77), 20)
    assert a == b
    assert sorted(a) == list(range(20))
    assert a != list(range(20))


def test_normals_moments():
    vals = np.array(Xoshiro256StarStar(31337).normals(20000))
    assert abs(vals.mean()) < 0.03
    assert abs(vals.std() - 1.0) < 0.03
    assert np.all(np.isfinite(vals))


def test_stream_key_mixes_index():
    keys = {stream_key(42, i) for i in range(100)}
    assert len(keys) == 100
    assert stream_key(42, 0) == 42  # index 0 keeps the master seed
    assert stream_key(7, 3) == (7 ^ ((3 * GOLDEN64) & MASK64))


@PROPERTY
@given(seed=st.integers(-2**70, 2**70), indices=st.lists(st.integers(0, 2**32), max_size=8))
@example(seed=-1, indices=[0, 1, 2**32])
@example(seed=2**70, indices=[])
@example(seed=MASK64, indices=[2**32 - 1, 7])
def test_streams_are_the_scalar_seeded_states(seed, indices):
    states = streams(seed, np.array(indices, dtype=np.int64))
    assert states.dtype == np.uint64 and states.shape == (len(indices), 4)
    assert states.tolist() == [ScalarXoshiro(stream_key(seed, i)).state for i in indices]
    assert states.tolist() == [ScalarXoshiro(seed, i).state for i in indices]


def check_draw_u64s(k, count):
    """draw_u64s of k streams against k scalar loops; returns the lane lengths it used."""
    states = streams(count, np.arange(k))
    scalar = [ScalarXoshiro(count, i) for i in range(k)]
    jump, lanes = rng_module._lane_jump, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "_lane_jump", lambda lane: lanes.append(lane) or jump(lane))
        got = draw_u64s(states, count)
    assert got.dtype == np.uint64 and got.shape == (k, count)
    assert got.tolist() == [[rng.next_u64() for _ in range(count)] for rng in scalar]
    assert states.tolist() == [rng.state for rng in scalar]  # advanced in place
    return set(lanes)


@pytest.mark.parametrize("k", [0, 1, 3, 50])
@pytest.mark.parametrize("count", [0, 1, _SHORT_LANE - 1, _SHORT_LANE + 1, _LONG_LANE - 1,
                                   _LONG_LANE + 1, 3 * _LONG_LANE])
def test_draw_u64s_steps_each_stream_as_the_scalar_loop(k, count):
    check_draw_u64s(k, count)


def counts_around_long_from(k):
    """Words per stream lane * j - 1 and lane * j + 1, for each lane length and
    for the last j whose draw of k streams stays below _LONG_FROM words in all
    and the first j whose draw reaches it: four short-lane counts, then four
    long-lane ones."""
    edge = -(-_LONG_FROM // k)  # the fewest words per stream that reach _LONG_FROM
    lanes = (_SHORT_LANE, _LONG_LANE)
    below = [lane * ((edge - 2) // lane) + d for lane in lanes for d in (-1, 1)]
    above = [lane * -(-(edge + 1) // lane) + d for lane in lanes for d in (-1, 1)]
    return below + above


@pytest.mark.parametrize("k", [1, 3, 50])
@pytest.mark.parametrize("at", range(8))
def test_draw_u64s_at_lane_edges_on_both_sides_of_long_from(k, at):
    count = counts_around_long_from(k)[at]
    long_lanes = at >= 4
    assert (k * count >= _LONG_FROM) == long_lanes
    assert check_draw_u64s(k, count) == {_LONG_LANE if long_lanes else _SHORT_LANE}


@PROPERTY
@given(seed=st.integers(-2**70, 2**70), index=st.integers(0, 2**32),
       draws=st.lists(st.tuples(st.one_of(st.sampled_from([0, 1, _SHORT_LANE - 1, _SHORT_LANE,
                                                            _LONG_LANE - 1, _LONG_LANE]),
                                          st.integers(_LONG_LANE + 1, 10 * _LONG_LANE)),
                                st.booleans()),
                      max_size=6))
@example(seed=0, index=0, draws=[(0, False), (1, True), (_LONG_LANE - 1, False), (_LONG_LANE, True),
                                 (9 * _LONG_LANE + 3, False), (1, False)])
@example(seed=-1, index=2**32, draws=[(8 * _LONG_LANE, True), (1, False), (1, True),
                                      (8 * _LONG_LANE - 1, False), (0, True)])
def test_generator_state_is_its_streams_row_through_mixed_draws(seed, index, draws):
    # one state for short and long lanes: the streams() row, advanced in place
    rng, reference = Xoshiro256StarStar(seed, index), ScalarXoshiro(seed, index)
    assert Xoshiro256StarStar.__slots__ == ("state",)
    assert rng.state.dtype == np.uint64 and np.array_equal(rng.state, streams(seed, [index]))
    for count, long_lanes in draws:
        with bulk_everywhere(long_lanes):
            got = rng.next_u64s(count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert got.tolist() == [reference.next_u64() for _ in range(count)]
        assert rng.state.tolist() == [reference.state]


# -- bulk draws against the scalar recurrence -----------------------------------

def check_bulk_draw(seed, count, lanes):
    bulk, scalar = Xoshiro256StarStar(seed), ScalarXoshiro(seed)
    with bulk_everywhere(lanes):
        got = bulk.next_u64s(count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [scalar.next_u64() for _ in range(count)]
    assert bulk.state.tolist() == [scalar.state]  # where count scalar steps leave it


@pytest.mark.parametrize("seed", [0, MASK64])
@pytest.mark.parametrize("count", [0, 1, _SHORT_LANE - 1, _SHORT_LANE, _SHORT_LANE + 1,
                                   _LONG_LANE - 1, _LONG_LANE, _LONG_LANE + 1, 3 * _LONG_LANE + 5,
                                   8 * _LONG_LANE - 1, 8 * _LONG_LANE, 8 * _LONG_LANE + 1,
                                   19 * _LONG_LANE])
@pytest.mark.parametrize("lanes", [False, True])
def test_bulk_draw_at_lane_boundaries(seed, count, lanes):
    check_bulk_draw(seed, count, lanes)


@PROPERTY
@given(seed=SEEDS64, count=st.integers(0, 24 * _LONG_LANE), lanes=st.booleans())
def test_bulk_draw_equals_scalar_steps(seed, count, lanes):
    check_bulk_draw(seed, count, lanes)


@PROPERTY
@given(seed=SEEDS64, count=st.integers(0, 24 * _LONG_LANE), lanes=st.booleans())
@example(seed=0, count=7, lanes=True)
@example(seed=MASK64, count=8, lanes=True)
@example(seed=3, count=8 * _LONG_LANE + 1, lanes=False)
@example(seed=4, count=16 * _LONG_LANE, lanes=False)
def test_normals_match_scalar_box_muller(seed, count, lanes):
    bulk, scalar = Xoshiro256StarStar(seed), ScalarXoshiro(seed)
    with bulk_everywhere(lanes):
        got = bulk.normals(count)
    assert got.tolist() == loop_normals(scalar, count)
    assert bulk.state.tolist() == [scalar.state]


@PROPERTY
@given(xs=st.lists(st.integers(0, MASK64), min_size=1, max_size=40),
       n=st.one_of(st.integers(1, MASK64), st.integers(2**63 - 2**10, 2**63 + 2**10)))
@example(xs=[0, 1, 2**63, MASK64], n=2**63)
@example(xs=[0, 1, 2**63, MASK64], n=2**63 - 1)
@example(xs=[MASK64, MASK64 - 1], n=MASK64)
@example(xs=[MASK64, 2**32 - 1, 2**32], n=2**32 + 1)
def test_bulk_below_is_exact(xs, n):
    assert mul_high(np.array(xs, dtype=np.uint64), n).tolist() == [(x * n) >> 64 for x in xs]


@PROPERTY
@given(seed=SEEDS64, n=st.integers(0, 40), data=st.data(), lanes=st.booleans())
def test_distinct_runs_match_scalar_calls(seed, n, data, lanes):
    count = data.draw(st.integers(0, n - 1)) if n else 0
    bulk, scalar = Xoshiro256StarStar(seed), ScalarXoshiro(seed)
    with bulk_everywhere(lanes):
        got = bulk.distinct_runs(n, count)
    assert got.dtype == np.int64 and got.shape == (n, count)
    assert got.tolist() == [loop_distinct(scalar, n, count, exclude=i) for i in range(n)]
    assert bulk.state.tolist() == [scalar.state]  # the pool never overdraws


@pytest.mark.parametrize("n", [2, 3, 10, 60])
def test_distinct_runs_of_every_other_node_draw_each_shortfall_at_once(n):
    # count = n - 1: every row takes all other nodes, so most rows run out of words
    bulk, scalar = Xoshiro256StarStar(n), ScalarXoshiro(n)
    draw, sizes = Xoshiro256StarStar.next_u64s, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Xoshiro256StarStar, "next_u64s",
                   lambda self, count: sizes.append(count) or draw(self, count))
        got = bulk.distinct_runs(n, n - 1)
    assert got.tolist() == [loop_distinct(scalar, n, n - 1, exclude=i) for i in range(n)]
    assert bulk.state.tolist() == [scalar.state]  # no shortfall overdraws
    assert sizes[0] == n * (n - 1) and len(sizes) > n // 2


@pytest.mark.parametrize("size", [0, 1, 2, 3, 1000, 8 * _LONG_LANE + 2, _LONG_FROM + 2])
@pytest.mark.parametrize("lanes", [False, True])
def test_shuffle_matches_scalar_fisher_yates(size, lanes):
    want = list(range(size))
    bulk, scalar = Xoshiro256StarStar(size), ScalarXoshiro(size)
    with bulk_everywhere(lanes):
        got = shuffle_one(bulk, size)
    loop_shuffle(scalar, want)
    assert got == want
    assert bulk.state.tolist() == [scalar.state]


@pytest.mark.parametrize("size", [0, 1, 2, 7, 300])
@pytest.mark.parametrize("n_rows", [1, 3])
def test_shuffle_with_shuffles_each_row_as_the_scalar_loop(size, n_rows):
    draws = draw_u64s(streams(size, np.arange(n_rows)), max(size - 1, 0))
    got = shuffle_with(np.tile(np.arange(size), (n_rows, 1)), draws)
    for k, row in enumerate(got.tolist()):
        want = list(range(size))
        loop_shuffle(ScalarXoshiro(size, k), want)
        assert row == want


# -- the rng boundary -------------------------------------------------------------

SCALAR_DRAWS = {"next_u64", "below", "random"}
KEY_RULE = {"stream_key", "splitmix64", "splitmix64_outputs", "GOLDEN64", "MASK64"}


def rng_boundary_breaches(source: str) -> list[str]:
    """Scalar draw calls, and imports from .rng of underscore names or of the
    names that key and seed streams, in one module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCALAR_DRAWS):
            found.append(f"line {node.lineno}: .{node.func.attr}()")
        if isinstance(node, ast.ImportFrom) and node.module in ("rng", "coles.rng"):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name.startswith("_") or a.name in KEY_RULE]
    return found


def test_rng_boundary_finds_breaches():
    assert rng_boundary_breaches("from .rng import _LONG_LANE, draw_u64s, stream_key, MASK64\n"
                                 "r.below(3)\nr.random()\nr.next_u64()\nr.next_u64s(4)\n") == [
        "line 1: imports _LONG_LANE", "line 1: imports stream_key", "line 1: imports MASK64",
        "line 2: .below()", "line 3: .random()", "line 4: .next_u64()"]


def test_only_rng_draws_scalars_or_reads_rng_internals():
    # other modules draw words in bulk, map them with mul_high and units and
    # take their streams from streams() or Xoshiro256StarStar(seed, index), so
    # rng's internals and the key rule change behind that API
    src = Path(coles.__file__).resolve().parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "rng.py")
    assert modules
    breaches = {p.name: rng_boundary_breaches(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in breaches.items() if found} == {}
