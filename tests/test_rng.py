import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coles
from coles.rng import (_BULK_MIN, _LANE, GOLDEN64, MASK64, Xoshiro256StarStar, draw_u64s,
                       mul_high, shuffle_with, splitmix64, stream_key)
from helpers import bulk_everywhere, loop_distinct, loop_normals, loop_shuffle

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
    rng = Xoshiro256StarStar(seed)
    assert [rng.next_u64() for _ in range(5)] == XOSHIRO_VECTORS[seed]


def test_random_unit_interval():
    rng = Xoshiro256StarStar(123)
    vals = [rng.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(np.mean(vals) - 0.5) < 0.03


def test_below_range_and_rough_uniformity():
    rng = Xoshiro256StarStar(9)
    counts = np.zeros(7, dtype=int)
    for _ in range(7000):
        counts[rng.below(7)] += 1
    assert counts.sum() == 7000
    assert counts.min() > 700  # each bucket near 1000

    with pytest.raises(ValueError):
        rng.below(0)


def shuffle_one(rng, size):
    """One row of range(size) shuffled from rng's next size - 1 draws."""
    return shuffle_with(np.arange(size)[None], rng.next_u64s(max(size - 1, 0))[None])[0].tolist()


def test_distinct_draws():
    rng, scalar = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    got = rng.distinct_runs(10, 9)
    assert got.dtype == np.int64 and got.shape == (10, 9)
    for i, row in enumerate(got.tolist()):
        assert len(set(row)) == 9 and i not in row
        assert row == loop_distinct(scalar, 10, 9, exclude=i)
    assert rng.next_u64() == scalar.next_u64()

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


# -- bulk draws against the scalar recurrence -----------------------------------

def check_bulk_draw(seed, count, lanes):
    bulk, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    with bulk_everywhere(lanes):
        got = bulk.next_u64s(count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [scalar.next_u64() for _ in range(count)]
    # the generator ends where count scalar steps leave it
    assert [bulk.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


@pytest.mark.parametrize("seed", [0, MASK64])
@pytest.mark.parametrize("count", [0, 1, _LANE - 1, _LANE, _LANE + 1, 3 * _LANE + 5,
                                   _BULK_MIN - 1, _BULK_MIN, _BULK_MIN + 1, 19 * _LANE])
@pytest.mark.parametrize("lanes", [False, True])
def test_bulk_draw_at_lane_boundaries(seed, count, lanes):
    check_bulk_draw(seed, count, lanes)


@PROPERTY
@given(seed=SEEDS64, count=st.integers(0, 24 * _LANE), lanes=st.booleans())
def test_bulk_draw_equals_scalar_steps(seed, count, lanes):
    check_bulk_draw(seed, count, lanes)


@PROPERTY
@given(seed=SEEDS64, count=st.integers(0, 3 * _BULK_MIN), lanes=st.booleans())
@example(seed=0, count=7, lanes=True)
@example(seed=MASK64, count=8, lanes=True)
@example(seed=3, count=_BULK_MIN + 1, lanes=False)
@example(seed=4, count=2 * _BULK_MIN, lanes=False)
def test_normals_match_scalar_box_muller(seed, count, lanes):
    bulk, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    with bulk_everywhere(lanes):
        got = bulk.normals(count)
    assert got.tolist() == loop_normals(scalar, count)
    assert bulk.next_u64() == scalar.next_u64()


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
    bulk, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    with bulk_everywhere(lanes):
        got = bulk.distinct_runs(n, count)
    assert got.dtype == np.int64 and got.shape == (n, count)
    assert got.tolist() == [loop_distinct(scalar, n, count, exclude=i) for i in range(n)]
    assert bulk.next_u64() == scalar.next_u64()  # the pool never overdraws


@pytest.mark.parametrize("size", [0, 1, 2, 3, 1000, _BULK_MIN + 2])
@pytest.mark.parametrize("lanes", [False, True])
def test_shuffle_matches_scalar_fisher_yates(size, lanes):
    want = list(range(size))
    bulk, scalar = Xoshiro256StarStar(size), Xoshiro256StarStar(size)
    with bulk_everywhere(lanes):
        got = shuffle_one(bulk, size)
    loop_shuffle(scalar, want)
    assert got == want
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("size", [0, 1, 2, 7, 300])
@pytest.mark.parametrize("n_rows", [1, 3])
def test_shuffle_with_shuffles_each_row_as_the_scalar_loop(size, n_rows):
    keys = [stream_key(size, k) for k in range(n_rows)]
    draws = draw_u64s([Xoshiro256StarStar(key) for key in keys], max(size - 1, 0))
    got = shuffle_with(np.tile(np.arange(size), (n_rows, 1)), draws)
    for key, row in zip(keys, got.tolist()):
        want = list(range(size))
        loop_shuffle(Xoshiro256StarStar(key), want)
        assert row == want


# -- the rng boundary -------------------------------------------------------------

SCALAR_DRAWS = {"next_u64", "below", "random"}


def rng_boundary_breaches(source: str) -> list[str]:
    """Scalar draw calls and imports of underscore names from .rng in one module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCALAR_DRAWS):
            found.append(f"line {node.lineno}: .{node.func.attr}()")
        if isinstance(node, ast.ImportFrom) and node.module in ("rng", "coles.rng"):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name.startswith("_")]
    return found


def test_rng_boundary_finds_breaches():
    assert rng_boundary_breaches("from .rng import _LANE, draw_u64s\nr.below(3)\nr.random()\n"
                                 "r.next_u64()\nr.next_u64s(4)\n") == [
        "line 1: imports _LANE", "line 2: .below()", "line 3: .random()", "line 4: .next_u64()"]


def test_only_rng_draws_scalars_or_reads_rng_internals():
    # other modules draw words in bulk and map them with mul_high and units, so
    # the scalar generator and rng's internals can change behind that API
    src = Path(coles.__file__).resolve().parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "rng.py")
    assert modules
    breaches = {p.name: rng_boundary_breaches(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in breaches.items() if found} == {}
