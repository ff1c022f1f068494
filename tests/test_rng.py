import math

import numpy as np
import pytest

from coles.rng import (GOLDEN64, MASK64, Xoshiro256StarStar, splitmix64,
                       splitmix64_uniforms, stream_key)

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


def test_distinct_draws():
    rng = Xoshiro256StarStar(5)
    got = rng.distinct(10, 9, exclude=3)
    assert len(got) == 9 and 3 not in got and len(set(got)) == 9

    with pytest.raises(ValueError):
        rng.distinct(4, 4, exclude=0)


def test_shuffle_is_permutation_and_deterministic():
    a = list(range(20))
    Xoshiro256StarStar(77).shuffle(a)
    b = list(range(20))
    Xoshiro256StarStar(77).shuffle(b)
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


@pytest.mark.parametrize("state", [0, 0xC0FFEE, MASK64 - 3])
def test_splitmix64_uniforms_match_scalar_steps(state):
    expected, s = [], state
    for _ in range(257):
        s, z = splitmix64(s)
        expected.append((z >> 11) * 2.0 ** -53)
    assert np.array_equal(splitmix64_uniforms(state, 257), expected)
