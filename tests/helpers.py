"""Shared fixtures for the test suite."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from coles import rng as rng_module
from coles.graph_core import SparseSym
from coles.rng import Xoshiro256StarStar


def random_graph(n, extra_per_node, seed):
    """Ring plus random chords: connected, no isolated nodes."""
    rng = Xoshiro256StarStar(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i, picks in enumerate(rng.distinct_runs(n, extra_per_node, range(n))):
        for j in picks:
            edges.append((min(i, j), max(i, j)))
    return SparseSym.from_edges(n, edges)


def weighted_graph(n, extra_per_node, seed):
    """random_graph's pattern with symmetric weights drawn from [0.1, 2.1)."""
    upper = sp.triu(random_graph(n, extra_per_node, seed)._scipy(), format="coo")
    rng = Xoshiro256StarStar(seed + 1)
    weights = np.array([0.1 + 2.0 * rng.random() for _ in range(upper.nnz)])
    m = sp.coo_matrix((weights, (upper.row, upper.col)), shape=(n, n))
    return SparseSym.from_scipy(m + m.T)


def rand_x(n, d, seed=0):
    return np.array(Xoshiro256StarStar(seed).normals(n * d)).reshape(n, d)


# -- scalar references for the bulk draws -------------------------------------
# The loops the library ran before its draws were batched; the bulk paths
# must reproduce them bit for bit.

@contextmanager
def bulk_everywhere(enabled=True):
    """Make every bulk draw step lanes, however short, split node pairs into
    blocks of a few rows and geometric skips into chunks of a few draws, so
    small inputs reach every bulk code path."""
    with pytest.MonkeyPatch.context() as mp:
        if enabled:
            mp.setattr(rng_module, "_BULK_MIN", 0)
            mp.setattr(rng_module, "_PAIR_BLOCK", 300)
            mp.setattr(rng_module, "_GAP_BLOCK", 40)
        yield


def loop_below(rng, n):
    return (rng.next_u64() * n) >> 64


def loop_distinct(rng, n, count, exclude=-1):
    chosen, seen = [], set()
    while len(chosen) < count:
        j = loop_below(rng, n)
        if j == exclude or j in seen:
            continue
        seen.add(j)
        chosen.append(j)
    return chosen


def loop_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = loop_below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def loop_normals(rng, count):
    """Box-Muller from scalar random() pairs; an odd count drops the last z1."""
    out = []
    while len(out) < count:
        u1 = 1.0 - rng.random()
        u2 = rng.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out.append(r * math.cos(theta))
        if len(out) < count:
            out.append(r * math.sin(theta))
    return out
