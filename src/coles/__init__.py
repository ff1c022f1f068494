"""Contrastive Laplacian eigenmap embeddings for graphs.

Closed-form node embeddings for linear graph networks: a degree-normalized
data graph is contrasted against randomized negative graphs, features are
smoothed by an SGC or S2GC spectral filter, and the projection maximizing
the signed trace objective is read off the top eigenvectors of a small
quadratic form. Companion modules cover the contrastive-loss family,
JS-vs-Wasserstein score diagnostics, homophily indices and the downstream
classification/clustering protocol.

A process that imports coles before numpy loads numpy's OpenBLAS with one
thread: OpenBLAS reads OPENBLAS_NUM_THREADS once, when it is loaded, so the
variable is 1 for that load and the caller's value (or its absence) is back
right after. At coles' widths a second BLAS thread costs more start-up time,
memory and spin than it saves, and one thread makes every output byte the
same for any thread count the caller asks for. A process that loaded numpy
first keeps the pool it chose.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    _threads = _os.environ.get("OPENBLAS_NUM_THREADS")
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        if _threads is None:
            del _os.environ["OPENBLAS_NUM_THREADS"]
        else:
            _os.environ["OPENBLAS_NUM_THREADS"] = _threads

from .coles_solver import (ColesConfig, EmbeddingResult, build_quadratic_form,
                           coles_objective, hash_features, solve_linear_coles,
                           solve_projection, sym_eig)
from .diagnostics import (expected_negative_homophily, homophily, js_divergence,
                          lipschitz_check, pair_scores, parzen_density, separation,
                          silverman_bandwidth, wasserstein1)
from .evaluation import (Metrics, SplitSpec, kmeans, logreg_fit, logreg_predict,
                         nmi_score, random_splits, score)
from .graph_core import (LabeledGraph, SparseSym, add_self_loops, as_dense,
                         degree_normalize, load_edge_list, normalized_adjacency,
                         save_edge_list, spmm)
from .io import (read_clsm, read_csv, read_dense, read_labels, write_clsm,
                 write_csv, write_fixture, write_labels)
from .losses import (AlignUniform, BlockForm, ContrastiveBatch, align_uniform,
                     block_form, coles_pointwise, generalized_mean, log_sigmoid,
                     sampled_nce_sigmoid)
from .negative_sampling import NegSampleConfig, build_delta_w, sample_negative_graph
from .spectral_filters import FilterConfig, apply_filter
from .synthetic import SbmSpec, generate_sbm

__version__ = "0.1.0"
