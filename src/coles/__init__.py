"""Contrastive Laplacian eigenmap embeddings for graphs.

Closed-form node embeddings for linear graph networks: a degree-normalized
data graph is contrasted against randomized negative graphs, features are
smoothed by an SGC or S2GC spectral filter, and the projection maximizing
the signed trace objective is read off the top eigenvectors of a small
quadratic form. Companion modules cover the contrastive-loss family,
JS-vs-Wasserstein score diagnostics, homophily indices and the downstream
classification/clustering protocol.
"""

from .coles_solver import (ColesConfig, EmbeddingResult, build_quadratic_form,
                           coles_objective, general_objective, hash_features,
                           orthogonality_penalty, solve_linear_coles,
                           solve_projection, sym_eig)
from .diagnostics import (expected_negative_homophily, homophily, js_divergence,
                          lipschitz_check, pair_scores, parzen_density, separation,
                          silverman_bandwidth, wasserstein1)
from .evaluation import (Metrics, SplitSpec, kmeans, logreg_fit, logreg_predict,
                         nmi_score, random_split, score)
from .graph_core import (LabeledGraph, SparseSym, add_self_loops, as_dense,
                         degree_normalize, laplacian, load_edge_list,
                         normalized_adjacency, save_edge_list, spmm)
from .io import (read_clsm, read_csv, read_dense, read_labels, write_clsm,
                 write_csv, write_fixture, write_labels)
from .losses import (AlignUniform, BlockForm, ContrastiveBatch, align_uniform,
                     block_form, coles_pointwise, generalized_mean, log_sigmoid,
                     sampled_nce_sigmoid)
from .negative_sampling import (NegSampleConfig, PsdMargin, build_delta_w,
                                psd_margin, sample_negative_graph)
from .spectral_filters import FilterConfig, apply_filter, s2gc_filter, sgc_filter
from .synthetic import SbmSpec, generate_sbm

__version__ = "0.1.0"
