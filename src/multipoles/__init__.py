"""Multipole mining: variable sets with high linear dependence and linear gain.

A multipole is a set of three or more standardized time series whose least
variant normalized linear combination has small variance (high linear
dependence) while every proper subset is markedly less dependent (high linear
gain). The package provides the measures themselves, a clique-based miner
over a signed correlation graph, theoretical-bound validators, random-matrix
samplers, synthetic data generation, and permutation-style significance
testing, plus a ``multipole`` command line tool.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .dataset import CorrelationMatrix, TimeSeriesDataset, correlation_matrix, load_csv, standardize
from .measures import (
    CanonicalForm,
    MultipoleRecord,
    SignedSet,
    is_negative_clique,
    linear_dependence,
    linear_gain,
    lvnlc,
    negative_equivalent_witness,
    self_canceling_form,
)
from .bounds import BoundReport, bound_report, check_bounds, max_size_for_gain
from .graph import PromisingGraph, build_graph, clique_to_signed_set, maximal_cliques
from .miner import MinerConfig, MiningBudgetExceeded, brute_force, extract_from_candidate, mine, random_search, remove_non_maximal
from .stats import (
    member_contribution,
    reproducibility,
    sample_planted_matrices,
    significance_sigma,
    synth_dataset,
)

__all__ = [
    "__version__",
    "TimeSeriesDataset",
    "CorrelationMatrix",
    "load_csv",
    "standardize",
    "correlation_matrix",
    "SignedSet",
    "CanonicalForm",
    "MultipoleRecord",
    "lvnlc",
    "linear_dependence",
    "linear_gain",
    "self_canceling_form",
    "is_negative_clique",
    "negative_equivalent_witness",
    "BoundReport",
    "bound_report",
    "check_bounds",
    "max_size_for_gain",
    "PromisingGraph",
    "build_graph",
    "maximal_cliques",
    "clique_to_signed_set",
    "MinerConfig",
    "MiningBudgetExceeded",
    "mine",
    "extract_from_candidate",
    "remove_non_maximal",
    "brute_force",
    "random_search",
    "sample_planted_matrices",
    "synth_dataset",
    "significance_sigma",
    "member_contribution",
    "reproducibility",
]
