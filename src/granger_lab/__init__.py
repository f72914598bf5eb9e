"""Trivariate Granger causality engine and Monte Carlo sensitivity harness."""

__version__ = "0.1.0"

from .core import Link, TopologyKind, topology_kind
from .criteria import Criterion, PRESET_CRITERIA, compare_criteria
from .datagen import GeneratorConfig, NoiseKind, TrivariateSample, generate, snr_to_sigma
from .experiments import (RateEstimate, SweepResult, estimate_rates, extract_plane,
                          phase_rows, snr_grid, sweep_sample_size, sweep_significance)
from .granger import sample_pvalues
from .regress import InsufficientData, RankDeficient
