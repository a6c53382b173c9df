"""Pseudo-spectral simulator and decay-rate toolkit for the 2D conservation
law with direction-dependent fractional dissipation.

The package exports the names that the scripts, the benchmark and the
acceptance tests use; every other name is internal and is imported from its
submodule.
"""

from .config import GaussianIC, RunConfig, load_config
from .decay import energy_audit, fit_power_law, max_principle_audit, theoretical_exponent
from .freqsplit import CutoffSpec
from .ineq import FieldCorpusSpec, SpectrumLaw, corpus_report, generate_corpus
from .io import checkpoint_read, read_timeseries
from .norms import record
from .operators import DissipationSpec, FluxSpec
from .run import initial_state, run_simulation, sample_times
from .spectral import GridSpec, PhysicalField, forward_transform, inverse_transform, make_grid
from .timestepper import SimState, cfl_dt, linear_exact, step_ifrk4

# a literal list: submodules are not exports, `import *` would bind io over the stdlib's
__all__ = [
    "CutoffSpec", "DissipationSpec", "FieldCorpusSpec", "FluxSpec", "GaussianIC",
    "GridSpec", "PhysicalField", "RunConfig", "SimState", "SpectrumLaw",
    "cfl_dt", "checkpoint_read", "corpus_report", "energy_audit", "fit_power_law",
    "forward_transform", "generate_corpus", "initial_state", "inverse_transform",
    "linear_exact", "load_config", "make_grid", "max_principle_audit",
    "read_timeseries", "record", "run_simulation", "sample_times", "step_ifrk4",
    "theoretical_exponent",
]
