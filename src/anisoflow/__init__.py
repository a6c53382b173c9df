"""Pseudo-spectral simulator and decay-rate toolkit for the 2D conservation
law with direction-dependent fractional dissipation."""

from .config import (
    GaussianIC,
    RandomBlobIC,
    RunConfig,
    SingleModeIC,
    load_config,
)
from .decay import (
    DecayFit,
    EnergyReport,
    MaxPrincipleReport,
    energy_audit,
    fit_power_law,
    max_principle_audit,
    theoretical_exponent,
)
from .errors import (
    BlowUpError,
    CheckpointError,
    ConfigError,
    MalformedSpectrumError,
    NonFiniteStateError,
)
from .freqsplit import CutoffSpec, chi0, default_mu, split
from .ineq import (
    DegenerateSampleError,
    FieldCorpusSpec,
    FourierBoundReport,
    RatioReport,
    SpectrumLaw,
    corpus_report,
    fourier_bound_report,
    generate_corpus,
    gn_ratio,
    lemma53_ratio,
    lemma54_ratio,
)
from .io import checkpoint_read, checkpoint_write, read_timeseries, write_timeseries
from .norms import (
    NormSample,
    directional_seminorm,
    hgamma_seminorm,
    lp_norm,
    record,
)
from .operators import DissipationSpec, FluxSpec
from .run import (
    advance_to,
    initial_state,
    linear_twin_series,
    run_simulation,
    sample_times,
    synthesize_ic,
)
from .spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    forward_transform,
    inverse_transform,
    make_grid,
)
from .timestepper import SimState, cfl_dt, linear_exact, step_ifrk4

__all__ = [name for name in dir() if not name.startswith("_")]
