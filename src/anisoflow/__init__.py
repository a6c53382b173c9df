"""Pseudo-spectral simulator and decay-rate toolkit for the 2D conservation
law with direction-dependent fractional dissipation."""

from types import ModuleType as _ModuleType

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

# submodules are not exports: `import *` would bind io over the stdlib's
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
