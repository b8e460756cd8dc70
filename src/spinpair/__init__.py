"""Two-spin density-matrix toolkit for parahydrogen-style NMR experiments.

Covers state preparation (singlet, thermal, pseudo-pure), ideal and lossy
channel evolution, a small text DSL for pulse sequences, FID synthesis and
spectral quantification, polarization calibration, and entanglement
certification (PPT, concurrence, entanglement of formation).
"""

__version__ = "0.1.0"

from .analysis import (
    EntanglementReport,
    EquivalentConditions,
    analyze,
    concurrence,
    effective_conditions,
    eof,
    max_enhancement,
    min_pt_eigenvalue,
    para_fraction,
    partial_transpose,
    singlet_mixture_entangled,
)
from .channels import (
    Channel,
    ChannelError,
    ChannelProgram,
    apply,
    filtration_sequence,
    free_evolution,
    gradient_period,
    hard_pulse,
    relax,
    selective_pulse,
    zeeman_dephase,
    zq_dephase,
)
from .seqdsl import (
    AcquisitionSpec,
    CompileError,
    ParseError,
    SequenceAst,
    SequenceSyntaxError,
    Statement,
    compile,
    format,
    parse,
    program_to_text,
)
from .spectro import (
    CalibrationResult,
    Fid,
    ReadoutConfig,
    Spectrum,
    SpectroError,
    add_noise,
    calibrate,
    component_integrals,
    component_regions,
    fourier,
    imbalance_to_populations,
    integrate,
    j_double,
    readout_integrals,
    synthesize_fid,
)
from .states import (
    BELL_BASIS,
    BellPopulations,
    DensityMatrix,
    NAMED_STATES,
    ProductOperatorCoeffs,
    SpinSystemParams,
    StateValidationError,
    bell_diagonal,
    fidelity,
    from_product_operators,
    make_named_state,
    make_pseudo_pure,
    make_singlet,
    make_thermal,
    purity,
    to_bell_populations,
    to_product_operators,
)

__all__ = [name for name in dir() if not name.startswith("_")]
