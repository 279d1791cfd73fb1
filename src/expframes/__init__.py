"""Certified sampling, Bessel and Riesz exponential sets on grid spectra.

Build periodic integer sets for spectra on the circle with certified
near-optimal density and frame bounds, using deterministic barrier-potential
row selection on Fourier submatrices, plus an exact verification layer
(bound identities, duality checks, quadrature and Monte-Carlo oracles).
"""

from .construct import (
    ConstructionReport,
    ExhaustionStage,
    build_bessel,
    build_riesz,
    build_sampling,
    exhaust_general,
)
from .errors import (
    CertificateFailed,
    EmptyComplement,
    ExpframesError,
    InvalidD,
    KTooLarge,
    NoCellFits,
    NoFeasibleCandidate,
    NotHermitian,
    NotParseval,
    PeriodMismatch,
    SpectrumFormatError,
    TooManySubsets,
)
from .linalg import HermitianSpectrum, dft_submatrix, gram, hermitian_eig
from .selection import (
    SelectionResult,
    VectorSystem,
    brute_force_best,
    bss_select,
    bss_unweighted,
    condition_ratio_bound,
    fourier_system,
    lower_certificate_constant,
    riesz_floor_constant,
    rit_select,
    upper_select,
)
from .spectrum import (
    GridSpectrum,
    IntervalSet,
    SamplingSet,
    complement,
    measure,
    parse_spectrum,
    quantize_inner,
    quantize_outer,
)
from .verify import (
    BoundReport,
    DualityReport,
    TestSignal,
    duality_check,
    gram_quadrature_oracle,
    montecarlo_timedomain,
    riesz_bounds,
    sampling_bounds,
)

__version__ = "0.1.0"
