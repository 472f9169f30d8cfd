"""Sparse slow-time Doppler: emission pattern design and spectrum recovery."""

import os

# One BLAS thread unless the user chose otherwise: the per-CPI matrices are
# small enough that a thread pool costs more than it earns, and the dense
# eigh bits would otherwise depend on the core count. Effective only if set
# before numpy (and scipy's bundled OpenBLAS) first loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .coarray import (
    CoarrayHoleError,
    CoarraySignal,
    CovarianceEstimate,
    apodize,
    build_toeplitz,
    butterworth_highpass,
    clutter_filter,
    estimate_covariance,
    lag_average,
)
from .estimators import (
    EstimationError,
    GridSpectrum,
    LineSpectrum,
    estimate_noise_floor,
    nest,
    nesprit,
    welch,
    zero_fill,
)
from .patterns import (
    DifferenceSet,
    EmissionPattern,
    Family,
    KLevelParams,
    PatternError,
    build_coprime,
    build_klevel,
    build_nested,
    build_standard,
    build_super_nested,
    difference_set,
    optimal_klevel,
    optimal_nested,
    verify_contiguous_coarray,
)
from .signals import (
    FrameSpec,
    PulsatileProfile,
    SlowTimeSnapshots,
    ToneSet,
    analytic_covariance,
    generate_pulsatile,
    generate_snapshots,
)
from .spectrogram import Spectrogram
from .units import PhysicalParams

__version__ = "0.1.0"
