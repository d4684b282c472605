"""Computational toolkit for multiplicative subgroups of Z_p*.

Exact sumsets and representation counts, additive energies and their moments,
exponential-sum maxima, and constant-free checks of the growth and energy
inequalities these objects satisfy, with a sweep CLI on top.
"""

from .numtheory import (
    Subgroup,
    coset_reps,
    divisors,
    factorize,
    is_prime,
    primitive_root,
    subgroup,
    validate_modulus,
)
from .zpsets import (
    ZpSet,
    dilate,
    fold_sumset,
    invariant_set,
    is_invariant,
    shift_intersect,
    sumset,
    translate,
)
from .spectral import (
    Spectrum,
    convolve_counts,
    cyclic_convolution_exact,
    dft_magnitudes,
    phi_subgroup,
)
from .energetics import (
    additive_energy,
    additive_energy_spectral,
    coset_profile,
    energy_moment,
    invariant_convolution_sum,
    shift_sizes,
    ssc_ratio_sum,
    sumset_ratio_sum,
    threshold_invariant_set,
)
from .verifier import (
    ALL_CHECKS,
    BoundCheck,
    FitResult,
    check_bound,
    check_six_fold,
    clears_cover_threshold,
    count_solutions_N,
    covering_index,
    exponent_fit,
    positivity_condition,
)

__version__ = "0.1.0"
