"""Exact trailing-zero counts of n! in any base, with jump, gap, and density tools."""

from .arithmetic import (
    DigitExpansion,
    PrimeFactorization,
    digit_sum,
    digits,
    factorize,
    is_prime,
    successor_digits,
    trailing_max_digits,
    valuation,
)
from .image import (
    DensityReport,
    MembershipResult,
    PreconditionError,
    VerificationError,
    density_exact,
    density_paper_formula,
    family_cor2,
    family_cor3,
    family_prop3a,
    family_prop3b,
    family_prop7,
    family_prop8,
    gaps_by_membership,
    gaps_up_to,
    in_image,
    min_arg_reaching,
)
from .jumps import (
    JumpRecord,
    ZDecomposition,
    decompose_z,
    digit_sum_delta,
    is_stationary_prime_power,
    jump_amplitude_base,
    jump_amplitude_prime,
    jump_amplitude_prime_power,
    jump_stream,
)
from .oracle import (
    CapacityError,
    OracleConfig,
    factorial_trailing_zeros,
    image_scan,
    trailing_zero_digits,
)
from .zcount import (
    BaseSpec,
    binding_components,
    z_base,
    z_prime,
    z_prime_digitsum,
    z_prime_legendre,
    z_prime_power,
    z_shift,
)

__version__ = "0.1.0"
