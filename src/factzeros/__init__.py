"""Exact trailing-zero counts of n! in any base, with jump, gap, and density tools.

Factorization and counting load with the package.  Every other public name
and submodule loads on first access (PEP 562), so a command-line process pays
only for the modules its command runs.
"""

import sys
from importlib import import_module

from .arithmetic import (
    PrimeFactorization, digit_sum, factorize, is_prime, trailing_max_digits, valuation,
)
from .zcount import (
    BaseSpec, z_base, z_prime, z_prime_digitsum, z_prime_legendre, z_prime_power, z_shift,
)

__version__ = "0.1.0"

# submodule -> the public names it defines, each imported on first access
_LAZY_NAMES = {
    "errors": "PreconditionError VerificationError",
    "image": "DensityReport MembershipResult density_exact density_paper_formula family_cor2 "
    "family_cor3 family_prop3a family_prop3b family_prop7 family_prop8 gaps_by_membership "
    "gaps_up_to in_image min_arg_reaching",
    "jumps": "JumpRecord ZDecomposition decompose_z digit_sum_delta is_stationary_prime_power "
    "jump_amplitude_prime jump_amplitude_prime_power jump_stream",
    "oracle": "CapacityError factorial_trailing_zeros",
}
_LAZY = {name: f"{__name__}.{mod}" for mod, names in _LAZY_NAMES.items() for name in names.split()}
_SUBMODULES = ("arithmetic", "cli", "errors", "image", "jumps", "oracle", "zcount")

__all__ = [
    "PrimeFactorization", "digit_sum", "factorize", "is_prime", "trailing_max_digits", "valuation",
    "BaseSpec", "z_base", "z_prime", "z_prime_digitsum", "z_prime_legendre", "z_prime_power",
    "z_shift",
    *_LAZY,
]


def __getattr__(name: str):
    # The result is not stored here: a name rebound in its submodule (by a
    # test's monkeypatch or a tracer) must read the same through the package.
    module = _LAZY.get(name)
    if module is not None:
        return getattr(sys.modules.get(module) or import_module(module), name)
    if name in _SUBMODULES:  # once imported, a submodule is an attribute of the package
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
