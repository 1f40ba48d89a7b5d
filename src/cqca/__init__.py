"""Exact computer algebra for Clifford quantum cellular automata.

A reversible Clifford automaton on a chain (or d-dimensional lattice) of
p-level cells is, in phase space, a 2x2 matrix of Laurent polynomials over
F_p that preserves the commutation form.  This package implements that
calculus end to end: the polynomial ring and its palindrome subring,
symplecticity tests and certificates, Euclidean factorization into
elementary generator words, cocycle phase functions, an exact operator
oracle on finite windows, and a CLI wrapping the lot.
"""

from .ffield import check_prime, inv_mod, is_prime
from .laurent import (
    LaurentPoly,
    basis_element,
    palindrome_coeffs,
    palindrome_divmod,
    palindromize,
)
from .phasespace import PhaseVector, beta, form_sigma_poly, sigma
from .sca import (
    FactorizationMismatch,
    InvariantViolation,
    NotSymplectic,
    ScaMatrix,
    SymplecticCertificate,
    classify,
    from_recipe,
    identity,
    local_f,
    shear_g,
    shift,
    upper_shear_g,
)
from .factor import (
    GeneratorWord,
    Local,
    NotOneDimensional,
    Shear,
    Shift,
    UpperShear,
    factorize,
    letter_matrix,
    multiply_word,
    random_word,
    word_from_json_list,
    word_to_json_list,
)
from .cocycle import (
    PhaseFunction,
    cocycle_failure,
    default_phase,
    phase_group_order,
    validate_cocycle,
)

__version__ = "0.1.0"

__all__ = [
    "check_prime",
    "inv_mod",
    "is_prime",
    "LaurentPoly",
    "basis_element",
    "palindrome_coeffs",
    "palindrome_divmod",
    "palindromize",
    "PhaseVector",
    "beta",
    "sigma",
    "form_sigma_poly",
    "ScaMatrix",
    "SymplecticCertificate",
    "NotSymplectic",
    "FactorizationMismatch",
    "InvariantViolation",
    "classify",
    "identity",
    "shift",
    "shear_g",
    "upper_shear_g",
    "local_f",
    "from_recipe",
    "GeneratorWord",
    "Shift",
    "Shear",
    "UpperShear",
    "Local",
    "NotOneDimensional",
    "factorize",
    "letter_matrix",
    "multiply_word",
    "random_word",
    "word_to_json_list",
    "word_from_json_list",
    "PhaseFunction",
    "cocycle_failure",
    "default_phase",
    "phase_group_order",
    "validate_cocycle",
    "__version__",
]
