"""Numerical verification toolkit for the basic and elliptic two-term
expansions of unity (Chaundy-Bullard type identities) built on q-shifted
factorials and the modified Jacobi theta function.

The package provides the scalar kernels (``special``), the elliptic
lattice weights (``weights``), the weighted path model with its closed
forms (``lattice``), the identity family evaluators and degeneration
chain (``identities``), cofactor and connection-coefficient machinery
(``bezout``), normal forms for three non-commutative algebras
(``noncomm``), randomized generic sampling (``sampling``) and a batch
verification CLI (``cli``).
"""

from .errors import (
    CapExceededError,
    CommonRootError,
    DegenerateParameterError,
    DivergenceError,
    HConditionError,
    OutOfRegionError,
    ResamplingExhaustedError,
    RootOfUnityError,
    SingularSystemError,
    UnknownIdentityError,
    ZeroArgumentError,
)
from .identities import cb_residual
from .params import IdentitySize, ParamPoint
from .sampling import check_genericity, sample_param_point
from .special import addition_formula_residual, qbinom, qpoch, theta

__all__ = [
    "CapExceededError",
    "CommonRootError",
    "DegenerateParameterError",
    "DivergenceError",
    "HConditionError",
    "IdentitySize",
    "OutOfRegionError",
    "ParamPoint",
    "ResamplingExhaustedError",
    "RootOfUnityError",
    "SingularSystemError",
    "UnknownIdentityError",
    "ZeroArgumentError",
    "addition_formula_residual",
    "cb_residual",
    "check_genericity",
    "qbinom",
    "qpoch",
    "sample_param_point",
    "theta",
]

__version__ = "0.1.0"
