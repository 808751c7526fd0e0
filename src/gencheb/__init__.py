"""Exact arithmetic for generalized complex units and Chebyshev polynomials.

The package verifies, in exact rational or polynomial arithmetic, the whole
chain from the defining relation h^2 = a + b*h through Euler-like
trigonometry, one-variable Chebyshev identities, unimodular 2x2 matrix
powers, and the two-variable Chebyshev / third-order Hermite bridge.
"""

from .scalars import BigRational, GaussianRational
from .poly import MultiPoly, PolyParseError, gens, parse_poly
from .series import SingularSeriesError, TruncatedSeries
from .matrices import Mat2, Mat3
from .gcn import (
    ConjugateRoots,
    GcnElement,
    GcnUnit,
    Surd,
    UnitMismatchError,
    conjugate_roots,
    power_coeff_sequence,
    power_coeffs,
    unit_power,
    unit_powers,
)
from .euler import (
    EulerPair,
    OdeResidualReport,
    addition_residuals,
    defining_identity_residual,
    euler_closed_form,
    euler_series,
    ode_residual,
)
from .cheby import (
    ChebCoeffPair,
    ChebPoly,
    b_ode_residual,
    cheb_AB,
    cheb_T,
    cheb_U,
    cheb_unit,
    u_ode_residual,
)
from .pauli import (
    BenchRecord,
    PauliCoords,
    bench_power,
    gaussian_mat,
    mat_power,
    pauli_decompose,
    pauli_recompose,
    quadratic_residual,
)
from .higher import (
    CubicPowerCoeffs,
    CubicUnit,
    Hermite3,
    TwoVarCheb,
    cubic_power,
    cubic_power_sequence,
    hermite3,
    u2_by_laplace,
    u2_by_recurrence,
    u2_by_series,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "BigRational",
    "ChebCoeffPair",
    "ChebPoly",
    "ConjugateRoots",
    "CubicPowerCoeffs",
    "CubicUnit",
    "EulerPair",
    "GaussianRational",
    "GcnElement",
    "GcnUnit",
    "Hermite3",
    "Mat2",
    "Mat3",
    "MultiPoly",
    "OdeResidualReport",
    "PauliCoords",
    "PolyParseError",
    "SingularSeriesError",
    "Surd",
    "TruncatedSeries",
    "TwoVarCheb",
    "UnitMismatchError",
    "addition_residuals",
    "b_ode_residual",
    "bench_power",
    "cheb_AB",
    "cheb_T",
    "cheb_U",
    "cheb_unit",
    "conjugate_roots",
    "cubic_power",
    "cubic_power_sequence",
    "defining_identity_residual",
    "euler_closed_form",
    "euler_series",
    "gaussian_mat",
    "gens",
    "hermite3",
    "mat_power",
    "ode_residual",
    "parse_poly",
    "pauli_decompose",
    "pauli_recompose",
    "power_coeff_sequence",
    "power_coeffs",
    "quadratic_residual",
    "u2_by_laplace",
    "u2_by_recurrence",
    "u2_by_series",
    "u_ode_residual",
    "unit_power",
    "unit_powers",
]
