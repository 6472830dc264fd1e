"""Exact open-string one-point amplitudes of the resolved conifold.

Everything is exact: arbitrary-precision rationals, Laurent polynomials in
u = q^{1/2}, and truncated formal series.  The subpackages:

  laurent     quantum brackets [n], quantum binomials, rational functions in u
  series      truncated multivariate series, reversion, log/exp/sqrt, and
              expansion in hbar = i * (string coupling) over the rationals
  partitions  integer partitions, symmetric-group characters (memoized in
              process), Moebius mu
  fock        the operator oracle: framing twist, cut-and-join, E-correlators
  amplitudes  closed forms for the one-point functions and the genus expansion
  ovinv       Ooguri-Vafa integrality invariants d, e, N and named sequences
  mirror      mirror-curve equations verified order by order
  cli         the `conifold` command-line front end
"""

from .laurent import LaurentU, RationalFunctionU, qbinomial, qbracket, qfactorial
from .partitions import (
    CharacterTable,
    character,
    conjugate,
    kappa,
    mobius,
    partitions_of,
    z_aut,
)
from .series import TruncatedSeries, hbar_expand, series_reversion

__version__ = "0.1.0"

__all__ = [
    "LaurentU",
    "RationalFunctionU",
    "qbracket",
    "qfactorial",
    "qbinomial",
    "TruncatedSeries",
    "series_reversion",
    "hbar_expand",
    "partitions_of",
    "z_aut",
    "kappa",
    "conjugate",
    "character",
    "mobius",
    "CharacterTable",
    "__version__",
]
