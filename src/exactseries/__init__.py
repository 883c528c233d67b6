"""Exact rational arithmetic for generalized binomial coefficients,
truncated power series, and multi-route verification of binomial
convolution and logarithmic-series identities."""

from .binomial import binom, harmonic
from .series import (
    PowerSeries,
    binomial_series,
    coefficient,
    lemma_coefficient,
    log_geometric,
    ps_add,
    ps_monomial_shift,
    ps_mul,
)
from .identities import (
    log_closed,
    log_lhs,
    log_rhs,
    vandermonde_closed,
    vandermonde_series_route,
    vandermonde_sum,
    verify,
)


def __getattr__(name: str):
    # IdentityReport is imported on first use (PEP 562), as verify imports
    # it: see exactseries.report.
    if name == "IdentityReport":
        from .report import IdentityReport
        return IdentityReport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "binom",
    "harmonic",
    "PowerSeries",
    "ps_add",
    "ps_mul",
    "ps_monomial_shift",
    "binomial_series",
    "log_geometric",
    "coefficient",
    "lemma_coefficient",
    "IdentityReport",
    "vandermonde_sum",
    "vandermonde_closed",
    "vandermonde_series_route",
    "log_lhs",
    "log_rhs",
    "log_closed",
    "verify",
]
