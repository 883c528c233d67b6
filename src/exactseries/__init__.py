"""Exact rational arithmetic for generalized binomial coefficients,
truncated power series, and multi-route verification of binomial
convolution and logarithmic-series identities.

The package re-exports nothing: each name lives only in the module that
defines it, such as ``exactseries.binomial.binom`` or
``exactseries.report.IdentityReport``."""
