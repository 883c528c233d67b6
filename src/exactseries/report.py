"""The report type that ``identities.verify`` and ``identities.log_table``
return.  A module of its own, imported when a report is built, so that a
process that only formats rows, as the ``exactseries`` command does, never
imports ``dataclasses``."""

from dataclasses import dataclass


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of verifying one identity at one parameter point."""

    identity: str
    params: dict
    route_values: dict
    verdict: bool
