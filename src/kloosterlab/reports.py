"""Measured-versus-bound reports.

Bound comparators in this package never carry implied constants or
epsilon factors: a report records the measured left-hand side, every
monomial of the bound's core, and the ratio of the measurement to the
core total.  Judgement about constants is left to the caller and to the
recorded-envelope tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    lhs: float
    rhs_terms: dict
    ratio: float
    trivial_bound: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def rhs_total(self) -> float:
        return float(sum(self.rhs_terms.values()))


def make_report(
    name: str,
    params: dict,
    lhs: float,
    rhs_terms: dict,
    trivial_bound: float | None = None,
    extra: dict | None = None,
) -> BoundReport:
    """Build a BoundReport, validating signs and computing the ratio."""
    lhs = float(lhs)
    if not (lhs >= 0 and math.isfinite(lhs)):
        raise ValueError(f"lhs must be finite and nonnegative, got {lhs}")
    clean = {}
    for key, value in rhs_terms.items():
        value = float(value)
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"rhs term {key!r} must be finite and positive, got {value}")
        clean[key] = value
    total = sum(clean.values())
    return BoundReport(
        name=name,
        params=dict(params),
        lhs=lhs,
        rhs_terms=clean,
        ratio=lhs / total,
        trivial_bound=None if trivial_bound is None else float(trivial_bound),
        extra=dict(extra or {}),
    )
