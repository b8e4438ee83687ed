"""Closed-form error bounds and aggregation of experiment batches."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .sim import check_count, check_positive, check_real


@dataclass(frozen=True)
class BoundInputs:
    kappa: float
    t0: float
    clock_bits: int
    precision_bits: int

    def __post_init__(self) -> None:
        check_real("kappa", self.kappa)
        # chained comparisons are false for NaN, so NaN and inf both fail
        if not 1.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and at least 1, not {self.kappa}")
        check_positive("t0", self.t0)
        check_count("clock_bits", self.clock_bits, 1)
        check_count("precision_bits", self.precision_bits, self.clock_bits)


def enhanced_prefactor(extra_bits: int) -> float:
    """sqrt(1 / (pi^2 2^(l-k)) + 16/45); 0.62 at two extra bits, 0.68 at zero."""
    check_count("extra_bits", extra_bits, 0)
    return math.sqrt(1.0 / (math.pi**2 * 2**extra_bits) + 16.0 / 45.0)


def enhanced_bound(inputs: BoundInputs) -> float:
    extra = inputs.precision_bits - inputs.clock_bits
    return enhanced_prefactor(extra) * 2.0 * math.pi**2 * inputs.kappa / inputs.t0


def canonical_bound(inputs: BoundInputs, variant: str = "original") -> float:
    """Original bound 2 pi^2 kappa / t0, or the revised one at worst-case c."""
    if variant == "original":
        return 2.0 * math.pi**2 * inputs.kappa / inputs.t0
    if variant == "revised":
        return math.sqrt(20.0 / 3.0) * (math.pi / 2.0) * math.pi * inputs.kappa / inputs.t0
    raise ValueError(f"unknown bound variant {variant!r}")


def aggregate(results: Sequence) -> dict:
    """Per-variant mean errors with the resulting accuracy ordering.

    Accepts anything exposing ``variant`` and ``error`` attributes.
    """
    if not results:
        raise ValueError("cannot aggregate an empty batch")
    per_variant: dict[str, list[float]] = {}
    for result in results:
        per_variant.setdefault(result.variant, []).append(float(result.error))
    means = {variant: sum(errs) / len(errs) for variant, errs in per_variant.items()}
    ordering = sorted(means, key=means.get)
    return {
        "count": len(results),
        "mean_error": sum(float(r.error) for r in results) / len(results),
        "per_variant": means,
        "ordering": ordering,
    }
