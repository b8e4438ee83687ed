"""Closed-form bound and aggregation tests."""
import math
from dataclasses import dataclass

import pytest

from qlslab.analysis import (
    BoundInputs,
    aggregate,
    canonical_bound,
    enhanced_bound,
    enhanced_prefactor,
)


@dataclass
class FakeResult:
    variant: str
    error: float


def test_prefactor_two_extra_bits():
    assert enhanced_prefactor(2) == pytest.approx(0.62, abs=0.005)


def test_prefactor_no_extra_bits():
    assert enhanced_prefactor(0) == pytest.approx(0.68, abs=0.005)


def test_enhanced_bound_formula():
    inputs = BoundInputs(kappa=3.0, t0=20.0, clock_bits=3, precision_bits=5)
    expected = math.sqrt(1 / (math.pi**2 * 4) + 16 / 45) * 2 * math.pi**2 * 3.0 / 20.0
    assert enhanced_bound(inputs) == pytest.approx(expected, rel=1e-12)


def test_enhanced_bound_vanishes_with_kappa_over_t0():
    inputs = BoundInputs(kappa=1.0, t0=1e9, clock_bits=3, precision_bits=5)
    assert enhanced_bound(inputs) < 1e-7


def test_enhanced_bound_monotone_in_precision():
    bounds = [
        enhanced_bound(BoundInputs(kappa=2.0, t0=10.0, clock_bits=3, precision_bits=3 + extra))
        for extra in range(5)
    ]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_canonical_bound_values():
    inputs = BoundInputs(kappa=1.0, t0=1.0, clock_bits=3, precision_bits=3)
    assert canonical_bound(inputs, "original") == pytest.approx(2 * math.pi**2)
    expected_revised = math.sqrt(20 / 3) * (math.pi / 2) * math.pi
    assert canonical_bound(inputs, "revised") == pytest.approx(expected_revised)
    with pytest.raises(ValueError):
        canonical_bound(inputs, "imaginary")


def test_bound_ratio_is_38_percent_tighter():
    tighter = 1.0 - enhanced_prefactor(2)
    assert tighter * 100 == pytest.approx(38.0, abs=1.0)


def test_bound_ordering_at_worst_case_constant():
    inputs = BoundInputs(kappa=2.5, t0=17.0, clock_bits=3, precision_bits=5)
    hybrid_like = enhanced_bound(
        BoundInputs(kappa=2.5, t0=17.0, clock_bits=3, precision_bits=3)
    )
    assert enhanced_bound(inputs) < canonical_bound(inputs, "revised") < hybrid_like


def test_prefactor_always_below_one():
    for extra in range(8):
        assert enhanced_prefactor(extra) < 1.0


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(kappa=0.5, t0=1.0, clock_bits=3, precision_bits=3)
    with pytest.raises(ValueError):
        BoundInputs(kappa=2.0, t0=0.0, clock_bits=3, precision_bits=3)
    with pytest.raises(ValueError):
        BoundInputs(kappa=2.0, t0=1.0, clock_bits=3, precision_bits=2)
    for kappa in (math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be finite"):
            BoundInputs(kappa=kappa, t0=1.0, clock_bits=3, precision_bits=3)
    for t0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t0 must be finite"):
            BoundInputs(kappa=2.0, t0=t0, clock_bits=3, precision_bits=3)
    for k, l in ((-3, 2), (0, 0), (2.5, 5), (True, 5), (3.0, 5)):
        with pytest.raises(ValueError, match="clock_bits must be at least 1 and an int"):
            BoundInputs(kappa=2.0, t0=10.0, clock_bits=k, precision_bits=l)
    for l in (5.0, True, 2.5):
        with pytest.raises(ValueError, match="precision_bits must be at least 1 and an int"):
            BoundInputs(kappa=2.0, t0=10.0, clock_bits=1, precision_bits=l)


@pytest.mark.parametrize("field", ["kappa", "t0"])
@pytest.mark.parametrize(
    "value, message",
    [
        (True, "must be a real number"),
        ("2", "must be a real number"),
        (None, "must be a real number"),
        (math.nan, "must be finite"),
        (math.inf, "must be finite"),
    ],
)
def test_bound_inputs_reject_bools_non_reals_and_non_finite_values(field, value, message):
    fields = {"kappa": 2.0, "t0": 10.0, field: value}
    with pytest.raises(ValueError, match=f"{field} {message}"):
        BoundInputs(clock_bits=3, precision_bits=5, **fields)


@pytest.mark.parametrize("extra", [-1, 0.5, 2.0, True, None])
def test_prefactor_rejects_anything_but_a_non_negative_int(extra):
    with pytest.raises(ValueError, match="extra_bits must be non-negative and an int"):
        enhanced_prefactor(extra)


def test_aggregate_means_and_ordering():
    results = [
        FakeResult("canonical", 0.4),
        FakeResult("canonical", 0.5),
        FakeResult("hybrid", 0.6),
        FakeResult("enhanced", 0.2),
    ]
    summary = aggregate(results)
    assert summary["count"] == 4
    assert summary["per_variant"]["canonical"] == pytest.approx(0.45)
    assert summary["ordering"] == ["enhanced", "canonical", "hybrid"]
    assert summary["mean_error"] == pytest.approx((0.4 + 0.5 + 0.6 + 0.2) / 4)


def test_aggregate_permutation_invariant():
    results = [FakeResult("a", 0.1), FakeResult("b", 0.9), FakeResult("a", 0.3)]
    forward = aggregate(results)
    backward = aggregate(list(reversed(results)))
    assert forward == backward


def test_aggregate_single_result():
    summary = aggregate([FakeResult("canonical", 0.37)])
    assert summary["mean_error"] == pytest.approx(0.37)
    assert summary["per_variant"] == {"canonical": pytest.approx(0.37)}


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])
