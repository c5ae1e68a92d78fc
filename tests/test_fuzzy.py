import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdvi.errors import DimensionMismatch, DomainError
from fdvi.expr import parse
from fdvi.fuzzy import FieldComponent, FuzzyBox, FuzzyBoxField, FuzzyIntervalNumber, fuzzy_metric, hausdorff
from fdvi.vi import BoxSet
from oracles import field_at, field_level, scaled

TRI = FuzzyIntervalNumber.triangular(-0.5, 0.0, 0.5)


def example_field():
    return FuzzyBoxField([FieldComponent(base=TRI, scale=parse("cos(y1)", 1), offset=parse("0", 1))])


# --- levels ---------------------------------------------------------------


def test_triangular_support():
    assert TRI.level(0.0) == (-0.5, 0.5)


def test_triangular_core_is_peak():
    assert TRI.level(1.0) == (0.0, 0.0)


def test_triangular_half_level():
    lo, hi = TRI.level(0.5)
    assert lo == pytest.approx(-0.25, abs=1e-15)
    assert hi == pytest.approx(0.25, abs=1e-15)


def test_trapezoidal_levels():
    w = FuzzyIntervalNumber.trapezoidal(0.0, 1.0, 2.0, 4.0)
    assert w.level(0.0) == (0.0, 4.0)
    assert w.level(1.0) == (1.0, 2.0)
    assert w.level(0.5) == (0.5, 3.0)


def test_level_rejects_bad_alpha():
    with pytest.raises(DomainError):
        TRI.level(-0.1)
    with pytest.raises(DomainError):
        TRI.level(1.1)


def test_shape_parameter_ordering_enforced():
    with pytest.raises(DomainError):
        FuzzyIntervalNumber.triangular(1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        FuzzyIntervalNumber.trapezoidal(0.0, 2.0, 1.0, 3.0)


def test_triangular_is_trapezoid_with_repeated_peak():
    tri = FuzzyIntervalNumber.triangular(-0.7, 0.2, 1.3)
    trap = FuzzyIntervalNumber.trapezoidal(-0.7, 0.2, 0.2, 1.3)
    assert tri == trap
    for alpha in np.linspace(0.0, 1.0, 101):
        lv1, lv2 = tri.level(float(alpha)), trap.level(float(alpha))
        assert [p.hex() for p in lv1] == [p.hex() for p in lv2]
    for scale, shift in ((2.5, 0.1), (-1.75, 0.3), (0.0, -2.0), (-1e-3, 4.0)):
        img1, img2 = scaled(tri, scale, shift), scaled(trap, scale, shift)
        assert img1 == img2 and [p.hex() for p in img1.params] == [p.hex() for p in img2.params]


@st.composite
def fuzzy_numbers(draw):
    pts = sorted(draw(st.lists(st.floats(-10, 10), min_size=4, max_size=4)))
    if draw(st.booleans()):
        return FuzzyIntervalNumber.triangular(pts[0], pts[1], pts[2])
    return FuzzyIntervalNumber.trapezoidal(*pts)


@given(fuzzy_numbers(), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200)
def test_level_nestedness_property(w, a1, a2):
    lo_a, hi_a = min(a1, a2), max(a1, a2)
    outer_lo, outer_hi = w.level(lo_a)
    inner_lo, inner_hi = w.level(hi_a)
    assert outer_lo <= inner_lo + 1e-12 and inner_hi <= outer_hi + 1e-12


# --- field levels ---------------------------------------------------------


def test_field_level_unit_scale_at_origin():
    box = field_level(example_field(), 0.0, np.array([0.0]), 0.0)
    assert box.lo[0] == pytest.approx(-0.5) and box.hi[0] == pytest.approx(0.5)


def test_field_level_matches_derived_formula():
    # level = 0.5 (1 - alpha) [-|cos y|, |cos y|]
    f = example_field()
    for y in (-2.0, -0.3, 0.7, 2.5):
        for alpha in (0.0, 0.25, 0.8):
            box = field_level(f, 0.1, np.array([y]), alpha)
            half = 0.5 * (1.0 - alpha) * abs(math.cos(y))
            assert box.lo[0] == pytest.approx(-half, abs=1e-14)
            assert box.hi[0] == pytest.approx(half, abs=1e-14)


def test_field_level_negative_scale_sorts_endpoints():
    f = FuzzyBoxField([FieldComponent(base=TRI, scale=parse("-1", 1), offset=parse("0", 1))])
    box = field_level(f, 0.0, np.array([0.0]), 0.5)
    assert box.lo[0] == pytest.approx(-0.25) and box.hi[0] == pytest.approx(0.25)


def test_field_level_zero_scale_gives_singleton():
    f = FuzzyBoxField([FieldComponent(base=TRI, scale=parse("0", 1), offset=parse("2", 1))])
    box = field_level(f, 0.0, np.array([0.0]), 0.3)
    assert box.lo[0] == box.hi[0] == 2.0


def test_level_arrays_agree_with_pointwise():
    f = example_field()
    ts = np.linspace(0.0, 0.7, 9)
    ys = np.linspace(-1.5, 1.5, 9)[:, None]
    lo, hi = f.level_arrays(ts, ys, 0.4)
    for i in range(9):
        box = field_level(f, ts[i], ys[i], 0.4)
        assert lo[i, 0] == pytest.approx(box.lo[0], abs=1e-15)
        assert hi[i, 0] == pytest.approx(box.hi[0], abs=1e-15)


# --- Hausdorff ------------------------------------------------------------


def brute_hausdorff(a: BoxSet, b: BoxSet, samples: int = 40) -> float:
    """Dense-sampling sup-inf oracle in the max norm."""
    grids = lambda box: np.stack(np.meshgrid(
        *[np.linspace(box.lo[i], box.hi[i], samples) for i in range(box.dim)],
        indexing="ij"), axis=-1).reshape(-1, box.dim)
    pa, pb = grids(a), grids(b)

    def directed(p, box):
        # exact distance from points to a box is achieved by clamping
        return np.max(np.max(np.abs(p - np.clip(p, box.lo, box.hi)), axis=1))

    return max(directed(pa, b), directed(pb, a))


def test_hausdorff_identity():
    a = BoxSet([-0.5, 1.0], [0.5, 2.0])
    assert hausdorff(a, a) == 0.0


def test_hausdorff_nested_intervals_against_oracle():
    a = BoxSet([-0.5], [0.5])
    b = BoxSet([-0.25], [0.25])
    assert hausdorff(a, b) == pytest.approx(0.25, abs=1e-12)
    assert hausdorff(a, b) == pytest.approx(brute_hausdorff(a, b, samples=2001), abs=1e-3)


def test_hausdorff_random_boxes_against_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        lo1 = rng.uniform(-2, 1, size=2); hi1 = lo1 + rng.uniform(0.1, 2, size=2)
        lo2 = rng.uniform(-2, 1, size=2); hi2 = lo2 + rng.uniform(0.1, 2, size=2)
        a, b = BoxSet(lo1, hi1), BoxSet(lo2, hi2)
        assert hausdorff(a, b) == pytest.approx(brute_hausdorff(a, b, 60), abs=0.08)


def test_hausdorff_of_example_field_levels():
    f = example_field()
    for y1, y2, alpha in ((0.3, 1.2, 0.0), (-0.5, 2.0, 0.5), (1.0, 1.5, 0.9)):
        d = hausdorff(field_level(f, 0.0, np.array([y1]), alpha), field_level(f, 0.0, np.array([y2]), alpha))
        expected = 0.5 * (1.0 - alpha) * abs(abs(math.cos(y1)) - abs(math.cos(y2)))
        assert d == pytest.approx(expected, abs=1e-14)


def test_hausdorff_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hausdorff(BoxSet([0], [1]), BoxSet([0, 0], [1, 1]))


# --- fuzzy metric ---------------------------------------------------------


def test_fuzzy_metric_identity_and_symmetry():
    f = example_field()
    a = field_at(f, 0.2, np.array([0.4]))
    b = field_at(f, 0.2, np.array([-1.1]))
    assert fuzzy_metric(a, a) == 0.0
    assert fuzzy_metric(a, b) == fuzzy_metric(b, a)


def test_fuzzy_metric_dimension_mismatch():
    tri = FuzzyIntervalNumber.triangular(-0.5, 0.0, 0.5)
    with pytest.raises(DimensionMismatch):
        fuzzy_metric(FuzzyBox([tri]), FuzzyBox([tri, tri]))


def test_fuzzy_metric_matches_alpha_zero_supremum():
    # per-level distance is 0.5 (1 - alpha) | |cos y1| - |cos y2| |: sup at alpha = 0
    f = example_field()
    for y1, y2 in ((0.4, 1.3), (-0.2, 2.2), (1.0, 1.01)):
        d = fuzzy_metric(field_at(f, 0.0, np.array([y1])), field_at(f, 0.0, np.array([y2])))
        assert d == pytest.approx(0.5 * abs(abs(math.cos(y1)) - abs(math.cos(y2))), abs=1e-14)


def test_example_field_lipschitz_bound_sampled():
    # metric <= 0.5 |y1 - y2| on 10^4 random pairs
    f = example_field()
    rng = np.random.default_rng(17)
    pairs = rng.uniform(-4.0, 4.0, size=(10_000, 2))
    for y1, y2 in pairs:
        d = fuzzy_metric(field_at(f, 0.0, np.array([y1])), field_at(f, 0.0, np.array([y2])))
        assert d <= 0.5 * abs(y1 - y2) + 1e-12


def _random_fuzzy_box(rng, n=3):
    comps = []
    for _ in range(n):
        if rng.random() < 0.5:
            base = FuzzyIntervalNumber.triangular(*np.sort(rng.uniform(-2.0, 2.0, 3)))
        else:
            base = FuzzyIntervalNumber.trapezoidal(*np.sort(rng.uniform(-2.0, 2.0, 4)))
        comps.append(scaled(base, rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)))
    return FuzzyBox(comps)


def test_fuzzy_metric_exact_against_fine_level_grid():
    # Level endpoints are affine in alpha, so the sup over a 1001-level grid
    # is attained at alpha = 0 or 1 and the two-level metric equals it exactly.
    rng = np.random.default_rng(31)
    for _ in range(60):
        a, b = _random_fuzzy_box(rng), _random_fuzzy_box(rng)
        brute = max(hausdorff(a.level(float(al)), b.level(float(al))) for al in np.linspace(0.0, 1.0, 1001))
        assert fuzzy_metric(a, b) == brute


# --- clamping onto a level box ------------------------------------------


def test_clamp_idempotent_on_members():
    box = BoxSet([-0.5], [0.5])
    assert box.project([0.2])[0] == 0.2
    assert box.project([0.7])[0] == 0.5


def test_clamp_inequality_against_hausdorff():
    # for x in A: the clamp onto B moves x by at most H(A, B) per coordinate
    rng = np.random.default_rng(29)
    for _ in range(2000):
        lo1 = rng.uniform(-2, 1, size=2); hi1 = lo1 + rng.uniform(0.05, 2, size=2)
        lo2 = rng.uniform(-2, 1, size=2); hi2 = lo2 + rng.uniform(0.05, 2, size=2)
        a, b = BoxSet(lo1, hi1), BoxSet(lo2, hi2)
        x = lo1 + (hi1 - lo1) * rng.random(2)
        moved = np.abs(x - b.project(x))
        h = hausdorff(a, b)
        assert np.max(moved) <= h + 1e-12
        assert np.linalg.norm(moved) <= math.sqrt(2.0) * h + 1e-12


def test_clamp_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        BoxSet([0.0], [1.0]).project([0.0, 0.0])
