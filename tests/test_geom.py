"""Tests for the geometric kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flexprism import FlexionInterval, FlexionRangeError, orientation_vectors
from flexprism.errors import DegenerateGeometryError
from flexprism.geom import wedge_angle


class TestOrientationVectors:
    def test_theta_zero_vectors_coincide(self):
        u, w = orientation_vectors(0.0)
        assert np.array_equal(u, [0, -1, 0])
        assert np.array_equal(w, [0, -1, 0])

    def test_quarter_turn(self):
        u, w = orientation_vectors(math.pi / 4)
        r = math.sqrt(2) / 2
        assert np.allclose(u, [-r, -r, 0], atol=1e-15)
        assert np.allclose(w, [r, -r, 0], atol=1e-15)
        assert abs(u @ w) < 1e-15  # cos(pi/2)

    def test_dot_product_identity_pi_sixth(self):
        u, w = orientation_vectors(math.pi / 6)
        assert abs(u @ w - 0.5) < 1e-12  # cos(pi/3)

    @pytest.mark.parametrize("theta", np.linspace(-1.5, 1.5, 41))
    def test_unit_norm_and_double_angle(self, theta):
        u, w = orientation_vectors(theta)
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        assert abs(np.linalg.norm(w) - 1) < 1e-12
        assert abs(u @ w - math.cos(2 * theta)) < 1e-12

    @pytest.mark.parametrize("theta", np.linspace(-1.4, 1.4, 17))
    def test_negation_swaps_vectors(self, theta):
        u_neg, w_neg = orientation_vectors(-theta)
        u, w = orientation_vectors(theta)
        assert np.allclose(u_neg, w, rtol=0, atol=1e-15)
        assert np.allclose(w_neg, u, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2, 2.0, math.nan])
    def test_domain_errors(self, theta):
        with pytest.raises(FlexionRangeError):
            orientation_vectors(theta)


class TestFlexionInterval:
    def test_contains_mirrored(self):
        it = FlexionInterval(0.3, 1.0)
        assert it.mirrored
        for t in (0.3, 0.7, 1.0, -0.5, -1.0):
            assert it.contains(t)
        for t in (0.0, 0.2, 1.1, -0.1, -1.2):
            assert not it.contains(t)

    def test_contains_symmetric_open(self):
        it = FlexionInterval(-1.0, 1.0, closed_lo=False, closed_hi=False)
        assert not it.mirrored
        assert it.contains(0.0)
        assert not it.contains(1.0)
        assert not it.contains(-1.0)

    def test_samples_respect_open_ends(self):
        it = FlexionInterval(0.2, 0.8, closed_lo=True, closed_hi=False)
        s = it.samples(10)
        assert len(s) == 10
        assert s[0] == 0.2
        assert s[-1] < 0.8
        assert it.samples(1)[0] == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(FlexionRangeError):
            FlexionInterval(1.0, 0.5)

    def test_intersect(self):
        a = FlexionInterval(0.1, 0.9, closed_hi=False)
        b = FlexionInterval(0.2, 1.0)
        c = a.intersect(b)
        assert (c.lo, c.hi) == (0.2, 0.9)
        assert c.closed_lo and not c.closed_hi
        with pytest.raises(FlexionRangeError):
            a.intersect(FlexionInterval(1.2, 1.4))


class TestWedgeAngle:
    def test_right_angle(self):
        ang = wedge_angle(np.array([0, 0, 1.0]), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert ang == pytest.approx(math.pi / 2, abs=1e-15)

    def test_reflex_side(self):
        ang = wedge_angle(np.array([0, 0, 1.0]), np.array([0, 1.0, 0]), np.array([1.0, 0, 0]))
        assert ang == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_components_along_edge_ignored(self):
        ang = wedge_angle(
            np.array([0, 0, 2.0]), np.array([1.0, 0, 5.0]), np.array([-1.0, 0, -3.0])
        )
        assert ang == pytest.approx(math.pi, abs=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            wedge_angle(np.array([0, 0, 1.0]), np.array([0, 0, 2.0]), np.array([1.0, 0, 0]))

    def test_zero_length_edge(self):
        with pytest.raises(DegenerateGeometryError, match="zero-length"):
            wedge_angle(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))

    def test_broadcast_matches_scalar_with_nan_where_undefined(self):
        rng = np.random.default_rng(11)
        e, a, b = rng.normal(size=(3, 5, 4, 3))
        a[1, 2] = 3.0 * e[1, 2]  # face direction along the edge
        e[3, 0] = 0.0  # zero-length edge
        got = wedge_angle(e, a, b)
        assert got.shape == (5, 4)
        for idx in np.ndindex(5, 4):
            try:
                want = wedge_angle(e[idx], a[idx], b[idx])
            except DegenerateGeometryError:
                want = math.nan
            assert got[idx] == want or (math.isnan(got[idx]) and math.isnan(want))
        assert np.isnan(got).sum() == 2
        # A single edge against many face directions broadcasts too.
        assert wedge_angle(e[0, 0], a[0], b[0]).shape == (4,)
