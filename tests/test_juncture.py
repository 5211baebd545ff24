"""Tests for chain realization, closure, flexion range and dihedrals."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flexprism import (
    DegenerateGeometryError,
    EmptyFlexionIntervalError,
    FlexionRangeError,
    FlexprismError,
    JunctureType,
    chain_steps,
    chain_vertices,
    closure_residual,
    dihedral_from_angles,
    edge_step,
    flexion_range,
    juncture_i_oee,
    orientation_vectors,
    symmetric_start,
    with_z_signs,
)
from conftest import CANONICAL, random_juncture, right_angle_juncture

DEG = math.pi / 180.0


class TestEdgeStep:
    def test_right_angles_step_straight_up(self):
        for theta in (0.0, 0.4, -1.2):
            step = edge_step(2.0, math.pi / 2, math.pi / 2, theta, 1)
            assert np.allclose(step, [0, 0, 2.0], atol=1e-15)
            step = edge_step(2.0, math.pi / 2, math.pi / 2, theta, -1)
            assert np.allclose(step, [0, 0, -2.0], atol=1e-15)

    def test_invariants_against_orientation_vectors(self, rng):
        # The defining identities: length and both face angles, at any theta.
        for _ in range(300):
            au, aw = rng.uniform(0.3, math.pi - 0.3, 2)
            length = rng.uniform(0.2, 3.0)
            lo, hi = abs(au - aw) / 2, min((au + aw) / 2, math.pi - (au + aw) / 2)
            if hi - lo < 1e-3:
                continue
            theta = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
            step = edge_step(length, au, aw, theta, int(rng.choice([1, -1])))
            u, w = orientation_vectors(theta)
            assert abs(np.linalg.norm(step) - length) < 1e-12 * length
            assert abs(step @ u - length * math.cos(au)) < 1e-12
            assert abs(step @ w - length * math.cos(aw)) < 1e-12

    def test_supplementary_pair_at_45(self):
        # angle_u = 60, angle_w = 120: in-plane part fixed by the identities.
        step = edge_step(1.0, 60 * DEG, 120 * DEG, 45 * DEG, 1)
        dx_expect = (math.cos(120 * DEG) - math.cos(60 * DEG)) / (2 * math.sin(45 * DEG))
        assert step[0] == pytest.approx(dx_expect, abs=1e-15)
        assert step[1] == pytest.approx(0.0, abs=1e-15)
        assert step[2] == pytest.approx(math.sqrt(1 - dx_expect**2), abs=1e-12)

    def test_out_of_range_raises(self):
        # This vertex flexes only for |theta| >= 30 degrees.
        with pytest.raises(FlexionRangeError):
            edge_step(1.0, 60 * DEG, 120 * DEG, 20 * DEG, 1)
        with pytest.raises(FlexionRangeError):
            edge_step(1.0, 60 * DEG, 120 * DEG, 0.0, 1)

    def test_theta_zero_needs_equal_angles(self):
        step = edge_step(1.0, 70 * DEG, 70 * DEG, 0.0, 1)
        assert step[0] == 0.0
        assert np.linalg.norm(step) == pytest.approx(1.0, abs=1e-15)

    def test_bad_arguments(self):
        with pytest.raises(FlexprismError):
            edge_step(1.0, 1.0, 1.0, 0.5, 0)
        with pytest.raises(FlexprismError):
            edge_step(-1.0, 1.0, 1.0, 0.5, 1)


class TestChainVertices:
    def test_right_angle_square_chain(self):
        p = right_angle_juncture(4, 1.0)
        verts = chain_vertices(p, np.zeros(3), 0.7)
        expected = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 1)]
        assert np.allclose(verts, expected, atol=1e-15)
        assert np.allclose(closure_residual(p, 0.7), 0, atol=1e-15)

    @pytest.mark.parametrize("kind", list(JunctureType))
    def test_consecutive_distances_are_lengths(self, kind):
        p = CANONICAL[kind]()
        rng_p = flexion_range(p)
        for theta in rng_p.samples(9):
            verts = chain_vertices(p, np.array([0.3, -0.2, 1.0]), theta)
            d = np.linalg.norm(np.diff(verts, axis=0), axis=1)
            assert np.max(np.abs(d - p.lengths[:-1])) < 1e-12 * p.total_length

    def test_translation_equivariance(self):
        p = CANONICAL[JunctureType.I_OEE]()
        t = np.array([1.0, -2.0, 0.5])
        theta = 0.6
        a = chain_vertices(p, np.zeros(3), theta) + t
        b = chain_vertices(p, t, theta)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_determinism(self):
        p = CANONICAL[JunctureType.III_OAE]()
        a = chain_vertices(p, np.zeros(3), 0.9)
        b = chain_vertices(p, np.zeros(3), 0.9)
        assert np.array_equal(a, b)


class TestClosure:
    @pytest.mark.parametrize("kind", list(JunctureType))
    def test_closure_across_sweep_including_flats(self, kind):
        p = CANONICAL[kind]()
        for theta in flexion_range(p).samples(50):
            res = closure_residual(p, theta)
            assert float(np.linalg.norm(res)) < 1e-9 * p.total_length

    def test_wrong_sign_pattern_breaks_closure(self):
        p = CANONICAL[JunctureType.I_OEE]()
        bad = with_z_signs(p, [1, 1, 1, 1])
        theta = flexion_range(p).samples(5)[2]
        assert float(np.linalg.norm(closure_residual(bad, theta))) > 1e-3

    def test_table_built_type_three_closes_at_spot_checks(self):
        from flexprism import juncture_iii_oae

        p = juncture_iii_oae(6, 3, 85 * DEG, 95 * DEG, [2.0, 0.8], [1.5, 0.6])
        for theta_deg in (10.0, 30.0, 55.0):
            res = closure_residual(p, theta_deg * DEG)
            assert float(np.linalg.norm(res)) < 1e-9 * p.total_length


class TestFlexionRange:
    def test_right_angles_full_open_interval(self):
        rng_p = flexion_range(right_angle_juncture())
        assert rng_p.lo == pytest.approx(-math.pi / 2)
        assert rng_p.hi == pytest.approx(math.pi / 2)
        assert not rng_p.closed_lo and not rng_p.closed_hi

    def test_supplementary_worst_vertex(self):
        # angle pair (60, 120) at every vertex: |theta| in [30, 90) degrees.
        p = juncture_i_oee(np.array([60, 60, 120, 120]) * DEG, [1.0, 1.0])
        rng_p = flexion_range(p)
        assert rng_p.lo == pytest.approx(30 * DEG)
        assert rng_p.hi == pytest.approx(90 * DEG)
        assert rng_p.closed_lo and not rng_p.closed_hi
        assert rng_p.mirrored

    def test_equal_angles_45(self):
        # Both face angles agree at every vertex (45 or 135 degrees), so the
        # interval is the single symmetric span and tops out at 45 degrees.
        p = juncture_i_oee(np.array([45, 135, 45, 135]) * DEG, [1.0, 1.0])
        rng_p = flexion_range(p)
        assert rng_p.lo == pytest.approx(-45 * DEG)
        assert rng_p.hi == pytest.approx(45 * DEG)
        assert rng_p.closed_lo and rng_p.closed_hi

    def test_against_radicand_brute_force(self, rng):
        for kind in JunctureType:
            p = random_juncture(kind, 6, rng, min_width=0.05)
            rng_p = flexion_range(p)
            grid = np.linspace(1e-4, math.pi / 2 - 1e-4, 4001)
            feasible = []
            for t in grid:
                dx = p.lengths * (p.cos_w - p.cos_u) / (2 * math.sin(t))
                dy = p.lengths * (p.cos_w + p.cos_u) / (2 * math.cos(t))
                feasible.append(bool(np.all(dx * dx + dy * dy <= p.lengths**2 * (1 + 1e-12))))
            idx = np.nonzero(feasible)[0]
            assert len(idx) > 0
            lo_bf, hi_bf = grid[idx[0]], grid[idx[-1]]
            spacing = grid[1] - grid[0]
            assert max(rng_p.lo, 0.0) == pytest.approx(lo_bf, abs=2 * spacing)
            assert rng_p.hi == pytest.approx(hi_bf, abs=2 * spacing)

    def test_empty_interval(self):
        p = juncture_i_oee(np.array([170, 30, 60, 30]) * DEG, [1.0])
        with pytest.raises(EmptyFlexionIntervalError):
            flexion_range(p)

    def test_flat_endpoint_has_zero_step(self):
        p = juncture_i_oee(np.array([60, 60, 120, 120]) * DEG, [1.0, 1.0])
        rng_p = flexion_range(p)
        steps = chain_steps(p, rng_p.lo)
        assert np.min(np.abs(steps[:, 2])) == 0.0


class TestSymmetricStart:
    def test_i_oee_axial_symmetry(self):
        p = CANONICAL[JunctureType.I_OEE]()
        m = p.m
        for theta in flexion_range(p).samples(5):
            verts = chain_vertices(p, symmetric_start(p, theta), theta)
            for k in range(m):
                assert verts[k + m][0] == pytest.approx(-verts[k][0], abs=1e-9)
                assert verts[k + m][1] == pytest.approx(verts[k][1], abs=1e-9)
                assert verts[k + m][2] == pytest.approx(-verts[k][2], abs=1e-9)

    def test_ii_aee_mirror_in_y(self):
        p = CANONICAL[JunctureType.II_AEE]()
        n = p.n
        for theta in flexion_range(p).samples(5):
            verts = chain_vertices(p, symmetric_start(p, theta), theta)
            for k in range(1, n + 1):
                partner = (n - k + 2 - 1) % n  # 0-based index of vertex n-k+2
                assert verts[partner][0] == pytest.approx(verts[k - 1][0], abs=1e-9)
                assert verts[partner][1] == pytest.approx(-verts[k - 1][1], abs=1e-9)
                assert verts[partner][2] == pytest.approx(verts[k - 1][2], abs=1e-9)

    def test_ii_oee_mirror_in_z(self):
        p = CANONICAL[JunctureType.II_OEE]()
        m = p.m
        for theta in flexion_range(p).samples(5):
            verts = chain_vertices(p, symmetric_start(p, theta), theta)
            for k in range(m):
                assert verts[k + m][0] == pytest.approx(verts[k][0], abs=1e-9)
                assert verts[k + m][1] == pytest.approx(verts[k][1], abs=1e-9)
                assert verts[k + m][2] == pytest.approx(-verts[k][2], abs=1e-9)

    def test_type_three_has_no_symmetric_start(self):
        with pytest.raises(FlexprismError):
            symmetric_start(CANONICAL[JunctureType.III_OAE](), 0.5)


class TestDihedralFromAngles:
    def test_right_angles_give_double_theta(self):
        for t in np.linspace(0.0, math.pi / 2 - 1e-6, 200):
            eps = dihedral_from_angles(math.pi / 2, math.pi / 2, t)
            assert abs(eps - 2 * t) < 1e-12

    def test_flat_limit_unreachable_at_zero(self):
        with pytest.raises(FlexionRangeError):
            dihedral_from_angles(60 * DEG, 120 * DEG, 0.0)

    def test_supplementary_at_sixty(self):
        eps = dihedral_from_angles(60 * DEG, 120 * DEG, 60 * DEG)
        assert eps == pytest.approx(math.acos(-1.0 / 3.0), abs=1e-12)

    def test_equals_arccos_form_inside_range(self, rng):
        for _ in range(500):
            au, aw = rng.uniform(0.3, math.pi - 0.3, 2)
            lo, hi = abs(au - aw) / 2, min((au + aw) / 2, math.pi - (au + aw) / 2)
            if hi - lo < 1e-3:
                continue
            t = rng.uniform(lo + 1e-6, hi - 1e-6)
            naive = math.acos(
                max(
                    -1.0,
                    min(
                        1.0,
                        (math.cos(2 * t) - math.cos(au) * math.cos(aw))
                        / (math.sin(au) * math.sin(aw)),
                    ),
                )
            )
            assert dihedral_from_angles(au, aw, t) == pytest.approx(naive, abs=1e-9)

    def test_exact_at_flat_endpoints(self):
        au, aw = 70 * DEG, 100 * DEG  # upper flat below pi/2
        lo = abs(au - aw) / 2
        hi = (au + aw) / 2
        assert dihedral_from_angles(au, aw, lo) == 0.0
        assert dihedral_from_angles(au, aw, hi) == pytest.approx(math.pi, abs=1e-15)
        au, aw = 70 * DEG, 130 * DEG  # angle sum beyond pi folds back
        hi = math.pi - (au + aw) / 2
        assert dihedral_from_angles(au, aw, hi) == pytest.approx(math.pi, abs=1e-15)

    def test_degenerate_face_angle(self):
        with pytest.raises(DegenerateGeometryError):
            dihedral_from_angles(1e-13, 1.0, 0.5)

    def test_theta_outside_half_turn(self):
        with pytest.raises(FlexionRangeError):
            dihedral_from_angles(math.pi / 2, math.pi / 2, math.pi / 2)

    def test_broadcast_matches_scalar_with_nan_where_undefined(self, rng):
        au = rng.uniform(0.3, math.pi - 0.3, 6)
        aw = rng.uniform(0.3, math.pi - 0.3, 6)
        au[4] = 1e-13  # degenerate face angle
        thetas = np.concatenate([rng.uniform(-1.5, 1.5, 7), [math.pi / 2, -math.pi / 2, 0.0]])
        got = dihedral_from_angles(au, aw, thetas[:, None])
        assert got.shape == (10, 6)
        undefined = 0
        for t, k in np.ndindex(10, 6):
            try:
                want = dihedral_from_angles(float(au[k]), float(aw[k]), float(thetas[t]))
            except (FlexionRangeError, DegenerateGeometryError):
                want = math.nan
                undefined += 1
            assert got[t, k] == want or (math.isnan(got[t, k]) and math.isnan(want))
        assert 10 <= undefined < 60
        assert np.isnan(got[:, 4]).all() and np.isnan(got[7:9]).all()
