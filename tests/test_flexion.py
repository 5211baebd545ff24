"""Tests for frame realization, rigidity certification and profiles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flexprism import (
    DihedralProfile,
    FlexionRangeError,
    FlexprismError,
    JunctureType,
    SegmentSpec,
    build_open,
    build_torus,
    dihedral_profiles,
    realize,
    rigidity_report,
    sweep,
)
from flexprism.flexion import Frame
from flexprism.geom import orientation_vectors
from conftest import (
    CANONICAL,
    open_j2,
    open_j3,
    random_juncture,
    right_angle_juncture,
    torus_j4,
)

DEG = math.pi / 180.0


def _all_polys():
    out = []
    for kind, make in CANONICAL.items():
        seed = make()
        out.append((f"{kind.value}-j2", open_j2(seed)))
        out.append((f"{kind.value}-j3", open_j3(seed)))
        out.append((f"{kind.value}-torus", torus_j4(seed)))
    return out


class TestRealize:
    def test_right_angle_tube_vertices(self):
        # A straight square-section tube bent at one juncture.
        poly = open_j2(right_angle_juncture(4, 1.0))
        theta = 0.5
        fr = realize(poly, theta)
        u, w = orientation_vectors(theta)
        # Symmetric start puts the chain at z = -1, 0, +1, 0.
        chain = np.array([[0, 0, -1], [0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
        assert np.allclose(fr.rings[1], chain, atol=1e-12)
        assert np.allclose(fr.rings[0], chain - 2.0 * (-u), atol=1e-12)
        assert np.allclose(fr.rings[2], chain + 2.0 * w, atol=1e-12)

    def test_determinism_bitwise(self):
        poly = open_j3(CANONICAL[JunctureType.II_AEE]())
        a = realize(poly, 0.6)
        b = realize(poly, 0.6)
        assert np.array_equal(a.rings, b.rings)

    def test_mirror_symmetry_under_negated_theta(self):
        poly = open_j3(CANONICAL[JunctureType.I_OEE]())
        theta = poly.flexion_interval.samples(5)[2]
        plus = realize(poly, theta)
        minus = realize(poly, -theta)
        mirrored = plus.rings * np.array([-1.0, 1.0, 1.0])
        assert np.max(np.abs(minus.rings - mirrored)) < 1e-9

    def test_out_of_range_rejected(self):
        poly = open_j2(CANONICAL[JunctureType.I_OEE]())
        with pytest.raises(FlexionRangeError):
            realize(poly, 0.01)  # inside the gap around zero

    def test_flat_endpoint_realizes(self):
        poly = open_j2(CANONICAL[JunctureType.I_OEE]())
        rng_p = poly.flexion_interval
        fr = realize(poly, rng_p.lo)
        assert np.min(np.abs(np.diff(fr.rings[1][:, 2]))) == 0.0

    def test_sweep_counts(self):
        poly = open_j2(CANONICAL[JunctureType.III_OAE]())
        assert len(sweep(poly, 1)) == 1
        assert len(sweep(poly, 50)) == 50
        with pytest.raises(FlexprismError):
            sweep(poly, 0)


class TestRigidity:
    @pytest.mark.parametrize("name,poly", _all_polys())
    def test_all_builds_rigid_over_sweep(self, name, poly):
        report = rigidity_report(sweep(poly, 25), poly)
        assert report.passed(1e-9), report.summary()

    def test_single_frame_zero_deviation(self):
        poly = open_j2(CANONICAL[JunctureType.I_OEE]())
        report = rigidity_report(sweep(poly, 1), poly)
        assert report.max_face_deviation == 0.0
        assert report.max_edge_deviation < 1e-12

    def test_corrupted_vertex_is_localized(self):
        poly = open_j3(CANONICAL[JunctureType.I_OEE]())
        frames = sweep(poly, 9)
        rings = frames[4].rings.copy()
        rings[1, 2] += np.array([0.0, 0.0, 1e-3])  # poke one juncture vertex
        frames[4] = type(frames[4])(theta=frames[4].theta, rings=rings)
        report = rigidity_report(frames, poly)
        assert not report.passed(1e-9)
        bad = {report.edge_labels[e] for e in np.nonzero(report.edge_deviation > 1e-6)[0]}
        # Only edges meeting the poked vertex move (parallel edges only to
        # second order: the poke is orthogonal to them).
        vid = 1 * poly.n + 2
        touching = {lbl for a, b, _, lbl in poly.edges() if vid in (a, b)}
        assert bad and bad <= touching

    def test_torus_closure_across_sweep(self):
        poly = torus_j4(CANONICAL[JunctureType.II_OEE]())
        frames = sweep(poly, 20)
        assert max(fr.closure_gap for fr in frames) < 1e-9 * poly.seed.total_length


class TestFaceGeometry:
    @pytest.mark.parametrize("name,poly", _all_polys())
    def test_faces_planar_with_parallel_edges(self, name, poly):
        faces = poly.faces()
        for fr in sweep(poly, 7):
            verts = fr.vertices
            u, w = orientation_vectors(fr.theta)
            for s in range(poly.segment_count):
                direction = poly.segments[s].orient.vector(u, w)
                for k in range(poly.n):
                    q = verts[faces[s * poly.n + k]]
                    e1 = q[3] - q[0]  # parallel edges of the trapezoid
                    e2 = q[2] - q[1]
                    for e in (e1, e2):
                        cross = np.linalg.norm(np.cross(e, direction))
                        assert cross < 1e-9 * np.linalg.norm(e)
                    # planarity: triple product of spanning edges
                    v1, v2, v3 = q[1] - q[0], q[2] - q[0], q[3] - q[0]
                    vol = abs(np.dot(v1, np.cross(v2, v3)))
                    assert vol < 1e-9


class TestDihedralProfiles:
    def test_right_angle_juncture_gives_double_theta(self):
        poly = open_j2(right_angle_juncture(4, 1.0))
        frames = sweep(poly, 21)
        prof = dihedral_profiles(frames, poly)
        folded = DihedralProfile.fold(prof.epsilon)
        for t_idx, theta in enumerate(prof.thetas):
            assert np.allclose(folded[t_idx, 0], 2 * abs(theta), atol=1e-9)
            assert np.allclose(prof.epsilon_formula[t_idx, 0], 2 * abs(theta), atol=1e-12)

    @pytest.mark.parametrize("name,poly", _all_polys())
    def test_formula_matches_measurement(self, name, poly):
        frames = sweep(poly, 15)
        prof = dihedral_profiles(frames, poly)
        folded = DihedralProfile.fold(prof.epsilon)
        both = ~(np.isnan(folded) | np.isnan(prof.epsilon_formula))
        assert both.any()
        assert np.max(np.abs(folded[both] - prof.epsilon_formula[both])) < 1e-9

    @pytest.mark.parametrize("name,poly", _all_polys())
    def test_nonconstancy_over_windows(self, name, poly):
        frames = sweep(poly, 50)
        prof = dihedral_profiles(frames, poly)
        width = 0.1
        thetas = prof.thetas
        assert thetas[-1] - thetas[0] > width
        for series in (
            prof.epsilon.reshape(len(thetas), -1),
            prof.delta.reshape(len(thetas), -1),
        ):
            for col in range(series.shape[1]):
                vals = series[:, col]
                assert not np.isnan(vals).any()
                for start in range(len(thetas)):
                    stop = np.searchsorted(thetas, thetas[start] + width)
                    if stop >= len(thetas):
                        break
                    window = vals[start : stop + 1]
                    assert window.max() - window.min() > 1e-6

    def test_profiles_depend_continuously(self):
        poly = open_j2(CANONICAL[JunctureType.II_AEE]())
        prof = dihedral_profiles(sweep(poly, 40), poly)
        eps = prof.epsilon.reshape(40, -1)
        jumps = np.abs(np.diff(eps, axis=0))
        circular = np.minimum(jumps, 2 * math.pi - jumps)  # wedges wrap at 0/2pi
        assert np.nanmax(circular) < 0.5


# ---------------------------------------------------------------------------
# Reference route: the per-edge loop that dihedral_profiles replaced, with
# its scalar wedge and closed form, kept as they were.

def _ref_wedge(edge_dir, into_a, into_b):
    e = np.asarray(edge_dir, dtype=float)
    en = np.linalg.norm(e)
    if en < 1e-300:
        return math.nan
    e = e / en
    da = np.asarray(into_a, dtype=float)
    db = np.asarray(into_b, dtype=float)
    pa = da - (da @ e) * e
    pb = db - (db @ e) * e
    na, nb = np.linalg.norm(pa), np.linalg.norm(pb)
    scale = max(np.linalg.norm(da), np.linalg.norm(db), 1e-300)
    if na < 1e-12 * scale or nb < 1e-12 * scale:
        return math.nan
    pa, pb = pa / na, pb / nb
    ang = math.atan2(float(e @ np.cross(pa, pb)), float(pa @ pb))
    return ang + 2 * math.pi if ang < 0 else ang


def _ref_closed_form(angle_u, angle_w, theta):
    if abs(math.sin(angle_u) * math.sin(angle_w)) < 1e-12:
        return math.nan
    if not (math.isfinite(theta) and -math.pi / 2 < theta < math.pi / 2):
        return math.nan
    t = abs(theta)
    d = (angle_u - angle_w) / 2.0
    s = (angle_u + angle_w) / 2.0
    num = math.sin(t - d) * math.sin(t + d)
    den = math.sin(s - t) * math.sin((math.pi - s) - t)
    if num < -1e-12 or den < -1e-12:
        return math.nan
    num, den = max(num, 0.0), max(den, 0.0)
    if num * den <= 1e-12 * (math.sin(t) * math.cos(t)) ** 2:
        return 0.0 if num <= den else math.pi
    return 2.0 * math.atan2(math.sqrt(num), math.sqrt(den))


def _ref_face_wedge(verts, edge, face_a, face_b):
    pa, pb = verts[edge[0]], verts[edge[1]]
    mid = (pa + pb) / 2.0
    return _ref_wedge(pb - pa, verts[face_a].mean(axis=0) - mid, verts[face_b].mean(axis=0) - mid)


def _ref_profiles(frames, poly):
    n = poly.n
    faces = poly.faces()
    t_count, j_count, s_count = len(frames), len(poly.junctures), poly.segment_count
    eps = np.full((t_count, j_count, n), np.nan)
    eps_formula = np.full((t_count, j_count, n), np.nan)
    delta = np.full((t_count, s_count, n), np.nan)
    for t, fr in enumerate(frames):
        verts = fr.vertices
        for j in range(j_count):
            s_in, s_out = poly.juncture_pair(j)
            ring = poly.juncture_ring(j)
            t_loc = poly.theta_local(j, fr.theta)
            eff = poly.junctures[j]
            for k in range(n):
                edge = (ring * n + k, ring * n + (k + 1) % n)
                eps[t, j, k] = _ref_face_wedge(
                    verts, edge, faces[s_in * n + k], faces[s_out * n + k]
                )
                eps_formula[t, j, k] = _ref_closed_form(eff.angles_u[k], eff.angles_w[k], t_loc)
        for s in range(s_count):
            r1, r2 = poly.segment_rings(s)
            for k in range(n):
                edge = (r1 * n + k, r2 * n + k)
                delta[t, s, k] = _ref_face_wedge(
                    verts, edge, faces[s * n + (k - 1) % n], faces[s * n + k]
                )
    return eps, eps_formula, delta


def _random_polys():
    rng = np.random.default_rng(20261017)
    out = []
    for kind in JunctureType:
        seed = random_juncture(kind, 8, rng)
        orients = ["-u", "+w", "-u", "-w", "+u"]
        out.append((f"{kind.value}-n8-open5", build_open(
            seed, [SegmentSpec(o, float(rng.uniform(1.5, 3.0))) for o in orients])))
        out.append((f"{kind.value}-n8-torus8", build_torus(
            seed, [SegmentSpec(("+u", "+w", "-u", "-w")[i % 4], 2.0) for i in range(8)])))
    return out


def _sweep_both_branches(poly, count):
    """Frames over the interval, closed endpoints included, plus the mirror
    branch -theta of every sample."""
    thetas = poly.flexion_interval.samples(count)
    return [realize(poly, t) for t in np.concatenate([thetas, -thetas])]


class TestDihedralProfilesReference:
    @pytest.mark.parametrize("name,poly", _all_polys() + _random_polys())
    def test_agrees_with_per_edge_loop(self, name, poly):
        interval = poly.flexion_interval
        frames = _sweep_both_branches(poly, 7)
        thetas = [fr.theta for fr in frames]
        assert not interval.closed_lo or interval.lo in thetas
        assert not interval.closed_hi or interval.hi in thetas
        prof = dihedral_profiles(frames, poly)
        for got, want in zip(
            (prof.epsilon, prof.epsilon_formula, prof.delta), _ref_profiles(frames, poly)
        ):
            assert got.shape == want.shape
            assert np.array_equal(np.isnan(got), np.isnan(want))
            both = ~np.isnan(want)
            assert np.max(np.abs(got[both] - want[both]), initial=0.0) <= 1e-15
        assert np.array_equal(prof.thetas, thetas)

    @pytest.mark.parametrize("name,poly", _all_polys())
    def test_flat_endpoints_exact(self, name, poly):
        interval = poly.flexion_interval
        assert interval.closed_lo and interval.closed_hi
        formula = dihedral_profiles(sweep(poly, 5), poly).epsilon_formula
        for t in (0, -1):
            flat = (formula[t] == 0.0) | (formula[t] == math.pi)
            assert flat.any()


class TestDihedralNaNContract:
    """A collapsed face makes exactly its four edges' wedges NaN."""

    @staticmethod
    def _collapse(poly, frame, s, k, how):
        n = poly.n
        r1, r2 = poly.segment_rings(s)
        corners = [r1 * n + k, r1 * n + (k + 1) % n, r2 * n + (k + 1) % n, r2 * n + k]
        verts = frame.vertices.copy()
        p, q = verts[corners[0]], verts[corners[2]]
        for i, v in enumerate(corners):
            # "point": all four corners coincide (zero-length edges);
            # "line": distinct corners on one line (face directions along
            # the edges).
            verts[v] = p if how == "point" else p + (q - p) * (i + 1) / 4.0
        return Frame(theta=frame.theta, rings=verts.reshape(frame.rings.shape))

    @pytest.mark.parametrize("how", ["point", "line"])
    @pytest.mark.parametrize("build", [open_j3, torus_j4])
    def test_collapsed_face(self, build, how):
        poly = build(CANONICAL[JunctureType.II_AEE]())
        n, s, k = poly.n, 1, 2
        frames = sweep(poly, 5)
        frames[3] = self._collapse(poly, frames[3], s, k, how)
        prof = dihedral_profiles(frames, poly)

        r1, r2 = poly.segment_rings(s)
        want_eps = np.zeros(prof.epsilon.shape, dtype=bool)
        for j in range(len(poly.junctures)):
            if poly.juncture_ring(j) in (r1, r2):
                want_eps[3, j, k] = True
        want_delta = np.zeros(prof.delta.shape, dtype=bool)
        want_delta[3, s, [k, (k + 1) % n]] = True
        assert want_eps.sum() == 2
        assert np.array_equal(np.isnan(prof.epsilon), want_eps)
        assert np.array_equal(np.isnan(prof.delta), want_delta)
        assert not np.isnan(prof.epsilon_formula).any()

    def test_closed_form_undefined_at_half_turn(self):
        # At theta = 0 the opposed junctures' local half-angle is pi/2,
        # which the closed form rejects; the aligned ones are flat there.
        # The right-angle chain keeps the closure radicand at exactly zero,
        # so only the half-angle check can make these entries NaN.
        poly = torus_j4(right_angle_juncture())
        frame = sweep(poly, 3)[1]
        frames = [Frame(theta=0.0, rings=frame.rings), frame]
        prof = dihedral_profiles(frames, poly)
        opposed = np.array([poly.theta_local(j, 0.0) == math.pi / 2
                            for j in range(len(poly.junctures))])
        assert opposed.any() and not opposed.all()
        want = np.zeros(prof.epsilon_formula.shape, dtype=bool)
        want[0, opposed] = True
        assert np.array_equal(np.isnan(prof.epsilon_formula), want)
        assert np.all(prof.epsilon_formula[0, ~opposed] == 0.0)
        assert np.array_equal(np.isnan(_ref_profiles(frames, poly)[1]), want)
        assert not np.isnan(prof.epsilon).any()
