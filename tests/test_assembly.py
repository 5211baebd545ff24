"""Tests for offsets, segment assembly, variant mapping and counts."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from flexprism import (
    ClosureError,
    FlexprismError,
    InfeasibleLengthError,
    JunctureType,
    Orientation,
    OrientationRuleError,
    SegmentSpec,
    alternate_params,
    append_segment,
    build_open,
    build_torus,
    edge_lengths,
    effective_juncture,
    euler_counts,
    flexion_range,
    min_segment_length,
    offsets,
    sweep,
    variant_tag,
)
import flexprism.assembly as assembly
from conftest import CANONICAL, open_j2, open_j3, right_angle_juncture, torus_j4

DEG = math.pi / 180.0


class TestOffsets:
    def test_right_angles_all_zero(self):
        t = offsets(right_angle_juncture(4, 2.0))
        assert np.allclose(t.nu, 0, atol=1e-15)
        assert np.allclose(t.mu, 0, atol=1e-15)
        assert abs(t.n_min) < 1e-15 and abs(t.m_max) < 1e-15

    def test_hand_computed_recurrence(self):
        from flexprism import juncture_i_oee

        p = juncture_i_oee(np.array([60, 70, 120, 110]) * DEG, [1.0, 1.0])
        t = offsets(p)
        assert t.nu[0] == 0.0
        assert t.nu[1] == pytest.approx(-math.cos(70 * DEG), abs=1e-15)
        assert t.nu[2] == pytest.approx(-math.cos(70 * DEG) - math.cos(120 * DEG), abs=1e-15)
        assert t.n_min == pytest.approx(-math.cos(70 * DEG), abs=1e-15)

    def test_cycle_returns_to_zero(self):
        # One more step with the first vertex's term closes the walk.
        for make in CANONICAL.values():
            p = make()
            t = offsets(p)
            back = t.nu[-1] - p.lengths[0] * p.cos_u[0]
            assert abs(back) < 1e-12 * p.total_length
            back = t.mu[-1] + p.lengths[0] * p.cos_w[0]
            assert abs(back) < 1e-12 * p.total_length


class TestEdgeLengths:
    def test_right_angles_uniform(self):
        t = offsets(right_angle_juncture(4, 2.0))
        ls = edge_lengths(2.0, t, t)
        assert np.allclose(ls, 2.0, atol=0)
        assert min_segment_length(t, t) == 0.0

    def test_below_minimum_raises(self):
        p = CANONICAL[JunctureType.II_AEE]()
        t = offsets(p)
        bound = min_segment_length(t, t)
        with pytest.raises(InfeasibleLengthError):
            edge_lengths(bound, t, t)
        assert np.all(edge_lengths(bound + 1e-6, t, t) > 0)

    def test_minimum_matches_brute_force(self):
        # Oracle: scan the per-edge positivity bound directly.
        p = CANONICAL[JunctureType.I_OEE]()
        q = alternate_params(p, "A")
        prev, nxt = offsets(p), offsets(q)
        brute = max(
            prev.mu[k] - prev.m_max + nxt.nu[k] - nxt.n_min for k in range(p.n)
        )
        assert min_segment_length(prev, nxt) == pytest.approx(brute, abs=1e-15)
        eps = 1e-9
        assert np.all(edge_lengths(brute + eps, prev, nxt) > 0)
        with pytest.raises(InfeasibleLengthError):
            edge_lengths(brute - eps, prev, nxt)


class TestVariantMapping:
    def test_base_pair_reproduces_seed(self):
        p = CANONICAL[JunctureType.I_OEE]()
        eff = effective_juncture(p, Orientation.U_MINUS, Orientation.W_PLUS)
        assert np.array_equal(eff.angles_u, p.angles_u)
        assert np.array_equal(eff.angles_w, p.angles_w)
        assert variant_tag(Orientation.U_MINUS, Orientation.W_PLUS) == "base"

    @pytest.mark.parametrize(
        "incoming,outgoing,variant",
        [
            (Orientation.U_MINUS, Orientation.W_MINUS, "A"),
            (Orientation.U_PLUS, Orientation.W_MINUS, "B"),
            (Orientation.U_PLUS, Orientation.W_PLUS, "C"),
        ],
    )
    def test_reflections_match_alternate_params(self, incoming, outgoing, variant):
        p = CANONICAL[JunctureType.II_OEE]()
        eff = effective_juncture(p, incoming, outgoing)
        alt = alternate_params(p, variant)
        assert np.array_equal(eff.angles_u, alt.angles_u)
        assert np.array_equal(eff.angles_w, alt.angles_w)
        assert variant_tag(incoming, outgoing) == variant

    def test_swapped_families_transpose(self):
        p = CANONICAL[JunctureType.II_AEE]()
        eff = effective_juncture(p, Orientation.W_MINUS, Orientation.U_PLUS)
        assert np.array_equal(eff.angles_u, p.angles_w)
        assert np.array_equal(eff.angles_w, p.angles_u)
        assert variant_tag(Orientation.W_MINUS, Orientation.U_PLUS) == "base'"

    def test_same_family_pair_rejected(self):
        p = CANONICAL[JunctureType.I_OEE]()
        with pytest.raises(OrientationRuleError):
            effective_juncture(p, Orientation.U_MINUS, Orientation.U_PLUS)

    @pytest.mark.parametrize("kind", list(JunctureType))
    def test_effective_sets_share_the_seed_interval(self, kind):
        # Every juncture carries the seed chain, so the feasible set of
        # |theta| must coincide after the local-angle remap.
        p = CANONICAL[kind]()
        seed_rng = flexion_range(p)
        seed_lo = max(seed_rng.lo, 0.0)
        for inc in Orientation:
            for out in Orientation:
                if inc.family == out.family:
                    continue
                local = flexion_range(effective_juncture(p, inc, out))
                lo, hi = max(local.lo, 0.0), local.hi
                if inc.negated.sign * out.sign > 0:
                    assert lo == pytest.approx(seed_lo, abs=1e-12)
                    assert hi == pytest.approx(seed_rng.hi, abs=1e-12)
                else:
                    assert math.pi / 2 - hi == pytest.approx(seed_lo, abs=1e-12)
                    assert math.pi / 2 - lo == pytest.approx(seed_rng.hi, abs=1e-12)


class TestBuildOpen:
    def test_two_segment_chain(self):
        poly = open_j2(CANONICAL[JunctureType.I_OEE]())
        assert poly.segment_count == 2
        assert len(poly.junctures) == 1
        assert poly.ring_count == 3
        assert np.array_equal(poly.junctures[0].angles_u, poly.seed.angles_u)

    def test_first_two_orients_enforced(self):
        p = CANONICAL[JunctureType.I_OEE]()
        with pytest.raises(OrientationRuleError):
            build_open(p, [SegmentSpec("+u", 1.0), SegmentSpec("+w", 1.0)])
        with pytest.raises(OrientationRuleError):
            build_open(p, [SegmentSpec("-u", 1.0), SegmentSpec("-w", 1.0)])

    def test_alternation_enforced(self):
        p = CANONICAL[JunctureType.I_OEE]()
        with pytest.raises(OrientationRuleError):
            build_open(
                p,
                [SegmentSpec("-u", 1.0), SegmentSpec("+w", 1.0), SegmentSpec("-w", 1.0)],
            )

    def test_append_segment(self):
        p = CANONICAL[JunctureType.II_AEE]()
        poly = open_j2(p)
        bigger = append_segment(poly, SegmentSpec("-u", 1.5))
        assert bigger.segment_count == 3
        assert len(bigger.junctures) == 2
        # incoming +w, outgoing -u: both material directions are negated and
        # the sides swap, so the juncture carries the transposed B reflection.
        assert variant_tag(Orientation.W_PLUS, Orientation.U_MINUS) == "B'"

    def test_append_rejects_same_family(self):
        poly = open_j2(CANONICAL[JunctureType.II_AEE]())
        with pytest.raises(OrientationRuleError):
            append_segment(poly, SegmentSpec("+w", 1.0))
        with pytest.raises(OrientationRuleError):
            append_segment(poly, SegmentSpec("-w", 1.0))

    def test_append_validates_supplied_juncture(self):
        p = CANONICAL[JunctureType.II_AEE]()
        poly = open_j2(p)
        good = effective_juncture(p, Orientation.W_PLUS, Orientation.U_PLUS)
        append_segment(poly, SegmentSpec("+u", 1.5), good)
        wrong = effective_juncture(p, Orientation.W_PLUS, Orientation.U_MINUS)
        with pytest.raises(FlexprismError, match="variant|reflection"):
            append_segment(poly, SegmentSpec("+u", 1.5), wrong)

    def test_flexion_interval_computed_once_per_spec(self, monkeypatch):
        poly = open_j3(CANONICAL[JunctureType.I_OEE]())
        calls = []

        def counting(p):
            calls.append(p)
            return flexion_range(p)

        monkeypatch.setattr(assembly, "flexion_range", counting)
        # A replaced spec is a new instance without the cached interval,
        # the way the CLI's --truncate derives one.
        fresh = dataclasses.replace(poly, segments=poly.segments)
        frames = sweep(fresh, 30)
        assert len(frames) == 30
        assert 0 < len(calls) <= len(fresh.junctures) + 1
        assert fresh.flexion_interval == poly.flexion_interval

        other = open_j3(CANONICAL[JunctureType.II_AEE]())
        swapped = dataclasses.replace(poly, seed=other.seed, junctures=other.junctures)
        assert swapped.flexion_interval == other.flexion_interval
        assert swapped.flexion_interval != poly.flexion_interval
        assert poly.flexion_interval == open_j3(CANONICAL[JunctureType.I_OEE]()).flexion_interval

    def test_flexion_interval_equals_seed(self):
        for make in CANONICAL.values():
            p = make()
            poly = open_j3(p)
            seed_rng = flexion_range(p)
            assert poly.flexion_interval.lo == pytest.approx(seed_rng.lo, abs=1e-12)
            assert poly.flexion_interval.hi == pytest.approx(seed_rng.hi, abs=1e-12)


class TestBuildTorus:
    def test_rectangle_closes(self):
        poly = torus_j4(CANONICAL[JunctureType.I_OEE]())
        assert poly.genus == 1
        assert poly.segment_count == 4
        assert len(poly.junctures) == 4

    def test_unbalanced_lengths_rejected(self):
        p = CANONICAL[JunctureType.I_OEE]()
        with pytest.raises(ClosureError, match="along u"):
            build_torus(
                p,
                [
                    SegmentSpec("+u", 2.0),
                    SegmentSpec("+w", 2.0),
                    SegmentSpec("-u", 1.0),
                    SegmentSpec("-w", 2.0),
                ],
            )

    def test_odd_or_short_rejected(self):
        p = CANONICAL[JunctureType.I_OEE]()
        with pytest.raises(FlexprismError):
            build_torus(p, [SegmentSpec("+u", 1.0), SegmentSpec("+w", 1.0)])

    def test_cyclic_alternation_rejected(self):
        p = CANONICAL[JunctureType.I_OEE]()
        with pytest.raises(OrientationRuleError):
            build_torus(
                p,
                [
                    SegmentSpec("+u", 2.0),
                    SegmentSpec("+w", 2.0),
                    SegmentSpec("-w", 2.0),
                    SegmentSpec("-u", 2.0),
                ],
            )


class TestTopology:
    def test_faces_and_edges_counts(self):
        poly = open_j3(CANONICAL[JunctureType.II_OEE]())
        n, j = poly.n, poly.segment_count
        assert poly.faces().shape == (j * n, 4)
        assert len(poly.edges()) == poly.ring_count * n + j * n

    def test_euler_counts_octahedron_combinatorics(self):
        poly = open_j2(CANONICAL[JunctureType.I_OEE]())
        assert euler_counts(poly) == (6, 12, 8)

    def test_euler_counts_genus0_j3_n6(self):
        poly = open_j3(CANONICAL[JunctureType.II_OEE]())
        assert euler_counts(poly) == (14, 30, 18)

    def test_euler_counts_torus(self):
        poly = torus_j4(CANONICAL[JunctureType.I_OEE]())
        v, e, f = euler_counts(poly)
        assert (v, e, f) == (16, 32, 16)
        assert v - e + f == 0

    def test_genus0_euler_identity(self):
        poly = open_j3(CANONICAL[JunctureType.II_OEE]())
        v, e, f = euler_counts(poly)
        assert v - e + f == 2

    def test_parallel_edge_lengths_uniform(self):
        poly = open_j3(CANONICAL[JunctureType.III_OAE]())
        for s in range(poly.segment_count):
            assert np.all(poly.parallel_edge_lengths(s) == poly.segments[s].length)
