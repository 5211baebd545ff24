"""Assembling prismatic polyhedra from segments and junctures.

A polyhedron is a run of tube segments, each a ring of N parallelogram
faces whose parallel edges follow one of the four in-plane directions
+u, -u, +w, -w (see :func:`flexprism.geom.orientation_vectors`).  Adjacent
segments meet at junctures; every juncture carries the same vertex chain,
translated along the shared direction, so all face shapes are functions of
edge lengths and face angles alone and the whole structure flexes with the
single parameter theta.

Two topologies are supported:

* genus 0 -- an open chain whose first and last segments are notionally
  unbounded; their stored lengths act as export truncation lengths.
* genus 1 -- a closed ring of an even number of segments whose signed
  length sums vanish in both direction families.

Successive orientations must alternate between the u- and w-families
(choosing the previous direction or its negative would merge or fold the
segments).  The parameter set seen at each juncture is then the seed set
with one or both angle columns replaced by supplements, and possibly with
the two columns swapped; the eight cases are enumerated by
:func:`variant_tag` and are exactly the reflected sets of
:func:`flexprism.params.alternate_params` up to side labelling.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ClosureError,
    EmptyFlexionIntervalError,
    FlexprismError,
    InfeasibleLengthError,
    OrientationRuleError,
)
from .geom import FlexionInterval
from .juncture import flexion_range
from .params import JunctureParams

__all__ = [
    "Orientation",
    "SegmentSpec",
    "OffsetTables",
    "offsets",
    "min_segment_length",
    "edge_lengths",
    "effective_juncture",
    "variant_tag",
    "PolyhedronSpec",
    "build_open",
    "build_torus",
    "append_segment",
    "euler_counts",
]


class Orientation(enum.Enum):
    """Direction of a segment's parallel edges."""

    U_PLUS = "+u"
    U_MINUS = "-u"
    W_PLUS = "+w"
    W_MINUS = "-w"

    @property
    def family(self) -> str:
        return "u" if self in (Orientation.U_PLUS, Orientation.U_MINUS) else "w"

    @property
    def sign(self) -> int:
        return 1 if self in (Orientation.U_PLUS, Orientation.W_PLUS) else -1

    @property
    def negated(self) -> "Orientation":
        return _NEGATE[self]

    def vector(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        base = u if self.family == "u" else w
        return base if self.sign > 0 else -base

    @classmethod
    def parse(cls, text: str) -> "Orientation":
        t = text.strip().lower()
        if t in ("u", "+u"):
            return cls.U_PLUS
        if t == "-u":
            return cls.U_MINUS
        if t in ("w", "+w"):
            return cls.W_PLUS
        if t == "-w":
            return cls.W_MINUS
        raise FlexprismError(f"unknown orientation {text!r}; use one of +u, -u, +w, -w")

    def __str__(self) -> str:
        return self.value


_NEGATE = {
    Orientation.U_PLUS: Orientation.U_MINUS,
    Orientation.U_MINUS: Orientation.U_PLUS,
    Orientation.W_PLUS: Orientation.W_MINUS,
    Orientation.W_MINUS: Orientation.W_PLUS,
}


@dataclass(frozen=True)
class SegmentSpec:
    """One tube segment: its parallel-edge direction and its length.

    For the unbounded end segments of a genus-0 polyhedron the length is
    the truncation length used when realizing or exporting frames.
    """

    orient: Orientation
    length: float

    def __post_init__(self) -> None:
        if not isinstance(self.orient, Orientation):
            object.__setattr__(self, "orient", Orientation.parse(str(self.orient)))
        length = float(self.length)
        if not (math.isfinite(length) and length > 0.0):
            raise InfeasibleLengthError(f"segment length must be positive, got {self.length!r}")
        object.__setattr__(self, "length", length)


def _check_alternation(prev: Orientation, nxt: Orientation, where: str) -> None:
    if prev.family == nxt.family:
        raise OrientationRuleError(
            f"{where}: orientation {nxt} repeats {prev} or its negative; "
            "successive segments must switch between the u- and w-families"
        )


# ---------------------------------------------------------------------------
# Offsets and per-segment edge lengths.

@dataclass(frozen=True)
class OffsetTables:
    """Signed offsets of the juncture vertices from vertex 1.

    ``nu[k]`` accumulates -L cos(angles_u) and ``mu[k]`` accumulates
    +L cos(angles_w) along the chain (both start at 0).  ``n_min`` and
    ``m_max`` are the extreme clearances: a segment longer than the bound of
    :func:`min_segment_length` admits a cross-section cut between its two
    junctures with all parallel edges positive.
    """

    nu: np.ndarray
    mu: np.ndarray
    n_min: float
    m_max: float


def offsets(p: JunctureParams) -> OffsetTables:
    """Offset tables of a juncture parameter set."""
    nu = np.zeros(p.n)
    mu = np.zeros(p.n)
    for k in range(1, p.n):
        nu[k] = nu[k - 1] - p.lengths[k] * p.cos_u[k]
        mu[k] = mu[k - 1] + p.lengths[k] * p.cos_w[k]
    n_min = float(min(0.0, np.min(nu[: p.n - 1])))
    m_max = float(max(0.0, np.max(mu[: p.n - 1])))
    nu.setflags(write=False)
    mu.setflags(write=False)
    return OffsetTables(nu=nu, mu=mu, n_min=n_min, m_max=m_max)


def min_segment_length(prev: OffsetTables, next: OffsetTables) -> float:
    """Infimum of segment lengths with all parallel edges positive.

    Any length strictly greater makes every entry of :func:`edge_lengths`
    positive.
    """
    return float(np.max(prev.mu + next.nu)) - prev.m_max - next.n_min


def edge_lengths(s: float, prev: OffsetTables, next: OffsetTables) -> np.ndarray:
    """Parallel-edge lengths of a segment of length ``s`` between two junctures.

    Raises InfeasibleLengthError when any edge comes out non-positive, i.e.
    when ``s`` is not above :func:`min_segment_length`.
    """
    ls = s - prev.mu - next.nu + next.n_min + prev.m_max
    if np.any(ls <= 0.0):
        k = int(np.argmin(ls))
        raise InfeasibleLengthError(
            f"segment length {s!r} is too short: parallel edge {k} would be "
            f"{ls[k]:.6g} (minimum feasible length {min_segment_length(prev, next):.6g})"
        )
    return ls


# ---------------------------------------------------------------------------
# Effective parameters per juncture.

def _column(seed: JunctureParams, direction: Orientation) -> tuple[np.ndarray, np.ndarray]:
    """Angles and cosines of the seed chain against one signed direction."""
    if direction.family == "u":
        ang, cos = seed.angles_u, seed.cos_u
    else:
        ang, cos = seed.angles_w, seed.cos_w
    if direction.sign > 0:
        return ang.copy(), cos.copy()
    return np.pi - ang, -cos


def effective_juncture(
    seed: JunctureParams, incoming: Orientation, outgoing: Orientation
) -> JunctureParams:
    """Parameter set seen at a juncture between two oriented segments.

    The u-side column is the face angle against the direction into the
    incoming segment's material (the negative of its travel direction); the
    w-side column is against the outgoing travel direction.  Both columns
    are copies or supplement-reflections of the seed columns, so the
    returned set shares the seed's chain, lengths and sign pattern.
    """
    _check_alternation(incoming, outgoing, "juncture")
    ang_u, cos_u = _column(seed, incoming.negated)
    ang_w, cos_w = _column(seed, outgoing)
    return JunctureParams(
        n=seed.n,
        angles_u=ang_u,
        angles_w=ang_w,
        lengths=seed.lengths.copy(),
        kind=None,
        z_signs=seed.z_signs.copy(),
        l_idx=seed.l_idx,
        cos_u=cos_u,
        cos_w=cos_w,
    )


def variant_tag(incoming: Orientation, outgoing: Orientation) -> str:
    """Which reflected set a juncture carries, as a short label.

    "base" is the seed set itself; "A", "B", "C" are the three reflections
    (w-side, both sides, u-side).  A trailing apostrophe marks the
    side-swapped reading that occurs when the incoming material direction
    lies in the w-family.
    """
    d_in = incoming.negated
    swapped = d_in.family == "w"
    flip_in = d_in.sign < 0
    flip_out = outgoing.sign < 0
    if swapped:
        flip_u, flip_w = flip_out, flip_in
    else:
        flip_u, flip_w = flip_in, flip_out
    tag = {(False, False): "base", (False, True): "A", (True, True): "B", (True, False): "C"}[
        (flip_u, flip_w)
    ]
    return tag + ("'" if swapped else "")


# ---------------------------------------------------------------------------
# Polyhedron description.

@dataclass(frozen=True)
class PolyhedronSpec:
    """A theta-independent description of a prismatic polyhedron.

    ``seed`` is the parameter set whose chain every juncture carries;
    ``junctures`` holds the derived effective set at each juncture (J-1 of
    them for genus 0, J for genus 1).  Build with :func:`build_open` or
    :func:`build_torus` rather than directly.
    """

    genus: int
    seed: JunctureParams
    segments: tuple[SegmentSpec, ...]
    junctures: tuple[JunctureParams, ...]

    @property
    def n(self) -> int:
        return self.seed.n

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def ring_count(self) -> int:
        return self.segment_count + 1 if self.genus == 0 else self.segment_count

    def juncture_pair(self, j: int) -> tuple[int, int]:
        """(incoming, outgoing) segment indices of juncture j."""
        if self.genus == 0:
            return j, j + 1
        return j, (j + 1) % self.segment_count

    def juncture_ring(self, j: int) -> int:
        """Ring index holding juncture j's vertices."""
        return j + 1 if self.genus == 0 else j

    def segment_rings(self, s: int) -> tuple[int, int]:
        """(start, end) ring indices of segment s."""
        if self.genus == 0:
            return s, s + 1
        return (s - 1) % self.segment_count, s

    def parallel_edge_lengths(self, s: int) -> np.ndarray:
        """Lengths of the N parallel edges of segment s.

        Junctures carry congruent chains, so every parallel edge of a
        segment has the segment's own length (end segments of a genus-0
        polyhedron use their truncation length).
        """
        return np.full(self.n, self.segments[s].length)

    def faces(self) -> np.ndarray:
        """All face quads as vertex indices, shape (J*N, 4).

        Vertex (ring r, chain position k) has flat index r*N + k.  Faces
        are listed segment-major, chain-position-minor, each wound
        consistently (start ring k -> k+1, then end ring k+1 -> k).
        """
        n = self.n
        quads = []
        for s in range(self.segment_count):
            r1, r2 = self.segment_rings(s)
            for k in range(n):
                k2 = (k + 1) % n
                quads.append([r1 * n + k, r1 * n + k2, r2 * n + k2, r2 * n + k])
        return np.asarray(quads, dtype=int)

    def edges(self) -> list[tuple[int, int, float, str]]:
        """All edges as (vertex index, vertex index, expected length, label)."""
        n = self.n
        out = []
        for r in range(self.ring_count):
            for k in range(n):
                k2 = (k + 1) % n
                out.append(
                    (r * n + k, r * n + k2, float(self.seed.lengths[k]), f"ring[{r}].edge[{k}]")
                )
        for s in range(self.segment_count):
            r1, r2 = self.segment_rings(s)
            for k in range(n):
                out.append(
                    (r1 * n + k, r2 * n + k, self.segments[s].length, f"segment[{s}].edge[{k}]")
                )
        return out

    @functools.cached_property
    def flexion_interval(self) -> FlexionInterval:
        """Intersection of every juncture's feasible range.

        Each juncture constrains |theta| through its local half-angle,
        which is theta itself when the juncture's material directions are
        cos(2 theta) apart and pi/2 - theta when they are cos(2 theta)
        opposed.  For assemblies built here all constraints coincide with
        the seed's range; the intersection is still computed as a check.
        Computed once per spec and cached; a spec derived with
        ``dataclasses.replace`` is a new instance and computes its own.
        """
        bounds = [_abs_interval(flexion_range(self.seed), sigma=1)]
        for j, eff in enumerate(self.junctures):
            i_in, i_out = self.juncture_pair(j)
            sigma = -self.segments[i_in].orient.sign * self.segments[i_out].orient.sign
            bounds.append(_abs_interval(flexion_range(eff), sigma))
        lo, clo = max((b[0], not b[1]) for b in bounds)
        clo = not clo
        hi, chi = min((b[2], b[3]) for b in bounds)
        if lo > hi:
            raise EmptyFlexionIntervalError(
                "the junctures' flexion ranges do not intersect "
                f"(need |theta| >= {lo:.6g} and <= {hi:.6g})"
            )
        if lo == 0.0 and clo:
            return FlexionInterval(-hi, hi, closed_lo=chi, closed_hi=chi)
        return FlexionInterval(lo, hi, closed_lo=clo, closed_hi=chi)

    def theta_local(self, j: int, theta: float | np.ndarray) -> float | np.ndarray:
        """The local half-angle at juncture j for a global theta.

        ``theta`` may be a float or an array of angles.
        """
        i_in, i_out = self.juncture_pair(j)
        sigma = -self.segments[i_in].orient.sign * self.segments[i_out].orient.sign
        return abs(theta) if sigma > 0 else math.pi / 2 - abs(theta)


def _abs_interval(rng: FlexionInterval, sigma: int) -> tuple[float, bool, float, bool]:
    """A juncture's constraint on |theta| as (lo, closed, hi, closed)."""
    if rng.lo >= 0.0:
        a, ca, b, cb = rng.lo, rng.closed_lo, rng.hi, rng.closed_hi
    else:  # symmetric interval [-hi, hi]
        a, ca, b, cb = 0.0, True, rng.hi, rng.closed_hi
    if sigma > 0:
        return a, ca, b, cb
    lo, clo = math.pi / 2 - b, cb
    hi, chi = math.pi / 2 - a, ca
    if hi >= math.pi / 2:  # theta = 0 at this juncture means a flat half-turn
        hi, chi = math.pi / 2, False
    return lo, clo, hi, chi


def _derive_junctures(
    seed: JunctureParams, segments: Sequence[SegmentSpec], genus: int
) -> tuple[JunctureParams, ...]:
    count = len(segments) - 1 if genus == 0 else len(segments)
    out = []
    for j in range(count):
        if genus == 0:
            i_in, i_out = j, j + 1
        else:
            i_in, i_out = j, (j + 1) % len(segments)
        out.append(effective_juncture(seed, segments[i_in].orient, segments[i_out].orient))
    return tuple(out)


def build_open(seed: JunctureParams, segments: Sequence[SegmentSpec]) -> PolyhedronSpec:
    """Build a genus-0 polyhedron: an open chain of J >= 2 segments.

    The first two orientations are fixed to -u and +w so that the seed
    parameter set means what its constructor said: the u-side angles face
    the first segment's material and the w-side angles the second's.
    """
    segs = tuple(segments)
    if len(segs) < 2:
        raise FlexprismError(f"a genus-0 polyhedron needs at least 2 segments, got {len(segs)}")
    if segs[0].orient is not Orientation.U_MINUS or segs[1].orient is not Orientation.W_PLUS:
        raise OrientationRuleError(
            "the first two segments must be oriented -u and +w; "
            f"got {segs[0].orient} and {segs[1].orient}"
        )
    for s in range(1, len(segs)):
        _check_alternation(segs[s - 1].orient, segs[s].orient, f"segment {s}")
    poly = PolyhedronSpec(
        genus=0, seed=seed, segments=segs, junctures=_derive_junctures(seed, segs, 0)
    )
    poly.flexion_interval  # fail fast on an empty range
    return poly


def build_torus(seed: JunctureParams, segments: Sequence[SegmentSpec]) -> PolyhedronSpec:
    """Build a genus-1 polyhedron: a closed ring of segments.

    Requires an even number J >= 4 of segments, alternation around the
    whole cycle, and vanishing signed length sums in both direction
    families (otherwise the ring cannot close at any theta).
    """
    segs = tuple(segments)
    if len(segs) < 4 or len(segs) % 2:
        raise FlexprismError(
            f"a genus-1 polyhedron needs an even number >= 4 of segments, got {len(segs)}"
        )
    for s in range(len(segs)):
        _check_alternation(segs[s - 1].orient, segs[s].orient, f"segment {s}")
    total = sum(seg.length for seg in segs)
    for family in ("u", "w"):
        signed = sum(
            seg.orient.sign * seg.length for seg in segs if seg.orient.family == family
        )
        if abs(signed) > 1e-12 * total:
            raise ClosureError(
                f"signed segment lengths along {family} sum to {signed:.6g}, not 0; "
                "the ring cannot close"
            )
    poly = PolyhedronSpec(
        genus=1, seed=seed, segments=segs, junctures=_derive_junctures(seed, segs, 1)
    )
    poly.flexion_interval
    return poly


def append_segment(
    poly: PolyhedronSpec,
    seg: SegmentSpec,
    next_junc: JunctureParams | None = None,
) -> PolyhedronSpec:
    """Extend a genus-0 polyhedron by one segment.

    The new juncture's parameter set is derived from the orientation pair;
    if ``next_junc`` is supplied it is checked against the derived set.
    The parallel-edge lengths of the new segment are recomputed through the
    offset tables as a consistency check: with the derived parameters they
    all equal the segment length.
    """
    if poly.genus != 0:
        raise FlexprismError("append_segment applies to genus-0 polyhedra only")
    last = poly.segments[-1].orient
    _check_alternation(last, seg.orient, f"segment {len(poly.segments)}")

    derived = effective_juncture(poly.seed, last, seg.orient)
    if next_junc is not None:
        same = (
            next_junc.n == derived.n
            and np.allclose(next_junc.angles_u, derived.angles_u, atol=1e-9)
            and np.allclose(next_junc.angles_w, derived.angles_w, atol=1e-9)
            and np.allclose(next_junc.lengths, derived.lengths, atol=1e-9)
        )
        if not same:
            raise FlexprismError(
                "supplied juncture parameters are inconsistent with the "
                f"orientation pair ({last} -> {seg.orient}); expected the "
                f"{variant_tag(last, seg.orient)} reflection of the seed set"
            )

    # Offset-table route; collapses to a constant vector for consistent sets.
    prev_tables = offsets(poly.junctures[-1]) if poly.junctures else offsets(poly.seed)
    forward = replace(derived, angles_u=np.pi - derived.angles_u, cos_u=-derived.cos_u)
    ls = edge_lengths(seg.length, prev_tables, offsets(forward))
    if float(np.max(np.abs(ls - seg.length))) > 1e-9 * seg.length:
        raise FlexprismError(
            "derived parallel-edge lengths are not uniform; the juncture "
            "parameters do not translate the chain rigidly"
        )

    segs = poly.segments + (seg,)
    return PolyhedronSpec(
        genus=0,
        seed=poly.seed,
        segments=segs,
        junctures=poly.junctures + (derived,),
    )


def euler_counts(poly: PolyhedronSpec) -> tuple[int, int, int]:
    """(V, E, F) of the abstract surface.

    Genus 0 counts each unbounded end as a single vertex: V = N(J-1)+2,
    E = N(2J-1), F = JN, so V - E + F = 2.  Genus 1: V = JN, E = 2JN,
    F = JN, so V - E + F = 0.
    """
    n, j = poly.n, poly.segment_count
    if poly.genus == 0:
        return n * (j - 1) + 2, n * (2 * j - 1), j * n
    return j * n, 2 * j * n, j * n
