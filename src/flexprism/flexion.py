"""Realizing frames across the flexion interval and certifying flexibility.

A frame is the full set of vertex coordinates at one value of theta.  The
flexibility claim is measurable: across a sweep, every face keeps all six
of its pairwise vertex distances (rigidity) while the dihedral angles at
the juncture edges and along the parallel edges all vary (non-constancy).
:func:`rigidity_report` and :func:`dihedral_profiles` compute exactly
those quantities from realized coordinates; the dihedral profile also
carries the closed-form prediction for the juncture angles so the two
routes can be compared.

Both certificates take the sweep as a list of frames.  The rigidity
report folds one frame at a time into running extremes, so its memory
does not grow with the sweep; the dihedral profile stacks the frames and
measures every wedge of the whole sweep in one broadcast, NaN exactly
where a wedge or the closed form is undefined (see
:class:`DihedralProfile`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import PolyhedronSpec
from .errors import ClosureError, FlexionRangeError, FlexprismError
from .geom import orientation_vectors, wedge_angle
from .juncture import chain_vertices, dihedral_from_angles, symmetric_start
from .params import JunctureType

__all__ = [
    "Frame",
    "realize",
    "sweep",
    "RigidityReport",
    "rigidity_report",
    "DihedralProfile",
    "dihedral_profiles",
]


@dataclass(frozen=True)
class Frame:
    """All vertex coordinates of a polyhedron at one flexion angle.

    ``rings`` has shape (R, N, 3); ring r, position k is the vertex with
    flat index r*N + k in the topology arrays of the owning
    :class:`PolyhedronSpec`.  ``closure_gap`` is the wrap-around mismatch
    of a genus-1 realization (0.0 for genus 0).
    """

    theta: float
    rings: np.ndarray
    closure_gap: float = 0.0

    @property
    def vertices(self) -> np.ndarray:
        """Vertices flattened to shape (R*N, 3)."""
        return self.rings.reshape(-1, 3)


def _segment_vectors(poly: PolyhedronSpec, theta: float) -> list[np.ndarray]:
    u, w = orientation_vectors(theta)
    return [seg.orient.vector(u, w) * seg.length for seg in poly.segments]


def realize(poly: PolyhedronSpec, theta: float) -> Frame:
    """Vertex coordinates of ``poly`` at flexion angle ``theta``.

    The seed juncture is realized from its parameter set (with the
    family's symmetric start when it has one) and every other ring is a
    translated copy along the accumulated segment vectors.  Deterministic:
    identical inputs give bitwise-identical frames.
    """
    interval = poly.flexion_interval
    if not interval.contains(theta):
        raise FlexionRangeError(
            f"theta = {theta!r} is outside the flexion interval "
            f"[{interval.lo:.6g}, {interval.hi:.6g}]"
            + (" (or its mirror image)" if interval.mirrored else "")
        )
    seed = poly.seed
    if seed.kind in (JunctureType.I_OEE, JunctureType.II_AEE, JunctureType.II_OEE):
        v1 = symmetric_start(seed, theta)
    else:
        v1 = np.zeros(3)
    base = chain_vertices(seed, v1, theta)
    steps = _segment_vectors(poly, theta)

    rings = np.empty((poly.ring_count, poly.n, 3))
    if poly.genus == 0:
        rings[1] = base
        rings[0] = base - steps[0]
        for r in range(2, poly.ring_count):
            rings[r] = rings[r - 1] + steps[r - 1]
        gap = 0.0
    else:
        rings[0] = base
        for r in range(1, poly.ring_count):
            rings[r] = rings[r - 1] + steps[r]
        wrap = rings[poly.ring_count - 1] + steps[0]
        gap = float(np.max(np.linalg.norm(wrap - rings[0], axis=1)))
        if gap > 1e-9 * poly.seed.total_length:
            raise ClosureError(
                f"torus fails to close at theta = {theta!r}: wrap mismatch {gap:.3e}"
            )
    rings.setflags(write=False)
    return Frame(theta=float(theta), rings=rings, closure_gap=gap)


def sweep(poly: PolyhedronSpec, n_samples: int) -> list[Frame]:
    """Frames at ``n_samples`` evenly spaced angles across the interval."""
    return [realize(poly, t) for t in poly.flexion_interval.samples(n_samples)]


# ---------------------------------------------------------------------------
# Rigidity.

@dataclass(frozen=True)
class RigidityReport:
    """Metric deviations across a sweep.

    ``face_deviation[f]`` is the largest spread, over the sweep, of any of
    the six pairwise vertex distances of face f.  ``edge_deviation[e]`` is
    the largest distance, over the sweep, between edge e's measured length
    and its specified length.  The structure is rigid-under-flexion when
    both maxima vanish to tolerance.
    """

    face_deviation: np.ndarray
    edge_deviation: np.ndarray
    edge_labels: tuple[str, ...]
    frame_count: int

    @property
    def max_face_deviation(self) -> float:
        return float(np.max(self.face_deviation))

    @property
    def max_edge_deviation(self) -> float:
        return float(np.max(self.edge_deviation))

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_face_deviation < tol and self.max_edge_deviation < tol

    def worst_edge(self) -> str:
        return self.edge_labels[int(np.argmax(self.edge_deviation))]

    def summary(self, tol: float = 1e-9) -> str:
        status = "PASS" if self.passed(tol) else "FAIL"
        lines = [
            f"rigidity {status} over {self.frame_count} frames (tolerance {tol:g})",
            f"  max face deviation: {self.max_face_deviation:.3e} "
            f"(face {int(np.argmax(self.face_deviation))})",
            f"  max edge deviation: {self.max_edge_deviation:.3e} ({self.worst_edge()})",
        ]
        if not self.passed(tol):
            bad = np.nonzero(self.edge_deviation >= tol)[0]
            for e in bad[:20]:
                lines.append(f"  edge off-spec: {self.edge_labels[e]} by {self.edge_deviation[e]:.3e}")
            if len(bad) > 20:
                lines.append(f"  ... and {len(bad) - 20} more edges")
        return "\n".join(lines)


# The six vertex pairs (a, b) of a quad face, as two index columns.
_PAIR_A, _PAIR_B = zip(*[(a, b) for a in range(4) for b in range(a + 1, 4)])


def rigidity_report(frames: list[Frame], poly: PolyhedronSpec) -> RigidityReport:
    """Measure face and edge metric deviations across realized frames.

    Works from coordinates only, so it can also certify frames re-imported
    from exported meshes.  Each frame is one (F, 6) gather of face vertex
    pairs folded into running minima and maxima, so memory stays O(F)
    whatever the number of frames.
    """
    if not frames:
        raise FlexprismError("rigidity report needs at least one frame")
    faces = poly.faces()
    edges = poly.edges()
    pair_a = faces[:, _PAIR_A]
    pair_b = faces[:, _PAIR_B]
    face_lo = np.full(pair_a.shape, np.inf)
    face_hi = np.full(pair_a.shape, -np.inf)
    edge_dev = np.zeros(len(edges))
    ev_a = np.array([e[0] for e in edges])
    ev_b = np.array([e[1] for e in edges])
    ev_len = np.array([e[2] for e in edges])
    for fr in frames:
        verts = fr.vertices
        d = np.linalg.norm(verts[pair_a] - verts[pair_b], axis=-1)
        np.minimum(face_lo, d, out=face_lo)
        np.maximum(face_hi, d, out=face_hi)
        measured = np.linalg.norm(verts[ev_a] - verts[ev_b], axis=1)
        np.maximum(edge_dev, np.abs(measured - ev_len), out=edge_dev)
    face_dev = (face_hi - face_lo).max(axis=1)
    return RigidityReport(
        face_deviation=face_dev,
        edge_deviation=edge_dev,
        edge_labels=tuple(e[3] for e in edges),
        frame_count=len(frames),
    )


# ---------------------------------------------------------------------------
# Dihedral profiles.

@dataclass(frozen=True)
class DihedralProfile:
    """Juncture and parallel-edge dihedral angles across a sweep.

    ``epsilon[t, j, k]`` is the wedge angle measured from face normals at
    edge k of juncture j (in [0, 2*pi)); ``epsilon_formula`` is the closed
    form folded into [0, pi].  ``delta[t, s, k]`` is the measured wedge
    along parallel edge k of segment s.  Flat configurations give exactly
    0 or pi, not NaN.  An entry is NaN exactly where it is undefined:

    * a measured wedge whose edge has zero length (norm below 1e-300), or
      where either face direction lies within 1e-12 of its own length of
      the edge line (a collapsed face);
    * a closed-form entry whose face angle is at 0 or pi, or whose local
      half-angle is outside (-pi/2, pi/2) or outside the vertex's range.
    """

    thetas: np.ndarray
    epsilon: np.ndarray
    epsilon_formula: np.ndarray
    delta: np.ndarray

    @staticmethod
    def fold(angles: np.ndarray) -> np.ndarray:
        """Fold wedge angles from [0, 2*pi) into [0, pi] for comparisons."""
        return np.minimum(angles, 2.0 * math.pi - angles)


def _wedge_topology(poly: PolyhedronSpec) -> tuple[np.ndarray, ...]:
    """Index arrays of every measured wedge, juncture edges first.

    Returns (a, b, face_a, face_b), each of length J*N + S*N: the edge runs
    from vertex a to vertex b and the wedge from face face_a to face
    face_b.  Juncture j, position k is row j*N + k; segment s, position k
    is row J*N + s*N + k.
    """
    n = poly.n
    k = np.arange(n)
    a, b, face_a, face_b = [], [], [], []
    for j in range(len(poly.junctures)):
        s_in, s_out = poly.juncture_pair(j)
        ring = poly.juncture_ring(j)
        a.append(ring * n + k)
        b.append(ring * n + (k + 1) % n)
        face_a.append(s_in * n + k)
        face_b.append(s_out * n + k)
    for s in range(poly.segment_count):
        r1, r2 = poly.segment_rings(s)
        a.append(r1 * n + k)
        b.append(r2 * n + k)
        face_a.append(s * n + (k - 1) % n)
        face_b.append(s * n + k)
    return tuple(np.concatenate(x) for x in (a, b, face_a, face_b))


def dihedral_profiles(frames: list[Frame], poly: PolyhedronSpec) -> DihedralProfile:
    """Measure all dihedral angles across a sweep.

    Juncture angles are measured between the two adjacent trapezoid faces
    and cross-checkable against ``epsilon_formula`` (the closed form fed
    with the juncture's effective angles and local half-angle).  The
    parallel-edge angles have no closed form here and are measured only.

    The whole sweep is computed at once: the frames are stacked into one
    (T, V, 3) array, every wedge is one broadcast over (T, edges) and the
    closed form one broadcast over (T, J, N).  See
    :class:`DihedralProfile` for where entries are NaN.
    """
    if not frames:
        raise FlexprismError("dihedral profiles need at least one frame")
    n, j_count, s_count = poly.n, len(poly.junctures), poly.segment_count
    thetas = np.array([fr.theta for fr in frames])
    verts = np.stack([fr.vertices for fr in frames])
    a, b, face_a, face_b = _wedge_topology(poly)
    centroids = verts[:, poly.faces()].mean(axis=2)
    pa, pb = verts[:, a], verts[:, b]
    mid = (pa + pb) / 2.0
    wedges = wedge_angle(pb - pa, centroids[:, face_a] - mid, centroids[:, face_b] - mid)

    angles_u = np.stack([eff.angles_u for eff in poly.junctures])
    angles_w = np.stack([eff.angles_w for eff in poly.junctures])
    t_loc = np.stack([poly.theta_local(j, thetas) for j in range(j_count)], axis=1)
    return DihedralProfile(
        thetas=thetas,
        epsilon=wedges[:, : j_count * n].reshape(len(frames), j_count, n),
        epsilon_formula=dihedral_from_angles(angles_u, angles_w, t_loc[:, :, None]),
        delta=wedges[:, j_count * n :].reshape(len(frames), s_count, n),
    )
