"""Realizing a juncture's vertex chain at a given flexion angle.

Each juncture edge k must keep its length and both of its face angles as
theta varies; that pins the edge step to

    dx = L (cos(angle_w) - cos(angle_u)) / (2 sin theta)
    dy = -L (cos(angle_w) + cos(angle_u)) / (2 cos theta)
    dz = z_sign * sqrt(L^2 - dx^2 - dy^2)

which satisfies, identically in theta,

    |step| = L,   step . u = L cos(angle_u),   step . w = L cos(angle_w)

for the orientation pair u, w of :func:`flexprism.geom.orientation_vectors`.
Those three identities are the whole story: every face quantity downstream
is a function of them only, so face shapes cannot depend on theta.

The z radicand is non-negative exactly when

    sin^2 theta  in  [sin^2((angle_u - angle_w)/2), sin^2((angle_u + angle_w)/2)]

per vertex, which gives the closed-form flexion interval used here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateGeometryError,
    EmptyFlexionIntervalError,
    FlexionRangeError,
    FlexprismError,
)
from .geom import FlexionInterval, check_theta, fold_to_half_pi
from .params import JunctureParams, JunctureType

__all__ = [
    "edge_step",
    "chain_steps",
    "chain_vertices",
    "closure_residual",
    "flexion_range",
    "symmetric_start",
    "dihedral_from_angles",
]

# Radicands within this band of zero (relative to L^2) are rounding noise
# at a flat configuration: they snap to exactly zero so that flat frames
# are bitwise flat.  Further below zero is a genuine range violation.
_RADICAND_SLACK = 1e-12


def _steps_from_cosines(
    lengths: np.ndarray,
    cos_u: np.ndarray,
    cos_w: np.ndarray,
    z_signs: np.ndarray,
    theta: float,
) -> np.ndarray:
    t = check_theta(theta)
    s, c = math.sin(t), math.cos(t)
    diff = cos_w - cos_u
    if s == 0.0:
        if np.any(diff != 0.0):
            raise FlexionRangeError(
                "theta = 0 is realizable only when both face angles agree at "
                "every vertex (the two tube directions coincide there)"
            )
        dx = np.zeros_like(lengths)
    else:
        dx = lengths * diff / (2.0 * s)
    dy = -lengths * (cos_w + cos_u) / (2.0 * c)
    rad = lengths * lengths - dx * dx - dy * dy
    slack = _RADICAND_SLACK * lengths * lengths
    bad = rad < -slack
    if np.any(bad):
        k = int(np.argmax(bad))
        raise FlexionRangeError(
            f"theta = {t!r} is outside the flexion range: the z-step radicand at "
            f"vertex {k} is {rad[k]:.3e}"
        )
    rad = np.where(np.abs(rad) <= slack, 0.0, rad)
    dz = z_signs * np.sqrt(rad)
    return np.column_stack([dx, dy, dz])


def edge_step(
    length: float,
    angle_u: float,
    angle_w: float,
    theta: float,
    z_sign: int = 1,
) -> np.ndarray:
    """Displacement along one juncture edge at flexion angle theta.

    Returns the (3,) vector whose norm is ``length`` and whose dot products
    with the two orientation vectors are ``length * cos(angle_u)`` and
    ``length * cos(angle_w)``, with the out-of-plane branch picked by
    ``z_sign``.

    Raises FlexionRangeError when theta lies outside this edge's feasible
    range (negative radicand, or theta = 0 with unequal angles).
    """
    if z_sign not in (1, -1):
        raise FlexprismError(f"z_sign must be +1 or -1, got {z_sign!r}")
    ls = np.array([float(length)])
    if ls[0] <= 0.0:
        raise FlexprismError(f"length must be positive, got {length!r}")
    return _steps_from_cosines(
        ls,
        np.array([math.cos(angle_u)]),
        np.array([math.cos(angle_w)]),
        np.array([z_sign], dtype=float),
        theta,
    )[0]


def chain_steps(p: JunctureParams, theta: float) -> np.ndarray:
    """All n edge steps of a juncture at theta, shape (n, 3).

    Uses the cosines stored on the parameter set so that the sign-paired
    radicands cancel exactly, including at flat configurations.
    """
    return _steps_from_cosines(p.lengths, p.cos_u, p.cos_w, p.z_signs.astype(float), theta)


def chain_vertices(p: JunctureParams, v1: np.ndarray, theta: float) -> np.ndarray:
    """Vertex positions of the juncture chain, shape (n, 3).

    Vertex k+1 is vertex k plus edge step k; consecutive distances are the
    edge lengths and the walk returns to ``v1`` after the n-th step (the
    closure property of the four families).
    """
    steps = chain_steps(p, theta)
    verts = np.empty((p.n, 3))
    verts[0] = np.asarray(v1, dtype=float)
    verts[1:] = verts[0] + np.cumsum(steps[:-1], axis=0)
    return verts


def closure_residual(p: JunctureParams, theta: float) -> np.ndarray:
    """Sum of all n edge steps; the zero vector for every valid set.

    The x and y components vanish by continuity; the z component vanishes
    by the family's sign pattern.  This is the numerical statement of the
    flexibility of the juncture.
    """
    return chain_steps(p, theta).sum(axis=0)


def flexion_range(p: JunctureParams) -> FlexionInterval:
    """Maximal interval of flexion angles realizable by every vertex.

    Vertex k admits |theta| in [|au - aw|/2, fold((au + aw)/2)] where fold
    maps into (0, pi/2].  The juncture takes the intersection over k.  When
    the lower bound is 0 (all angle pairs equal) the interval is the single
    symmetric span; otherwise the feasible set is the returned interval
    plus its mirror image.

    Endpoints where some z-step vanishes are included (flat but legitimate
    configurations); an upper bound at pi/2 is excluded.
    """
    lo = float(np.max(np.abs(p.angles_u - p.angles_w))) / 2.0
    his = [fold_to_half_pi((au + aw) / 2.0) for au, aw in zip(p.angles_u, p.angles_w)]
    hi = float(min(his))
    if lo > hi:
        raise EmptyFlexionIntervalError(
            f"no flexion angle realizes every vertex: need |theta| >= {lo:.6g} "
            f"but also |theta| <= {hi:.6g}"
        )
    closed_hi = hi < math.pi / 2 - 1e-15
    if lo == 0.0:
        return FlexionInterval(-hi, hi, closed_lo=closed_hi, closed_hi=closed_hi)
    return FlexionInterval(lo, hi, closed_lo=True, closed_hi=closed_hi)


def symmetric_start(p: JunctureParams, theta: float) -> np.ndarray:
    """The starting vertex that realizes the family's symmetric coordinates.

    With this choice the chain exhibits, for all k (indices mod n, m = n/2):

    * I_OEE  -- rotation by pi about the y-axis:
                (x, y, z)[k+m] = (-x, y, -z)[k]
    * II_AEE -- mirror in the y = 0 plane:
                (x, y, z)[n-k+2] = (x, -y, z)[k]
    * II_OEE -- mirror in the z = 0 plane:
                (x, y, z)[k+m] = (x, y, -z)[k]

    The third family fixes no symmetric start (any choice works); asking
    for one raises.
    """
    if p.kind is None or p.kind is JunctureType.III_OAE:
        raise FlexprismError(
            "symmetric start is defined for I_OEE, II_AEE and II_OEE only; "
            f"got {p.kind.value if p.kind else 'untyped set'}"
        )
    steps = chain_steps(p, theta)
    m = p.m
    z1 = -float(np.sum(steps[:m, 2])) / 2.0
    if p.kind is JunctureType.I_OEE:
        x1 = -float(np.sum(steps[:m, 0])) / 2.0
        return np.array([x1, 0.0, z1])
    return np.array([0.0, 0.0, z1])


def dihedral_from_angles(
    angle_u: float | np.ndarray, angle_w: float | np.ndarray, theta: float | np.ndarray
) -> float | np.ndarray:
    """Dihedral angle at a juncture edge from the closed form.

    The edge makes angles ``angle_u`` and ``angle_w`` with the two tube
    directions, which are 2*theta apart, so the dihedral eps between the
    adjacent faces satisfies

        cos(2 theta) = cos(angle_u) cos(angle_w)
                       + sin(angle_u) sin(angle_w) cos(eps).

    Evaluated in the tangent-half-angle form

        tan^2(eps/2) = sin(t - d) sin(t + d) / (sin(s - t) sin((pi - s) - t)),
        d = (angle_u - angle_w)/2,  s = (angle_u + angle_w)/2,  t = |theta|,

    which is exact at the flat endpoints where eps reaches 0 or pi (the
    arccos form loses half its digits there).  Returns eps in [0, pi].

    The arguments broadcast against each other.  With any array argument
    the result is an array, NaN wherever the dihedral is undefined.  With
    three scalars the result is a float, and an undefined dihedral raises:
    DegenerateGeometryError when either face angle is 0 or pi, and
    FlexionRangeError when theta is outside (-pi/2, pi/2) or outside the
    range where this vertex closes (the naive |cos eps| would exceed 1).
    """
    au = np.asarray(angle_u, dtype=float)
    aw = np.asarray(angle_w, dtype=float)
    degenerate = np.abs(np.sin(au) * np.sin(aw)) < 1e-12
    with np.errstate(invalid="ignore"):
        t = np.abs(np.asarray(theta, dtype=float))
        d = (au - aw) / 2.0
        s = (au + aw) / 2.0
        num = np.sin(t - d) * np.sin(t + d)
        den = np.sin(s - t) * np.sin((np.pi - s) - t)
        in_range = (t < np.pi / 2) & ~(num < -1e-12) & ~(den < -1e-12)
        num, den = np.maximum(num, 0.0), np.maximum(den, 0.0)
        # The z-step radicand factors as num*den/(sin^2 t cos^2 t) times the
        # squared edge length; snap to flat on exactly the band where the
        # chain realization snaps its radicand, so the two routes stay
        # consistent.
        flat = num * den <= _RADICAND_SLACK * (np.sin(t) * np.cos(t)) ** 2
        eps = np.where(
            flat,
            np.where(num <= den, 0.0, np.pi),
            2.0 * np.arctan2(np.sqrt(num), np.sqrt(den)),
        )
    eps = np.where(degenerate | ~in_range, np.nan, eps)
    if eps.ndim:
        return eps
    if degenerate:
        raise DegenerateGeometryError("dihedral undefined: a face angle is at 0 or pi")
    check_theta(theta)
    if not in_range:
        raise FlexionRangeError(
            f"no dihedral solves the vertex closure at theta = {theta!r}: "
            f"the edge flexes only for |theta| in [{abs(float(d)):.6g}, "
            f"{min(float(s), math.pi - float(s)):.6g}]"
        )
    return float(eps)
