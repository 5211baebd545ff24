"""Geometric kernel: orientation vectors, flexion intervals, wedge angles.

Conventions used throughout the package:

* 3-vectors are numpy arrays of shape (3,), dtype float64.
* Angles are radians. Degrees appear only at the CLI/config boundary.
* Face angles live in the open interval (0, pi); the flexion parameter
  theta lives in (-pi/2, pi/2).
* Vector equality is always tolerance based (everything here comes out of
  trigonometry), never bitwise.

All functions are pure and all returned arrays are freshly allocated, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, FlexionRangeError

__all__ = [
    "ABS_TOL",
    "ANGLE_MARGIN",
    "orientation_vectors",
    "FlexionInterval",
    "check_face_angle",
    "check_theta",
    "wedge_angle",
    "fold_to_half_pi",
]

# Default absolute tolerance for geometric assertions on unit-scale inputs.
ABS_TOL = 1e-9

# Face angles closer than this to 0 or pi are rejected: the faces collapse.
ANGLE_MARGIN = 1e-9


def check_face_angle(value: float, name: str = "angle") -> float:
    """Validate a face angle: finite and strictly inside (0, pi)."""
    v = float(value)
    if not math.isfinite(v):
        raise DegenerateGeometryError(f"{name} must be finite, got {value!r}")
    if not (ANGLE_MARGIN < v < math.pi - ANGLE_MARGIN):
        raise DegenerateGeometryError(
            f"{name} must lie strictly inside (0, pi), got {v!r}"
        )
    return v


def check_theta(theta: float) -> float:
    """Validate a flexion angle: finite and strictly inside (-pi/2, pi/2)."""
    t = float(theta)
    if not math.isfinite(t):
        raise FlexionRangeError(f"flexion angle must be finite, got {theta!r}")
    if not (-math.pi / 2 < t < math.pi / 2):
        raise FlexionRangeError(
            f"flexion angle must lie strictly inside (-pi/2, pi/2), got {t!r}"
        )
    return t


def orientation_vectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions of the two tube families at flexion angle theta.

    Both vectors lie in the xy-plane, tilted symmetrically about the -y
    axis:

        u = (-sin theta, -cos theta, 0)
        w = ( sin theta, -cos theta, 0)

    They are unit length and satisfy u . w = cos(2 theta); theta is the
    half-angle between them and the single degree of freedom of every
    structure built here.
    """
    t = check_theta(theta)
    s, c = math.sin(t), math.cos(t)
    return np.array([-s, -c, 0.0]), np.array([s, -c, 0.0])


def fold_to_half_pi(x: float) -> float:
    """Map an angle in (0, pi) to its equivalent in (0, pi/2] under
    sin^2-symmetry: x if x <= pi/2 else pi - x."""
    return x if x <= math.pi / 2 else math.pi - x


@dataclass(frozen=True)
class FlexionInterval:
    """A closed-or-open interval of feasible flexion angles.

    The full feasible set is always symmetric under theta -> -theta.  When
    ``lo > 0`` the set consists of two mirror branches +-[lo, hi] and this
    object describes the non-negative one; ``contains`` checks |theta|.
    When ``lo <= 0`` the interval is the single symmetric span [lo, hi].

    Closed endpoints are flat configurations: some vertex's z-step vanishes
    there.  An open upper endpoint is always pi/2, where the construction
    degenerates.
    """

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise FlexionRangeError(
                f"empty flexion interval: lo={self.lo!r} > hi={self.hi!r}"
            )
        if self.hi > math.pi / 2 + 1e-15 or self.lo < -math.pi / 2 - 1e-15:
            raise FlexionRangeError("flexion interval must lie inside (-pi/2, pi/2)")

    @property
    def mirrored(self) -> bool:
        """True when the feasible set has a second branch [-hi, -lo]."""
        return self.lo > 0.0 or (self.lo == 0.0 and not self.closed_lo)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, theta: float, tol: float = 1e-12) -> bool:
        t = abs(float(theta)) if self.mirrored else float(theta)
        above = t > self.lo + tol if not self.closed_lo else t >= self.lo - tol
        below = t < self.hi - tol if not self.closed_hi else t <= self.hi + tol
        return above and below

    def samples(self, n: int, inset: float = 1e-6) -> np.ndarray:
        """n evenly spaced angles across the interval.

        Closed endpoints are included exactly; open endpoints are inset by
        ``inset`` times the interval width (the construction degenerates at
        an open bound, so the last millionth is left out).
        """
        if n < 1:
            raise FlexionRangeError(f"sample count must be >= 1, got {n}")
        pad = self.width * inset
        lo = self.lo if self.closed_lo else self.lo + pad
        hi = self.hi if self.closed_hi else self.hi - pad
        if n == 1:
            return np.array([(lo + hi) / 2.0])
        return np.linspace(lo, hi, n)

    def intersect(self, other: "FlexionInterval") -> "FlexionInterval":
        if self.lo > other.lo:
            lo, clo = self.lo, self.closed_lo
        elif other.lo > self.lo:
            lo, clo = other.lo, other.closed_lo
        else:
            lo, clo = self.lo, self.closed_lo and other.closed_lo
        if self.hi < other.hi:
            hi, chi = self.hi, self.closed_hi
        elif other.hi < self.hi:
            hi, chi = other.hi, other.closed_hi
        else:
            hi, chi = self.hi, self.closed_hi and other.closed_hi
        if lo > hi:
            raise FlexionRangeError(
                "flexion intervals do not overlap: "
                f"[{self.lo}, {self.hi}] vs [{other.lo}, {other.hi}]"
            )
        return FlexionInterval(lo, hi, clo, chi)


def wedge_angle(
    edge_dir: np.ndarray, into_a: np.ndarray, into_b: np.ndarray
) -> float | np.ndarray:
    """Dihedral wedge angle in [0, 2*pi) around an edge.

    ``into_a`` and ``into_b`` point from the edge into the two adjacent
    faces; their components orthogonal to ``edge_dir`` span the wedge.  The
    angle is measured from a to b, counterclockwise around ``edge_dir``, so
    a consistent edge orientation yields profiles continuous in theta.

    The wedge is undefined for a zero-length edge (norm below 1e-300) and
    when either face direction lies within 1e-12 of its own length of the
    edge line.  The arguments broadcast over leading axes, the last axis
    holding the three components: given any leading axes the result is an
    array with NaN where the wedge is undefined; given three (3,) vectors
    it is a float, and an undefined wedge raises DegenerateGeometryError.
    """
    e = np.asarray(edge_dir, dtype=float)
    da = np.asarray(into_a, dtype=float)
    db = np.asarray(into_b, dtype=float)
    en = np.linalg.norm(e, axis=-1, keepdims=True)
    zero = en[..., 0] < 1e-300
    with np.errstate(invalid="ignore", divide="ignore"):
        e = e / en
        pa = da - np.sum(da * e, axis=-1, keepdims=True) * e
        pb = db - np.sum(db * e, axis=-1, keepdims=True) * e
        na = np.linalg.norm(pa, axis=-1, keepdims=True)
        nb = np.linalg.norm(pb, axis=-1, keepdims=True)
        scale = np.maximum(
            np.maximum(np.linalg.norm(da, axis=-1), np.linalg.norm(db, axis=-1)), 1e-300
        )
        parallel = (na[..., 0] < 1e-12 * scale) | (nb[..., 0] < 1e-12 * scale)
        pa, pb = pa / na, pb / nb
        ang = np.arctan2(np.sum(e * np.cross(pa, pb), axis=-1), np.sum(pa * pb, axis=-1))
    ang = np.where(ang < 0, ang + 2 * math.pi, ang)
    ang = np.where(zero | parallel, np.nan, ang)
    if ang.ndim:
        return ang
    if zero:
        raise DegenerateGeometryError("zero-length edge in dihedral measurement")
    if parallel:
        raise DegenerateGeometryError("face direction parallel to edge; wedge undefined")
    return float(ang)
