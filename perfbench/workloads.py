"""The three benchmark workloads: seeded inputs, jobs and output checks.

A job is one user-level action.  Its ``run`` is the only code inside the
timed region; its ``check`` runs afterwards and verifies the outputs by a
route that does not rely on the program's own PASS/FAIL verdict, using the
acceptance suite's tolerances taken relative to ``seed.total_length``.

* ``flex_export``    -- ``flexprism flex SPEC --out DIR`` on the README's
  I_OEE n=4 open chain ``-u,+w,+u`` (length 2.0, default 50 samples).
* ``certify_mix``    -- ``sweep -> rigidity_report -> dihedral_profiles`` on a
  seeded mix of all four families, n in {4, 6, 8}, open chains and tori.
* ``validate_torus`` -- ``flexprism validate SPEC --samples 100`` on one
  J=16 torus per family, generated from seeded configs in set-up.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import flexprism as fp
from flexprism import (
    DihedralProfile,
    JunctureType,
    PolyhedronSpec,
    SegmentSpec,
    build_open,
    build_torus,
    cli,
    dihedral_from_angles,
    flexion_range,
    juncture_i_oee,
    juncture_ii_aee,
    juncture_ii_oee,
    juncture_iii_oae,
    load_spec,
    realize,
    save_spec,
)

RIGIDITY_TOL = 1e-9   # face/edge metric spread, relative to seed.total_length
CLOSURE_TOL = 1e-9    # torus wrap gap, relative to seed.total_length
FORMULA_TOL = 1e-9    # closed-form vs measured juncture dihedral, radians
OBJ_RTOL = 5e-9       # half a unit in the 9th significant digit of the OBJ export

FLEX_SAMPLES = 50     # the README spec's default sweep
CERTIFY_SAMPLES = 8   # T of every certify_mix job
VALIDATE_SAMPLES = 100


class CheckFailed(Exception):
    """A job's outputs disagree with the independent check."""


@dataclass
class Quality:
    """Worst residuals and output counts seen by the checks of one job."""

    rigidity_rel: float = 0.0
    closure_rel: float = 0.0
    dihedral_gap_rad: float = 0.0
    nan_entries: int = 0
    dihedral_entries: int = 0
    files_written: int = 0
    bytes_written: int = 0

    def merge(self, other: "Quality") -> None:
        self.rigidity_rel = max(self.rigidity_rel, other.rigidity_rel)
        self.closure_rel = max(self.closure_rel, other.closure_rel)
        self.dihedral_gap_rad = max(self.dihedral_gap_rad, other.dihedral_gap_rad)
        self.nan_entries += other.nan_entries
        self.dihedral_entries += other.dihedral_entries
        self.files_written += other.files_written
        self.bytes_written += other.bytes_written


@dataclass
class Job:
    label: str
    frames: int                                  # T, realizations per job
    faces: int                                   # faces per realization
    run: Callable[[Path], object]                # timed; gets a fresh job directory
    check: Callable[[object, Path], Quality]     # untimed; raises CheckFailed


@dataclass(frozen=True)
class Workload:
    setup: Callable[[np.random.Generator, Path], list[Job]]
    trace_cycles: int  # passes over the job list in a traced run


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _cli(argv: list[str]) -> tuple[int, str]:
    """``flexprism ARGV`` in process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# Seeded inputs.

def _feasible(p, min_width: float = 0.15) -> bool:
    try:
        rng = flexion_range(p)
    except Exception:
        return False
    return rng.width >= min_width and float(np.min(p.lengths)) > 0.05


def draw_juncture(kind: JunctureType, n: int, rng: np.random.Generator):
    """A feasible random parameter set and the config keys that rebuild it.

    Angles in the returned config are in degrees, as the INI format wants.
    """
    m = n // 2
    deg = math.degrees
    for _ in range(1000):
        try:
            if kind in (JunctureType.I_OEE, JunctureType.II_AEE):
                beta = rng.uniform(0.4, math.pi - 0.4, n)
                lengths = rng.uniform(0.5, 1.5, m - 1)
                make = juncture_i_oee if kind is JunctureType.I_OEE else juncture_ii_aee
                p = make(beta, lengths)
                keys = {"beta": [deg(v) for v in beta], "lengths": list(lengths)}
            elif kind is JunctureType.II_OEE and m == 2:
                # Both continuity rows must be proportional with a positive
                # length ratio: draw three angles, solve the fourth, and give
                # both lengths.
                b1 = rng.uniform(0.4, math.pi / 2 - 0.15)
                b2 = rng.uniform(math.pi / 2 + 0.15, math.pi - 0.4)
                w1 = rng.uniform(math.pi / 2 - 0.35, math.pi / 2 + 0.35)
                c = math.cos(b2) * math.cos(w1) / math.cos(b1)
                if abs(c) > 0.9:
                    continue
                l1 = rng.uniform(0.5, 1.5)
                lengths = [l1, -math.cos(b1) / math.cos(b2) * l1]
                p = juncture_ii_oee([b1, b2], [w1, math.acos(c)], lengths)
                keys = {"beta": [deg(b1), deg(b2)], "b": [deg(w1), deg(math.acos(c))],
                        "lengths": lengths}
            elif kind is JunctureType.II_OEE:
                beta = rng.uniform(0.4, math.pi - 0.4, m)
                b = rng.uniform(0.4, math.pi - 0.4, m)
                lengths = rng.uniform(0.5, 1.5, m - 2)
                p = juncture_ii_oee(beta, b, lengths)
                keys = {"beta": [deg(v) for v in beta], "b": [deg(v) for v in b],
                        "lengths": list(lengths)}
            else:
                l_idx = int(rng.integers(3, max(3, n - 2) + 1))
                # Free lengths below the split index are drawn large so the
                # solved class balances stay positive most of the time.
                def draw_class(first: int) -> list[float]:
                    return [rng.uniform(2.0, 4.0) if i < l_idx else rng.uniform(0.2, 0.8)
                            for i in range(first, n + 1, 2)][: m - 1]
                beta, b = rng.uniform(0.4, math.pi - 0.4, 2)
                odd, even = draw_class(1), draw_class(2)
                p = juncture_iii_oae(n, l_idx, beta, b, odd, even)
                keys = {"n": [n], "l_idx": [l_idx], "beta": [deg(beta)], "b": [deg(b)],
                        "odd_lengths": odd, "even_lengths": even}
        except Exception:
            continue
        if _feasible(p):
            return p, keys
    raise RuntimeError(f"no feasible {kind.value} parameter set with n={n}")


def _open_segments(count: int, rng: np.random.Generator) -> list[SegmentSpec]:
    """-u, +w, then alternating families with seeded signs and lengths."""
    orients = ["-u", "+w"]
    while len(orients) < count:
        family = "u" if orients[-1][1] == "w" else "w"
        orients.append(("+" if rng.random() < 0.5 else "-") + family)
    return [SegmentSpec(o, float(rng.uniform(1.5, 3.0))) for o in orients]


def _torus_segments(count: int, length: float) -> list[SegmentSpec]:
    """(+u, +w, -u, -w) repeated: equal lengths make every family sum vanish."""
    return [SegmentSpec(("+u", "+w", "-u", "-w")[i % 4], length) for i in range(count)]


# ---------------------------------------------------------------------------
# Independent geometry, straight from realized coordinates.

def _segment_rings(poly: PolyhedronSpec, s: int) -> tuple[int, int]:
    """Segment s spans rings (s, s+1) of an open chain, (s-1, s) of a torus."""
    return (s, s + 1) if poly.genus == 0 else ((s - 1) % poly.segment_count, s)


def _face_quads(poly: PolyhedronSpec) -> np.ndarray:
    """(S*N, 4) vertex indices, segment-major, wound k -> k+1 on the start ring."""
    n = poly.n
    quads = []
    for s in range(poly.segment_count):
        r1, r2 = _segment_rings(poly, s)
        for k in range(n):
            k2 = (k + 1) % n
            quads.append([r1 * n + k, r1 * n + k2, r2 * n + k2, r2 * n + k])
    return np.array(quads)


def _rigidity_rel(verts: np.ndarray, poly: PolyhedronSpec) -> float:
    """Largest spread over the sweep of any face's six vertex distances.

    ``verts`` has shape (T, V, 3).  Also covers every edge length against
    its specified value (juncture edges: seed lengths; parallel edges: the
    segment length).
    """
    quads = _face_quads(poly)
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    d = np.stack([np.linalg.norm(verts[:, quads[:, a]] - verts[:, quads[:, b]], axis=-1)
                  for a, b in pairs], axis=-1)                       # (T, F, 6)
    spread = float(np.max(d.max(axis=0) - d.min(axis=0)))
    n = poly.n
    shape = (len(verts), poly.segment_count, n)
    ring_edges = np.concatenate([d[:, :, 0].reshape(shape), d[:, :, 5].reshape(shape)])
    parallel_edges = d[:, :, 2].reshape(shape)
    lengths = np.array([seg.length for seg in poly.segments])
    edge_dev = max(
        float(np.max(np.abs(ring_edges - poly.seed.lengths))),
        float(np.max(np.abs(parallel_edges - lengths[None, :, None]))),
    )
    return max(spread, edge_dev) / poly.seed.total_length


def _torus_gap_rel(verts: np.ndarray, thetas: np.ndarray, poly: PolyhedronSpec) -> float:
    """Mismatch between ring 0 and the last ring carried along segment 0."""
    n = poly.n
    seg = poly.segments[0]
    sx = np.sin(thetas) if seg.orient.family == "w" else -np.sin(thetas)
    step = seg.orient.sign * seg.length * np.stack([sx, -np.cos(thetas), np.zeros_like(thetas)], axis=-1)
    wrap = verts[:, -n:] + step[:, None, :] - verts[:, :n]
    return float(np.max(np.linalg.norm(wrap, axis=-1))) / poly.seed.total_length


def _wedges(verts: np.ndarray, a: np.ndarray, b: np.ndarray,
            face_a: np.ndarray, face_b: np.ndarray) -> np.ndarray:
    """Wedge angle in [0, 2 pi) from face a to face b around edge a -> b.

    Vectorized over (T, edges); NaN where a face direction is parallel to
    the edge.  Face directions run from the edge midpoint to the centroids.
    """
    pa, pb = verts[:, a], verts[:, b]
    e = pb - pa
    e = e / np.linalg.norm(e, axis=-1, keepdims=True)
    mid = (pa + pb) / 2.0
    da = verts[:, face_a].mean(axis=2) - mid
    db = verts[:, face_b].mean(axis=2) - mid
    qa = da - np.sum(da * e, axis=-1, keepdims=True) * e
    qb = db - np.sum(db * e, axis=-1, keepdims=True) * e
    na, nb = np.linalg.norm(qa, axis=-1), np.linalg.norm(qb, axis=-1)
    scale = np.maximum(np.linalg.norm(da, axis=-1), np.linalg.norm(db, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        ang = np.arctan2(np.sum(e * np.cross(qa / na[..., None], qb / nb[..., None]), axis=-1),
                         np.sum(qa * qb, axis=-1) / (na * nb))
    ang = np.where(ang < 0.0, ang + 2.0 * math.pi, ang)
    return np.where((na < 1e-12 * scale) | (nb < 1e-12 * scale), np.nan, ang)


def _juncture_wedges(verts: np.ndarray, poly: PolyhedronSpec) -> np.ndarray:
    """Measured juncture dihedrals, shape (T, junctures, N)."""
    n = poly.n
    quads = _face_quads(poly)
    a, b, fa, fb = [], [], [], []
    for j in range(len(poly.junctures)):
        s_in = j
        s_out = j + 1 if poly.genus == 0 else (j + 1) % poly.segment_count
        ring = j + 1 if poly.genus == 0 else j
        for k in range(n):
            a.append(ring * n + k)
            b.append(ring * n + (k + 1) % n)
            fa.append(quads[s_in * n + k])
            fb.append(quads[s_out * n + k])
    out = _wedges(verts, np.array(a), np.array(b), np.array(fa), np.array(fb))
    return out.reshape(len(verts), len(poly.junctures), n)


def _parallel_wedges(verts: np.ndarray, poly: PolyhedronSpec) -> np.ndarray:
    """Measured parallel-edge dihedrals, shape (T, segments, N)."""
    n, count = poly.n, poly.segment_count
    quads = _face_quads(poly)
    a, b, fa, fb = [], [], [], []
    for s in range(count):
        r1, r2 = _segment_rings(poly, s)
        for k in range(n):
            a.append(r1 * n + k)
            b.append(r2 * n + k)
            fa.append(quads[s * n + (k - 1) % n])
            fb.append(quads[s * n + k])
    out = _wedges(verts, np.array(a), np.array(b), np.array(fa), np.array(fb))
    return out.reshape(len(verts), count, n)


def _formula(poly: PolyhedronSpec, thetas: np.ndarray) -> np.ndarray:
    """Closed-form juncture dihedrals in [0, pi], shape (T, junctures, N)."""
    out = np.empty((len(thetas), len(poly.junctures), poly.n))
    for t, theta in enumerate(thetas):
        for j, eff in enumerate(poly.junctures):
            t_loc = poly.theta_local(j, float(theta))
            for k in range(poly.n):
                out[t, j, k] = dihedral_from_angles(eff.angles_u[k], eff.angles_w[k], t_loc)
    return out


def _reference(poly: PolyhedronSpec, samples: int):
    """Sample thetas, realized vertices (T, V, 3) and closed-form dihedrals.

    Every job of one input has the same reference, so set-up wraps this in
    a cache that fills on the first check.
    """
    thetas = poly.flexion_interval.samples(samples)
    verts = np.stack([realize(poly, t).vertices for t in thetas])
    return thetas, verts, _formula(poly, thetas)


def _angle_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest angular distance between two arrays of angles; NaN must match."""
    _require(np.array_equal(np.isnan(a), np.isnan(b)), "NaN pattern differs")
    d = np.abs(a - b)[~np.isnan(a)]
    d = np.minimum(d, 2.0 * math.pi - d)
    return float(np.max(d)) if d.size else 0.0


# ---------------------------------------------------------------------------
# flex_export

README_BETA_DEG = (80, 100, 110, 75)


def _read_obj(path: Path) -> tuple[np.ndarray, int]:
    verts, faces = [], 0
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            _require(len(line.split()) == 5, f"{path.name}: non-quad face")
            faces += 1
    return np.array(verts), faces


def _check_flex_export(result: object, out_dir: Path, poly: PolyhedronSpec,
                       samples: int, reference: Callable) -> Quality:
    rc, _ = result
    _require(rc == 0, f"flex exited with {rc}")
    frames = [f"frame_{i:04d}.obj" for i in range(samples)]
    names = sorted(p.name for p in out_dir.iterdir())
    _require(names == sorted(frames + ["profiles.csv", "rigidity.txt"]),
             f"unexpected output files ({len(names)})")
    q = Quality(files_written=len(names),
                bytes_written=sum(p.stat().st_size for p in out_dir.iterdir()))

    thetas, ref, formula = reference()
    scale = poly.seed.total_length
    for i, name in enumerate(frames):
        verts, n_faces = _read_obj(out_dir / name)
        _require(verts.shape == ref[i].shape, f"{name}: {len(verts)} vertices")
        _require(n_faces == poly.segment_count * poly.n, f"{name}: {n_faces} faces")
        _require(bool(np.all(np.abs(verts - ref[i]) <= OBJ_RTOL * np.abs(ref[i]) + 1e-15 * scale)),
                 f"{name}: vertices differ from realize beyond 9 significant digits")
    q.rigidity_rel = _rigidity_rel(ref, poly)
    _require(q.rigidity_rel <= RIGIDITY_TOL, f"rigidity {q.rigidity_rel:.3e}")

    lines = (out_dir / "profiles.csv").read_text().splitlines()
    n, junctures = poly.n, len(poly.junctures)
    _require(len(lines) == samples + 1, "profiles.csv row count")
    _require(len(lines[0].split(",")) == 1 + (junctures + poly.segment_count) * n,
             "profiles.csv column count")
    table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    _require(bool(np.allclose(table[:, 0], thetas, rtol=1e-11, atol=0.0)), "theta column")
    eps = DihedralProfile.fold(table[:, 1:1 + junctures * n].reshape(samples, junctures, n))
    _require(not np.isnan(eps).any(), "NaN juncture dihedral")
    q.dihedral_gap_rad = float(np.max(np.abs(eps - formula)))
    _require(q.dihedral_gap_rad <= FORMULA_TOL, f"dihedral gap {q.dihedral_gap_rad:.3e}")
    q.nan_entries = int(np.isnan(table[:, 1:]).sum())
    q.dihedral_entries = table[:, 1:].size
    _require((out_dir / "rigidity.txt").read_text().startswith(f"frames: {samples}\n"),
             "rigidity.txt header")
    return q


def setup_flex_export(rng: np.random.Generator, work: Path) -> list[Job]:
    # The README spec is fixed; the seed has nothing to vary here.
    seed = juncture_i_oee([a * math.pi / 180 for a in README_BETA_DEG], [1.0])
    spec = work / "readme.spec"
    save_spec(spec, build_open(seed, [SegmentSpec(o, 2.0) for o in ("-u", "+w", "+u")]),
              FLEX_SAMPLES)
    poly, samples = load_spec(spec)
    reference = functools.cache(functools.partial(_reference, poly, samples))
    return [Job(
        label="I_OEE-n4-open-J3",
        frames=samples,
        faces=poly.segment_count * poly.n,
        run=lambda out: _cli(["flex", str(spec), "--out", str(out)]),
        check=lambda result, out: _check_flex_export(result, out, poly, samples, reference),
    )]


# ---------------------------------------------------------------------------
# certify_mix

SIZES = (4, 6, 8)
STRUCTURES = (("open", 10), ("torus", 8), ("torus", 16), ("torus", 24))


def _certify(poly: PolyhedronSpec):
    # Called through the package namespace, where a traced run wraps them.
    frames = fp.sweep(poly, CERTIFY_SAMPLES)
    return frames, fp.rigidity_report(frames, poly), fp.dihedral_profiles(frames, poly)


def _check_certify(result: object, poly: PolyhedronSpec, reference: Callable) -> Quality:
    frames, report, prof = result
    _require(len(frames) == CERTIFY_SAMPLES and report.frame_count == CERTIFY_SAMPLES,
             "frame count")
    thetas, _, formula = reference()
    _require(bool(np.array_equal(np.array([fr.theta for fr in frames]), thetas)), "thetas")
    verts = np.stack([fr.vertices for fr in frames])
    q = Quality(rigidity_rel=_rigidity_rel(verts, poly))
    _require(q.rigidity_rel <= RIGIDITY_TOL, f"rigidity {q.rigidity_rel:.3e}")
    if poly.genus == 1:
        q.closure_rel = _torus_gap_rel(verts, thetas, poly)
        _require(q.closure_rel <= CLOSURE_TOL, f"torus closure {q.closure_rel:.3e}")

    eps = _juncture_wedges(verts, poly)
    _require(_angle_gap(prof.epsilon, eps) <= FORMULA_TOL, "epsilon differs from coordinates")
    _require(_angle_gap(prof.delta, _parallel_wedges(verts, poly)) <= FORMULA_TOL,
             "delta differs from coordinates")
    _require(bool(np.array_equal(np.isnan(prof.epsilon_formula), np.isnan(formula))),
             "epsilon_formula NaN pattern")
    _require(_angle_gap(prof.epsilon_formula, formula) <= 1e-12, "epsilon_formula differs")
    q.dihedral_gap_rad = _angle_gap(DihedralProfile.fold(eps), formula)
    _require(q.dihedral_gap_rad <= FORMULA_TOL, f"dihedral gap {q.dihedral_gap_rad:.3e}")
    q.nan_entries = int(np.isnan(prof.epsilon).sum() + np.isnan(prof.delta).sum())
    q.dihedral_entries = prof.epsilon.size + prof.delta.size
    return q


def setup_certify_mix(rng: np.random.Generator, work: Path) -> list[Job]:
    jobs = []
    for fi, kind in enumerate(JunctureType):
        for ni, n in enumerate(SIZES):
            shape, count = STRUCTURES[(fi + ni) % len(STRUCTURES)]
            seed, _ = draw_juncture(kind, n, rng)
            if shape == "open":
                poly = build_open(seed, _open_segments(count, rng))
            else:
                poly = build_torus(seed, _torus_segments(count, float(rng.uniform(1.5, 3.0))))
            reference = functools.cache(functools.partial(_reference, poly, CERTIFY_SAMPLES))
            jobs.append(Job(
                label=f"{kind.value}-n{n}-{shape}-J{count}",
                frames=CERTIFY_SAMPLES,
                faces=poly.segment_count * n,
                run=lambda _out, poly=poly: _certify(poly),
                check=lambda result, _out, poly=poly, ref=reference: _check_certify(
                    result, poly, ref),
            ))
    return jobs


# ---------------------------------------------------------------------------
# validate_torus

VALIDATE_CHECKS = {"continuity", "chain closure", "rigidity", "torus closure", "euler counts"}
VALIDATE_N = 6
VALIDATE_J = 16


def _config_text(kind: JunctureType, keys: dict, length: float) -> str:
    lines = ["[polyhedron]", "genus = 1", f"samples = {VALIDATE_SAMPLES}", "",
             "[juncture]", f"type = {kind.value}"]
    lines += [f"{k} = " + ", ".join(str(v) if isinstance(v, int) else repr(float(v))
                                    for v in vals)
              for k, vals in keys.items()]
    lines += ["", "[segments]"]
    lines += [f"{i + 1} = {seg.orient}, {seg.length!r}"
              for i, seg in enumerate(_torus_segments(VALIDATE_J, length))]
    return "\n".join(lines) + "\n"


def _check_validate(result: object, scale: float) -> Quality:
    rc, text = result
    _require(rc == 0, f"validate exited with {rc}")
    lines = text.splitlines()
    _require(all(ln.startswith("PASS: ") for ln in lines), "a check line is not PASS")
    names = {ln[6:].partition(" (")[0] for ln in lines}
    _require(names == VALIDATE_CHECKS and len(lines) == len(VALIDATE_CHECKS),
             f"check lines {sorted(names)}")
    face, edge = re.search(r"max face dev (\S+), max edge dev (\S+)\)", text).groups()
    gap = re.search(r"max wrap gap (\S+)\)", text).group(1)
    q = Quality(rigidity_rel=max(float(face), float(edge)) / scale,
                closure_rel=float(gap) / scale)
    _require(q.rigidity_rel <= RIGIDITY_TOL and q.closure_rel <= CLOSURE_TOL,
             "reported deviations exceed the relative tolerances")
    return q


def setup_validate_torus(rng: np.random.Generator, work: Path) -> list[Job]:
    jobs = []
    for kind in JunctureType:
        _, keys = draw_juncture(kind, VALIDATE_N, rng)
        tag = kind.value.lower()
        config = work / f"{tag}.ini"
        config.write_text(_config_text(kind, keys, float(rng.uniform(1.5, 3.0))))
        rc, text = _cli(["generate", "--config", str(config), "--out", str(work / tag)])
        if rc != 0:
            raise RuntimeError(f"generate failed for {config.name}: {text}")
        spec = work / tag / "polyhedron.spec"
        poly, _ = load_spec(spec)
        jobs.append(Job(
            label=f"{kind.value}-n{VALIDATE_N}-torus-J{VALIDATE_J}",
            frames=VALIDATE_SAMPLES,
            faces=poly.segment_count * poly.n,
            run=lambda _out, spec=spec: _cli(
                ["validate", str(spec), "--samples", str(VALIDATE_SAMPLES)]),
            check=lambda result, _out, scale=poly.seed.total_length: _check_validate(
                result, scale),
        ))
    return jobs


WORKLOADS = {
    "flex_export": Workload(setup_flex_export, trace_cycles=8),
    "certify_mix": Workload(setup_certify_mix, trace_cycles=1),
    "validate_torus": Workload(setup_validate_torus, trace_cycles=2),
}
