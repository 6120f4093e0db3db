"""Regular grids on probability simplices and piecewise-linear value tables.

The solver needs value functions defined for every belief/mean-field pair,
but only a finite lattice is computable.  A ``SimplexGrid`` enumerates all
points (k_1/m, ..., k_d/m) with integer k_i summing to m; queries between
lattice points are answered by barycentric interpolation on the standard
(sorted-coordinate) triangulation, which is exact at lattice points and
reproduces affine functions everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridSizeError, OffSimplexError

DEFAULT_MAX_POINTS = 2_000_000

# Snap tolerance in lattice units: queries this close to a lattice
# hyperplane are treated as exactly on it, so grid points interpolate
# to their stored value bitwise.
_SNAP = 1e-9


@dataclass(frozen=True)
class SimplexGrid:
    """All compositions of ``resolution`` into ``dim`` parts, lex-ordered."""

    dim: int
    resolution: int
    points: np.ndarray = field(repr=False)          # (n_points, dim) float
    compositions: np.ndarray = field(repr=False)    # (n_points, dim) int
    _index: dict = field(repr=False)
    _rank: np.ndarray = field(repr=False)           # see _rank_offsets

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def index_of(self, composition) -> int:
        """Index of an integer lattice point; raises KeyError if absent."""
        return self._index[tuple(int(k) for k in composition)]


def build_grid(dim: int, resolution: int, max_points: int = DEFAULT_MAX_POINTS) -> SimplexGrid:
    """Enumerate the simplex lattice of mesh 1/resolution over ``dim`` atoms."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    count = math.comb(resolution + dim - 1, dim - 1)
    if count > max_points:
        raise GridSizeError(
            f"simplex grid dim={dim} resolution={resolution} has {count} points "
            f"(cap {max_points})"
        )
    comps = np.zeros((count, dim), dtype=np.int64)
    row = 0

    def fill(prefix, remaining, pos):
        nonlocal row
        if pos == dim - 1:
            comps[row, :pos] = prefix
            comps[row, pos] = remaining
            row += 1
            return
        for k in range(remaining + 1):
            fill(prefix + [k], remaining - k, pos + 1)

    fill([], resolution, 0)
    points = comps.astype(np.float64) / resolution
    points.flags.writeable = False
    comps.flags.writeable = False
    index = {tuple(int(v) for v in c): i for i, c in enumerate(comps)}
    rank = _rank_offsets(dim, resolution)
    rank.flags.writeable = False
    return SimplexGrid(dim=dim, resolution=resolution, points=points,
                       compositions=comps, _index=index, _rank=rank)


def _rank_offsets(dim: int, resolution: int) -> np.ndarray:
    """Lexicographic rank table of the compositions of ``resolution``.

    Entry [j, r, c] counts the compositions that agree with a given one
    before part j, leave r for parts j.. and put less than c in part j; a
    composition's index in ``build_grid`` order is the sum of its entries.
    """
    ks = np.arange(resolution + 1)
    gap = ks[:, None] - ks[None, :]                 # r - k: left for the parts after j
    out = np.zeros((dim - 1, resolution + 1, resolution + 1), dtype=np.int64)
    for j in range(dim - 1):
        parts = dim - 1 - j
        count = np.array([math.comb(k + parts - 1, parts - 1) for k in ks], dtype=np.int64)
        per_value = np.where(gap >= 0, count[np.maximum(gap, 0)], 0)
        out[j, :, 1:] = np.cumsum(per_value, axis=1)[:, :-1]
    return out


def project_to_simplex(point, dim: int, tol: float = 1e-9) -> np.ndarray:
    """Validate and renormalize a near-simplex vector; raise beyond ``tol``."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (dim,):
        raise OffSimplexError(f"expected vector of length {dim}, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise OffSimplexError("non-finite entries in simplex point")
    if np.min(p) < -tol:
        raise OffSimplexError(f"negative component {np.min(p):.3e} beyond tolerance")
    s = float(np.sum(p))
    if abs(s - 1.0) > tol:
        raise OffSimplexError(f"components sum to {s:.12g}, not 1 within {tol:g}")
    p = np.clip(p, 0.0, None)
    return p / np.sum(p)


def simplex_weights(grid: SimplexGrid, point, tol: float = 1e-9):
    """Interpolation stencil for ``point``: (vertex indices, convex weights).

    Works in cumulative-tail coordinates t_j = m * sum_{i>j} p_i, where the
    lattice becomes the monotone integer vectors m >= t_1 >= ... >= t_{d-1} >= 0
    and the sorted-fractional-part traversal yields the simplex of the
    triangulation containing the point.
    """
    d = grid.dim
    m = grid.resolution
    p = project_to_simplex(point, d, tol)
    if d == 1:
        return np.array([0], dtype=np.int64), np.array([1.0])

    suffix = np.cumsum(p[::-1])[::-1]         # suffix[j] = sum_{i>=j} p_i
    t = m * suffix[1:]                        # length d-1, nonincreasing
    t = np.clip(t, 0.0, float(m))
    t = np.minimum.accumulate(t)              # repair 1-ulp monotonicity breaks
    near = np.rint(t)
    snap = np.abs(t - near) <= _SNAP
    t = np.where(snap, near, t)

    base = np.floor(t).astype(np.int64)
    frac = t - base
    # Descending fractional part, ties broken toward lower index so every
    # intermediate vertex stays a monotone (valid) lattice point.
    order = sorted(range(d - 1), key=lambda j: (-frac[j], j))

    vertices = [base.copy()]
    for j in order[:-1]:
        nxt = vertices[-1].copy()
        nxt[j] += 1
        vertices.append(nxt)
    last = vertices[-1].copy()
    last[order[-1]] += 1
    vertices.append(last)

    fs = [frac[j] for j in order]
    weights = [1.0 - fs[0]]
    weights.extend(fs[k] - fs[k + 1] for k in range(d - 2))
    weights.append(fs[-1])

    idx, wts = [], []
    for v, w in zip(vertices, weights):
        if w <= 0.0:
            continue
        comp = np.empty(d, dtype=np.int64)
        prev = m
        for j in range(d - 1):
            comp[j] = prev - v[j]
            prev = v[j]
        comp[d - 1] = prev
        idx.append(grid.index_of(comp))
        wts.append(w)
    return np.array(idx, dtype=np.int64), np.array(wts, dtype=np.float64)


def simplex_stencils(grid: SimplexGrid, points, tol: float = 1e-9):
    """``simplex_weights`` of many points at once: (n, dim) indices and weights.

    Row i holds the stencil of ``points[i]`` as ``simplex_weights`` returns
    it, positive weights in vertex order, followed by zero padding (index 0,
    weight 0.0).  Every step is the elementwise counterpart of the scalar
    one, so the stencils are bit-identical; vertex indices come from a rank
    table instead of per-vertex dictionary lookups.  Raises the error
    ``project_to_simplex`` raises for the first point off the simplex.
    """
    d, m = grid.dim, grid.resolution
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != d:
        raise OffSimplexError(f"expected vector of length {d}, got shape {p.shape[1:]}")
    finite = np.isfinite(p).all(axis=1)
    q = np.where(finite[:, None], p, 0.0)
    bad = ~finite | (q.min(axis=1) < -tol) | (np.abs(q.sum(axis=1) - 1.0) > tol)
    if bad.any():
        project_to_simplex(p[np.argmax(bad)], d, tol)    # raises with its message
    p = np.maximum(p, 0.0)                  # np.clip(p, 0.0, None), as the scalar path
    p = p / p.sum(axis=1, keepdims=True)
    n = len(p)
    if d == 1:
        return np.zeros((n, 1), dtype=np.int64), np.ones((n, 1))

    suffix = np.cumsum(p[:, ::-1], axis=1)[:, ::-1]
    t = np.clip(m * suffix[:, 1:], 0.0, float(m))
    t = np.minimum.accumulate(t, axis=1)
    near = np.rint(t)
    t = np.where(np.abs(t - near) <= _SNAP, near, t)
    base = np.floor(t).astype(np.int64)
    frac = t - base
    # Position of each coordinate in descending fractional order, ties toward
    # the lower index (the scalar sort key (-frac, j)), and the sorted values.
    j = np.arange(d - 1)
    ahead = ((frac[:, None, :] > frac[:, :, None])
             | ((frac[:, None, :] == frac[:, :, None]) & (j < j[:, None])))
    position = ahead.sum(axis=2)
    fs = np.empty_like(frac)
    fs[np.arange(n)[:, None], position] = frac
    weights = np.concatenate([1.0 - fs[:, :1], fs[:, :-1] - fs[:, 1:], fs[:, -1:]], axis=1)

    # Vertex k adds 1 to the base tail coordinates at the first k positions;
    # part j of its composition is the tail before j (m for j = 0) minus the
    # tail at j.  Zero-weight vertices may leave the lattice; capping the
    # tails at m keeps their (unused) table lookups valid indices.
    tails = np.minimum(base[:, None, :] + (position[:, None, :] < np.arange(d)[:, None]), m)
    before = np.concatenate([np.full((n, d, 1), m), tails[:, :, :-1]], axis=2)
    rank = grid._rank[j, before, before - tails].sum(axis=2)
    keep = weights > 0.0
    return _pack(keep, rank), _pack(keep, weights)


def _pack(keep, values):
    """Per row, the ``values`` where ``keep`` in their order, then zeros."""
    out = np.zeros_like(values)
    out[np.arange(keep.shape[1]) < keep.sum(axis=1, keepdims=True)] = values[keep]
    return out


@dataclass(frozen=True)
class JointGrid:
    """Cartesian product of a belief grid and a mean-field grid."""

    pi_grid: SimplexGrid
    z_grid: SimplexGrid

    @property
    def n_points(self) -> int:
        return self.pi_grid.n_points * self.z_grid.n_points

    def flat_index(self, pi_idx: int, z_idx: int) -> int:
        return pi_idx * self.z_grid.n_points + z_idx

    def unravel(self, flat: int):
        return divmod(flat, self.z_grid.n_points)

    def point(self, flat: int):
        i, j = self.unravel(flat)
        return self.pi_grid.points[i], self.z_grid.points[j]


def joint_weights(joint: JointGrid, pi_point, z_point):
    """Flat gather indices and product weights for a joint-grid query."""
    return stencil_product(joint, simplex_weights(joint.pi_grid, pi_point),
                           simplex_weights(joint.z_grid, z_point))


def stencil_product(joint: JointGrid, pi_stencil, z_stencil):
    """Joint stencil from the (indices, weights) stencils of the two factors."""
    (pi_idx, pi_w), (z_idx, z_w) = pi_stencil, z_stencil
    nz = joint.z_grid.n_points
    flat = (pi_idx[:, None] * nz + z_idx[None, :]).ravel()
    w = (pi_w[:, None] * z_w[None, :]).ravel()
    return flat, w


def stencil_products(joint: JointGrid, pi_stencils, z_stencils):
    """``stencil_product`` of padded stencils, broadcast over leading axes.

    Takes (..., d_pi) and (..., d_z) stencils as ``simplex_stencils`` lays
    them out and returns (..., d_pi * d_z) flat indices and weights: the
    products of positive weights first, in ``stencil_product`` order, then
    zero padding (index 0, weight 0.0).
    """
    (pi_idx, pi_w), (z_idx, z_w) = pi_stencils, z_stencils
    flat = pi_idx[..., :, None] * joint.z_grid.n_points + z_idx[..., None, :]
    w = pi_w[..., :, None] * z_w[..., None, :]
    keep = (pi_w[..., :, None] > 0.0) & (z_w[..., None, :] > 0.0)
    shape = w.shape[:-2] + (w.shape[-2] * w.shape[-1],)
    keep = keep.reshape(-1, shape[-1])
    return (_pack(keep, flat.reshape(keep.shape)).reshape(shape),
            _pack(keep, w.reshape(keep.shape)).reshape(shape))


class JointTable:
    """Value table over a JointGrid, bilinear across the two simplex factors."""

    def __init__(self, joint: JointGrid, values: np.ndarray):
        values = np.array(values, dtype=np.float64)
        expected = (joint.pi_grid.n_points, joint.z_grid.n_points)
        if values.shape[:2] != expected:
            raise ValueError(f"values shape {values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(values)):
            raise ValueError("table contains non-finite values")
        values.flags.writeable = False
        self.joint = joint
        self.values = values                   # (n_pi, n_z, n_states)

    @classmethod
    def zeros(cls, joint: JointGrid, n_states: int) -> "JointTable":
        return cls(joint, np.zeros((joint.pi_grid.n_points, joint.z_grid.n_points, n_states)))

    def flat_values(self) -> np.ndarray:
        """(n_pi * n_z, n_states) view used by the gather-based stage solver."""
        return self.values.reshape(-1, self.values.shape[2])

    def interpolate(self, pi_point, z_point, state: int) -> float:
        flat, w = joint_weights(self.joint, pi_point, z_point)
        return float(w @ self.flat_values()[flat, state])

    def interpolate_states(self, pi_point, z_point) -> np.ndarray:
        flat, w = joint_weights(self.joint, pi_point, z_point)
        return w @ self.flat_values()[flat, :]
