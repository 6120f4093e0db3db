"""Simplex grid enumeration and piecewise-linear interpolation.

Interpolation goes through ``JointTable`` with a one-point belief grid; its
belief weight is exactly 1.0, so the results are those of the mean-field
stencil alone, bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackmfg import GridSizeError, JointGrid, JointTable, OffSimplexError, build_grid
from stackmfg.grids import simplex_stencils, simplex_weights

PI = [1.0]


def line_table(grid, values):
    """JointTable over ``grid`` with a one-point belief grid; values (n_points, n_states)."""
    joint = JointGrid(pi_grid=build_grid(1, 1), z_grid=grid)
    return JointTable(joint, np.asarray(values, dtype=float)[None])


def test_dim2_res4_points():
    grid = build_grid(2, 4)
    expected = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)]
    assert grid.n_points == 5
    assert [tuple(p) for p in grid.points] == expected


def test_degenerate_dim1():
    grid = build_grid(1, 10)
    assert grid.n_points == 1
    assert tuple(grid.points[0]) == (1.0,)


def test_dim3_res2_count():
    # compositions of 2 into 3 parts: (0,0,2),(0,1,1),(0,2,0),(1,0,1),(1,1,0),(2,0,0)
    grid = build_grid(3, 2)
    assert grid.n_points == 6
    assert np.all(grid.compositions.sum(axis=1) == 2)


@pytest.mark.parametrize("dim,res", [(2, 7), (3, 5), (4, 3)])
def test_point_count_formula(dim, res):
    import math
    assert build_grid(dim, res).n_points == math.comb(res + dim - 1, dim - 1)


def test_size_cap():
    with pytest.raises(GridSizeError):
        build_grid(6, 200)
    with pytest.raises(GridSizeError):
        build_grid(3, 100, max_points=1000)
    build_grid(3, 100, max_points=10 ** 6)    # raising the cap allows it


def test_interpolate_line():
    grid = build_grid(2, 1)                   # points (0,1), (1,0)
    table = line_table(grid, [[0.0], [1.0]])
    assert table.interpolate(PI, [0.3, 0.7], 0) == pytest.approx(0.3, abs=1e-15)


def test_interpolate_exact_at_nodes():
    grid = build_grid(3, 4)
    rng = np.random.default_rng(5)
    table = line_table(grid, rng.normal(size=(grid.n_points, 2)))
    for i in range(grid.n_points):
        for state in range(2):
            assert table.interpolate(PI, grid.points[i], state) == table.values[0, i, state]


def test_kuhn_dim3_m1_barycentric():
    # Single-cell grid: weights are the coordinates themselves.
    grid = build_grid(3, 1)                   # lex order: (0,0,1),(0,1,0),(1,0,0)
    table = line_table(grid, [[1.0], [2.0], [3.0]])
    # 0.5*1 + 0.3*2 + 0.2*3, frozen by hand
    assert table.interpolate(PI, [0.2, 0.3, 0.5], 0) == pytest.approx(1.7, abs=1e-12)


def test_kuhn_dim3_m2_frozen():
    # Hand-worked stencil for p=(0.3,0.45,0.25) at m=2:
    # vertices (1,1,0)/2, (1,0,1)/2, (0,1,1)/2 with weights 0.5, 0.1, 0.4;
    # values = lattice index in lex order gives 0.5*4 + 0.1*3 + 0.4*1 = 2.7.
    grid = build_grid(3, 2)
    table = line_table(grid, np.arange(grid.n_points, dtype=float)[:, None])
    assert table.interpolate(PI, [0.3, 0.45, 0.25], 0) == pytest.approx(2.7, abs=1e-12)


@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_affine_reproduction(dim, res, seed):
    """Interpolating a table that samples an affine function reproduces it."""
    rng = np.random.default_rng(seed)
    grid = build_grid(dim, res)
    coeff = rng.normal(size=dim)
    offset = rng.normal()
    table = line_table(grid, (grid.points @ coeff + offset)[:, None])
    p = rng.dirichlet(np.ones(dim))
    expected = float(p @ coeff + offset)
    assert table.interpolate(PI, p, 0) == pytest.approx(expected, abs=1e-10)


def test_weights_are_convex():
    rng = np.random.default_rng(11)
    grid = build_grid(4, 5)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        idx, w = simplex_weights(grid, p)
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(w @ grid.points[idx], p, atol=1e-9)


@pytest.mark.parametrize("dim,res", [(2, 6), (3, 6), (4, 5)])
def test_lipschitz_bound(dim, res):
    """1-norm Lipschitz constant bounded by resolution * max |value|."""
    grid = build_grid(dim, res)
    rng = np.random.default_rng(2)
    table = line_table(grid, rng.uniform(-1, 1, size=(grid.n_points, 1)))
    bound = grid.resolution * np.max(np.abs(table.values))
    for _ in range(300):
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        gap = abs(table.interpolate(PI, p, 0) - table.interpolate(PI, q, 0))
        assert gap <= bound * np.sum(np.abs(p - q)) + 1e-12


def test_off_simplex_rejected():
    grid = build_grid(2, 4)
    table = line_table(grid, np.zeros((5, 1)))
    with pytest.raises(OffSimplexError):
        table.interpolate(PI, [0.7, 0.7], 0)
    with pytest.raises(OffSimplexError):
        table.interpolate(PI, [-0.2, 1.2], 0)
    # tiny drift inside tolerance is renormalized, not rejected
    table.interpolate(PI, [0.5 + 1e-12, 0.5], 0)


def test_rejects_nonfinite_table():
    grid = build_grid(2, 2)
    with pytest.raises(ValueError):
        line_table(grid, np.array([[np.nan]] * grid.n_points))


def stencil_queries(grid, rng, n_random=150):
    """Random interior and boundary points, lattice points and the centres of
    triangulation cells and of their edges."""
    d = grid.dim
    points = list(rng.dirichlet(np.ones(d), size=n_random))
    for p in rng.dirichlet(np.ones(d), size=30):
        p[rng.integers(d)] = 0.0
        points.append(p / p.sum() if p.sum() > 0 else np.eye(d)[0])
    lattice = grid.points[rng.choice(grid.n_points, size=min(grid.n_points, 120),
                                     replace=False)]
    points.extend(lattice)
    for p in rng.dirichlet(np.ones(d), size=60):
        idx, _ = simplex_weights(grid, p)
        cell = grid.points[idx]
        points.append(cell.mean(axis=0))
        points.append(cell[:2].mean(axis=0))
    points.extend(np.eye(d))
    return np.array(points)


@pytest.mark.parametrize("dim,res", [(1, 1), (1, 7), (2, 1), (2, 4), (2, 50), (3, 3),
                                     (3, 10), (3, 50), (4, 2), (4, 5), (4, 12)])
def test_batched_stencils_match_scalar(dim, res):
    """simplex_stencils equals simplex_weights bit for bit, zero-padded."""
    grid = build_grid(dim, res)
    points = stencil_queries(grid, np.random.default_rng(dim * 100 + res))
    idx, w = simplex_stencils(grid, points)
    assert idx.shape == w.shape == (len(points), dim)
    assert idx.dtype == np.int64 and w.dtype == np.float64
    for p, row_idx, row_w in zip(points, idx, w):
        ref_idx, ref_w = simplex_weights(grid, p)
        n = len(ref_idx)
        assert np.array_equal(row_idx[:n], ref_idx)
        assert np.array_equal(row_w[:n], ref_w)
        assert np.array_equal(row_w[n:], np.zeros(dim - n))
        assert np.array_equal(row_idx[n:], np.zeros(dim - n, dtype=np.int64))


@pytest.mark.parametrize("bad", [[0.7, 0.7, 0.0], [-0.2, 1.2, 0.0], [np.nan, 0.5, 0.5],
                                 [0.5, 0.5], [0.2, 0.3, 0.5, 0.0]])
def test_batched_stencils_reject_like_scalar(bad):
    """A bad point anywhere in the batch raises the scalar function's error."""
    grid = build_grid(3, 4)
    with pytest.raises(OffSimplexError) as scalar:
        simplex_weights(grid, bad)
    batch = [[0.2, 0.3, 0.5], bad, [1.0, 0.0, 0.0]] if len(bad) == 3 else [bad]
    with pytest.raises(OffSimplexError) as batched:
        simplex_stencils(grid, batch)
    assert str(batched.value) == str(scalar.value)
    # drift within the tolerance is renormalized, as in the scalar function
    near = [0.3 + 1e-12, 0.2, 0.5]
    ref_idx, ref_w = simplex_weights(grid, near)
    idx, w = simplex_stencils(grid, [near])
    assert np.array_equal(idx[0, :len(ref_idx)], ref_idx)
    assert np.array_equal(w[0, :len(ref_w)], ref_w)
