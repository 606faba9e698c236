"""Heightfield ground models: flat plane and seeded rough terrain.

Rough terrain is value noise: a coarse lattice of seeded uniform heights
(one lattice node every ``LATTICE_STEP`` grid cells) bilinearly upsampled
to the fine grid, so elevation varies smoothly on a ~4-cell length scale.
Height queries interpolate bilinearly between fine-grid nodes and clamp
to the edge values outside the grid, so the ground function is continuous
everywhere. The grid is centered on the origin.

A generated rough terrain, `_LatticeTerrain`, is the `Ground` record of
`make_terrain`'s arguments, which checks them: it draws its seeded
lattice from them and computes each fine-grid row by one row rule the
first time a height query reads a node in it, and keeps it, so a short
rollout pays for the few rows under its feet rather than the whole grid.
Its ``height_grid`` is filled row by row through the same rule when first
asked for. Flat, loaded and hand-built terrains are a `Terrain`, which
holds its grid.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .records import Settings, setting

KINDS = ("flat", "rough")
LATTICE_STEP = 4
# Sizes lie below SIZE_LIMIT and a cell size is at least 1 / SIZE_LIMIT.
SIZE_LIMIT = 2**64
# The most nodes a generated grid has on a side, so no setting asks numpy for
# a lattice it cannot allocate. At the cap the lattice, drawn whole, is
# 1025**2 float64s (8.4 MB); `save_terrain`, which writes every node, took
# 19 s and peaked at 172 MB for its 134 MB grid on a 2-core x86 machine.
MAX_GRID_SIDE = 4097


@dataclass(frozen=True, eq=False)
class Ground(Settings):
    """The seed and sizes of a generated ground, each with its default and
    the range `Settings` checks: so `save_terrain` can write the seed, and
    the lattice draw's span 2 * amplitude and a grid's cell count
    extent / cell_size are finite floats. Equality is identity, as for a
    terrain.
    """

    seed: int = setting(0, 0)
    amplitude: float = setting(0.03, 0, SIZE_LIMIT, open_high=True)
    cell_size: float = setting(0.05, 1 / SIZE_LIMIT, SIZE_LIMIT, open_high=True)
    extent: float = setting(8.0, 0, SIZE_LIMIT, open_low=True, open_high=True)


def grid_side(cell_size: float, extent: float) -> int:
    """Nodes on a side of a generated grid covering [-extent, extent], or a
    ValueError naming the cell size if that is over MAX_GRID_SIDE. The sizes
    have passed a `Ground`'s checks, so their ratio is finite."""
    side = 2 * round(extent / cell_size) + 1
    if side > MAX_GRID_SIDE:
        raise ValueError(f"cell_size must leave at most {MAX_GRID_SIDE} grid nodes "
                         f"on a side")
    return side


@dataclass(frozen=True, eq=False)
class Terrain:
    """A grid of heights ``cell_size`` apart; `height_at` reads its nodes
    through ``_node(row, col)`` and its shape and origin from ``_grid_frame``.
    Its repr leaves the grid out.
    """

    kind: str
    seed: int
    amplitude: float
    cell_size: float
    height_grid: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown terrain kind {self.kind!r}")
        Ground(self.seed, self.amplitude, self.cell_size)
        grid = self.height_grid
        # A read-only float64 grid that owns its data, as `load_terrain` makes,
        # is kept; any other is copied, so no writeable array backs a terrain.
        if not (type(grid) is np.ndarray and grid.dtype == np.float64
                and grid.flags.owndata and not grid.flags.writeable):
            grid = np.array(grid, dtype=np.float64)
        if grid.ndim != 2:
            raise ValueError("height_grid must be 2-D")
        if not np.isfinite(grid).all():
            raise ValueError("height_grid must be finite")
        grid.setflags(write=False)
        rows, cols = grid.shape
        for name, value in (("height_grid", grid), ("_node", grid.item),
                            ("_grid_frame", (rows, cols, (cols - 1) / 2.0,
                                             (rows - 1) / 2.0))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class _LatticeTerrain(Ground):
    """A generated rough terrain covering [-extent, extent] in x and y: its
    seeded lattice, and in ``_rows`` each fine-grid row read so far as a list
    of floats (None if unread). It reads like a `Terrain` of kind rough.
    """

    kind = "rough"

    def __post_init__(self) -> None:
        # Checked before the draw, which overflows on an infinite extent or
        # amplitude and cannot allocate a lattice for too fine a grid.
        super().__post_init__()
        n = grid_side(self.cell_size, self.extent)
        n_coarse = (n - 1 + LATTICE_STEP - 1) // LATTICE_STEP + 1
        amplitude = self.amplitude
        lattice = np.random.default_rng(self.seed).uniform(
            -amplitude, amplitude, size=(n_coarse, n_coarse))
        lattice.setflags(write=False)
        rows: list[list[float] | None] = [None] * n

        def node(i: int, j: int) -> float:
            row = rows[i]
            if row is None:
                row = rows[i] = _lattice_row(lattice, amplitude, n, i).tolist()
            return row[j]

        for name, value in (("_lattice", lattice), ("_rows", rows), ("_node", node),
                            ("_grid_frame", (n, n, (n - 1) / 2.0, (n - 1) / 2.0))):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def height_grid(self) -> np.ndarray:
        """The whole fine grid, filled row by row without keeping the rows."""
        size = self._grid_frame[0]
        grid = np.empty((size, size))
        for i in range(size):
            grid[i] = _lattice_row(self._lattice, self.amplitude, size, i)
        grid.setflags(write=False)
        return grid


# What `height_at` and the simulator read: a grid or a generated rough terrain.
AnyTerrain = Terrain | _LatticeTerrain


def _lattice_row(lattice: np.ndarray, amplitude: float, size: int,
                 i: int) -> np.ndarray:
    """Fine-grid row i of a rough terrain, ``size`` nodes long: each node the
    bilinear mix of its lattice cell's four corners, summed left to right,
    clamped to [-amplitude, amplitude] by np.clip. A lattice of one node has
    no cell; cell index -1 wraps to that node, as numpy's ``take`` does."""
    last = lattice.shape[0] - 2
    pos = np.arange(size) / LATTICE_STEP
    k = np.minimum(pos.astype(np.int64), last)
    fx = pos - k
    gx = 1 - fx
    r = min(i // LATTICE_STEP, last)
    fy = i / LATTICE_STEP - r
    gy = 1 - fy
    row = (gy * gx * lattice[r, k] + gy * fx * lattice[r, k + 1]
           + fy * gx * lattice[r + 1, k] + fy * fx * lattice[r + 1, k + 1])
    return np.clip(row, -amplitude, amplitude, out=row)


def make_terrain(kind: str, seed: int, amplitude: float = Ground.amplitude,
                 cell_size: float = Ground.cell_size,
                 extent: float = Ground.extent) -> AnyTerrain:
    """Build a terrain covering [-extent, extent] in x and y.

    Flat terrain ignores seed and amplitude and is height 0 everywhere.
    Rough terrain is deterministic for a given (seed, amplitude,
    cell_size, extent) and its heights stay within [-amplitude, amplitude].
    """
    if kind == "rough":
        return _LatticeTerrain(seed, amplitude, cell_size, extent)
    # A 1x1 zero grid plus edge clamping gives height 0 everywhere. Terrain
    # checks the kind, seed and cell size it stores; then a Ground the sizes
    # it does not.
    flat = Terrain(kind, seed, 0.0, cell_size, np.zeros((1, 1)))
    Ground(amplitude=amplitude, extent=extent)
    return flat


def height_at(terrain: AnyTerrain, x: float, y: float) -> float:
    """Ground height at one world point, as a Python float.

    This is the one bilinear rule: the simulator calls it once per foot
    and substep, and `reset` and the done rule once per torso. It reads
    the four corner nodes through the terrain's node accessor, so a grid
    is read in place and a lattice terrain computes only the rows read.
    """
    rows, cols, x_origin, y_origin = terrain._grid_frame
    node = terrain._node
    if rows == 1 and cols == 1:
        # Degenerate grid (flat terrain): constant height everywhere.
        return node(0, 0)
    gx = x / terrain.cell_size + x_origin
    gy = y / terrain.cell_size + y_origin
    if 0.0 <= gx < cols - 1 and 0.0 <= gy < rows - 1:
        # Inside the grid every clamp below is a no-op.
        j0, i0 = int(gx), int(gy)
        fx, fy = gx - j0, gy - i0
        j1, i1 = j0 + 1, i0 + 1
    else:
        # Clamp to the grid, so far and infinite points read the edge; a
        # NaN coordinate picks cell 0 and makes the height NaN.
        hx, hy = max(cols - 2, 0), max(rows - 2, 0)
        gx, gy = min(max(gx, 0.0), hx + 1.0), min(max(gy, 0.0), hy + 1.0)
        j0 = min(math.floor(gx), hx) if gx == gx else 0
        i0 = min(math.floor(gy), hy) if gy == gy else 0
        fx, fy = gx - j0, gy - i0
        j1, i1 = min(j0 + 1, cols - 1), min(i0 + 1, rows - 1)
    wy, wx = 1 - fy, 1 - fx
    return (wy * wx * node(i0, j0) + wy * fx * node(i0, j1)
            + fy * wx * node(i1, j0) + fy * fx * node(i1, j1))


def save_terrain(terrain: AnyTerrain, path: str) -> None:
    """Write a terrain as plain text: 6 header lines, then row-major heights,
    one row at a time, so only the grid and one row's text are held. The
    amplitude and cell size are written as the floats `load_terrain` reads."""
    rows, cols = terrain.height_grid.shape
    lines = [
        f"kind {terrain.kind}",
        f"seed {terrain.seed}",
        f"amplitude {float(terrain.amplitude)!r}",
        f"cell_size {float(terrain.cell_size)!r}",
        f"rows {rows}",
        f"cols {cols}",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
        for row in terrain.height_grid:
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


def load_terrain(path: str) -> Terrain:
    """Read a `save_terrain` file one height row at a time into a preallocated
    grid; a ValueError refuses a truncated, malformed or ragged file."""
    with open(path, encoding="ascii") as fh:
        lines = filter(None, map(str.strip, fh))
        head = list(itertools.islice(lines, 6))
        if len(head) < 6:
            raise ValueError(f"terrain file {path!r} is truncated")
        header = dict(line.partition(" ")[::2] for line in head)
        expected = ("kind", "seed", "amplitude", "cell_size", "rows", "cols")
        if sorted(header) != sorted(expected):
            raise ValueError(f"terrain file {path!r} has a malformed header")
        rows, cols = int(header["rows"]), int(header["cols"])
        # A height takes two bytes or more, so a header asking for more
        # heights than the file holds allocates no grid and is refused below.
        fits = 0 < rows and 0 < cols and 2 * rows * cols <= os.path.getsize(path)
        grid = np.empty((rows, cols) if fits else (0, 0))
        found = 0
        for found, line in enumerate(lines, 1):
            values = line.split()
            fits = fits and found <= rows and len(values) == cols
            if fits:
                grid[found - 1] = [float(v) for v in values]
    if found != rows:
        raise ValueError(f"terrain file {path!r}: expected {rows} height rows, "
                         f"found {found}")
    if not fits:
        raise ValueError(f"terrain file {path!r}: ragged or mis-sized height rows")
    grid.setflags(write=False)  # so the Terrain keeps the grid, not a copy
    return Terrain(header["kind"], int(header["seed"]), float(header["amplitude"]),
                   float(header["cell_size"]), grid)
