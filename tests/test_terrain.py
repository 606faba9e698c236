import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadrl import terrain
from quadrl.records import ConfigError

from env_reference import rough_height_grid


def test_flat_terrain_is_zero_everywhere():
    flat = terrain.make_terrain("flat", seed=0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = rng.uniform(-20.0, 20.0, size=2)
        assert terrain.height_at(flat, x, y) == 0.0


def test_flat_ignores_amplitude():
    flat = terrain.make_terrain("flat", seed=3, amplitude=0.5)
    assert flat.amplitude == 0.0
    assert terrain.height_at(flat, 1.0, 1.0) == 0.0


def test_rough_heights_within_amplitude():
    for seed in range(5):
        rough = terrain.make_terrain("rough", seed=seed, amplitude=0.03)
        assert np.all(np.abs(rough.height_grid) <= 0.03 + 1e-12)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4.0, 4.0, size=(200, 2))
        hs = [terrain.height_at(rough, x, y) for x, y in pts.tolist()]
        assert np.all(np.abs(hs) <= 0.03 + 1e-12)


def test_rough_terrain_seeded_reproducible():
    a = terrain.make_terrain("rough", seed=42)
    b = terrain.make_terrain("rough", seed=42)
    assert np.array_equal(a.height_grid, b.height_grid)
    c = terrain.make_terrain("rough", seed=43)
    assert not np.array_equal(a.height_grid, c.height_grid)


def test_rough_terrain_is_not_flat():
    rough = terrain.make_terrain("rough", seed=0)
    assert np.ptp(rough.height_grid) > 0.01


@pytest.mark.parametrize("amplitude, cell_size, extent",
                         [(0.03, 0.05, 8.0), (0.0, 0.05, 8.0), (0.5, 0.05, 1.0),
                          (0.01, 0.07, 3.3), (0.03, 0.25, 1.0), (0.03, 0.05, 0.05),
                          (0.2, 0.1, 0.2)])
def test_rough_grid_matches_broadcast_gather_reference(amplitude, cell_size, extent):
    for seed in range(6):
        rough = terrain.make_terrain("rough", seed, amplitude, cell_size, extent)
        expected = rough_height_grid(seed, amplitude, cell_size, extent)
        assert rough.height_grid.shape == expected.shape
        assert rough.height_grid.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cell_size, extent",
                         [(0.05, 8.0), (0.05, 0.05), (0.05, 0.01), (0.07, 3.3)])
@pytest.mark.parametrize("amplitude", [0.0, 0.03, 0.06])
def test_lattice_nodes_match_reference_grid(amplitude, cell_size, extent):
    # (0.05, 0.01) is a one-node grid on a one-node lattice, whose missing
    # second lattice row and column wrap to the first, as numpy's take(-1) does.
    for seed in (0, 1005):
        rough = terrain.make_terrain("rough", seed, amplitude, cell_size, extent)
        expected = rough_height_grid(seed, amplitude, cell_size, extent)
        rows, cols = expected.shape
        assert rough._grid_frame[:2] == (rows, cols)
        for _ in range(2):  # computed on the first pass, remembered on the second
            nodes = [[rough._node(i, j) for j in reversed(range(cols))]
                     for i in reversed(range(rows))]
            assert np.array(nodes)[::-1, ::-1].tobytes() == expected.tobytes()
        assert "height_grid" not in vars(rough)


def test_lattice_rows_and_grid_match_the_reference_on_a_1601_node_grid():
    seed, amplitude, cell_size, extent = 3, 0.03, 0.01, 8.0
    expected = rough_height_grid(seed, amplitude, cell_size, extent)
    assert expected.shape == (1601, 1601)
    rough = terrain.make_terrain("rough", seed, amplitude, cell_size, extent)
    # One node read in each row computes that row, in a scattered order.
    reads = [(i, (7 * i) % 1601) for i in range(1600, -1, -1)]
    heights = [rough._node(i, j) for i, j in reads]
    assert np.array(heights).tobytes() == expected[tuple(zip(*reads))].tobytes()
    assert np.array(rough._rows).tobytes() == expected.tobytes()
    assert "height_grid" not in vars(rough)
    fresh = terrain.make_terrain("rough", seed, amplitude, cell_size, extent)
    assert fresh.height_grid.tobytes() == expected.tobytes()
    assert fresh._rows == [None] * 1601


@pytest.mark.parametrize("cell_size, extent", [(0.05, 8.0), (0.05, 0.05), (0.05, 0.01)])
def test_lattice_heights_match_a_grid_backed_terrain(cell_size, extent):
    for seed, amplitude in ((3, 0.03), (4, 0.0)):
        rough = terrain.make_terrain("rough", seed, amplitude, cell_size, extent)
        grid = rough_height_grid(seed, amplitude, cell_size, extent)
        backed = terrain.Terrain("rough", seed, amplitude, cell_size, grid)
        rows, cols = grid.shape
        half_x, half_y = (cols - 1) / 2 * cell_size, (rows - 1) / 2 * cell_size
        rng = np.random.default_rng(seed)
        inside = rng.uniform((-half_x, -half_y), (half_x, half_y), size=(50, 2))
        lines = [(j * cell_size - half_x, y) for j, y in zip(range(cols), inside[:, 1])]
        lines += [(x, i * cell_size - half_y) for i, x in zip(range(rows), inside[:, 0])]
        edges = [(sx * half_x, sy * half_y) for sx in (-1, 0, 1) for sy in (-1, 0, 1)]
        beyond = [(sx * (half_x + d), sy * (half_y + d)) for d in (0.01, 3.0, 1e19)
                  for sx in (-1, 0, 1) for sy in (-1, 1)]
        special = [(x, y) for x in (np.inf, -np.inf, np.nan, 0.01)
                   for y in (np.inf, -np.inf, np.nan, -0.02)]
        points = [*inside.tolist(), *lines, *edges, *beyond, *special]
        heights = [terrain.height_at(rough, x, y) for x, y in points]
        expected = [terrain.height_at(backed, x, y) for x, y in points]
        assert np.array(heights).tobytes() == np.array(expected).tobytes()
        assert "height_grid" not in vars(rough)


@pytest.mark.parametrize("seed, amplitude, cell_size, extent",
                         [(12, 0.03, 0.05, 8.0), (5, 0.0, 0.05, 1.0),
                          (7, 0.03, 0.05, 0.01)])
def test_saved_lattice_terrain_matches_the_saved_reference_grid(
        tmp_path, seed, amplitude, cell_size, extent):
    rough = terrain.make_terrain("rough", seed, amplitude, cell_size, extent)
    grid = rough_height_grid(seed, amplitude, cell_size, extent)
    backed = terrain.Terrain("rough", seed, amplitude, cell_size, grid)
    terrain.save_terrain(rough, tmp_path / "lattice.terrain")
    terrain.save_terrain(backed, tmp_path / "grid.terrain")
    assert ((tmp_path / "lattice.terrain").read_bytes()
            == (tmp_path / "grid.terrain").read_bytes())


def test_height_query_deterministic():
    rough = terrain.make_terrain("rough", seed=9)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5.0, 5.0, size=(50, 2))
    first = [terrain.height_at(rough, x, y) for x, y in pts.tolist()]
    second = [terrain.height_at(rough, x, y) for x, y in pts.tolist()]
    assert np.array(first).tobytes() == np.array(second).tobytes()


def test_bilinear_interpolation_between_nodes():
    rough = terrain.make_terrain("rough", seed=5, cell_size=0.05)
    grid = rough.height_grid
    rows, cols = grid.shape
    half_x = (cols - 1) // 2 * rough.cell_size
    half_y = (rows - 1) // 2 * rough.cell_size
    # Node (r, c) sits at world (c * cell - half_x, r * cell - half_y).
    r, c = rows // 2, cols // 2
    x = c * rough.cell_size - half_x
    y = r * rough.cell_size - half_y
    assert terrain.height_at(rough, x, y) == pytest.approx(grid[r, c], abs=1e-12)
    # Midpoint between two nodes along x averages them.
    mid = terrain.height_at(rough, x + 0.5 * rough.cell_size, y)
    assert mid == pytest.approx(0.5 * (grid[r, c] + grid[r, c + 1]), abs=1e-12)


def test_height_clamps_beyond_grid_edge():
    rough = terrain.make_terrain("rough", seed=2, extent=1.0, cell_size=0.25)
    far = terrain.height_at(rough, 100.0, -100.0)
    rows, cols = rough.height_grid.shape
    assert far == pytest.approx(rough.height_grid[0, cols - 1], abs=1e-12)


@pytest.mark.parametrize("far", [1e19, 1e300, np.inf])
def test_height_reads_the_edge_beyond_int64_and_at_infinity(far):
    rough = terrain.make_terrain("rough", seed=1)
    grid = rough.height_grid
    rows, cols = grid.shape
    r, c = rows // 2, cols // 2  # (0, 0) is the node at the grid's center
    assert terrain.height_at(rough, far, 0.0) == grid[r, cols - 1]
    assert terrain.height_at(rough, -far, 0.0) == grid[r, 0]
    assert terrain.height_at(rough, 0.0, far) == grid[rows - 1, c]
    assert terrain.height_at(rough, 0.0, -far) == grid[0, c]
    assert terrain.height_at(rough, far, -far) == grid[0, cols - 1]
    assert ([terrain.height_at(rough, x, 0.0) for x in (far, -far)]
            == [grid[r, cols - 1], grid[r, 0]])


def test_height_continuity_across_cells():
    rough = terrain.make_terrain("rough", seed=7)
    xs = np.linspace(-1.0, 1.0, 2001)
    hs = [terrain.height_at(rough, x, 0.0) for x in xs.tolist()]
    assert np.max(np.abs(np.diff(hs))) < 0.005


def test_make_terrain_rejects_unknown_kind():
    with pytest.raises(ValueError, match="^unknown terrain kind 'lava'$"):
        terrain.make_terrain("lava", seed=0)


def test_make_terrain_rejects_bad_geometry():
    with pytest.raises(ValueError):
        terrain.make_terrain("rough", seed=0, cell_size=0.0)
    with pytest.raises(ValueError):
        terrain.make_terrain("rough", seed=0, extent=-1.0)
    with pytest.raises(ValueError):
        terrain.make_terrain("rough", seed=0, amplitude=-0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_terrain_rejects_non_finite_geometry(bad):
    # A ValueError before the draw, not numpy's OverflowError from it.
    for name in ("amplitude", "extent", "cell_size"):
        with pytest.raises(ValueError, match=f"{name} .*finite"):
            terrain.make_terrain("rough", seed=0, **{name: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_terrain_rejects_non_finite_heights(bad):
    grid = np.zeros((3, 3))
    grid[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        terrain.Terrain("rough", 0, 0.03, 0.05, grid)


def test_terrain_copies_a_grid_its_caller_can_still_write():
    grid = np.zeros((3, 3))
    hand_built = terrain.Terrain("rough", 0, 0.03, 0.05, grid)
    base = np.zeros((3, 3))
    view = base[:]
    view.setflags(write=False)
    from_view = terrain.Terrain("rough", 0, 0.03, 0.05, view)
    grid[1, 1] = base[1, 1] = 0.01
    for t in (hand_built, from_view):
        assert t.height_grid[1, 1] == 0.0
        assert terrain.height_at(t, 0.0, 0.0) == 0.0
    # Only a read-only grid that owns its data, as a loaded one does, is kept.
    owned = np.zeros((3, 3))
    owned.setflags(write=False)
    assert terrain.Terrain("rough", 0, 0.03, 0.05, owned).height_grid is owned


def test_save_load_round_trip(tmp_path):
    for kind in ("flat", "rough"):
        src = terrain.make_terrain(kind, seed=12)
        path = tmp_path / f"{kind}.terrain"
        terrain.save_terrain(src, path)
        loaded = terrain.load_terrain(path)
        assert loaded.kind == src.kind
        assert loaded.seed == src.seed
        assert loaded.amplitude == src.amplitude
        assert loaded.cell_size == src.cell_size
        assert np.array_equal(loaded.height_grid, src.height_grid)


def test_saved_file_is_a_text_header_then_an_npy_grid(tmp_path):
    rough = terrain.make_terrain("rough", seed=1)
    path = tmp_path / "t.terrain"
    terrain.save_terrain(rough, path)
    lines = path.read_bytes().split(b"\n", 6)
    assert [line.partition(b" ")[0] for line in lines[:6]] == [
        b"kind", b"seed", b"amplitude", b"cell_size", b"rows", b"cols"]
    assert lines[6].startswith(b"\x93NUMPY\x01\x00")
    assert lines[6].endswith(rough.height_grid.astype("<f8").tobytes())


def test_saving_a_generated_grid_holds_it_about_once(tmp_path):
    # Imports and first-use allocations of numpy's generator are paid first.
    terrain.make_terrain("rough", seed=0, extent=0.1)
    tracemalloc.start()
    try:
        rough = terrain.make_terrain("rough", seed=1)
        terrain.save_terrain(rough, tmp_path / "t.terrain")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The grid and its lattice, written in place; not a nested list of floats.
    assert rough.height_grid.shape == (321, 321)
    assert peak < 2 * rough.height_grid.nbytes


def test_loading_a_grid_holds_it_about_once(tmp_path):
    path = tmp_path / "t.terrain"
    terrain.save_terrain(terrain.make_terrain("rough", seed=1), path)
    terrain.load_terrain(path)  # first-use allocations are paid first
    tracemalloc.start()
    try:
        loaded = terrain.load_terrain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The grid, read in place and kept by `Terrain` rather than copied, and the
    # finiteness check's mask; not a second grid.
    assert loaded.height_grid.shape == (321, 321)
    assert loaded.height_grid.flags.owndata
    assert peak < 1.5 * loaded.height_grid.nbytes


@pytest.mark.parametrize("cell_size", [0.25, 1])
def test_a_loaded_terrain_saves_to_the_same_bytes(tmp_path, cell_size):
    # An int amplitude or cell size is written as the float it loads as.
    made = terrain.make_terrain("rough", 5, amplitude=1, cell_size=cell_size, extent=2)
    terrain.save_terrain(made, tmp_path / "made.terrain")
    loaded = terrain.load_terrain(tmp_path / "made.terrain")
    terrain.save_terrain(loaded, tmp_path / "loaded.terrain")
    data = (tmp_path / "made.terrain").read_bytes()
    assert data.splitlines()[2] == b"amplitude 1.0"
    assert data == (tmp_path / "loaded.terrain").read_bytes()


def edit_saved(path, edit):
    """Rewrite a saved terrain file as edit(lines) joined by newlines, where
    lines are its six header lines and then its NPY header and grid bytes."""
    path.write_bytes(b"\n".join(edit(path.read_bytes().split(b"\n", 6))))


ROW = 8 * 321  # the bytes of one row of the default grid


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:6] + [lines[6] + lines[6][-ROW:]],
     rf"\(321, 321\), '<f8', False, {321 * ROW}\), found .* {322 * ROW}\)"),
    (lambda lines: lines[:6] + [lines[6][:-8]], rf"found .* {321 * ROW - 8}\)"),
    (lambda lines: lines[:5] + [b"cols 322"] + lines[6:],
     r"expected .*\(\(321, 322\).* found \(\(321, 321\)"),
    (lambda lines: lines[:4] + [b"rows 0"] + lines[5:], "rows and cols must be positive"),
    (lambda lines: lines[:4] + [b"rows -1"] + lines[5:], "rows and cols must be positive"),
    (lambda lines: lines[:4] + [b"rows 10000000000"] + lines[5:],
     r"expected .*\(\(10000000000, 321\).* found \(\(321, 321\)"),
    (lambda lines: lines[:5] + [b"cols 10000000000"] + lines[6:],
     r"expected .*\(\(321, 10000000000\).* found \(\(321, 321\)"),
    (lambda lines: lines[:5] + [b"rows 321"] + lines[6:], "malformed header"),
], ids=["extra_row", "short_row", "long_header_cols", "zero_rows", "negative_rows",
        "huge_rows", "huge_cols", "duplicate_key"])
def test_load_refuses_a_grid_that_does_not_match_its_header(tmp_path, edit, message):
    # A header asking for more heights than the file holds allocates no grid.
    path = tmp_path / "t.terrain"
    terrain.save_terrain(terrain.make_terrain("rough", seed=4), path)
    edit_saved(path, edit)
    with pytest.raises(ValueError, match=message) as refused:
        terrain.load_terrain(path)
    assert str(path) in str(refused.value)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.terrain"
    path.write_text("not a terrain file\n")
    with pytest.raises(ValueError):
        terrain.load_terrain(path)


def test_load_rejects_truncated_grid(tmp_path):
    rough = terrain.make_terrain("rough", seed=4)
    path = tmp_path / "t.terrain"
    terrain.save_terrain(rough, path)
    edit_saved(path, lambda lines: lines[:6] + [lines[6][:-2 * ROW]])
    with pytest.raises(ValueError):
        terrain.load_terrain(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_numbers(tmp_path, bad):
    rough = terrain.make_terrain("rough", seed=4)
    path = tmp_path / "t.terrain"
    terrain.save_terrain(rough, path)
    lines = path.read_bytes().split(b"\n", 6)
    assert lines[2].startswith(b"amplitude ") and lines[3].startswith(b"cell_size ")
    # The last height, the amplitude and the cell size, one at a time.
    height = lines[6][:-8] + np.array([float(bad)], "<f8").tobytes()
    for index, line in ((6, height), (2, f"amplitude {bad}".encode()),
                        (3, f"cell_size {bad}".encode())):
        path.write_bytes(b"\n".join(lines[:index] + [line] + lines[index + 1:]))
        with pytest.raises(ValueError, match="finite"):
            terrain.load_terrain(path)


def write_crafted(path, descr="<f8", fortran_order=False, shape=(3, 3),
                  version=(1, 0), rows_cols=None, body=None):
    """Write a terrain file whose NPY header says what the arguments say,
    with rows and cols from ``rows_cols`` (default: the shape) and a body of
    9 zero heights unless ``body`` is given."""
    rows, cols = rows_cols or shape
    with open(path, "wb") as fh:
        fh.write(f"kind rough\nseed 0\namplitude 0.03\ncell_size 0.05\n"
                 f"rows {rows}\ncols {cols}\n".encode())
        header = {"descr": descr, "fortran_order": fortran_order, "shape": shape}
        write_header = (np.lib.format.write_array_header_1_0 if version == (1, 0)
                        else np.lib.format.write_array_header_2_0)
        write_header(fh, header)
        fh.write(bytes(72) if body is None else body)


def test_a_crafted_file_loads_when_it_holds_what_its_headers_say(tmp_path):
    write_crafted(tmp_path / "t.terrain")
    loaded = terrain.load_terrain(tmp_path / "t.terrain")
    assert loaded.height_grid.tobytes() == bytes(72)


@pytest.mark.parametrize("kwargs, message", [
    ({"shape": (10**6, 10**6)}, r"found \(\(1000000, 1000000\), '<f8', False, 72\)"),
    ({"descr": ">f8"}, r"found \(\(3, 3\), '>f8', False, 72\)"),
    ({"descr": "<f4"}, r"found \(\(3, 3\), '<f4', False, 72\)"),
    ({"descr": "|O"}, r"found \(\(3, 3\), '\|O', False, 72\)"),
    ({"fortran_order": True}, r"found \(\(3, 3\), '<f8', True, 72\)"),
    ({"version": (2, 0)}, "holds no NPY 1.0 grid: its NPY version is not 1.0"),
    ({"shape": (0, 3), "body": b""}, "rows and cols must be positive"),
    ({"rows_cols": (1, 9)}, r"\(\(1, 9\), '<f8', False, 72\), found \(\(3, 3\)"),
], ids=["huge_shape", "big_endian", "float32", "object", "fortran_order",
        "version_2", "empty", "other_shape"])
def test_load_refuses_a_crafted_npy_body_before_allocating(tmp_path, kwargs, message):
    # Nothing the size of the NPY shape is allocated.
    path = tmp_path / "t.terrain"
    write_crafted(path, **kwargs)
    with pytest.raises(ValueError):  # first-use allocations are paid first
        terrain.load_terrain(path)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message) as refused:
            terrain.load_terrain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(refused.value)
    assert peak < 2**20


# A 5x5 rough terrain (seed 5, extent 0.1) in the older text format, one line
# of height reprs per row.
OLD_TEXT_FORMAT = (
    b"kind rough\nseed 5\namplitude 0.03\ncell_size 0.05\nrows 5\ncols 5\n"
    b"0.018300175424722807 0.01834424341458951 0.018388311404456216 "
    b"0.01843237939432292 0.018476447384189625\n"
    b"0.013955014984174235 0.013127350297996762 0.012299685611819289 "
    b"0.011472020925641814 0.010644356239464341\n"
    b"0.009609854543625663 0.007910457181404013 0.006211059819182361 "
    b"0.00451166245696071 0.00281226509473906\n"
    b"0.005264694103077091 0.002693564064811262 0.00012243402654543364 "
    b"-0.002448696011720394 -0.005019826049986223\n"
    b"0.0009195336625285183 -0.0025233290517814875 -0.005966191766091493 "
    b"-0.0094090544804015 -0.012851917194711505\n")


def test_a_file_in_the_older_text_format_is_refused(tmp_path):
    path = tmp_path / "old.terrain"
    path.write_bytes(OLD_TEXT_FORMAT)
    with pytest.raises(ValueError, match="holds no NPY 1.0 grid") as refused:
        terrain.load_terrain(path)
    assert str(path) in str(refused.value)
    # make_terrain re-makes it from its header, the extent (cols - 1) / 2 cells.
    remade = terrain.make_terrain("rough", 5, 0.03, 0.05, (5 - 1) / 2 * 0.05)
    assert [list(map(repr, row)) for row in remade.height_grid.tolist()] == [
        line.split() for line in OLD_TEXT_FORMAT.decode().splitlines()[6:]]


def test_terrain_immutable():
    rough = terrain.make_terrain("rough", seed=0)
    with pytest.raises(ValueError):
        rough.height_grid[0, 0] = 1.0
    with pytest.raises(ValueError):
        rough._lattice[0, 0] = 1.0


def test_repr_leaves_the_grid_out():
    rough = terrain.make_terrain("rough", seed=1)
    assert repr(rough) == ("_LatticeTerrain(seed=1, amplitude=0.03, "
                           "cell_size=0.05, extent=8.0)")
    # No row was computed and no grid was built.
    assert rough._rows == [None] * 321 and "height_grid" not in vars(rough)
    flat = terrain.make_terrain("flat", seed=0)
    assert repr(flat) == "Terrain(kind='flat', seed=0, amplitude=0.0, cell_size=0.05)"


def test_replace_on_a_generated_terrain_draws_the_new_seed(tmp_path):
    rough = terrain.make_terrain("rough", seed=1)
    replaced = dataclasses.replace(rough, seed=2)
    assert "height_grid" not in vars(rough) and "height_grid" not in vars(replaced)
    assert replaced._rows == [None] * 321
    terrain.save_terrain(replaced, tmp_path / "replaced.terrain")
    terrain.save_terrain(terrain.make_terrain("rough", 2), tmp_path / "made.terrain")
    assert ((tmp_path / "replaced.terrain").read_bytes()
            == (tmp_path / "made.terrain").read_bytes())
    # A grid-backed terrain still takes new fields.
    flat = dataclasses.replace(terrain.make_terrain("flat", seed=0), seed=4)
    assert flat.seed == 4 and terrain.height_at(flat, 0.5, 0.5) == 0.0


@pytest.mark.parametrize("seed", [-1, True, False, 1.5, 2.0, "3", None, np.int64(3)])
def test_terrains_reject_a_seed_that_is_not_a_non_negative_int(seed):
    # Each is a ValueError naming the seed, raised before the lattice draw.
    for kind in terrain.KINDS:
        with pytest.raises(ValueError, match="^seed(: expected int| must be non-neg)"):
            terrain.make_terrain(kind, seed)
    with pytest.raises(ValueError, match="^seed(: expected int| must be non-neg)"):
        terrain.Terrain("rough", seed, 0.03, 0.05, np.zeros((3, 3)))


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5, 10**40, 10**5000],
                         ids=["2_64", "2_64_plus_5", "10_40", "10_5000"])
def test_terrains_reject_a_seed_of_2_64_or_more(seed):
    # Checked where the seed is stored, so save_terrain never meets a seed
    # it cannot write; the message leaves out a seed that may have no str.
    for kind in terrain.KINDS:
        with pytest.raises(ValueError, match=r"^seed must be below 2\*\*64$"):
            terrain.make_terrain(kind, seed)
    with pytest.raises(ValueError, match=r"^seed must be below 2\*\*64$"):
        terrain.Terrain("rough", seed, 0.03, 0.05, np.zeros((3, 3)))


def test_seed_messages_leave_out_a_seed_that_has_no_str():
    # An int of more than 4300 digits has no str, so the message omits it.
    for kind in terrain.KINDS:
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            terrain.make_terrain(kind, -10**5000)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        terrain.Terrain("flat", -10**5000, 0.0, 0.05, [[0.0]])


@pytest.mark.parametrize("kwargs, message", [
    ({"amplitude": 1e308}, r"^amplitude must lie in \[0, 2\*\*64\)$"),
    ({"extent": 10**5000}, r"^extent must lie in \(0, 2\*\*64\)$"),
    ({"cell_size": 1e-320}, r"^cell_size must lie in \[2\*\*-64, 2\*\*64\)$"),
], ids=["amplitude_1e308", "extent_10_5000", "cell_size_1e-320"])
def test_make_terrain_refuses_sizes_the_draw_cannot_take(kwargs, message):
    # A ValueError before the draw, not the OverflowError numpy or Python
    # raised from a span, a float conversion or a cell count too large.
    for kind in terrain.KINDS:
        with pytest.raises(ValueError, match=message):
            terrain.make_terrain(kind, 1, **kwargs)


def test_grid_side_is_capped():
    assert terrain.grid_side(0.05, 8.0) == 321
    assert terrain.grid_side(8.0 / 2048, 8.0) == terrain.MAX_GRID_SIDE == 4097
    with pytest.raises(ValueError, match="^cell_size must leave at most 4097 "
                                         "grid nodes on a side$"):
        terrain.grid_side(8.0 / 2049, 8.0)


def test_rough_terrain_refuses_a_grid_over_the_cap_before_it_draws():
    # Without the cap this asks numpy for a 40001 x 40001 lattice, 12.8 GB,
    # so it runs in a process whose address space is capped at 1.5 GB.
    code = ("import resource\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1500000 * 1024, hard))\n"
            "from quadrl.terrain import make_terrain\n"
            "try:\n"
            "    make_terrain('rough', 0, cell_size=1e-4)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(terrain.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True)
    assert out.stdout == "cell_size must leave at most 4097 grid nodes on a side\n"


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1, "cell_size": 0.0}, "^seed must be non-negative"),
    ({"cell_size": 0.0, "amplitude": -1.0}, r"^cell_size must lie in \[2\*\*-64"),
    ({"amplitude": -1.0, "extent": 0.0}, r"^amplitude must lie in \[0, "),
    ({"extent": math.inf}, "^extent must be finite"),
], ids=["seed", "cell_size", "amplitude", "extent"])
def test_flat_terrain_reports_the_first_bad_argument(kwargs, message):
    # Terrain checks the seed and cell size it stores; make_terrain checks
    # the amplitude and extent, which a flat terrain does not store.
    args = dict({"seed": 0}, **kwargs)
    with pytest.raises(ValueError, match=message):
        terrain.make_terrain("flat", **args)


def test_flat_terrain_checks_the_seed_and_cell_size_once(monkeypatch):
    # Terrain's Ground holds the seed and cell size, and make_terrain's the
    # amplitude and extent; each other field is at its default.
    checked = []
    check = terrain.Ground.__post_init__

    def recording_check(ground):
        checked.append(dataclasses.astuple(ground))
        check(ground)

    monkeypatch.setattr(terrain.Ground, "__post_init__", recording_check)
    terrain.make_terrain("flat", 3, amplitude=0.5, cell_size=0.1, extent=2.0)
    assert checked == [(3, 0.0, 0.1, 8.0), (0, 0.5, 0.05, 2.0)]


@pytest.mark.parametrize("bad", ["0.03", None, [0.5]], ids=["str", "none", "list"])
def test_terrains_refuse_a_size_that_is_not_a_number(bad):
    # Once a bare TypeError from comparing the size with 0.0.
    for kind in terrain.KINDS:
        for name in ("amplitude", "cell_size", "extent"):
            with pytest.raises(ConfigError, match=f"^{name}: expected float, got "):
                terrain.make_terrain(kind, 0, **{name: bad})
    with pytest.raises(ConfigError, match="^cell_size: expected float, got "):
        terrain.Terrain("rough", 0, 0.03, bad, np.zeros((3, 3)))


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 - 1, 2**64 - 1])
def test_every_accepted_seed_survives_save_and_load(tmp_path, seed):
    for kind in terrain.KINDS:
        made = terrain.make_terrain(kind, seed, extent=0.5)
        terrain.save_terrain(made, tmp_path / f"{kind}.terrain")
        loaded = terrain.load_terrain(tmp_path / f"{kind}.terrain")
        assert type(loaded.seed) is int and loaded.seed == seed
        assert loaded.height_grid.tobytes() == made.height_grid.tobytes()
