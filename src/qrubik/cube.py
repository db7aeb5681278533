"""State families from cube partitions: layer peeling and the full set builders.

A d x d x d index cube is peeled layer by layer.  Each layer contributes six
face blocks, every block split into d-1 disjoint diagonal runs of d-1 cells,
and each run carries a family of phase-cycled states that are mutually
orthogonal by construction.  Peeling stops at the 3-core (odd d) or the 4-core
(even d); the leftover diagonal cells host the basis completions.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import (
    PartyLayout,
    PureState,
    StateSet,
    _canonical_arrays,
    _canonical_set,
    _checked_index,
    _pure_states,
)

Cell = tuple[int, int, int]

# The largest d the set builders take. The terms grow as about d^4: the d = 32
# basis has 785,926 terms, and `construct --d 32 --basis` takes 1.7 s, peaks
# at 313 MB of RSS and writes a 106 MB file.
MAX_D = 32


def root_of_unity(n: int, k: int) -> complex:
    """exp(2*pi*i*k/n) with the exponent reduced mod n.

    Quarter-turn multiples are returned exactly so that repeated phases are
    bit-identical across states (and the two-cell families use exact +/-1).
    """
    r = k % n
    if r == 0:
        return 1 + 0j
    if 2 * r == n:
        return -1 + 0j
    if 4 * r == n:
        return 1j
    if 4 * r == 3 * n:
        return -1j
    return cmath.exp(2j * math.pi * r / n)


@dataclass(frozen=True)
class Subcube:
    """Axis-aligned region J1 x J2 x J3 of index sets, one per party."""

    ranges: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranges", tuple(tuple(r) for r in self.ranges))
        if any(not r for r in self.ranges):
            raise ValueError("subcube ranges must be nonempty")

    def cells(self) -> tuple[Cell, ...]:
        return tuple(itertools.product(*self.ranges))

    @property
    def size(self) -> int:
        return len(self.ranges[0]) * len(self.ranges[1]) * len(self.ranges[2])


@dataclass(frozen=True)
class LayerDecomposition:
    """One peel of the cube: six face blocks, two corner cells, inner region.

    ``face_blocks[f][t]`` is the t-th diagonal run of block f, ordered along
    the run; the six blocks, the two main-diagonal corners and the inner
    (d-2)^3 region are pairwise disjoint and jointly cover the cube.
    """

    d: int
    face_blocks: tuple[tuple[tuple[Cell, ...], ...], ...]
    block_extents: tuple[Subcube, ...]
    corner_cells: tuple[Cell, Cell]
    inner: Subcube


def _family_run(size: int, family: int, t: int) -> tuple[Cell, ...]:
    """Cells of run t in one of the six face blocks of a size x size x size layer."""
    m = size - 1
    cells = []
    for j in range(m):
        w = (j + t) % m
        if family == 0:
            cells.append((j + 1, 0, w))
        elif family == 1:
            cells.append((j + 1, w, m))
        elif family == 2:
            cells.append((m, j + 1, w))
        elif family == 3:
            cells.append((j, w + 1, 0))
        elif family == 4:
            cells.append((j, m, w + 1))
        else:
            cells.append((0, j, w + 1))
    return tuple(cells)


def _block_extent(size: int, family: int) -> Subcube:
    m = size - 1
    low = tuple(range(0, m))
    high = tuple(range(1, m + 1))
    extents = {
        0: (high, (0,), low),
        1: (high, low, (m,)),
        2: ((m,), high, low),
        3: (low, high, (0,)),
        4: (low, (m,), high),
        5: ((0,), low, high),
    }
    return Subcube(extents[family])


def decompose_layer(d: int) -> LayerDecomposition:
    """Outer-layer partition of the d x d x d cube into blocks, corners, inner region."""
    if d < 3:
        raise ValueError("layer decomposition needs d >= 3")
    blocks = tuple(
        tuple(_family_run(d, f, t) for t in range(d - 1)) for f in range(6)
    )
    extents = tuple(_block_extent(d, f) for f in range(6))
    inner = Subcube((tuple(range(1, d - 1)),) * 3)
    return LayerDecomposition(
        d=d,
        face_blocks=blocks,
        block_extents=extents,
        corner_cells=((0, 0, 0), (d - 1, d - 1, d - 1)),
        inner=inner,
    )


def tripartite_layout(d: int) -> PartyLayout:
    return PartyLayout(("A", "B", "C"), (d, d, d))


def ghz_like_states(
    layout: PartyLayout, cells: list[Cell] | tuple[Cell, ...]
) -> list[PureState]:
    """Phase-cycled family over an ordered cell run.

    For n cells returns the n states sum_j w_n^(j*k) |cell_j> for k = 0..n-1;
    they are pairwise orthogonal because the cyclic phase columns are.
    """
    cells = tuple(tuple(c) for c in cells)
    if not cells:
        raise ValueError("need at least one cell")
    if len(set(cells)) != len(cells):
        raise ValueError("cells must be pairwise distinct")
    run = tuple(_checked_index(layout, c) for c in cells)
    arrays = _canonical_arrays(layout, len(run), *_family_terms([run]))
    return list(_pure_states(layout, [None] * len(run), arrays))


def _family_terms(runs: list[tuple[Cell, ...]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of the phase-cycled family of each of ``runs`` (checked
    multi-indices, distinct within a run), run after run, as the (state,
    index, amplitude) arrays that :func:`states._canonical_arrays` takes."""
    owner, idx, amps = [], [], []
    start = 0
    for n, group in itertools.groupby(runs, key=len):
        cells = np.array(list(group), dtype=np.int64)
        count = len(cells) * n
        phases = np.array([[root_of_unity(n, j * k) for j in range(n)] for k in range(n)])
        owner.append(start + np.repeat(np.arange(count), n))
        idx.append(np.repeat(cells, n, axis=0).reshape(count * n, -1))
        amps.append(np.tile(phases.ravel(), len(cells)))
        start += count
    return np.concatenate(owner), np.concatenate(idx), np.concatenate(amps)


def _shifted(cells: tuple[Cell, ...], offset: int) -> tuple[Cell, ...]:
    return tuple((a + offset, b + offset, c + offset) for (a, b, c) in cells)


def layer_sizes(d: int) -> list[int]:
    """Layer sizes visited while peeling: d, d-2, ... down to 3 (odd) or 4 (even)."""
    sizes = []
    s = d
    while s >= 3:
        sizes.append(s)
        s -= 2
    return sizes


def _checked_d(d: int) -> int:
    """``d``, refused unless 3 <= d <= :data:`MAX_D`."""
    if not 3 <= d <= MAX_D:
        raise ValueError(f"construction needs 3 <= d <= {MAX_D}, got d = {d}")
    return d


def _run_cells(d: int) -> list[tuple[Cell, ...]]:
    """Every face-block run of every peel, outside-in: layer, then block,
    then run translate t."""
    runs = []
    for size in layer_sizes(d):
        offset = (d - size) // 2
        for family in range(6):
            for t in range(size - 1):
                runs.append(_shifted(_family_run(size, family, t), offset))
    return runs


def _completion_cells(d: int) -> list[tuple[Cell, ...]]:
    """The main diagonal, then for even d the three off-diagonal pairs of the
    central 2 x 2 x 2 region."""
    runs = [tuple((j, j, j) for j in range(d))]
    if d % 2 == 0:
        m = d // 2
        runs += [
            ((m - 1, m, m), (m, m - 1, m - 1)),
            ((m - 1, m - 1, m), (m, m, m - 1)),
            ((m - 1, m, m - 1), (m, m - 1, m)),
        ]
    return runs


def _cube_set(d: int, runs: list[tuple[Cell, ...]]) -> StateSet:
    """The phase-cycled families of ``runs``, labelled psi1, psi2, ... in order."""
    owner, idx, amps = _family_terms(runs)
    labels = [f"psi{i + 1}" for i in range(sum(map(len, runs)))]
    return _canonical_set(tripartite_layout(d), labels, owner, idx, amps)


def build_snoes(d: int) -> StateSet:
    """The entangled set over all face-block runs of every peel, outside-in.

    Emission order is layer, then block, then run translate t, then phase
    index k, which fixes a canonical order for the small-d families.  Size
    is d^3 - d for odd d and d^3 - d - 6 for even d.
    """
    return _cube_set(d, _run_cells(_checked_d(d)))


def completion_states(d: int) -> list[PureState]:
    """Genuinely entangled completions on the cells the runs leave uncovered.

    Odd d: the d phase-cycled states on the main diagonal.  Even d: the same d
    diagonal states plus the six +/- pairs on the off-diagonal cells of the
    central 2 x 2 x 2 region.
    """
    layout = tripartite_layout(d)
    return [s for run in _completion_cells(d) for s in ghz_like_states(layout, run)]


def build_snoeb(d: int) -> StateSet:
    """Full orthogonal entangled basis: the run states plus the completions."""
    return _cube_set(d, _run_cells(_checked_d(d)) + _completion_cells(d))
