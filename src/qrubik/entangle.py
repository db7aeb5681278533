"""Per-bipartition Schmidt analysis and entanglement classification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .states import (
    DEFAULT_TOL,
    Bipartition,
    PartyLayout,
    PureState,
    StateSet,
    _block_singular_values,
    _checked_count,
    _flat_index,
    _term_arrays,
)


@dataclass(frozen=True)
class EntanglementProfile:
    """Schmidt ranks across every one-vs-rest bipartition, with derived flags."""

    ranks: dict[str, int]
    entangled: bool
    genuine: bool


def _schmidt_ranks(
    layout: PartyLayout,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    count: int,
    cuts: Sequence[Bipartition],
    tol: float,
) -> np.ndarray:
    """Schmidt rank of every state (rows) across every cut (columns), for
    ``count`` states given by the (state, index, amplitude) arrays of their
    terms (:func:`states._term_arrays`).

    A state's coefficient matrix across a cut is taken over its support only,
    with a row per distinct left index and a column per distinct right index
    of its terms, both in lexicographic order: the zero rows and columns of
    the full matrix add no singular value. The singular values of all states'
    matrices come from :func:`states._block_singular_values`, and those below
    ``tol`` times a state's largest are treated as zero.
    """
    _checked_count(layout, count)
    state, idx, amps = terms
    if not np.bincount(state, minlength=count).all():
        raise ValueError("Schmidt rank of the zero state is undefined")
    ranks = np.empty((count, len(cuts)), dtype=np.int64)
    for k, cut in enumerate(cuts):
        cut.validate_for(layout)
        left = _flat_index(idx, layout.dims, [layout.axis(p) for p in cut.left])
        right = _flat_index(idx, layout.dims, [layout.axis(p) for p in cut.right])
        for ids, svals in _block_singular_values(state, left, right, amps, count):
            ranks[ids, k] = np.sum(svals > tol * svals[:, :1], axis=1)
    return ranks


def schmidt_rank(s: PureState, cut: Bipartition, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of the coefficient matrix across a bipartition, over the
    state's support; see ``_schmidt_ranks``."""
    return int(_schmidt_ranks(s.layout, _term_arrays(s.layout, [s]), 1, [cut], tol)[0, 0])


def _profiles(
    layout: PartyLayout, terms: tuple[np.ndarray, np.ndarray, np.ndarray], count: int, tol: float
) -> tuple[list[str], Iterator[tuple[list[int], bool, bool]]]:
    """The names of the three one-party-vs-rest cuts of a tripartite layout
    and, per state, its Schmidt ranks across them, whether any rank is above
    one (entangled) and whether every rank is (genuine)."""
    if len(layout.parties) != 3:
        raise ValueError("entanglement profile is defined for tripartite layouts")
    cuts = [Bipartition.of(layout, [p]) for p in layout.parties]
    ranks = _schmidt_ranks(layout, terms, count, cuts, tol)
    above = ranks > 1
    rows = zip(ranks.tolist(), above.any(axis=1).tolist(), above.all(axis=1).tolist())
    return [cut.name for cut in cuts], rows


def entanglement_profile(s: PureState, tol: float = DEFAULT_TOL) -> EntanglementProfile:
    """Ranks for the three one-party-vs-rest cuts of a tripartite state."""
    names, rows = _profiles(s.layout, _term_arrays(s.layout, [s]), 1, tol)
    ((ranks, entangled, genuine),) = rows
    return EntanglementProfile(dict(zip(names, ranks)), entangled, genuine)


def profile_rows(sset: StateSet, tol: float = DEFAULT_TOL) -> list[dict]:
    """JSON-ready profile rows, one per state."""
    names, rows = _profiles(sset.layout, sset.term_arrays, len(sset), tol)
    return [
        {"label": label, "ranks": dict(zip(names, ranks)), "entangled": ent, "genuine": gen}
        for label, (ranks, ent, gen) in zip(sset.labels, rows)
    ]
