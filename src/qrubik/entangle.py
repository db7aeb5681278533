"""Per-bipartition Schmidt analysis and entanglement classification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import (
    DEFAULT_TOL,
    Bipartition,
    PartyLayout,
    PureState,
    StateSet,
    _block_singular_values,
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
    the full matrix add no singular value. The matrices of all states are
    stacked by shape into batched SVDs, and singular values below ``tol``
    times a state's largest are treated as zero.
    """
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
) -> list[EntanglementProfile]:
    """Profiles of tripartite states across the three one-party-vs-rest cuts."""
    if len(layout.parties) != 3:
        raise ValueError("entanglement profile is defined for tripartite layouts")
    cuts = [Bipartition.of(layout, [p]) for p in layout.parties]
    names = [cut.name for cut in cuts]
    return [
        EntanglementProfile(
            ranks=dict(zip(names, row)),
            entangled=any(r > 1 for r in row),
            genuine=all(r > 1 for r in row),
        )
        for row in _schmidt_ranks(layout, terms, count, cuts, tol).tolist()
    ]


def entanglement_profile(s: PureState, tol: float = DEFAULT_TOL) -> EntanglementProfile:
    """Ranks for the three one-party-vs-rest cuts of a tripartite state."""
    return _profiles(s.layout, _term_arrays(s.layout, [s]), 1, tol)[0]


def profile_rows(sset: StateSet, tol: float = DEFAULT_TOL) -> list[dict]:
    """JSON-ready profile rows, one per state."""
    profiles = _profiles(sset.layout, sset.term_arrays, len(sset), tol)
    return [
        {
            "label": label,
            "ranks": dict(prof.ranks),
            "entangled": prof.entangled,
            "genuine": prof.genuine,
        }
        for label, prof in zip(sset.labels, profiles)
    ]
