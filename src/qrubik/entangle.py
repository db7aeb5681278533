"""Per-bipartition Schmidt analysis and entanglement classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DEFAULT_TOL, Bipartition, PureState, StateSet


@dataclass(frozen=True)
class EntanglementProfile:
    """Schmidt ranks across every one-vs-rest bipartition, with derived flags."""

    ranks: dict[str, int]
    entangled: bool
    genuine: bool


def schmidt_rank(s: PureState, cut: Bipartition, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of the coefficient matrix across a bipartition.

    The matrix is taken over the state's support only, with a row per
    distinct left index and a column per distinct right index of its terms:
    the zero rows and columns of the full matrix add no singular value.
    Singular values below ``tol`` times the largest are treated as zero.
    """
    if s.is_zero():
        raise ValueError("Schmidt rank of the zero state is undefined")
    cut.validate_for(s.layout)
    left = [s.layout.axis(p) for p in cut.left]
    right = [s.layout.axis(p) for p in cut.right]
    keys = [(tuple(idx[a] for a in left), tuple(idx[a] for a in right)) for idx in s.support]
    rows, cols = ({k: n for n, k in enumerate(sorted(set(side)))} for side in zip(*keys))
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for (l, r), (_, amp) in zip(keys, s.terms):
        mat[rows[l], cols[r]] = amp
    svals = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(svals > tol * svals[0]))


def entanglement_profile(s: PureState, tol: float = DEFAULT_TOL) -> EntanglementProfile:
    """Ranks for the three one-party-vs-rest cuts of a tripartite state."""
    if len(s.layout.parties) != 3:
        raise ValueError("entanglement profile is defined for tripartite layouts")
    ranks = {}
    for p in s.layout.parties:
        cut = Bipartition.of(s.layout, [p])
        ranks[cut.name] = schmidt_rank(s, cut, tol)
    values = list(ranks.values())
    return EntanglementProfile(
        ranks=ranks,
        entangled=any(r > 1 for r in values),
        genuine=all(r > 1 for r in values),
    )


def profile_rows(sset: StateSet, tol: float = DEFAULT_TOL) -> list[dict]:
    """JSON-ready profile rows, one per state."""
    rows = []
    for s in sset.states:
        prof = entanglement_profile(s, tol)
        rows.append(
            {
                "label": s.label,
                "ranks": dict(prof.ranks),
                "entangled": prof.entangled,
                "genuine": prof.genuine,
            }
        )
    return rows
