import numpy as np
import pytest

from qrubik import (
    Bipartition,
    PartyLayout,
    PureState,
    StateSet,
    build_snoeb,
    build_snoes,
    completion_states,
    entanglement_profile,
    flatten,
    schmidt_rank,
    tripartite_layout,
)
from qrubik.entangle import profile_rows

from reference_data import completion3_states, ghz_basis, set3_states


def test_schmidt_rank_of_two_term_state():
    psi1 = set3_states()[0]  # |1,0,0> + |2,0,1>
    layout = psi1.layout
    assert schmidt_rank(psi1, Bipartition.of(layout, ["B"])) == 1
    assert schmidt_rank(psi1, Bipartition.of(layout, ["A"])) == 2
    assert schmidt_rank(psi1, Bipartition.of(layout, ["C"])) == 2


def test_schmidt_rank_genuine_completion():
    psi25 = completion3_states()[0]
    layout = psi25.layout
    for p in "ABC":
        assert schmidt_rank(psi25, Bipartition.of(layout, [p])) == 3


def test_schmidt_rank_product_state():
    layout = tripartite_layout(3)
    ket = PureState(layout, [((0, 0, 0), 1)])
    for p in "ABC":
        assert schmidt_rank(ket, Bipartition.of(layout, [p])) == 1


def test_schmidt_rank_zero_state_rejected():
    layout = tripartite_layout(3)
    with pytest.raises(ValueError):
        schmidt_rank(PureState(layout, []), Bipartition.of(layout, ["A"]))


def test_profile_flags():
    psi1 = set3_states()[0]
    prof = entanglement_profile(psi1)
    assert prof.ranks == {"A|BC": 2, "B|AC": 1, "C|AB": 2}
    assert prof.entangled and not prof.genuine

    psi25 = completion3_states()[0]
    prof = entanglement_profile(psi25)
    assert prof.ranks == {"A|BC": 3, "B|AC": 3, "C|AB": 3}
    assert prof.genuine

    layout = tripartite_layout(3)
    ket = PureState(layout, [((1, 2, 0), 1)])
    prof = entanglement_profile(ket)
    assert not prof.entangled and not prof.genuine
    assert prof.ranks == {"A|BC": 1, "B|AC": 1, "C|AB": 1}


def test_profile_requires_three_parties():
    layout = PartyLayout(("A", "B"), (2, 2))
    s = PureState(layout, [((0, 0), 1)])
    with pytest.raises(ValueError):
        entanglement_profile(s)


@pytest.mark.parametrize("d", (3, 5))
def test_layer_states_have_exactly_one_product_cut(d):
    for s in build_snoes(d):
        prof = entanglement_profile(s)
        ranks = sorted(prof.ranks.values())
        assert ranks[0] == 1
        # the two entangled cuts have rank equal to the run length
        assert ranks[1] == ranks[2] == len(s.terms)
        assert ranks[1] > 1


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_completions_genuinely_entangled(d):
    for s in completion_states(d):
        assert entanglement_profile(s).genuine


def test_rank_invariant_under_embed_and_permutation():
    rng = np.random.default_rng(17)
    layout = tripartite_layout(3)
    cut = Bipartition.of(layout, ["A"])
    big = PartyLayout.uniform(("A", "B", "C"), 5)
    big_cut = Bipartition.of(big, ["A"])
    for _ in range(20):
        cells = set()
        while len(cells) < 4:
            cells.add(tuple(int(rng.integers(0, 3)) for _ in range(3)))
        s = PureState(layout, [(c, complex(rng.normal(), rng.normal())) for c in cells], "s")
        base = schmidt_rank(s, cut)

        shifted = PureState(big, [((a + 1, b + 2, c), amp) for (a, b, c), amp in s.terms])
        assert schmidt_rank(shifted, big_cut) == base

        perms = [rng.permutation(3) for _ in range(3)]
        permuted = PureState(
            layout,
            [(tuple(int(p[i]) for p, i in zip(perms, idx)), amp) for idx, amp in s.terms],
        )
        assert schmidt_rank(permuted, cut) == base


def _dense_rank(s, cut, tol=1e-9):
    # the rank over the full coefficient matrix, zero rows and columns included
    svals = np.linalg.svd(flatten(s, cut), compute_uv=False)
    return int(np.sum(svals > tol * svals[0]))


@pytest.mark.parametrize("build", [build_snoes, build_snoeb], ids=["snoes", "snoeb"])
@pytest.mark.parametrize("d", (3, 4, 5, 9))
def test_support_rank_matches_dense_rank(build, d):
    sset = build(d)
    rng = np.random.default_rng(d)
    for s in sset.states:
        # a random phase on every term, so that the ranks are not only those
        # of the constructed states
        phases = np.exp(2j * np.pi * rng.random(len(s.terms)))
        s = PureState(s.layout, [(i, a * f) for (i, a), f in zip(s.terms, phases)], s.label)
        for p in sset.layout.parties:
            cut = Bipartition.of(sset.layout, [p])
            assert schmidt_rank(s, cut) == _dense_rank(s, cut)


def _reference_schmidt_rank(s, cut, tol=1e-9):
    # one SVD per state and cut over the support, as schmidt_rank once did
    left = [s.layout.axis(p) for p in cut.left]
    right = [s.layout.axis(p) for p in cut.right]
    keys = [(tuple(idx[a] for a in left), tuple(idx[a] for a in right)) for idx in s.support]
    rows, cols = ({k: n for n, k in enumerate(sorted(set(side)))} for side in zip(*keys))
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for (l, r), (_, amp) in zip(keys, s.terms):
        mat[rows[l], cols[r]] = amp
    svals = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(svals > tol * svals[0]))


def _reference_profile_rows(sset):
    rows = []
    for s in sset:
        ranks = {}
        for p in sset.layout.parties:
            cut = Bipartition.of(sset.layout, [p])
            ranks[cut.name] = _reference_schmidt_rank(s, cut)
        values = list(ranks.values())
        rows.append(
            {
                "label": s.label,
                "ranks": ranks,
                "entangled": any(r > 1 for r in values),
                "genuine": all(r > 1 for r in values),
            }
        )
    return rows


def _phased(sset, seed):
    # a random phase on every term, and every state scaled by its own factor
    rng = np.random.default_rng(seed)
    states = []
    for s in sset:
        phases = np.exp(2j * np.pi * rng.random(len(s.terms))) * 10 ** rng.uniform(-6, 6)
        states.append(PureState(s.layout, [(i, a * f) for (i, a), f in zip(s.terms, phases)], s.label))
    return StateSet(sset.layout, tuple(states))


def _profile_inputs():
    for d in (3, 4, 5, 6):
        for build in (build_snoes, build_snoeb):
            yield f"{build.__name__}-{d}", build(d)
            yield f"{build.__name__}-{d}-phased", _phased(build(d), d)
    yield "ghz", ghz_basis()
    yield "ghz-phased", _phased(ghz_basis(), 2)


@pytest.mark.parametrize("sset", [pytest.param(sset, id=kind) for kind, sset in _profile_inputs()])
def test_profile_rows_match_per_state_loop(sset):
    assert profile_rows(sset) == _reference_profile_rows(sset)
