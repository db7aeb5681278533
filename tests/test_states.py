import cmath
import json
import math

import numpy as np
import pytest

from qrubik import (
    Bipartition,
    PartyLayout,
    PureState,
    StateSet,
    build_snoeb,
    flatten,
    inner_product,
    norm,
    state_set_from_dict,
    state_set_to_dict,
    validate_set,
)
from qrubik.states import _set_matrix

from reference_data import completion3_states, set3_states


def _layout3():
    return PartyLayout.uniform(("A", "B", "C"), 3)


def _random_state(layout, rng, label=None, max_terms=5):
    n_terms = rng.integers(1, min(max_terms, layout.total_dim) + 1)
    cells = set()
    while len(cells) < n_terms:
        cells.add(tuple(int(rng.integers(0, d)) for d in layout.dims))
    terms = [(c, complex(rng.normal(), rng.normal())) for c in cells]
    return PureState(layout, terms, label)


def test_layout_validation():
    with pytest.raises(ValueError):
        PartyLayout(("A", "A"), (2, 2))
    with pytest.raises(ValueError):
        PartyLayout(("A",), (0,))
    with pytest.raises(ValueError):
        PartyLayout((), ())
    layout = PartyLayout(("A", "B"), (2, 3))
    assert layout.total_dim == 6
    assert layout.axis("B") == 1
    with pytest.raises(KeyError):
        layout.axis("Z")


def test_state_canonicalization():
    layout = _layout3()
    s = PureState(layout, [((2, 0, 1), 1), ((1, 0, 0), 1), ((2, 0, 1), -1)])
    assert s.terms == (((1, 0, 0), (1 + 0j)),)
    with pytest.raises(ValueError):
        PureState(layout, [((3, 0, 0), 1)])
    with pytest.raises(ValueError):
        PureState(layout, [((0, 0), 1)])


def test_inner_product_disjoint_pair_is_zero():
    layout = _layout3()
    psi1 = PureState(layout, [((1, 0, 0), 1), ((2, 0, 1), 1)])
    psi2 = PureState(layout, [((1, 0, 0), 1), ((2, 0, 1), -1)])
    assert inner_product(psi1, psi2) == 0
    assert inner_product(psi1, psi1) == 2


def test_inner_product_cube_roots_cancel():
    w3 = cmath.exp(2j * math.pi / 3)
    assert abs(1 + w3 + w3**2) < 1e-15
    psi25, psi26 = completion3_states()[:2]
    assert abs(inner_product(psi25, psi26)) < 1e-15


def test_inner_product_layout_mismatch():
    a = PureState(_layout3(), [((0, 0, 0), 1)])
    b = PureState(PartyLayout.uniform(("A", "B", "C"), 4), [((0, 0, 0), 1)])
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(7)
    layout = _layout3()
    for _ in range(50):
        a = _random_state(layout, rng)
        b = _random_state(layout, rng)
        assert inner_product(a, b) == pytest.approx(
            inner_product(b, a).conjugate(), abs=1e-12
        )


def test_flatten_positions_and_ranks():
    layout = _layout3()
    psi1 = PureState(layout, [((1, 0, 0), 1), ((2, 0, 1), 1)])
    cut_b = Bipartition.of(layout, ["B"])
    mat = flatten(psi1, cut_b)
    assert mat.shape == (3, 9)
    # both terms sit in row b=0; columns are (a, c) lexicographic
    assert mat[0, 1 * 3 + 0] == 1
    assert mat[0, 2 * 3 + 1] == 1
    assert np.count_nonzero(mat) == 2
    assert np.linalg.matrix_rank(mat) == 1

    cut_a = Bipartition.of(layout, ["A"])
    mat_a = flatten(psi1, cut_a)
    assert mat_a[1, 0 * 3 + 0] == 1
    assert mat_a[2, 0 * 3 + 1] == 1
    assert np.linalg.matrix_rank(mat_a) == 2


def test_flatten_zero_state():
    layout = _layout3()
    zero = PureState(layout, [])
    mat = flatten(zero, Bipartition.of(layout, ["A"]))
    assert np.count_nonzero(mat) == 0


def test_flatten_rank_invariant_under_local_permutations():
    rng = np.random.default_rng(11)
    layout = _layout3()
    cut = Bipartition.of(layout, ["A"])
    for _ in range(20):
        s = _random_state(layout, rng)
        perms = [rng.permutation(d) for d in layout.dims]
        permuted = PureState(
            layout,
            [
                (tuple(int(p[i]) for p, i in zip(perms, idx)), amp)
                for idx, amp in s.terms
            ],
        )
        r1 = np.linalg.matrix_rank(flatten(s, cut))
        r2 = np.linalg.matrix_rank(flatten(permuted, cut))
        assert r1 == r2


def test_validate_set_on_reference_families():
    s24 = set3_states()
    report = validate_set(s24)
    assert (report.size, report.pairwise_orthogonal, report.span_rank) == (24, True, 24)

    layout = s24.layout
    s27 = StateSet(layout, s24.states + tuple(completion3_states()))
    report = validate_set(s27)
    assert (report.size, report.pairwise_orthogonal, report.span_rank) == (27, True, 27)


def test_validate_set_detects_duplicates():
    layout = _layout3()
    dup = PureState(layout, [((0, 0, 0), 1)], "a")
    dup2 = PureState(layout, [((0, 0, 0), 1)], "b")
    report = validate_set(StateSet(layout, (dup, dup2)))
    assert not report.pairwise_orthogonal


def test_span_rank_bound():
    rng = np.random.default_rng(3)
    layout = PartyLayout.uniform(("A", "B"), 2)
    states = tuple(
        _random_state(layout, rng, label=f"s{i}") for i in range(7)
    )
    report = validate_set(StateSet(layout, states))
    assert report.span_rank <= min(7, layout.total_dim)


def test_json_round_trip_byte_identical():
    s24 = set3_states()
    doc = state_set_to_dict(s24)
    text = json.dumps(doc, indent=1)
    again = state_set_from_dict(json.loads(text))
    assert again == s24
    assert json.dumps(state_set_to_dict(again), indent=1) == text


def test_state_set_label_uniqueness():
    layout = _layout3()
    a = PureState(layout, [((0, 0, 0), 1)], "x")
    b = PureState(layout, [((1, 1, 1), 1)], "x")
    with pytest.raises(ValueError):
        StateSet(layout, (a, b))


def test_norm_unnormalized_convention():
    layout = _layout3()
    s = PureState(layout, [((0, 0, 0), 1), ((1, 1, 1), 1)])
    assert norm(s) == pytest.approx(math.sqrt(2))


def _dense_span_rank(sset, tol=1e-9):
    # one SVD of the whole dense set matrix, as validate_set once computed it
    if not len(sset):
        return 0
    svals = np.linalg.svd(_set_matrix(sset).toarray(), compute_uv=False)
    return int(np.sum(svals > tol * svals[0])) if svals[0] > 0 else 0


def _blocks_of_cells(layout, rng):
    cells = [tuple(int(i) for i in c) for c in np.ndindex(*layout.dims)]
    rng.shuffle(cells)
    cuts = np.sort(rng.choice(np.arange(1, len(cells)), size=len(cells) // 4, replace=False))
    return np.split(np.array(cells), cuts)


def _random_block_set(layout, rng, orthogonal):
    """States on disjoint random groups of cells. Each group holds the rows of
    a random unitary (orthogonal) or a few random states on some of its cells,
    possibly more states than cells; a group is scaled by 1, 1e-4 or 1e-13, so
    that some groups fall below the rank cut of the whole set."""
    states = []
    for group in _blocks_of_cells(layout, rng):
        k = len(group)
        scale = rng.choice([1.0, 1e-4, 1e-13])
        if orthogonal:
            z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            coeffs = np.linalg.qr(z)[0] * rng.uniform(0.5, 2, size=(k, 1))
        else:
            shape = (int(rng.integers(1, k + 2)), k)
            coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            coeffs *= rng.random(shape) < 0.6
        for row in coeffs * scale:
            terms = [(tuple(c), a) for c, a in zip(group, row)]
            states.append(PureState(layout, terms, f"s{len(states)}"))
    return states


def _span_rank_inputs():
    rng = np.random.default_rng(29)
    for dims in [(3, 3, 3), (2, 4, 3), (4, 4, 4), (2, 2)]:
        parties = ("A", "B", "C")[: len(dims)]
        layout = PartyLayout(parties, dims)
        for orthogonal in (True, False):
            states = _random_block_set(layout, rng, orthogonal)
            kind = "x".join(map(str, dims)) + ("-orthogonal" if orthogonal else "-overlapping")
            yield kind, StateSet(layout, states)
            dup = states[int(rng.integers(len(states)))]
            yield kind + "-duplicate", StateSet(layout, states + [dup.relabeled("dup")])
            yield kind + "-zero", StateSet(layout, states + [PureState(layout, [], "zero")])
            # one dense state on every cell joins all groups into one block
            cells = np.ndindex(*dims)
            amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
            bridge = PureState(layout, list(zip(cells, amps)), "bridge")
            yield kind + "-bridge", StateSet(layout, states + [bridge])
        yield "x".join(map(str, dims)) + "-empty", StateSet(layout, ())


@pytest.mark.parametrize("sset", [pytest.param(sset, id=kind) for kind, sset in _span_rank_inputs()])
def test_span_rank_matches_dense_svd(sset):
    assert validate_set(sset).span_rank == _dense_span_rank(sset)


def test_validate_set_takes_no_whole_set_svd(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    report = validate_set(build_snoeb(16))
    assert report.span_rank == 4096 and report.pairwise_orthogonal
    assert shapes and max(max(shape) for shape in shapes) <= 16
