import cmath
import copy
import functools
import gc
import json
import math
from importlib import resources

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
    flatten,
    inner_product,
    load_state_set,
    norm,
    save_state_set,
    schmidt_rank,
    state_set_from_dict,
    state_set_to_dict,
    validate_set,
    verify_strong_nonlocality,
)
from qrubik import states, verify
from qrubik.states import _set_matrix, _term_arrays

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


_AB = PartyLayout(("A", "B"), (2, 2))

# Each builds a layout, bipartition or set that its constructor or check refuses
STATES_REFUSALS = {
    "unequal-lengths": (
        lambda: PartyLayout(("A", "B"), (2,)), "parties and dims must have equal length"
    ),
    "empty-side": (
        lambda: Bipartition(("A",), ()), "both sides of a bipartition must be nonempty"
    ),
    "overlapping-sides": (
        lambda: Bipartition(("A", "B"), ("B",)), "bipartition sides must be disjoint"
    ),
    "unknown-parties": (
        lambda: Bipartition.of(_AB, ["A", "Z"]), r"unknown parties \['Z'\] in bipartition"
    ),
    "layout-not-covered": (
        lambda: Bipartition(("A",), ("B",)).validate_for(_layout3()),
        r"bipartition A\|B does not cover layout parties",
    ),
    "state-on-another-layout": (
        lambda: StateSet(_AB, [PureState(_layout3(), [((0, 0, 0), 1)], "s")]),
        "state 0 does not share the set layout",
    ),
    "unlabelled-state": (
        lambda: StateSet(_AB, [PureState(_AB, [((0, 0), 1)])]), "state 0 has no label"
    ),
}


@pytest.mark.parametrize("case", list(STATES_REFUSALS))
def test_states_refusals(case):
    build, message = STATES_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        build()


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


def _phased(moduli, rng):
    return moduli * np.exp(2j * np.pi * rng.random(np.shape(moduli)))


def _permuted_diagonal(moduli, rng):
    k = len(moduli)
    mat = np.zeros((k, k), dtype=complex)
    mat[np.arange(k), rng.permutation(k)] = _phased(np.asarray(moduli), rng)
    return mat


def _direct_and_svd_blocks(rng, tol=1e-9):
    """Dense blocks, every row and column with an entry: permuted diagonals
    with moduli from 1e-12 to 1, one with a modulus just above and one just
    below ``tol`` times its largest; single rows and columns, two of them at
    a scale whose squares leave the float range; and blocks of the same
    shapes that need an SVD. Returns the blocks and the number that need one."""
    direct = [
        _permuted_diagonal(10 ** rng.uniform(-12, 0, int(k)), rng) for k in rng.integers(2, 7, 20)
    ]
    top = 0.7
    direct.append(_permuted_diagonal([top, top * tol * 1.001, top * tol * 0.999, 0.3], rng))
    for w in range(1, 6):
        direct.append(_phased(10 ** rng.uniform(-12, 0, (1, w)), rng))
        direct.append(_phased(10 ** rng.uniform(-12, 0, (w + 1, 1)), rng))
    direct += [_phased(np.full((1, 3), 1e170), rng), _phased(np.full((2, 1), 1e-170), rng)]
    svd = []
    for k in range(2, 7):
        svd.append(_phased(rng.uniform(0.1, 1, (k, k)), rng))
        extra = _permuted_diagonal(rng.uniform(0.1, 1, k), rng)
        zero = np.argwhere(extra == 0)[int(rng.integers(k * k - k))]
        extra[tuple(zero)] = 0.5
        svd.append(extra)
    # one entry in every row, or in every column, but not both
    svd += [np.array([[1, 2j, 0], [0, 0, 3]]), np.array([[1, 0], [0, 2], [3j, 0]])]
    blocks = direct + svd
    return [blocks[i] for i in rng.permutation(len(blocks))], len(svd)


def _block_entries(blocks, rng):
    """The entries of ``blocks`` as the (block, row key, column key,
    amplitude) arrays of ``states._block_singular_values``: each block at
    random ascending keys, and the entries of all blocks in random order."""
    block, row, col, amps = [], [], [], []
    for b, mat in enumerate(blocks):
        rows = np.sort(rng.choice(10 * mat.shape[0], mat.shape[0], replace=False))
        cols = np.sort(rng.choice(10 * mat.shape[1], mat.shape[1], replace=False))
        i, j = np.nonzero(mat)
        block += [b] * len(i)
        row += rows[i].tolist()
        col += cols[j].tolist()
        amps += mat[i, j].tolist()
    order = rng.permutation(len(block))
    return tuple(np.array(a)[order] for a in (block, row, col, amps))


@pytest.mark.parametrize("seed", range(4))
def test_direct_blocks_match_dense_svd(monkeypatch, seed, tol=1e-9):
    rng = np.random.default_rng(seed)
    blocks, need_svd = _direct_and_svd_blocks(rng, tol)
    svd = np.linalg.svd
    stacked = []

    def recording_svd(a, *args, **kwargs):
        stacked.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    found = {}
    for ids, svals in states._block_singular_values(*_block_entries(blocks, rng), len(blocks)):
        assert svals.shape[0] == len(ids)
        found.update(zip(ids.tolist(), svals))
    assert sorted(found) == list(range(len(blocks)))
    # only the blocks that are not a permuted diagonal, a row or a column
    assert sum(stacked) == need_svd
    for b, mat in enumerate(blocks):
        ref = svd(mat, compute_uv=False)
        np.testing.assert_allclose(found[b], ref, rtol=1e-12, atol=1e-13 * ref[0])
        assert np.sum(found[b] > tol * found[b][0]) == np.sum(ref > tol * ref[0])


def _random_document(rng, dims, spelling):
    """A state-set document with unsorted terms, duplicate indices that merge
    (some to exactly zero), -0.0 parts, zero terms and states scaled by
    2^-170 or 2^170; ``spelling`` writes some index entries as floats
    ("float") or as booleans ("bool")."""
    entries = []
    for k in range(12):
        scale = 2.0 ** float(rng.choice([-170, 0, 170]))
        terms = []
        for _ in range(int(rng.integers(1, 7))):
            idx = [int(rng.integers(0, d)) for d in dims]
            amp = [float(rng.normal()) * scale, float(rng.normal()) * scale]
            terms.append({"idx": idx, "amp": amp})
            kind = rng.random()
            if kind < 0.2:
                terms.append({"idx": list(idx), "amp": [-amp[0], -amp[1]]})
            elif kind < 0.4:
                terms.append({"idx": list(idx), "amp": [float(rng.normal()) * scale, -0.0]})
            elif kind < 0.5:
                terms.append({"idx": [int(rng.integers(0, d)) for d in dims], "amp": [-0.0, -0.0]})
            elif kind < 0.7:
                terms.append({"idx": [int(rng.integers(0, d)) for d in dims], "amp": [-0.0, amp[1]]})
        rng.shuffle(terms)
        for t in terms:
            if spelling == "float" and rng.random() < 0.3:
                t["idx"][0] = float(t["idx"][0])
            if spelling == "bool" and rng.random() < 0.3:
                t["idx"] = [bool(i) if i < 2 else i for i in t["idx"]]
        entries.append({"label": f"s{k}", "terms": terms})
    return {"dims": list(dims), "parties": ["A", "B", "C"][: len(dims)], "states": entries}


def _reference_states(doc):
    layout = PartyLayout(tuple(doc["parties"]), tuple(doc["dims"]))
    return [
        PureState(layout, [(t["idx"], complex(*t["amp"])) for t in e["terms"]], e["label"])
        for e in doc["states"]
    ]


def _bits(sset_states):
    """Every term with its index entries' types and its amplitude's parts in hex,
    which tells -0.0 from 0.0."""
    return [
        (s.label, [(i, [type(c) for c in i], a.real.hex(), a.imag.hex()) for i, a in s.terms])
        for s in sset_states
    ]


def _canonical_documents(reference):
    """The document of the canonical ``reference`` states with one more state
    that has no terms, and the same document with every zero part written
    -0.0, which is canonical but for those parts."""
    layout = reference[0].layout
    doc = state_set_to_dict(StateSet(layout, (*reference, PureState(layout, [], "empty"))))
    signed = copy.deepcopy(doc)
    for entry in signed["states"]:
        for term in entry["terms"]:
            term["amp"] = [-0.0 if part == 0 else part for part in term["amp"]]
    return doc, signed


def _array_bytes(arrays):
    return [(array.dtype, array.tobytes()) for array in arrays]


@pytest.mark.parametrize("spelling", ["int", "float", "bool"])
@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 5, 4), (7, 2)])
def test_document_canonicalised_at_once_matches_pure_state(dims, spelling):
    rng = np.random.default_rng([*dims, ["int", "float", "bool"].index(spelling)])
    for _ in range(5):
        doc = _random_document(rng, dims, spelling)
        reference = _reference_states(doc)
        layout = reference[0].layout
        batch = states._document_set(layout, doc["states"])
        # only an index written as a float sends the loader to PureState
        assert (batch is None) == (spelling == "float")
        loaded = state_set_from_dict(doc)
        assert _bits(loaded.states) == _bits(reference)
        assert loaded.states == tuple(reference)
        assert _array_bytes(loaded.term_arrays) == _array_bytes(_term_arrays(layout, reference))

        # canonical documents, the second with -0.0 parts, against PureState(...)
        canonical, signed = _canonical_documents(reference)
        assert any(-0.0 in t["amp"] for e in signed["states"] for t in e["terms"])
        for document in (canonical, signed):
            sset = state_set_from_dict(document)
            formed = _reference_states(document)
            assert _array_bytes(sset.term_arrays) == _array_bytes(_term_arrays(layout, formed))
            assert sset.states == tuple(formed)
            assert sset.states[-1].terms == () and sset.labels[-1] == "empty"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("good", [True, False])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, enabled, good):
    path = str(tmp_path / "set.json")
    if good:
        save_state_set(build_snoeb(3), path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"dims": [3, 3, 3], "parties": ["A", "B", "C"], "states": [{"label": 1}]}')
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if good:
            assert len(load_state_set(path)) == 27
        else:
            with pytest.raises(ValueError):
                load_state_set(path)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def _spoil_term(key, value):
    def spoil(doc):
        doc["states"][1]["terms"][0][key] = value
    return spoil


def _spoil_state(key, value):
    def spoil(doc):
        doc["states"][1][key] = value
    return spoil


def _overflowing_merge(doc):
    term = doc["states"][1]["terms"][0]
    term["amp"] = [1e308, 0.0]
    doc["states"][1]["terms"].append(copy.deepcopy(term))


def _duplicate_label(doc):
    doc["states"][1]["label"] = doc["states"][0]["label"]


MALFORMED_DOCUMENTS = {
    "fractional-idx": _spoil_term("idx", [0.9, 0, 0]),
    "fraction-above-one-idx": _spoil_term("idx", [1.2, 0, 0]),
    "string-idx": _spoil_term("idx", ["1", 0, 0]),
    "null-idx": _spoil_term("idx", [None, 0, 0]),
    "huge-idx": _spoil_term("idx", [10**30, 0, 0]),
    "idx-out-of-range": _spoil_term("idx", [3, 0, 0]),
    "negative-idx": _spoil_term("idx", [-1, 0, 0]),
    "short-idx": _spoil_term("idx", [0, 0]),
    "nested-idx": _spoil_term("idx", [[0], 0, 0]),
    "three-entry-amp": _spoil_term("amp", [1, 0, 7]),
    "short-amp": _spoil_term("amp", [1]),
    "string-amp": _spoil_term("amp", "ab"),
    "string-part-amp": _spoil_term("amp", ["1", 0]),
    "nan-amp": _spoil_term("amp", [math.nan, 0]),
    "inf-amp": _spoil_term("amp", [0, -math.inf]),
    "huge-int-amp": _spoil_term("amp", [10**400, 0]),
    "overflowing-merge": _overflowing_merge,
    "no-idx": lambda doc: doc["states"][1]["terms"][0].pop("idx"),
    "list-term": lambda doc: doc["states"][1]["terms"].append([0, 0, 0]),
    "string-terms": _spoil_state("terms", "x"),
    "label-list": _spoil_state("label", ["psi2"]),
    "label-null": _spoil_state("label", None),
    "no-label": lambda doc: doc["states"][1].pop("label"),
    "duplicate-label": _duplicate_label,
    "empty-entry": lambda doc: doc["states"].append({}),
    "list-entry": lambda doc: doc["states"].append([]),
    "fractional-dim": lambda doc: doc["dims"].__setitem__(1, 2.5),
    "cells-beyond-int64": lambda doc: doc["dims"].__setitem__(1, 5 * 10**18),
}


@pytest.mark.parametrize("case", list(MALFORMED_DOCUMENTS))
def test_malformed_document_raises_as_the_per_state_path(monkeypatch, case):
    doc = json.loads(resources.files("qrubik").joinpath("data", "b3.json").read_text())
    MALFORMED_DOCUMENTS[case](doc)
    with pytest.raises(Exception) as batch:
        state_set_from_dict(doc)
    monkeypatch.setattr(states, "_document_set", lambda layout, entries: None)
    with pytest.raises(Exception) as per_state:
        state_set_from_dict(doc)
    assert batch.type is per_state.type is ValueError
    assert str(batch.value) == str(per_state.value)


def test_cube_sets_and_their_files_skip_the_per_state_canonicaliser(tmp_path, monkeypatch):
    path = str(tmp_path / "b5_basis.json")
    save_state_set(build_snoeb(5), path)

    def refuse(layout, terms):
        raise AssertionError("terms canonicalised one state at a time")

    monkeypatch.setattr(states, "_canonical_terms", refuse)
    built = build_snoeb(5)
    assert len(built) == 125 and len(build_snoes(5)) == 120
    assert len(completion_states(6)) == 12
    renamed = built[0].relabeled("first")
    assert renamed.label == "first" and renamed.terms is built[0].terms
    assert load_state_set(path) == built


def test_verify_forms_the_term_arrays_once_per_set(tmp_path, monkeypatch):
    calls = []
    form = states._term_arrays

    def counting(layout, sset_states):
        calls.append(len(sset_states))
        return form(layout, sset_states)

    monkeypatch.setattr(states, "_term_arrays", counting)
    basis = build_snoeb(4)
    sset = StateSet(basis.layout, tuple(s.scaled(1.5 ** (i % 3)) for i, s in enumerate(basis)))
    report = verify_strong_nonlocality(sset)
    assert report.strongly_nonlocal and len(report.checks) == 6
    assert calls == [64]
    with pytest.raises(ValueError):
        sset.term_arrays[2][0] = 0

    path = str(tmp_path / "basis.json")
    save_state_set(sset, path)
    calls.clear()
    assert verify_strong_nonlocality(load_state_set(path)).strongly_nonlocal
    assert len(calls) <= 1


def test_verify_counts_the_cells_once_per_set(monkeypatch):
    # a set that is not a basis is tight only if its cells are counted: once
    # for the size test and all six checks
    calls = []
    count = StateSet._cell_count.func

    def counting(sset):
        calls.append(len(sset))
        return count(sset)

    counted = functools.cached_property(counting)
    counted.__set_name__(StateSet, "_cell_count")
    monkeypatch.setattr(StateSet, "_cell_count", counted)
    sset = build_snoes(4)
    assert len(sset) < sset.layout.total_dim
    assert verify_strong_nonlocality(sset).strongly_nonlocal
    assert calls == [len(sset)]


def test_verify_forms_the_unit_gram_once_per_set(monkeypatch):
    calls = []
    form = states._set_matrix

    def counting(sset, row_axes=(), unit=False, per_state=False):
        if unit and not per_state:
            calls.append(tuple(row_axes))
        return form(sset, row_axes, unit, per_state)

    monkeypatch.setattr(states, "_set_matrix", counting)
    monkeypatch.setattr(verify, "_set_matrix", counting)
    basis = build_snoeb(4)
    sset = StateSet(basis.layout, tuple(s.scaled(1.5 ** (i % 3)) for i, s in enumerate(basis)))
    assert verify_strong_nonlocality(sset).strongly_nonlocal
    assert calls == [()]


def test_verify_finds_the_first_nonorthogonal_pair_once_per_set(monkeypatch):
    calls = []
    find = states._first_nonorthogonal_pair

    def counting(gram, tol):
        calls.append(tol)
        return find(gram, tol)

    monkeypatch.setattr(states, "_first_nonorthogonal_pair", counting)
    assert verify_strong_nonlocality(build_snoeb(4)).strongly_nonlocal
    assert calls == [verify.DEFAULT_TOL]


def test_cell_count_is_the_number_of_distinct_index_tuples():
    rng = np.random.default_rng(11)
    layout = PartyLayout(("A", "B", "C"), (2, 3, 2))
    # 40 states of up to 5 terms on 12 cells: most cells are shared
    sset = StateSet(layout, [_random_state(layout, rng, f"s{k}") for k in range(40)])
    cells = {tuple(idx) for s in sset for idx, _ in s.terms}
    assert 0 < sset._cell_count == len(cells) < sum(len(s.terms) for s in sset)
    assert StateSet(layout, [])._cell_count == 0


def _bins_cases():
    rng = np.random.default_rng(28)
    return {
        "empty": np.array([], dtype=np.int64),
        "one": np.array([7]),
        "all-equal": np.full(50, -3),
        "sorted": np.arange(-20, 80),
        "reversed": np.arange(100)[::-1].copy(),
        "negative": rng.integers(-(2**62), 0, 500),
        "many-duplicates": rng.integers(-5, 5, 1000),
        "wide": rng.integers(-(2**62), 2**62, 1000),
        "nearly-sorted": np.repeat(np.arange(200), 3) + rng.integers(0, 2, 600),
    }


@pytest.mark.parametrize("case", list(_bins_cases()))
def test_bins_match_np_unique(case):
    values = _bins_cases()[case]
    distinct, inverse = states._bins(values)
    want, want_inverse = np.unique(values, return_inverse=True)
    assert distinct.dtype == want.dtype and np.array_equal(distinct, want)
    assert np.array_equal(inverse, want_inverse)


def test_key_positions_match_sorted_sets_per_block():
    rng = np.random.default_rng(29)
    for n_blocks, size, top in [(1, 1, 1), (3, 40, 3), (30, 400, 1000), (200, 2000, 2**40)]:
        block = rng.integers(0, n_blocks, size)
        if n_blocks == 3:  # the keys in block order, as the profiles give them
            block.sort()
        key = rng.integers(0, top, size)
        keys: dict[int, set[int]] = {}
        for b, k in zip(block.tolist(), key.tolist()):
            keys.setdefault(b, set()).add(k)
        ranked = {b: sorted(found) for b, found in keys.items()}
        position, counts = states._key_positions(block, key, n_blocks)
        want = [ranked[b].index(k) for b, k in zip(block.tolist(), key.tolist())]
        assert position.tolist() == want
        assert counts.tolist() == [len(keys.get(b, ())) for b in range(n_blocks)]


def test_no_np_unique_in_the_package():
    # every grouping by equal keys goes through states._bins
    package = resources.files("qrubik")
    sources = [f for f in package.iterdir() if f.name.endswith(".py")]
    assert len(sources) > 5
    assert [f.name for f in sources if "np.unique(" in f.read_text()] == []


def test_sets_whose_cells_overflow_int64_are_refused():
    # the two BC indices 4 * 10^18 * 5 and 310651185258089676 * 5 + 4 are
    # equal mod 2^64, so the state read as a product state across A|BC, in a
    # set and alone
    layout = PartyLayout(("A", "B", "C"), (2, 5 * 10**18, 5))
    assert layout.total_dim == 5 * 10**19
    terms = [((0, 4 * 10**18, 0), 1), ((1, 310651185258089676, 4), 1)]
    state = PureState(layout, terms, "s")
    doc = {
        "dims": list(layout.dims),
        "parties": list(layout.parties),
        "states": [{"label": "s", "terms": [{"idx": list(i), "amp": [1, 0]} for i, _ in terms]}],
    }
    message = r"1 states x 50000000000000000000 cells: \(state, cell\) numbers beyond int64"
    with pytest.raises(ValueError, match=message):
        StateSet(layout, [state])
    with pytest.raises(ValueError, match=message):
        schmidt_rank(state, Bipartition.of(layout, ["A"]))
    with pytest.raises(ValueError, match=message):
        state_set_from_dict(doc)
    # the largest set that fits
    fits = PartyLayout(("A", "B"), (2**31, 2**31 - 1))
    assert len(StateSet(fits, [PureState(fits, [((2**31 - 1, 0), 1)], "s")])) == 1
    assert len(state_set_from_dict({**doc, "dims": [1, 2**62, 1], "states": []})) == 0
