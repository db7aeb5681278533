import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from qrubik import (
    Bipartition,
    PartyLayout,
    PureState,
    StateSet,
    assemble_constraints,
    build_snoeb,
    build_snoes,
    certify_triviality,
    coords_from_hermitian,
    hermitian_from_coords,
    identity_coords,
    inner_product,
    norm,
    save_state_set,
    solution_space,
    validate_set,
    verify_strong_nonlocality,
)
from qrubik.verify import (
    _actor_side,
    _coverage,
    _gram_certifies_trivial,
    _nullspace,
    _reduced_coords,
    _reduced_states_certify_trivial,
    _solve,
    _tight_size,
    _witness,
    standard_checks,
)

from qrubik import verify
from qrubik.cli import main

from reference_data import bell_states, ghz_basis, reducible_five_states, set3_states


# ---------------------------------------------------------------------------
# independent dense oracle: full complex matrix variables with explicit
# hermiticity rows, built from dense state vectors and axis reshuffles
# ---------------------------------------------------------------------------

def _dense_couplings(sset, actor_parties):
    layout = sset.layout
    actor_axes = [layout.axis(p) for p in actor_parties]
    other_axes = [a for a in range(len(layout.parties)) if a not in actor_axes]
    m = int(np.prod([layout.dims[a] for a in actor_axes]))
    mats = []
    for s in sset.states:
        tensor = s.to_vector().reshape(layout.dims)
        moved = np.moveaxis(tensor, actor_axes + other_axes, range(len(layout.dims)))
        mats.append(moved.reshape(m, -1))
    couplings = []
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            couplings.append((i, j, mats[i].conj() @ mats[j].T))
    return m, couplings


def dense_solution_dim(sset, actor_parties, tol=1e-9):
    """Nullspace dimension with E parametrized as a full complex matrix
    (2 m^2 real variables) plus explicit hermiticity constraints."""
    m, couplings = _dense_couplings(sset, actor_parties)
    rows = []
    for _, _, c in couplings:
        cr, ci = c.real.reshape(-1), c.imag.reshape(-1)
        # sum c[u,w] E[u,w] = 0 over complex E = X + iY
        rows.append(np.concatenate([cr, -ci]))
        rows.append(np.concatenate([ci, cr]))
    for u in range(m):
        for w in range(m):
            if u == w:
                y_row = np.zeros(2 * m * m)
                y_row[m * m + u * m + w] = 1.0
                rows.append(y_row)
            elif u < w:
                x_row = np.zeros(2 * m * m)
                x_row[u * m + w] = 1.0
                x_row[w * m + u] = -1.0
                rows.append(x_row)
                y_row = np.zeros(2 * m * m)
                y_row[m * m + u * m + w] = 1.0
                y_row[m * m + w * m + u] = 1.0
                rows.append(y_row)
    mat = np.array(rows)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > tol * svals[0]))
    return 2 * m * m - rank


def dense_coupled_pairs(sset, actor_parties, tol=1e-12):
    _, couplings = _dense_couplings(sset, actor_parties)
    return sum(1 for _, _, c in couplings if np.max(np.abs(c)) > tol)


def _random_orthogonal_set(rng, layout, count):
    dim = layout.total_dim
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = np.linalg.qr(gauss)[0]
    states = []
    for k in range(count):
        terms = [
            (idx, complex(q[flat, k]))
            for flat, idx in enumerate(itertools.product(*[range(d) for d in layout.dims]))
        ]
        states.append(PureState(layout, terms, f"r{k}"))
    return StateSet(layout, tuple(states))


def _residual(cs, hermitian):
    return float(np.max(np.abs(cs.rows @ coords_from_hermitian(hermitian)))) if cs.rows.shape[0] else 0.0


# ---------------------------------------------------------------------------
# coordinate round trip
# ---------------------------------------------------------------------------

def test_hermitian_coords_round_trip():
    rng = np.random.default_rng(0)
    for m in (2, 3, 5):
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        h = (g + g.conj().T) / 2
        v = coords_from_hermitian(h)
        assert np.allclose(hermitian_from_coords(v, m), h)
        # coordinate 2-norm equals Frobenius norm
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(h), rel=1e-12)
    with pytest.raises(ValueError):
        coords_from_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# worked counterexamples
# ---------------------------------------------------------------------------

def test_bell_basis_constraints_force_identity():
    bell = bell_states()
    cut = Bipartition.of(bell.layout, ["A"])
    cs = assemble_constraints(bell, cut, ("A",))
    # diagonal difference and both off-diagonal directions are excluded
    for violating in (
        np.diag([1.0, -1.0]).astype(complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, 1j], [-1j, 0]], dtype=complex),
    ):
        assert _residual(cs, violating) > 0.5
    assert _residual(cs, np.eye(2, dtype=complex)) < 1e-12

    for actor in (("A",), ("B",)):
        side = Bipartition.of(bell.layout, ["A"])
        verdict = certify_triviality(bell, side, actor)
        assert verdict.trivial and verdict.solution_dim == 1
    basis = solution_space(cs)
    assert len(basis) == 1
    normalized = basis[0] / basis[0][0, 0]
    assert np.allclose(normalized, np.eye(2))


def test_reducible_five_state_set_matches_hand_solution():
    five = reducible_five_states()
    cut = Bipartition.of(five.layout, ["A"])
    verdict = certify_triviality(five, cut, ("B",))
    assert not verdict.trivial
    assert verdict.solution_dim == 2
    # hand-derived space: diag(a, a, b)
    for e in solution_space(assemble_constraints(five, cut, ("B",))):
        assert np.allclose(e, np.diag(np.diagonal(e)), atol=1e-9)
        assert e[0, 0] == pytest.approx(e[1, 1], abs=1e-9)
    w = verdict.witness
    assert w is not None
    assert abs(np.trace(w)) < 1e-9
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)
    assert _residual(assemble_constraints(five, cut, ("B",)), w) < 1e-9
    # Alice's side stays trivial
    assert certify_triviality(five, cut, ("A",)).trivial


def test_ghz_basis_checks():
    ghz = ghz_basis()
    report = verify_strong_nonlocality(ghz)
    assert not report.strongly_nonlocal
    by_actor = {c.actor: c.verdict for c in report.checks}
    for single in ("A", "B", "C"):
        assert by_actor[single].trivial
    for joint in ("BC", "AC", "AB"):
        assert not by_actor[joint].trivial

    cut = Bipartition.of(ghz.layout, ["A"])
    cs = assemble_constraints(ghz, cut, ("B", "C"))
    known_block_witness = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    assert _residual(cs, known_block_witness) < 1e-9
    verdict = certify_triviality(ghz, cut, ("B", "C"))
    assert _residual(cs, verdict.witness) < 1e-9


def test_ghz_witness_depends_on_the_solution_space_alone():
    # the witness is the projection of a fixed probe, so neither the order of
    # the states nor that of the rows moves it, and it still solves its system
    ghz = ghz_basis()
    rng = np.random.default_rng(79)
    permuted = StateSet(ghz.layout, tuple(ghz[int(k)] for k in rng.permutation(len(ghz))))
    for cut, actor in standard_checks(ghz.layout):
        if len(actor) == 1:
            continue
        cs = assemble_constraints(ghz, cut, actor)
        witness = certify_triviality(ghz, cut, actor).witness
        assert _residual(cs, witness) < 1e-9
        assert np.allclose(witness, np.diag([-0.5, 0.5, 0.5, -0.5]), rtol=0, atol=1e-12)
        moved = certify_triviality(permuted, cut, actor).witness
        assert np.allclose(moved, witness, rtol=0, atol=1e-12)
        order = rng.permutation(cs.rows.shape[0])
        shuffled = _solve(cs.rows[order], cs.m, 1e-9)
        assert np.allclose(_witness(shuffled, cs.m), witness, rtol=0, atol=1e-12)


def test_single_state_and_empty_set():
    layout = PartyLayout(("A", "B"), (2, 2))
    single = StateSet(layout, (PureState(layout, [((0, 0), 1)], "x"),))
    cut = Bipartition.of(layout, ["A"])
    verdict = certify_triviality(single, cut, ("A",))
    assert not verdict.trivial and verdict.solution_dim == 4

    empty = StateSet(layout, ())
    cs = assemble_constraints(empty, cut, ("A",))
    assert cs.rows.shape[0] == 0
    assert len(solution_space(cs)) == 4


def test_non_orthogonal_input_rejected():
    layout = PartyLayout(("A", "B"), (2, 2))
    a = PureState(layout, [((0, 0), 1)], "a")
    b = PureState(layout, [((0, 0), 1), ((1, 1), 1)], "b")
    with pytest.raises(ValueError):
        assemble_constraints(StateSet(layout, (a, b)), Bipartition.of(layout, ["A"]), ("A",))

    # two bad pairs, (a, d) and (b, c): the message names the lexicographically first
    b = PureState(layout, [((0, 1), 1)], "b")
    c = PureState(layout, [((0, 1), 1), ((1, 0), 1)], "c")
    d = PureState(layout, [((0, 0), 1), ((1, 1), 1)], "d")
    sset = StateSet(layout, (a, b, c, d))
    with pytest.raises(ValueError, match=r"\(a, d\)"):
        assemble_constraints(sset, Bipartition.of(layout, ["A"]), ("A",))


def _reference_first_bad_pair(sset, tol=1e-9):
    """Brute-force pair loop over :func:`inner_product`, the reference rule."""
    norms = [norm(s) for s in sset]
    for i in range(len(sset)):
        for j in range(i + 1, len(sset)):
            if abs(inner_product(sset[i], sset[j])) > tol * norms[i] * norms[j]:
                return i, j
    return None


def test_orthogonality_rule_matches_pair_loop():
    # random orthonormal columns with complex scale factors, then some states
    # pick up a component along another one, sized just above or just below
    # the relative tolerance
    rng = np.random.default_rng(37)
    layout = PartyLayout.uniform(("A", "B", "C"), 2)
    cells = list(itertools.product(range(2), repeat=3))
    cut = Bipartition.of(layout, ["A"])
    outcomes = set()
    for trial in range(80):
        count = int(rng.integers(2, 9))
        gauss = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q = np.linalg.qr(gauss)[0]
        scales = rng.uniform(0.5, 2.0, count) * np.exp(2j * np.pi * rng.random(count))
        vecs = [scales[k] * q[:, k] for k in range(count)]
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.choice(count, size=2, replace=False)
            factor = 1.01 if rng.integers(0, 2) else 0.99
            phase = np.exp(2j * np.pi * rng.random())
            vecs[j] = vecs[j] + factor * 1e-9 * abs(scales[j]) * phase * q[:, i]
        sset = StateSet(
            layout,
            tuple(
                PureState(layout, list(zip(cells, vec)), f"s{k}")
                for k, vec in enumerate(vecs)
            ),
        )
        expected = _reference_first_bad_pair(sset)
        outcomes.add(expected is None)
        assert validate_set(sset).pairwise_orthogonal == (expected is None)
        for actor in (("A",), ("B", "C")):
            if expected is None:
                assemble_constraints(sset, cut, actor)
            else:
                i, j = expected
                with pytest.raises(ValueError, match=rf"\(s{i}, s{j}\)"):
                    assemble_constraints(sset, cut, actor)
    assert outcomes == {True, False}


def _reference_assemble(sset, cut, actor):
    """The pair-loop assembly: per-state dicts grouped by the non-actor index,
    joined pair by pair, folded into Hermitian coordinates row by row, with
    couplings and entries at or below 1e-12 dropped."""
    layout = sset.layout
    actor_parties = cut.left if set(actor) == set(cut.left) else cut.right
    actor_axes = [layout.axis(p) for p in actor_parties]
    other_axes = [a for a in range(len(layout.parties)) if a not in actor_axes]
    actor_dims = [layout.dims[a] for a in actor_axes]
    m = int(np.prod(actor_dims))
    strides = [int(np.prod(actor_dims[k + 1 :])) for k in range(len(actor_dims))]
    root2 = np.sqrt(2.0)

    def pair_slot(k, l):
        return m + 2 * (k * m - k * (k + 1) // 2 + (l - k - 1))

    grouped = []
    for s in sset.states:
        groups = {}
        for idx, amp in s.terms:
            u = sum(idx[ax] * st for ax, st in zip(actor_axes, strides))
            v = tuple(idx[ax] for ax in other_axes)
            groups.setdefault(v, []).append((u, amp))
        grouped.append(groups)

    data, indices, indptr = [], [], [0]
    n_coupled = 0
    for i in range(len(sset)):
        gi = grouped[i]
        for j in range(i + 1, len(sset)):
            gj = grouped[j]
            small, big, swap = (gi, gj, False) if len(gi) <= len(gj) else (gj, gi, True)
            couplings = {}
            for v, terms_small in small.items():
                terms_big = big.get(v)
                if terms_big is None:
                    continue
                ti, tj = (terms_small, terms_big) if not swap else (terms_big, terms_small)
                for (u_i, a_i) in ti:
                    conj_ai = a_i.conjugate()
                    for (u_j, a_j) in tj:
                        key = (u_i, u_j)
                        couplings[key] = couplings.get(key, 0j) + conj_ai * a_j
            if not any(abs(c) > 1e-12 for c in couplings.values()):
                continue
            re_row, im_row, folded = {}, {}, set()
            for (u, w), c in couplings.items():
                if u == w:
                    re_row[u] = re_row.get(u, 0.0) + c.real
                    im_row[u] = im_row.get(u, 0.0) + c.imag
                    continue
                k, l = (u, w) if u < w else (w, u)
                if (k, l) in folded:
                    continue
                folded.add((k, l))
                c_kl = couplings.get((k, l), 0j)
                c_lk = couplings.get((l, k), 0j)
                s_sum, s_dif = c_kl + c_lk, c_kl - c_lk
                slot = pair_slot(k, l)
                re_row[slot] = re_row.get(slot, 0.0) + s_sum.real / root2
                re_row[slot + 1] = re_row.get(slot + 1, 0.0) - s_dif.imag / root2
                im_row[slot] = im_row.get(slot, 0.0) + s_sum.imag / root2
                im_row[slot + 1] = im_row.get(slot + 1, 0.0) + s_dif.real / root2
            n_coupled += 1
            for row in (re_row, im_row):
                entries = [(col, val) for col, val in sorted(row.items()) if abs(val) > 1e-12]
                if not entries:
                    continue
                for col, val in entries:
                    indices.append(col)
                    data.append(val)
                indptr.append(len(data))
    rows = scipy.sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, m * m),
    )
    n_pairs = len(sset) * (len(sset) - 1) // 2
    return SimpleNamespace(m=m, rows=rows, n_pairs=n_pairs, n_coupled_pairs=n_coupled)


def _unit_scaled(sset):
    """Each state times the power of two that puts its largest real or
    imaginary part in [1, 2), then divided by its norm, the real and the
    imaginary part apart: the states the assembly takes its rows from."""
    scaled = []
    for s in sset.states:
        peak = max(max(abs(a.real), abs(a.imag)) for _, a in s.terms)
        s = s.scaled(2.0 ** (1 - math.frexp(peak)[1]))
        n = norm(s)
        terms = [(idx, complex(a.real / n, a.imag / n)) for idx, a in s.terms]
        scaled.append(PureState(s.layout, terms, s.label))
    return StateSet(sset.layout, tuple(scaled))


def _seeded(sset, seed, phases):
    """States permuted and scaled by positive reals, or by complex phases too."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sset))
    factors = rng.uniform(0.5, 2.0, len(sset))
    if phases:
        factors = factors * np.exp(2j * np.pi * rng.random(len(sset)))
    return StateSet(
        sset.layout,
        tuple(sset[int(k)].scaled(complex(f)) for k, f in zip(order, factors)),
    )


_CUBE3 = PartyLayout.uniform(("A", "B", "C"), 3)
_QUBITS3 = PartyLayout.uniform(("A", "B", "C"), 2)
_EQUIVALENCE_INPUTS = {
    **{
        f"{build.__name__}({d})": lambda build=build, d=d: build(d)
        for d in (3, 4, 5)
        for build in (build_snoes, build_snoeb)
    },
    "seeded-snoeb(4)": lambda: _seeded(build_snoeb(4), 61, phases=False),
    "phased-snoeb(4)": lambda: _seeded(build_snoeb(4), 67, phases=True),
    "ghz": ghz_basis,
    "set3": set3_states,
    **{
        f"random{count}": lambda count=count: _random_orthogonal_set(
            np.random.default_rng(59 + count), _QUBITS3, count
        )
        for count in (2, 4, 6, 8)
    },
    "empty": lambda: StateSet(_CUBE3, ()),
    "single": lambda: StateSet(_CUBE3, (build_snoeb(3)[0],)),
}


@pytest.mark.parametrize("build", _EQUIVALENCE_INPUTS.values(), ids=_EQUIVALENCE_INPUTS.keys())
def test_assembly_matches_pair_loop_bit_for_bit(build):
    sset = build()
    for cut, actor in standard_checks(sset.layout):
        got = assemble_constraints(sset, cut, actor)
        want = _reference_assemble(_unit_scaled(sset), cut, actor)
        assert got.m == want.m and got.rows.shape == want.rows.shape
        assert np.array_equal(got.rows.indptr, want.rows.indptr)
        assert np.array_equal(got.rows.indices, want.rows.indices)
        assert np.array_equal(got.rows.data, want.rows.data)
        assert got.n_pairs == want.n_pairs
        assert got.n_coupled_pairs == want.n_coupled_pairs


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_snoeb(4),
        lambda: _seeded(build_snoeb(4), 67, phases=True),
        ghz_basis,
        set3_states,
        lambda: _random_orthogonal_set(np.random.default_rng(83), _QUBITS3, 6),
    ],
    ids=["snoeb(4)", "phased-snoeb(4)", "ghz", "set3", "random6"],
)
def test_rows_do_not_see_state_scales(build):
    # the rows come from unit-norm states: scaling each state by a positive
    # real that is not a power of two moves them by roundoff only
    sset = build()
    factors = np.random.default_rng(89).uniform(0.1, 10.0, len(sset))
    scaled = StateSet(sset.layout, tuple(s.scaled(f) for s, f in zip(sset.states, factors)))
    for cut, actor in standard_checks(sset.layout):
        got = assemble_constraints(scaled, cut, actor).rows.toarray()
        want = assemble_constraints(sset, cut, actor).rows.toarray()
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 4 * np.finfo(float).eps


def test_actor_must_be_a_side():
    bell = bell_states()
    cut = Bipartition.of(bell.layout, ["A"])
    with pytest.raises(ValueError):
        assemble_constraints(bell, cut, ("A", "B"))


def test_pair_row_symmetry():
    # rows for (i, j) and (j, i) agree up to the sign of the imaginary row;
    # the phase-cycled completion pair produces both a real and an imaginary row
    from reference_data import completion3_states

    psi25, psi26, _ = completion3_states()
    layout = psi25.layout
    cut = Bipartition.of(layout, ["A"])
    one = StateSet(layout, (psi25, psi26))
    two = StateSet(layout, (psi26.relabeled("x"), psi25.relabeled("y")))
    r1 = assemble_constraints(one, cut, ("A",)).rows.toarray()
    r2 = assemble_constraints(two, cut, ("A",)).rows.toarray()
    assert r1.shape == r2.shape == (2, 9)
    assert np.allclose(r1[0], r2[0]) and np.allclose(r1[1], -r2[1])


def test_reference_set_pair_statistics():
    s24 = set3_states()
    cut = Bipartition.of(s24.layout, ["A"])
    cs = assemble_constraints(s24, cut, ("A",))
    assert cs.n_pairs == 276
    assert cs.n_coupled_pairs == dense_coupled_pairs(s24, ("A",))
    assert cs.n_coupled_pairs < cs.n_pairs / 2  # most pairs decouple


def test_identity_always_in_solution_space():
    rng = np.random.default_rng(23)
    layout = PartyLayout.uniform(("A", "B", "C"), 2)
    for trial in range(100):
        count = int(rng.integers(2, 9))
        sset = _random_orthogonal_set(rng, layout, count)
        cut = Bipartition.of(layout, ["A"])
        actor = ("A",) if trial % 2 else ("B", "C")
        cs = assemble_constraints(sset, cut, actor)
        ident = identity_coords(cs.m)
        if cs.rows.shape[0]:
            assert float(np.max(np.abs(cs.rows @ ident))) < 1e-9
        basis = solution_space(cs)
        assert len(basis) >= 1
        # identity projects fully onto the computed nullspace
        coords = np.array([coords_from_hermitian(e) for e in basis])
        proj = coords.T @ (coords @ ident)
        assert np.linalg.norm(proj - ident) < 1e-7


def test_oracle_equivalence_on_random_sets():
    rng = np.random.default_rng(29)
    layout = PartyLayout.uniform(("A", "B", "C"), 2)
    cuts = [Bipartition.of(layout, [p]) for p in "ABC"]
    for _ in range(30):
        count = int(rng.integers(2, 9))
        sset = _random_orthogonal_set(rng, layout, count)
        cut = cuts[int(rng.integers(0, 3))]
        actor = cut.left if rng.integers(0, 2) else cut.right
        verdict = certify_triviality(sset, cut, actor)
        assert verdict.solution_dim == dense_solution_dim(sset, actor)
        assert verdict.trivial == (verdict.solution_dim == 1)


def test_scale_invariance_of_verdicts():
    rng = np.random.default_rng(31)
    s24 = set3_states()
    scaled = StateSet(
        s24.layout,
        tuple(
            s.scaled(complex(rng.normal(), rng.normal()) or 1.0)
            for s in s24.states
        ),
    )
    base = verify_strong_nonlocality(s24)
    other = verify_strong_nonlocality(scaled)
    for c1, c2 in zip(base.checks, other.checks):
        assert c1.verdict.trivial == c2.verdict.trivial
        assert c1.verdict.solution_dim == c2.verdict.solution_dim

    # finite but extreme scales, whose coupling products would underflow or
    # overflow: the verdicts must not see the scale at all
    pair = StateSet(
        _QUBITS3,
        (
            PureState(_QUBITS3, [((0, 0, 0), 1), ((1, 1, 1), 1)], "plus"),
            PureState(_QUBITS3, [((0, 0, 0), 1), ((1, 1, 1), -1)], "minus"),
        ),
    )
    cases = ((build_snoeb(3), (1e-170, 1e170), [1] * 6), (pair, (1e-200,), [3, 15] * 3))
    for sset, scales, dims in cases:
        for factor in (1.0,) + scales:
            scaled = StateSet(sset.layout, tuple(s.scaled(factor) for s in sset.states))
            report = verify_strong_nonlocality(scaled)
            assert [c.verdict.solution_dim for c in report.checks] == dims, factor


def _record_cholesky(monkeypatch):
    """The side of every matrix handed to scipy.linalg.cholesky, in call order."""
    sides = []
    factor = scipy.linalg.cholesky

    def recording(a, *args, **kwargs):
        assert a.shape[0] == a.shape[1]
        sides.append(a.shape[0])
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", recording)
    return sides


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(sset, seed):
    """The set under a Haar-random local unitary U_A (x) U_B (x) U_C."""
    dims = sset.layout.dims
    rng = np.random.default_rng(seed)
    unitaries = [_haar_unitary(rng, d) for d in dims]
    rotated = []
    for s in sset.states:
        tensor = np.einsum(
            "ai,bj,ck,ijk->abc", *unitaries, s.to_vector().reshape(dims)
        )
        rotated.append(PureState(sset.layout, list(np.ndenumerate(tensor)), s.label))
    return StateSet(sset.layout, tuple(rotated))


def _actor_dim(sset, actor):
    return int(np.prod([sset.layout.dim_of(p) for p in actor]))


@pytest.mark.parametrize(
    "build", [lambda: build_snoes(3), lambda: build_snoeb(3), ghz_basis], ids=["snoes(3)", "snoeb(3)", "ghz"]
)
@pytest.mark.parametrize("seed", [41, 43])
def test_local_unitary_invariance_of_solution_dims(build, seed, monkeypatch):
    # U_A (x) U_B (x) U_C maps the solutions E of each check to U E U^dagger,
    # so no check's solution space may change dimension
    sset = build()
    basis = len(sset) == sset.layout.total_dim
    sides = _record_cholesky(monkeypatch)
    base = verify_strong_nonlocality(sset)
    if not basis:
        # snoes is tight, its N states touching N cells, so every check
        # factors one matrix of side min(m^2, N) from its reduced states
        checks = standard_checks(sset.layout)
        assert sides == [min(_actor_dim(sset, a) ** 2, len(sset)) for _, a in checks]
    moved = _rotated(sset, seed)
    for (cut, actor), check in zip(standard_checks(sset.layout), base.checks):
        sides.clear()
        assert certify_triviality(moved, cut, actor).solution_dim == check.verdict.solution_dim
        m = _actor_dim(sset, actor)
        if basis:
            # a basis stays a basis, though it loses the symmetry: one
            # factorisation of side min(m^2, N) from its reduced states
            # decides every trivial check; a GHZ joint check fails it, and
            # then its whole Gram matrix is factored once
            expected = [min(m * m, len(sset))]
            if check.verdict.solution_dim > 1:
                expected.append(m * m)
            assert sides == expected, (cut.name, actor)
        else:
            # the rotated set touches every cell, so it is not tight, and each
            # check factors its rows' Gram matrix once
            assert _tight_size(moved) is None
            assert sides == [m * m], (cut.name, actor)


def test_superset_monotonicity_on_nested_prefixes():
    s24 = set3_states()
    cut = Bipartition.of(s24.layout, ["A"])
    dims = []
    for count in (1, 4, 8, 12, 16, 20, 24):
        verdict = certify_triviality(s24.subset(count), cut, ("A",))
        dims.append(verdict.solution_dim)
    assert dims == sorted(dims, reverse=True)
    assert dims[-1] == 1
    # once trivial, every superset stays trivial
    first_trivial = next(i for i, d in enumerate(dims) if d == 1)
    assert all(d == 1 for d in dims[first_trivial:])


def test_permutation_covariance():
    rng = np.random.default_rng(37)
    s24 = set3_states()
    layout = s24.layout
    perms = [rng.permutation(3) for _ in range(3)]
    permuted = StateSet(
        layout,
        tuple(
            PureState(
                layout,
                [
                    (tuple(int(p[i]) for p, i in zip(perms, idx)), amp)
                    for idx, amp in s.terms
                ],
                s.label,
            )
            for s in s24.states
        ),
    )
    cut = Bipartition.of(layout, ["A"])
    base = certify_triviality(s24, cut, ("A",))
    moved = certify_triviality(permuted, cut, ("A",))
    assert base.trivial == moved.trivial
    assert base.solution_dim == moved.solution_dim
    # conjugated solutions of the original system satisfy the permuted system
    perm_matrix = np.zeros((3, 3))
    for i in range(3):
        perm_matrix[perms[0][i], i] = 1.0
    cs_moved = assemble_constraints(permuted, cut, ("A",))
    for e in solution_space(assemble_constraints(s24, cut, ("A",))):
        conj = perm_matrix @ e @ perm_matrix.T
        assert _residual(cs_moved, conj) < 1e-9


def _parties_reordered(sset, order):
    """``sset`` with its parties, and every index's columns, in ``order``."""
    layout = PartyLayout(
        tuple(sset.layout.parties[i] for i in order), tuple(sset.layout.dims[i] for i in order)
    )
    return StateSet(
        layout,
        tuple(
            PureState(
                layout, [(tuple(idx[i] for i in order), amp) for idx, amp in s.terms], s.label
            )
            for s in sset.states
        ),
    )


def _verdicts_by_check(sset):
    """Each check's (trivial, solution_dim), keyed by the party sets of its
    left side and of its actor, which do not depend on the party order."""
    report = verify_strong_nonlocality(sset)
    return {
        (frozenset(cut.left), frozenset(actor)): (c.verdict.trivial, c.verdict.solution_dim)
        for (cut, actor), c in zip(standard_checks(sset.layout), report.checks)
    }


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_snoes(3),
        lambda: build_snoeb(4),
        ghz_basis,
        # nontrivial, and unlike the others not alike in its three parties
        lambda: _off_the_a0_face(build_snoeb(4)),
    ],
    ids=["snoes(3)", "snoeb(4)", "ghz", "snoeb(4)-off-a0"],
)
def test_verdicts_permute_with_the_parties(build):
    sset = build()
    base = _verdicts_by_check(sset)
    assert len(base) == 6
    for order in itertools.permutations(range(3)):
        assert _verdicts_by_check(_parties_reordered(sset, order)) == base, order


def test_strong_nonlocality_of_small_sets():
    report = verify_strong_nonlocality(build_snoes(3))
    assert report.strongly_nonlocal
    assert all(c.verdict.solution_dim == 1 for c in report.checks)
    assert report.first_witness() is None


def test_verify_requires_three_parties():
    bell = bell_states()
    with pytest.raises(ValueError):
        verify_strong_nonlocality(bell)


def _off_the_a0_face(sset):
    """The states with no term on the a = 0 face of the cube."""
    return StateSet(sset.layout, tuple(s for s in sset if all(idx[0] for idx in s.support)))


def test_fallback_solution_dims_off_the_a0_face():
    # five of the six checks are nontrivial, so the certificate declines them
    # and the blockwise QR/SVD of all their rows decides
    sset = _off_the_a0_face(build_snoeb(4))
    report = verify_strong_nonlocality(sset)
    assert [c.verdict.solution_dim for c in report.checks] == [8, 41, 1, 114, 2, 157]
    for (cut, actor), check in zip(standard_checks(sset.layout), report.checks):
        if check.verdict.witness is not None:
            assert _residual(assemble_constraints(sset, cut, actor), check.verdict.witness) < 1e-9


def test_blockwise_qr_nullspace_matches_dense_svd():
    rng = np.random.default_rng(41)
    left = rng.normal(size=(1000, 30))
    right = rng.normal(size=(30, 50))
    rows = scipy.sparse.csr_matrix(left @ right)  # rank 30, nullity 20
    basis = _nullspace(rows, 50, 1e-9)  # 1000 > 3 * 50 forces the QR path
    assert basis.shape == (50, 20)
    assert float(np.max(np.abs(rows @ basis))) < 1e-8
    assert np.allclose(basis.T @ basis, np.eye(20))


# ---------------------------------------------------------------------------
# Cholesky certificate against the QR/SVD pipeline it short-cuts
# ---------------------------------------------------------------------------

def _assert_agrees(rows, m, tol=1e-9):
    """The certificate never says Trivial where the pipeline finds more; when
    it does not decide, :func:`_solve` returns the pipeline's basis unchanged."""
    certified = _gram_certifies_trivial(rows, m, tol)
    basis = _nullspace(rows, m * m, tol)
    if certified:
        assert basis.shape[1] == 1
        assert np.array_equal(_solve(rows, m, tol), identity_coords(m)[:, None] / np.sqrt(m))
    else:
        assert np.array_equal(_solve(rows, m, tol), basis)
    return certified, basis.shape[1]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_cholesky_certificate_decides_every_construction_check(d):
    for sset in (build_snoes(d), build_snoeb(d)):
        for cut, actor in standard_checks(sset.layout):
            cs = assemble_constraints(sset, cut, actor)
            assert _assert_agrees(cs.rows, cs.m) == (True, 1), (d, cut.name, actor)


def test_cholesky_certificate_leaves_ghz_witnesses_to_pipeline():
    ghz = ghz_basis()
    for cut, actor in standard_checks(ghz.layout):
        cs = assemble_constraints(ghz, cut, actor)
        certified, dim = _assert_agrees(cs.rows, cs.m)
        assert (certified, dim) == ((True, 1) if len(actor) == 1 else (False, 2))


def test_cholesky_certificate_on_random_sets():
    rng = np.random.default_rng(43)
    layout = PartyLayout.uniform(("A", "B", "C"), 2)
    seen = set()
    for trial in range(60):
        sset = _random_orthogonal_set(rng, layout, int(rng.integers(2, 9)))
        cut = Bipartition.of(layout, ["ABC"[trial % 3]])
        actor = cut.left if trial % 2 else cut.right
        cs = assemble_constraints(sset, cut, actor)
        seen.add(_assert_agrees(cs.rows, cs.m))
    # both outcomes occur, and every trivial pipeline verdict was certified
    assert (True, 1) in seen and any(dim > 1 for _, dim in seen)
    assert (False, 1) not in seen


@pytest.mark.parametrize("gap, certified", [(1e-3, True), (1e-10, False)])
def test_cholesky_certificate_near_the_rank_cut(gap, certified):
    # rows with the identity as exact solution and the second-smallest
    # singular value at gap * sigma_max: below the 1e-9 cut the pipeline
    # keeps two directions, and the certificate must not decide
    m, n_rows = 3, 40
    rng = np.random.default_rng(47)
    ident = identity_coords(m) / np.sqrt(m)
    q = np.linalg.qr(np.column_stack([ident, rng.normal(size=(m * m, m * m - 1))]))[0]
    u = np.linalg.qr(rng.normal(size=(n_rows, m * m - 1)))[0]
    svals = np.geomspace(1.0, gap, m * m - 1)
    rows = scipy.sparse.csr_matrix(u @ np.diag(svals) @ q[:, 1:].T)
    assert _assert_agrees(rows, m) == (certified, 1 if certified else 2)


def test_cholesky_certificate_needs_identity_solution():
    # rows of full column rank: the pipeline finds no solution at all, so the
    # certificate must not report the identity
    rows = scipy.sparse.csr_matrix(np.random.default_rng(53).normal(size=(40, 9)))
    assert _assert_agrees(rows, 3) == (False, 0)


# ---------------------------------------------------------------------------
# the reduced-state certificate of tight sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "d, phases", [(4, False), (4, True), (5, False), (6, False)], ids=["4", "4-phased", "5", "6"]
)
def test_seeded_constructions_take_the_split_path(d, phases, monkeypatch):
    # snoes (not a basis, but tight), permuted and scaled apart: each check
    # factors one matrix from its reduced states, of the smaller side
    # min(m^2, N), and nothing else
    sset = _seeded(build_snoes(d), 71 + d, phases)
    sides = _record_cholesky(monkeypatch)
    for cut, actor in standard_checks(sset.layout):
        sides.clear()
        assert certify_triviality(sset, cut, actor).solution_dim == 1
        m = _actor_dim(sset, actor)
        assert sides == [min(m * m, len(sset))], (cut.name, actor)


@pytest.mark.parametrize(
    "d, phases", [(4, False), (4, True), (5, False), (6, False)], ids=["4", "4-phased", "5", "6"]
)
def test_seeded_bases_take_the_reduced_state_path(d, phases, monkeypatch):
    # a basis, permuted and scaled apart: each check factors one matrix, of
    # the smaller side min(m^2, N), and nothing else
    sset = _seeded(build_snoeb(d), 71 + d, phases)
    sides = _record_cholesky(monkeypatch)
    for cut, actor in standard_checks(sset.layout):
        sides.clear()
        assert certify_triviality(sset, cut, actor).solution_dim == 1
        m = _actor_dim(sset, actor)
        assert sides == [min(m * m, len(sset))], (cut.name, actor)


def _tight_inputs():
    cases = {}
    for d in (3, 4, 5, 6):
        cases[f"snoeb({d})"] = lambda d=d: build_snoeb(d)
        cases[f"seeded-snoeb({d})"] = lambda d=d: _seeded(build_snoeb(d), 97 + d, phases=False)
        cases[f"phased-snoeb({d})"] = lambda d=d: _seeded(build_snoeb(d), 101 + d, phases=True)
    cases["ghz"] = ghz_basis
    for d in (3, 4, 5):
        cases[f"seeded-snoes({d})"] = lambda d=d: _seeded(build_snoes(d), 89 + d, phases=False)
        cases[f"phased-snoes({d})"] = lambda d=d: _seeded(build_snoes(d), 113 + d, phases=True)
    cases["snoeb(4)-off-a0"] = lambda: _off_the_a0_face(build_snoeb(4))
    return cases


@pytest.mark.parametrize("build", _tight_inputs().values(), ids=_tight_inputs().keys())
def test_basis_gram_matrix_from_reduced_states(build):
    # a tight set, whose N states touch N cells (a basis, snoes, or whole
    # runs such as snoeb(4) off the a = 0 face): R^T R = (Diag(h) - M M^T) / 2
    # for the assembled rows R, the reduced-state coordinates M and the
    # coverage h, which is r = D / m throughout for a basis (Parseval) and
    # zero off the a = 0 face on the coordinates of a = 0
    sset = build()
    assert _tight_size(sset) == len(sset)
    assert sset._unit_gram[1] < 1e-12
    for cut, actor in standard_checks(sset.layout):
        rows = assemble_constraints(sset, cut, actor).rows
        m, axes = _actor_side(sset, cut, actor)
        reduced, coverage = _reduced_coords(sset, axes, m), _coverage(sset, axes, m)
        assert reduced.shape == (m * m, len(sset))
        if len(sset) == sset.layout.total_dim:
            assert np.all(coverage == len(sset) / m)
        gram = (rows.T @ rows).toarray()
        closed = 0.5 * (np.diag(coverage) - (reduced @ reduced.T).toarray())
        assert np.max(np.abs(gram - closed)) < 1e-12, (cut.name, actor)
        # each reduced state has trace one, and together they are the
        # partial trace of the projector onto the touched cells
        assert np.allclose(reduced.T @ identity_coords(m), 1.0, rtol=0, atol=1e-12)
        traces = reduced[:m].sum(axis=1).A1
        assert np.allclose(traces, coverage[:m], rtol=0, atol=1e-12)


def test_non_bases_carry_no_reduced_states(monkeypatch):
    # one state dropped from a basis: its 63 states touch 64 cells, so the
    # set is not tight, no check is offered to the reduced-state
    # certificate, and the Gram certificate factors its m^2 x m^2 matrix
    full = build_snoeb(4)
    sset = StateSet(full.layout, full.states[1:])
    assert _tight_size(sset) is None

    def refuse(*args):
        raise AssertionError("a set that is not tight offered to the reduced states")

    monkeypatch.setattr(verify, "_reduced_states_certify_trivial", refuse)
    sides = _record_cholesky(monkeypatch)
    for cut, actor in standard_checks(sset.layout):
        sides.clear()
        assert certify_triviality(sset, cut, actor).solution_dim == 1
        m = _actor_dim(sset, actor)
        assert sides == [m * m], (cut.name, actor)


def _boosted(sset, overlap, pairs):
    """States 2k and 2k + 1, k < pairs, replaced by cosh(a) x + sinh(a) y and
    sinh(a) x + cosh(a) y: each such pair then has normalised overlap
    tanh(2 a) = ``overlap``, and every other pair stays orthogonal."""
    a = np.arctanh(overlap) / 2
    vecs = [s.to_vector() for s in sset.states]
    for k in range(pairs):
        x, y = vecs[2 * k], vecs[2 * k + 1]
        vecs[2 * k] = np.cosh(a) * x + np.sinh(a) * y
        vecs[2 * k + 1] = np.sinh(a) * x + np.cosh(a) * y
    layout = sset.layout
    return StateSet(
        layout,
        tuple(
            PureState(layout, list(np.ndenumerate(v.reshape(layout.dims))), s.label)
            for v, s in zip(vecs, sset.states)
        ),
    )


@pytest.mark.parametrize("tol, pairs, reduced", [(1e-9, 13, True), (0.05, 4, False)])
def test_spoiled_basis_keeps_the_pipeline_verdict(tol, pairs, reduced):
    # orthogonality spoiled at 0.5 tol in several pairs: the set passes the
    # orthogonality check, and every verdict is that of the rank cut on the
    # assembled rows.  At tol = 1e-9 delta is far below the spectral gap and
    # the reduced states still certify; at tol = 0.05 the bound
    # (2 delta + delta^2) r leaves no proof, so the certificate must decline
    sset = _boosted(build_snoeb(3), 0.5 * tol, pairs)
    assert sset._unit_gram[1] == pytest.approx(0.5 * tol * np.sqrt(2 * pairs), rel=1e-6)
    for cut, actor in standard_checks(sset.layout):
        cs = assemble_constraints(sset, cut, actor, tol)
        m, axes = _actor_side(sset, cut, actor)
        certified = _reduced_states_certify_trivial(sset, axes, m, tol)
        assert certified == reduced, (cut.name, actor)
        pipeline = _nullspace(cs.rows, cs.m * cs.m, tol).shape[1]
        assert certify_triviality(sset, cut, actor, tol).solution_dim == pipeline == 1


@pytest.mark.parametrize("tol, pairs, reduced", [(1e-9, 12, True), (0.05, 4, False)])
def test_spoiled_set_keeps_the_pipeline_verdict(tol, pairs, reduced):
    # as for the basis above, on snoes(3): each mixed pair keeps its cells,
    # so the set stays tight, and at tol = 0.05 the bound
    # (2 delta + delta^2) h_max leaves no proof
    sset = _boosted(build_snoes(3), 0.5 * tol, pairs)
    assert _tight_size(sset) == len(sset)
    assert sset._unit_gram[1] == pytest.approx(0.5 * tol * np.sqrt(2 * pairs), rel=1e-6)
    for cut, actor in standard_checks(sset.layout):
        cs = assemble_constraints(sset, cut, actor, tol)
        m, axes = _actor_side(sset, cut, actor)
        certified = _reduced_states_certify_trivial(sset, axes, m, tol)
        assert certified == reduced, (cut.name, actor)
        pipeline = _nullspace(cs.rows, cs.m * cs.m, tol).shape[1]
        assert certify_triviality(sset, cut, actor, tol).solution_dim == pipeline == 1


# sha256 of the witness bytes of each GHZ joint check, as the pipeline gives
# them
_GHZ_WITNESS_SHA256 = {
    "A|BC": "81990fafbc9544e5ff3662a8b9af58f254f7be6d318ea54517f925fa5e48408a",
    "B|AC": "be1eca24b4351da0d9db9accd01d252694b56660989968968c1e56430667c2f1",
    "C|AB": "137c7a6f83aaac4bd3b1723480f0bcb0a9add0a65204c388ae809c33a0ebbe77",
}


def _record_assemblies(monkeypatch):
    """The actor dimension m of every row assembly, in call order."""
    assembled = []
    build = verify._rows

    def recording(sset, axes, m):
        assembled.append(m)
        return build(sset, axes, m)

    monkeypatch.setattr(verify, "_rows", recording)
    return assembled


def test_ghz_checks_fall_back_with_the_same_witness(monkeypatch):
    # one-party checks certify from the reduced states (all I / 2) and build
    # no rows; the joint checks have two solutions, fail that factorisation
    # of side N = 8, build their rows and reach the Gram certificate and the
    # pipeline, whose witness bytes are pinned
    ghz = ghz_basis()
    sides = _record_cholesky(monkeypatch)
    assembled = _record_assemblies(monkeypatch)
    for cut, actor in standard_checks(ghz.layout):
        sides.clear()
        assembled.clear()
        verdict = certify_triviality(ghz, cut, actor)
        m = _actor_dim(ghz, actor)
        if len(actor) == 1:
            assert (verdict.solution_dim, sides, assembled) == (1, [m * m], [])
        else:
            assert verdict.solution_dim == 2 and assembled == [m]
            assert sides[0] == len(ghz) and len(sides) > 1
            digest = hashlib.sha256(verdict.witness.tobytes()).hexdigest()
            assert digest == _GHZ_WITNESS_SHA256[cut.name], (cut.name, digest)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _seeded(build_snoeb(4), 83, phases=True),
        lambda: _rotated(build_snoeb(3), 47),
        lambda: build_snoes(9),
    ],
    ids=["seeded-snoeb(4)", "rotated-snoeb(3)", "snoes(9)"],
)
def test_trivial_basis_checks_build_no_rows(build, monkeypatch):
    # the reduced states and the Gram matrix decide every check of a tight
    # set that is strongly nonlocal, a basis rotated or not, or snoes;
    # neither the coupling product nor a row is formed
    sset = build()

    def refuse(*args):
        raise AssertionError("constraint rows built")

    monkeypatch.setattr(verify, "_rows", refuse)
    report = verify_strong_nonlocality(sset)
    assert [c.verdict.solution_dim for c in report.checks] == [1] * 6


def test_every_check_assembles_its_system_without_rows(monkeypatch):
    # a tracer that wraps verify.assemble_constraints sees all six checks,
    # the certified ones too, each returning a system that exposes m, rows,
    # n_pairs and n_coupled_pairs; no check builds rows
    systems = []
    assemble = verify.assemble_constraints

    def recording(*args, **kwargs):
        systems.append(assemble(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(verify, "assemble_constraints", recording)
    assert verify_strong_nonlocality(build_snoeb(4)).strongly_nonlocal
    assert len(systems) == 6
    assert not any("_assembled" in vars(cs) for cs in systems)
    for cs in systems:
        assert cs.m in (4, 16) and cs.n_pairs == 64 * 63 // 2
        assert cs.rows.shape[1] == cs.m * cs.m and 0 < cs.n_coupled_pairs <= cs.n_pairs


def test_basis_spoiled_above_tol_names_the_first_pair(tmp_path, capsys):
    # one pair of a basis at overlap 2 tol: the Gram matrix of the unit
    # states names the pair the pair loop finds, and the CLI exits 2
    sset = _boosted(build_snoeb(3), 2e-9, 1)
    i, j = _reference_first_bad_pair(sset)
    text = f"input set is not mutually orthogonal ({sset[i].label}, {sset[j].label})"
    for cut, actor in standard_checks(sset.layout):
        with pytest.raises(ValueError) as caught:
            assemble_constraints(sset, cut, actor)
        assert str(caught.value) == text
    path = str(tmp_path / "spoiled.json")
    save_state_set(sset, path)
    assert main(["verify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and text in captured.err


def _skewed(sset, overlap, seed):
    """The unit states of ``sset`` mixed by I + e H, with H symmetric, zero on
    the diagonal and +-1 off it: every pair then has a normalised overlap of
    about 2 e, and e is set so that the largest is ``overlap``."""
    vecs = np.array([s.to_vector() / norm(s) for s in sset.states])
    n = len(vecs)
    h = np.triu(np.random.default_rng(seed).choice([-1.0, 1.0], size=(n, n)), 1)
    h = h + h.T

    def mixed(e):
        v = (np.eye(n) + e * h) @ vecs
        gram = v.conj() @ v.T
        scale = np.sqrt(gram.diagonal().real)
        return v, np.max(np.abs(gram - np.diag(gram.diagonal())) / np.outer(scale, scale))

    e = overlap / 2
    v, top = mixed(e * overlap / mixed(e)[1])
    assert overlap * (1 - 1e-6) < top < overlap * (1 + 1e-6)
    layout = sset.layout
    return StateSet(
        layout,
        tuple(
            PureState(layout, list(np.ndenumerate(x.reshape(layout.dims))), s.label)
            for x, s in zip(v, sset.states)
        ),
    )


def test_basis_with_the_identity_outside_the_cut():
    # every pair at overlap 0.9 tol: the set passes the orthogonality check,
    # but ||R i|| = (sum_{i<j} |G_ij|^2 / m)^(1/2) is far above tol
    # sigma_max(R), so the identity fails the rank cut; the certificate must
    # read that off G and decline, and the pipeline finds no solution at all
    tol = 1e-9
    sset = _skewed(build_snoeb(3), 0.9 * tol, 5)
    for cut, actor in standard_checks(sset.layout):
        cs = assemble_constraints(sset, cut, actor, tol)
        m, axes = _actor_side(sset, cut, actor)
        certified = _reduced_states_certify_trivial(sset, axes, m, tol)
        assert not certified, (cut.name, actor)
        assert _nullspace(cs.rows, cs.m * cs.m, tol).shape[1] == 0
        assert certify_triviality(sset, cut, actor, tol).solution_dim == 0


def test_cholesky_certificate_sees_null_vectors_across_blocks():
    # rows whose null space is the identity and one direction that mixes the
    # real and the imaginary part of E[0, 1]: the factorisation of the rows'
    # Gram matrix must see the second solution and leave it to the pipeline
    m = 3
    ident = identity_coords(m) / np.sqrt(m)
    mixed = np.zeros(m * m)
    mixed[3] = mixed[4] = 1 / np.sqrt(2)
    keep = np.eye(m * m) - np.outer(ident, ident) - np.outer(mixed, mixed)
    rows = scipy.sparse.csr_matrix(np.random.default_rng(59).normal(size=(40, m * m)) @ keep)
    assert _assert_agrees(rows, m) == (False, 2)
