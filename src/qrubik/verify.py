"""Certification of local irreducibility via orthogonality-preserving POVMs.

For a mutually orthogonal set, a measurement element E acting on one side of a
bipartition preserves orthogonality iff <psi_i| (E x I) |psi_j> = 0 for every
state pair.  These are linear constraints on E; restricting E to the real
vector space of Hermitian matrices and computing the constraint nullspace
decides whether every orthogonality-preserving element is proportional to the
identity (the "trivial" case).

Triviality of all such measurements on every side of every bipartition is a
sufficient criterion for strong nonlocality; a nontrivial solution is reported
as a witness, never as a proof of reducibility.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .states import DEFAULT_TOL, Bipartition, StateSet
from .states import _flat_index, _set_matrix

_SQRT2 = math.sqrt(2.0)

# Couplings and row entries at or below this carry no constraint beyond
# roundoff and are dropped: the rows come from unit-norm states, so one
# absolute cut serves every pair.
_ROW_DROP = 1e-12

# Largest side of a dense matrix the solver factors: the smaller side,
# min(m^2, N), of a tight set's reduced-state certificate (every check of a
# construction up to d = 18 is within it), or the m^2 unknowns of the Gram
# certificate and the fallback; no large sparse layout gets an identity or SVD
# basis it cannot hold.
_MAX_UNKNOWNS = 9**4

# Multiple of the floating-error bound that the Cholesky certificates of
# _gram_certifies_trivial and _reduced_states_certify_trivial subtract.
_CHOLESKY_C = 4.0


def _pair_slot(k: np.ndarray, l: np.ndarray, m: int) -> np.ndarray:
    """Slot of the upper-triangle pair (k, l), k < l, in :func:`_offdiagonal`."""
    return m + 2 * (k * m - k * (k + 1) // 2 + l - k - 1)


def _offdiagonal(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hermitian coordinate layout: upper-triangle pairs (k, l), k < l, in
    k-then-l order, and the slot of each, which holds its sqrt(2)-scaled real
    part with the imaginary part at slot + 1.  Slots 0..m-1 are the diagonal."""
    k, l = np.triu_indices(m, 1)
    return k, l, m + 2 * np.arange(k.size)


def hermitian_from_coords(v: Sequence[float], m: int) -> np.ndarray:
    """Inverse of :func:`coords_from_hermitian`."""
    v = np.asarray(v, dtype=float)
    k, l, slot = _offdiagonal(m)
    mat = np.diag(v[:m]).astype(complex)
    x = v[slot] / _SQRT2
    y = v[slot + 1] / _SQRT2
    mat[k, l] = x + 1j * y
    mat[l, k] = x - 1j * y
    return mat


def coords_from_hermitian(mat: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix: m diagonal entries, then
    sqrt(2)-scaled (re, im) per upper-triangle entry.

    The scaling makes the coordinate 2-norm equal the Frobenius norm, so an
    orthonormal coordinate basis maps to Frobenius-orthonormal matrices.
    """
    mat = np.asarray(mat, dtype=complex)
    m = mat.shape[0]
    if mat.shape != (m, m) or not np.allclose(mat, mat.conj().T):
        raise ValueError("expected a Hermitian matrix")
    k, l, slot = _offdiagonal(m)
    v = np.zeros(m * m)
    v[:m] = mat.diagonal().real
    v[slot] = mat[k, l].real * _SQRT2
    v[slot + 1] = mat[k, l].imag * _SQRT2
    return v


def identity_coords(m: int) -> np.ndarray:
    v = np.zeros(m * m)
    v[:m] = 1.0
    return v


class ConstraintSystem:
    """Real linear constraints of one check on the actor-side Hermitian element.

    Each state pair with nonvanishing coupling contributes a real and an
    imaginary row (:func:`_rows`), taken from the states each divided by its
    norm, so rescaling a state moves the rows by roundoff at most;
    identically zero rows are dropped.  The rows and ``n_coupled_pairs`` are
    built when first read, which only the rows fallback of
    :func:`certify_triviality` and :func:`solution_space` do.
    """

    def __init__(self, sset: StateSet, axes: list[int], m: int) -> None:
        self.m = m
        self.n_pairs = len(sset) * (len(sset) - 1) // 2
        self._sset, self._axes = sset, axes

    @functools.cached_property
    def _assembled(self) -> tuple[scipy.sparse.csr_matrix, int]:
        return _rows(self._sset, self._axes, self.m)

    @property
    def rows(self) -> scipy.sparse.csr_matrix:
        return self._assembled[0]

    @property
    def n_coupled_pairs(self) -> int:
        return self._assembled[1]


@dataclass(frozen=True)
class TrivialityVerdict:
    """Outcome of one (bipartition, actor) check.

    ``trivial`` iff the solution space is spanned by the identity.  When
    nontrivial, ``witness`` is a traceless unit-norm Hermitian solution, the
    one of :func:`_witness`, which depends on the solution space alone: for
    any such W, E = (W + lam*I)/c with lam > max|eig(W)| and c normalizing is
    a positive nontrivial element, and {E, I - E} is a valid measurement that
    preserves all pairwise orthogonalities.
    """

    trivial: bool
    solution_dim: int
    witness: np.ndarray | None

    @property
    def verdict(self) -> str:
        return "Trivial" if self.trivial else "Nontrivial"


@dataclass(frozen=True)
class CheckResult:
    cut: str
    actor: str
    verdict: TrivialityVerdict


@dataclass(frozen=True)
class NonlocalityReport:
    """All six (bipartition, actor) verdicts of a tripartite set."""

    checks: tuple[CheckResult, ...]
    strongly_nonlocal: bool

    def first_witness(self) -> tuple[CheckResult, np.ndarray] | None:
        for c in self.checks:
            if not c.verdict.trivial and c.verdict.witness is not None:
                return c, c.verdict.witness
        return None


def _resolve_actor(
    sset: StateSet, cut: Bipartition, actor: Sequence[str] | str
) -> tuple[str, ...]:
    if isinstance(actor, str):
        actor_set = {actor} if actor in sset.layout.parties else set(actor)
    else:
        actor_set = set(actor)
    if actor_set == set(cut.left):
        return cut.left
    if actor_set == set(cut.right):
        return cut.right
    raise ValueError(f"actor {actor!r} is not a side of bipartition {cut.name}")


def _actor_side(
    sset: StateSet, cut: Bipartition, actor: Sequence[str] | str
) -> tuple[int, list[int]]:
    """The actor side's dimension m and its axes in the layout."""
    cut.validate_for(sset.layout)
    actor_parties = _resolve_actor(sset, cut, actor)
    m = int(np.prod([sset.layout.dim_of(p) for p in actor_parties]))
    return m, [sset.layout.axis(p) for p in actor_parties]


def _tight_size(sset: StateSet) -> int | None:
    """N for a tight set, one whose N states touch exactly N cells, else None.

    N mutually orthogonal states span N dimensions and so touch at least N
    cells; a set of as many states as the total dimension (a basis) touches
    at most that many, and is tight without counting.  Any other set's cells
    are counted once (``StateSet._cell_count``)."""
    n = len(sset)
    return n if n == sset.layout.total_dim or sset._cell_count == n else None


def _check_unknowns(m: int, tight: int | None, check: str) -> None:
    """Refuse a check whose dense matrices the solver cannot take on.

    A check of a tight set of ``tight`` states N with m <= N is certified
    from its reduced states, at side min(m^2, N); any other check needs its
    m^2 unknowns.  A tight set with more actor indices than states leaves one
    uncovered, a free coordinate, so only its rows can decide the check."""
    if tight is not None and m <= tight and min(m * m, tight) <= _MAX_UNKNOWNS:
        return
    if m * m > _MAX_UNKNOWNS:
        raise ValueError(
            f"{check} has m^2 = {m * m} unknowns, above the solver limit of {_MAX_UNKNOWNS}"
        )


def _check_name(cut: Bipartition, actor: Sequence[str] | str) -> str:
    return f"check {cut.name}:{''.join(actor)}"


def _check_orthogonal(sset: StateSet, tol: float) -> None:
    """Refuse a set with a zero state or a pair of states that are not
    orthogonal, read off the Gram matrix of its unit states, which is formed
    once per set (``StateSet._unit_gram``); the first bad pair is found once
    per tolerance (``StateSet._nonorthogonal_pair``)."""
    zero = np.flatnonzero(sset._unit_gram[0].diagonal() == 0)
    if zero.size:
        raise ValueError(f"input state {sset.labels[zero[0]]} is the zero state")
    bad = sset._nonorthogonal_pair(tol)
    if bad is not None:
        raise ValueError(
            f"input set is not mutually orthogonal ({sset.labels[bad[0]]}, {sset.labels[bad[1]]})"
        )


def _rows(sset: StateSet, axes: list[int], m: int) -> tuple[scipy.sparse.csr_matrix, int]:
    """The constraint rows of one check, and the number of coupled pairs.

    With the set as a sparse matrix S of rows (state, actor index) and
    columns the other index, each state at norm one (:func:`_set_matrix`, an
    exact power of two first, so no product underflows or overflows),
    conj(S) S^T holds the m x m coupling block c[u, w] = <i|(|u><w| x I)|j>
    of every pair.  A pair i < j is coupled when an entry of its block is
    above ``_ROW_DROP``.  As <i|(E x I)|j> = sum c[u, w] E[u, w], its block
    folds into Hermitian coordinates: c[k, k] to coordinate k, and for k < l
    c[k, l] + c[l, k] to the slot of (k, l) and i (c[k, l] - c[l, k]) to
    slot + 1, both over sqrt(2).  Coupled pair p gives row 2p from the real
    parts and row 2p + 1 from the imaginary parts, each with its entries
    above ``_ROW_DROP``; empty rows are dropped.
    """
    n, mm = len(sset), m * m
    mat = _set_matrix(sset, axes, unit=True)
    blocks = (mat.conj() @ mat.T).tocoo()
    upper = np.flatnonzero(blocks.row // m < blocks.col // m)
    (i, u), (j, w) = np.divmod(blocks.row[upper], m), np.divmod(blocks.col[upper], m)
    c = blocks.data[upper]
    del blocks, upper  # the product is the largest array here; fold without it
    # entry (u, w) of pair (i, j) is keyed by the pair, the row (real, then
    # imaginary) and the slot of (min(u, w), max(u, w)), where (w, u) meets
    # it; slot + 1 takes it with the sign of w - u, zero on the diagonal
    sign = np.sign(w - u)
    slot = np.where(sign == 0, u, _pair_slot(np.minimum(u, w), np.maximum(u, w), m))
    key = (i.astype(np.int64) * n + j) * (2 * mm) + slot
    del i, j, u, w, slot
    key = np.concatenate([key, key + mm])
    order = np.argsort(key, kind="stable")  # timsort, on runs of the product order
    key = key[order]
    # its values at slot and at slot + 1 in the real row, then the imaginary row
    at_slot = np.concatenate([c.real, c.imag])[order]
    at_next = np.concatenate([-sign * c.imag, sign * c.real])[order]
    strong = np.tile(np.abs(c) > _ROW_DROP, 2)[order]
    del c, sign, order
    pair_first = np.diff(key // (2 * mm), prepend=-1) != 0
    coupled = np.logical_or.reduceat(strong, np.flatnonzero(pair_first))
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    vals = np.empty((starts.size, 2))
    np.add.reduceat(at_slot, starts, out=vals[:, 0])
    np.add.reduceat(at_next, starts, out=vals[:, 1])
    del at_slot, at_next, strong
    live = coupled[np.cumsum(pair_first)[starts] - 1]
    key = key[starts]
    slot = (key % mm).astype(np.int32)
    vals /= np.where(slot < m, 1.0, _SQRT2)[:, None]
    big = (np.abs(vals) > _ROW_DROP) & live[:, None]
    # the entries up to the end of each row, with each empty row dropped
    ends = np.flatnonzero(np.diff(key // mm, append=-1))
    indptr = np.r_[0, np.cumsum(big[:, 0].astype(np.int64) + big[:, 1])[ends]]
    indptr = indptr[np.diff(indptr, prepend=-1) > 0]
    indices = (slot[:, None] + np.arange(2, dtype=np.int32))[big]
    rows = scipy.sparse.csr_matrix((vals[big], indices, indptr), shape=(indptr.size - 1, mm))
    return rows, int(coupled.sum())


def _reduced_coords(sset: StateSet, axes: list[int], m: int) -> scipy.sparse.csr_matrix:
    """The m^2 x N matrix whose column s holds the Hermitian coordinates of
    the reduced state rho_s of unit state s on ``axes``.  One sparse product
    with rows (state, actor index) and columns (state, other index) forms
    only each state's own coupling block c_ss = conj(rho_s), so rho_s[u, w],
    u < w, has real part Re c_ss[u, w] and imaginary part -Im c_ss[u, w]."""
    mat = _set_matrix(sset, axes, unit=True, per_state=True)
    blocks = (mat.conj() @ mat.T).tocoo()
    state, u = np.divmod(blocks.row, m)
    w = blocks.col % m
    own = np.flatnonzero(u <= w)
    c, state, u, w = blocks.data[own], state[own], u[own], w[own]
    diag = u == w
    off = ~diag
    slot = _pair_slot(u[off], w[off], m)
    return scipy.sparse.csr_matrix(
        (
            np.concatenate([c.real[diag], _SQRT2 * c.real[off], -_SQRT2 * c.imag[off]]),
            (np.concatenate([u[diag], slot, slot + 1]),
             np.concatenate([state[diag], state[off], state[off]])),
        ),
        shape=(m * m, len(sset)),
    )


def _coverage(sset: StateSet, axes: list[int], m: int) -> np.ndarray:
    """h, per Hermitian coordinate of the actor side: the number of indices v
    on the other side whose cells (u, v) and (w, v) the set both touches, with
    (u, w) = (u, u) for diagonal coordinate u and (k, l) for both slots of the
    pair (k, l).  For the 0/1 coverage matrix C (m x rest) of the touched
    cells these counts are C C^T; for a basis every one is r = D / m,
    without counting."""
    if len(sset) == sset.layout.total_dim:
        return np.full(m * m, len(sset) / m)
    dims = sset.layout.dims
    idx = sset.term_arrays[1]
    rest = [a for a in range(len(dims)) if a not in axes]
    cover = scipy.sparse.csr_matrix(
        (np.ones(len(idx)), (_flat_index(idx, dims, axes), _flat_index(idx, dims, rest))),
        shape=(m, sset.layout.total_dim // m),
    )
    cover.data[:] = 1.0  # a cell that several states touch counts once
    counts = (cover @ cover.T).toarray()
    k, l, slot = _offdiagonal(m)
    h = np.empty(m * m)
    h[:m] = counts.diagonal()
    h[slot] = h[slot + 1] = counts[k, l]
    return h


def assemble_constraints(
    sset: StateSet,
    cut: Bipartition,
    actor: Sequence[str] | str,
    tol: float = DEFAULT_TOL,
) -> ConstraintSystem:
    """The orthogonality-preservation constraints of one actor side.

    The unknown is an m x m Hermitian element on the actor side (m = product
    of the actor dims).  The set is first checked for a zero state and for
    pairwise orthogonality at ``tol``; the rows are built when first read.
    """
    m, axes = _actor_side(sset, cut, actor)
    _check_orthogonal(sset, tol)
    return ConstraintSystem(sset, axes, m)


def _nullspace(rows: scipy.sparse.csr_matrix, dim: int, tol: float) -> np.ndarray:
    """Orthonormal nullspace basis (columns) of a tall sparse row matrix.

    Large systems are first compacted blockwise with QR, which preserves the
    singular values exactly, keeping the final SVD at dim x dim.
    """
    n_rows = rows.shape[0]
    if n_rows == 0:
        return np.eye(dim)
    if n_rows <= 3 * dim:
        dense = rows.toarray()
    else:
        block = 3 * dim
        acc: np.ndarray | None = None
        for start in range(0, n_rows, block):
            chunk = rows[start : start + block].toarray()
            stacked = chunk if acc is None else np.vstack([acc, chunk])
            r = scipy.linalg.qr(stacked, mode="r", check_finite=False)[0]
            acc = r[: min(dim, r.shape[0])]
        dense = acc
    svals, vt = np.linalg.svd(dense, full_matrices=True)[1:]
    if svals.size == 0 or svals[0] == 0:
        return np.eye(dim)
    rank = int(np.sum(svals > tol * svals[0]))
    return vt[rank:].T


def _reduced_states_certify_trivial(sset: StateSet, axes: list[int], m: int, tol: float) -> bool:
    """Whether one Cholesky factorisation built from the reduced states of a
    tight set (:func:`_tight_size`) on ``axes`` proves that the identity is
    the only solution of its check.

    Let the N states psi_i, each taken at norm one, touch exactly N cells,
    with Gram matrix G = I + Delta, delta = ||Delta||_F, P = sum_i
    |psi_i><psi_i|, Pi the diagonal projector onto the touched cells, rho_i
    the reduced state of psi_i on the actor side, M the m^2 x N matrix of
    their coordinates, h the coverage of :func:`_coverage` with extremes
    h_min and h_max (h = r = D / m throughout for a basis) and i the unit
    identity coordinate vector.  For a Hermitian E with coordinates x and
    X = E (x) I, the rows give

        2 ||R x||^2 = sum_{i != j} |<i|X|j>|^2 = tr(X P X P) - ||M^T x||^2,

    and for an orthonormal set (P = Pi) tr(X Pi X Pi) = sum_c h_c x_c^2, so
    2 R^T R = Diag(h) - M M^T.  P restricted to the touched cells has the
    spectrum of G, so ||P - Pi||_2 <= delta, and with P = Pi + Q and
    Y = Pi X Pi, tr(X P X P) - tr(Y^2) = 2 tr(Y^2 Q) + tr(Y Q Y Q) is at most
    (2 delta + delta^2) h_max ||x||^2 in size.  Hence 2 R^T R >= Diag(h) -
    M M^T - (2 delta + delta^2) h_max I, and lambda_max(R^T R) <=
    (1 + delta)^2 h_max / 2 =: lambda.  A coordinate with h_c = 0 is free, as
    no pair's block reaches it, so such a check is not trivial and declined.

    The rho_i sum to the partial trace of Pi, with coordinates sqrt(m)
    Diag(h) i, and M^T i = 1 / sqrt(m) (each rho_i has trace one), so i is a
    null vector of Diag(h) - M M^T; with D = Diag(h), the all-ones vector
    1 = sqrt(m) M^T i is one of I - M^T D^-1 M.  The smaller side
    n_f = min(m^2, N) is factored once, shifted by s, with that null vector
    lifted by a rank-one term:

        Diag(h) - M M^T + h_max i i^T - s I          when m^2 <= N (one-party checks),
        h_min (I - M^T D^-1 M + (1/N) 1 1^T) - s I    otherwise,

    the second being r I - M^T M + (1/m) 1 1^T - s I for h = r.  A positive
    rank-one term moves at most one eigenvalue past 0 (interlacing), so
    success means that the matrix without it has at most one eigenvalue at
    or below -e, with e the floating error below.  On the m^2 side Diag(h) - M M^T then
    has at most one eigenvalue at or below s - e.  On the N side, with
    K = D^(-1/2) M and sigma = (s - e) / h_min < 1, so does I - K^T K at or
    below sigma; K^T K and K K^T share their eigenvalues above 1 - sigma > 0,
    so I - K K^T does too.  By Sylvester's law of inertia D - M M^T - sigma D
    then has at most one eigenvalue at or below 0, and so has Diag(h) -
    M M^T - (s - e) I, which is at least that matrix.  Either way
    lambda_2(R^T R) > (s - e - (2 delta + delta^2) h_max) / 2.

    The rows R' that :func:`_nullspace` reads differ from the exact rows R
    of the unit states by the entries dropped at ``_ROW_DROP`` = p (at most
    N^2 m^2 values, none above sqrt(2) p) and by rounding, in all at most
    eta = sqrt(2) p N m + 6 (h_max + 2) eps N in 2-norm.  With

        s = c [(2 delta + delta^2) h_max + 2 tol^2 lambda + 2 (1 + tol)^2 eta^2 + e],

    and c = 4, lambda_2(R^T R) > 2 tol^2 lambda + 2 (1 + tol)^2 eta^2 >=
    (tol sigma_max(R) + (1 + tol) eta)^2, so sigma_2(R') >= sigma_2(R) -
    eta > tol (sigma_max(R) + eta) >= tol sigma_max(R').  To first order in
    eps, e covers forming M from the per-state product (each column within
    3 (h_max + 2) eps, as an entry of rho_i sums at most h_max products,
    which moves M M^T by at most 6 (1 + delta) (h_max + 2) h_max sqrt(m) eps
    in 2-norm), forming the product of M with itself (k eps N, with
    k = m^2 + N - n_f its inner length, as ||M||_F^2 <= N, and 2 eps N more
    on the N side for the weights h_min / h, each one rounded quotient of
    integers), adding the other terms (8 h_max eps) and a Cholesky
    factorisation that runs to completion, exact for a matrix within
    (n_f + 1) eps tr <= 2 n_f (n_f + 1) h_max eps (Demmel's bound); delta
    itself is read from the computed G, each entry the inner product of two
    computed unit states of at most N terms and so within g = 2 (N + 3) eps,
    and is raised by g N.  So success proves that sigma_2(R') is above the
    rank cut of :func:`_nullspace`.

    The identity must also pass that cut, and this too is read off G and M
    without the rows.  Its coordinates meet each pair's block in its trace, so ||R i||^2 =
    sum_{i<j} |G_ij|^2 / m, and the root of that sum is read from the
    computed G and raised by g N.  As R has m^2 columns, sigma_max(R)^2 >=
    ||R||_F^2 / m^2, and the trace of the bound on 2 R^T R above gives
    2 ||R||_F^2 >= (1 - 2 delta - delta^2) sum_c h_c - ||M||_F^2, where
    ||M||_F^2 is raised by (6 (h_max + 2) + nnz(M)) N eps for the error of M
    and of its sum.  ||R i|| <= tol sigma_max(R) holds if the first bound is
    at most tol^2 times the second over m^2; if not, the answer is left to
    the other certificate and the full pipeline.  This is shown for the exact
    rows R: R' differs from them by up to eta, which at tol = 1e-9 is larger
    than tol sigma_max, so the entries dropped at ``_ROW_DROP`` are taken as
    the roundoff they stand for, as the orthogonality check takes them.
    """
    n = len(sset)
    side = min(m * m, n)
    h = _coverage(sset, axes, m)
    low, high = float(h.min()), float(h.max())
    if side > _MAX_UNKNOWNS or low == 0:
        return False
    eps = np.finfo(float).eps
    gram_error = 2 * (n + 3) * eps * n
    deviation, overlap = sset._unit_gram[1:]
    delta = deviation + gram_error
    eta = _SQRT2 * _ROW_DROP * n * m + 6 * (high + 2) * eps * n
    error = eps * (
        6 * (1 + delta) * (high + 2) * high * math.sqrt(m)
        + (m * m + n - side + 2) * n
        + 8 * high
        + 2 * side * (side + 1) * high
    )
    shift = _CHOLESKY_C * (
        (2 * delta + delta * delta) * high
        + tol * tol * (1 + delta) ** 2 * high
        + 2 * (1 + tol) ** 2 * eta * eta
        + error
    )
    if not shift < low:
        return False
    reduced = _reduced_coords(sset, axes, m)
    mass = float(np.dot(reduced.data, reduced.data)) + (6 * (high + 2) + reduced.nnz) * eps * n
    floor = ((1 - 2 * delta - delta * delta) * float(h.sum()) - mass) / (2 * m * m)
    overlap += gram_error
    if not overlap * overlap / m <= tol * tol * floor:
        return False
    # Fortran order lets LAPACK factor the matrix in place
    if side == m * m:
        dense = (reduced @ reduced.T).toarray(order="F")
        dense *= -1.0
        dense[:m, :m] += high / m
        dense.flat[:: side + 1] += h - shift
    else:
        weighted = reduced  # the rows of M times h_min / h, all 1 for a basis
        if low < high:
            weighted = reduced.copy()
            weighted.data *= np.repeat(low / h, np.diff(reduced.indptr))
        dense = (reduced.T @ weighted).toarray(order="F")
        dense *= -1.0
        dense += low / n
        dense.flat[:: side + 1] += low - shift
    try:
        scipy.linalg.cholesky(dense, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def _gram_certifies_trivial(rows: scipy.sparse.csr_matrix, m: int, tol: float) -> bool:
    """Whether a Cholesky factorisation of the rows' Gram matrix proves the
    identity is the only solution.

    With R the rows, n = m^2 unknowns (at most the solver limit), F =
    ||R||_F^2, k the most nonzeros in one column of R, i the unit identity
    coordinate vector and c = 4, the matrix

        A = R^T R + F i i^T - tau I,   tau = c max((n + k + 8) eps, tol^2) F,

    is factored.  The rows come from unit-norm states, so it does not depend
    on the state norms.  To first order in eps, forming R^T R errs by at most
    k eps F in 2-norm, adding F i i^T and subtracting the shift by 12 eps F,
    and a Cholesky factorisation that runs to completion is exact for a
    matrix within (n + 1) eps tr <= 2 (n + 1) eps F of the one factored
    (Demmel's bound).  The sum (2 n + k + 14) eps F is below
    3 (n + k + 8) eps F <= 3 tau / 4, so success proves that the exact A has
    no eigenvalue below -3 tau / 4: every unit v orthogonal to i has
    ||R v||^2 > tau / 4 >= tol^2 F = tol^2 ||R||_F^2 >= tol^2
    sigma_max(R)^2.  (For n = 1 there is no such v.)  The second-smallest
    singular value of R is then above the rank cut of :func:`_nullspace`, so
    at most one direction survives it.  The identity must also pass that cut,
    ||R i|| <= tol times the largest column norm of R (a lower bound on
    sigma_max), or the answer is left to the full pipeline.
    """
    n = m * m
    fro2 = float(np.dot(rows.data, rows.data))
    if not 0.0 < fro2 < math.inf:
        return False
    gram = rows.T @ rows
    # the largest squared column norm bounds sigma_max^2 from below
    residual = rows @ identity_coords(m)
    if not float(np.dot(residual, residual)) / m <= tol * tol * float(gram.diagonal().max()):
        return False
    k = int(np.bincount(rows.indices, minlength=n).max())
    tau = _CHOLESKY_C * max((n + k + 8) * np.finfo(float).eps, tol * tol) * fro2
    # Fortran order lets LAPACK factor the matrix in place
    dense = gram.toarray(order="F")
    del gram
    dense[:m, :m] += fro2 / m
    dense.flat[:: n + 1] -= tau
    try:
        scipy.linalg.cholesky(dense, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def _solve(
    rows: scipy.sparse.csr_matrix, m: int, tol: float, check: str = "constraint system"
) -> np.ndarray:
    """Orthonormal nullspace basis (columns, in coordinates) of constraint
    rows on m^2 unknowns: exactly the unit identity when the Cholesky test of
    the rows' Gram matrix certifies them, else the blockwise QR/SVD of all
    the rows.  Both need the m^2 x m^2 matrix within the solver limit."""
    _check_unknowns(m, None, check)
    if _gram_certifies_trivial(rows, m, tol):
        return identity_coords(m)[:, None] / math.sqrt(m)
    return _nullspace(rows, m * m, tol)


def solution_space(cs: ConstraintSystem, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Frobenius-orthonormal Hermitian basis of the constraint nullspace: the
    identity over sqrt(m) alone when the Cholesky test of the rows' Gram
    matrix decides the system, else the SVD basis of :func:`_nullspace`,
    which is fixed only up to a rotation within the space (:func:`_witness`
    is not)."""
    basis = _solve(cs.rows, cs.m, tol)
    return [hermitian_from_coords(basis[:, k], cs.m) for k in range(basis.shape[1])]


def _witness(basis: np.ndarray, m: int) -> np.ndarray | None:
    """The unit-norm solution along (I - i i^T) V V^T p, with V the orthonormal
    ``basis`` (columns), i the unit identity coordinate vector and the fixed
    probe p_k = sin(k + 1); None if that part is negligible.

    V V^T projects onto the solution space, so the witness depends on that
    space alone and not on the basis the solver returns; as i solves the
    system, it lies along (V V^T - i i^T) p, and it is traceless.  No nonzero
    vector with algebraic entries is orthogonal to p (Lindemann-Weierstrass),
    so p has a part in every exact solution space beyond the identity.
    """
    ident = identity_coords(m) / math.sqrt(m)
    probe = np.sin(np.arange(1.0, m * m + 1))
    v = basis @ (basis.T @ probe)
    v -= np.dot(ident, v) * ident
    nrm = np.linalg.norm(v)
    return hermitian_from_coords(v / nrm, m) if nrm > 1e-6 * np.linalg.norm(probe) else None


def certify_triviality(
    sset: StateSet,
    cut: Bipartition,
    actor: Sequence[str] | str,
    tol: float = DEFAULT_TOL,
) -> TrivialityVerdict:
    """Decide whether every orthogonality-preserving element on ``actor`` is trivial.

    The verdict is Trivial exactly when the Hermitian solution space is
    one-dimensional (the identity direction, which is always a solution for a
    mutually orthogonal input set).  When nontrivial, the witness is the
    solution :func:`_witness` takes from the solution space; see
    :class:`TrivialityVerdict` for why a witness always yields a valid
    nontrivial measurement.

    The set is checked (:func:`assemble_constraints`) before anything else.
    A tight set is then offered to the reduced-state certificate, one
    Cholesky factorisation of side min(m^2, N) that needs no rows; any other
    set, and a check that certificate declines, goes to :func:`_solve` on its
    rows.  That needs the m^2 x m^2 matrix within the solver limit, so a
    declined check above it stops before its rows are built.
    """
    name = _check_name(cut, actor)
    m, axes = _actor_side(sset, cut, actor)
    tight = _tight_size(sset)
    _check_unknowns(m, tight, name)
    cs = assemble_constraints(sset, cut, actor, tol)
    if tight is not None and _reduced_states_certify_trivial(sset, axes, m, tol):
        return TrivialityVerdict(trivial=True, solution_dim=1, witness=None)
    if m * m > _MAX_UNKNOWNS:
        raise ValueError(
            f"{name} has m^2 = {m * m} unknowns, and the reduced-state certificate did not "
            f"certify it: the dense fallback is above the solver limit of {_MAX_UNKNOWNS}"
        )
    basis = _solve(cs.rows, m, tol, name)
    dim = basis.shape[1]
    if dim == 1:
        return TrivialityVerdict(trivial=True, solution_dim=1, witness=None)
    return TrivialityVerdict(trivial=False, solution_dim=int(dim), witness=_witness(basis, m))


def standard_checks(layout) -> list[tuple[Bipartition, tuple[str, ...]]]:
    """The six (bipartition, actor) checks of a tripartite layout."""
    if len(layout.parties) != 3:
        raise ValueError("strong nonlocality checks are defined for three parties")
    checks = []
    for p in layout.parties:
        cut = Bipartition.of(layout, [p])
        checks.append((cut, cut.left))
        checks.append((cut, cut.right))
    return checks


def verify_strong_nonlocality(sset: StateSet, tol: float = DEFAULT_TOL) -> NonlocalityReport:
    """Run all six checks; strongly nonlocal iff every verdict is Trivial.

    Triviality everywhere is a sufficient criterion: the report should be read
    as "certified" vs "not certified (nontrivial witness found)".  Every
    check's size is tested against the solver limit before any is assembled.
    """
    checks = standard_checks(sset.layout)
    tight = _tight_size(sset)
    for cut, actor in checks:
        _check_unknowns(_actor_side(sset, cut, actor)[0], tight, _check_name(cut, actor))
    results = [
        CheckResult(cut.name, "".join(actor), certify_triviality(sset, cut, actor, tol))
        for cut, actor in checks
    ]
    return NonlocalityReport(
        checks=tuple(results),
        strongly_nonlocal=all(r.verdict.trivial for r in results),
    )
