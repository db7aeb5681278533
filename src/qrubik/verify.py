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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .states import DEFAULT_TOL, Bipartition, StateSet
from .states import _first_nonorthogonal_pair, _set_matrix

_SQRT2 = math.sqrt(2.0)

# Rows whose largest coefficient falls below this (relative to the product of
# the two state norms) carry no constraint beyond roundoff and are dropped.
_ROW_DROP = 1e-12

# Most unknowns m^2 the dense solver takes on: every check up to d = 9 runs, and
# no large sparse layout gets an m^2 x m^2 identity or SVD basis it cannot hold.
_MAX_UNKNOWNS = 9**4

# Multiple of the floating-error bound that the Cholesky certificate of
# _gram_certifies_trivial subtracts from the Gram matrix.
_CHOLESKY_C = 4.0


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


def _fold(m: int) -> scipy.sparse.csr_matrix:
    """Sparse (m^2 x m^2) map from a flattened coupling block c to Hermitian
    coordinates: c[k, k] to slot k, c[k, l] + c[l, k] to the pair's slot and
    i (c[k, l] - c[l, k]) to slot + 1.  As <i|(E x I)|j> = sum c[u, w] E[u, w],
    the real and imaginary parts, off the diagonal over sqrt(2), are two rows."""
    k, l, slot = _offdiagonal(m)
    diag = np.arange(m)
    src = np.concatenate([diag * (m + 1), k * m + l, l * m + k, k * m + l, l * m + k])
    dst = np.concatenate([diag, slot, slot, slot + 1, slot + 1])
    val = np.concatenate([np.ones(m + 2 * k.size), np.full(k.size, 1j), np.full(k.size, -1j)])
    return scipy.sparse.csr_matrix((val, (src, dst)), shape=(m * m, m * m))


def identity_coords(m: int) -> np.ndarray:
    v = np.zeros(m * m)
    v[:m] = 1.0
    return v


@dataclass(frozen=True)
class ConstraintSystem:
    """Real linear constraints on the actor-side Hermitian element.

    Each state pair with nonvanishing coupling contributes a real and an
    imaginary row; identically zero rows are dropped.  ``provenance`` records
    the generating pair labels per row.
    """

    m: int
    rows: scipy.sparse.csr_matrix
    provenance: tuple[tuple[str, str], ...]
    n_pairs: int
    n_coupled_pairs: int


@dataclass(frozen=True)
class TrivialityVerdict:
    """Outcome of one (bipartition, actor) check.

    ``trivial`` iff the solution space is spanned by the identity.  When
    nontrivial, ``witness`` is a traceless unit-norm Hermitian solution: for
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


def _check_unknowns(m: int, check: str) -> None:
    """Refuse a check whose m^2 unknowns the dense solver cannot take on."""
    if m * m > _MAX_UNKNOWNS:
        raise ValueError(
            f"{check} has m^2 = {m * m} unknowns, above the solver limit "
            f"of {_MAX_UNKNOWNS} (local dimension 9)"
        )


def _check_name(cut: Bipartition, actor: Sequence[str] | str) -> str:
    return f"check {cut.name}:{''.join(actor)}"


def _coupled_blocks(
    sset: StateSet, axes: list[int], m: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, scipy.sparse.csr_matrix]:
    """Pairs i < j whose m x m coupling block c[u, w] = <i|(|u><w| x I)|j> has
    an entry above ``_ROW_DROP`` times the two norms: (i, j), that scale, and
    the blocks folded by :func:`_fold`, as rows.  One sparse product holds every
    block, and the block traces are the Gram matrix the orthogonality check reads.
    """
    n = len(sset)
    mat = _set_matrix(sset, axes)
    blocks = (mat.conj() @ mat.T).tocoo()
    i, u = np.divmod(blocks.row, m)
    j, w = np.divmod(blocks.col, m)
    trace = u == w
    gram = scipy.sparse.csr_matrix((blocks.data[trace], (i[trace], j[trace])), shape=(n, n))
    bad = _first_nonorthogonal_pair(gram, tol)
    if bad is not None:
        raise ValueError(
            f"input set is not mutually orthogonal ({sset[bad[0]].label}, {sset[bad[1]].label})"
        )
    norms = np.sqrt(gram.diagonal().real)
    upper = i < j
    pairs, pair_of = np.unique(i[upper].astype(np.int64) * n + j[upper], return_inverse=True)
    coupled = scipy.sparse.csr_matrix(
        (blocks.data[upper], (pair_of, u[upper] * m + w[upper])), shape=(pairs.size, m * m)
    )
    del blocks, i, u, j, w  # the product is the largest array here; fold without it
    first, second = np.divmod(pairs, n)
    scale = _ROW_DROP * norms[first] * norms[second]
    keep = np.maximum.reduceat(np.abs(coupled.data), coupled.indptr[:-1]) > scale
    return first[keep], second[keep], scale[keep], coupled[keep] @ _fold(m)


def _real_rows(
    folded: scipy.sparse.csr_matrix, m: int, scale: np.ndarray
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Rows 2p and 2p + 1 from the real and imaginary part of folded block p,
    keeping the entries above its scale; returns the nonempty rows and their p."""
    folded.sort_indices()
    pair = np.repeat(np.arange(folded.shape[0]), np.diff(folded.indptr))
    vals = np.concatenate([folded.data.real, folded.data.imag])
    cols = np.tile(folded.indices, 2)
    vals[cols >= m] /= _SQRT2
    big = (np.abs(vals).reshape(2, -1) > scale[pair]).ravel()
    vals, cols = vals[big], cols[big]
    # now the row of each entry: the grouping into rows is stable, so each
    # row keeps its columns in order
    pair = np.concatenate([2 * pair, 2 * pair + 1])[big]
    rows = scipy.sparse.csr_matrix((vals, (pair, cols)), shape=(2 * folded.shape[0], m * m))
    filled = np.flatnonzero(np.diff(rows.indptr))
    indptr = rows.indptr[np.r_[0, filled + 1]]
    rows = scipy.sparse.csr_matrix((rows.data, rows.indices, indptr), shape=(filled.size, m * m))
    return rows, filled // 2


def assemble_constraints(
    sset: StateSet,
    cut: Bipartition,
    actor: Sequence[str] | str,
    tol: float = DEFAULT_TOL,
) -> ConstraintSystem:
    """Build the orthogonality-preservation constraint rows for one actor side.

    The unknown is an m x m Hermitian element on the actor side (m = product
    of the actor dims).  Each coupled state pair's block, folded into
    Hermitian coordinates, gives a real and an imaginary row, in pair order.
    """
    m, axes = _actor_side(sset, cut, actor)
    first, second, scale, folded = _coupled_blocks(sset, axes, m, tol)
    rows, row_pair = _real_rows(folded, m, scale)
    labels = sset.labels
    pairs = [(labels[i], labels[j]) for i, j in zip(first.tolist(), second.tolist())]
    return ConstraintSystem(
        m=m,
        rows=rows,
        provenance=tuple(pairs[p] for p in row_pair.tolist()),
        n_pairs=len(sset) * (len(sset) - 1) // 2,
        n_coupled_pairs=len(pairs),
    )


def _dedup_rows(rows: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    """Drop rows that duplicate another up to scale (direction-level dedup)."""
    seen = set()
    keep = []
    indptr, indices, data = rows.indptr, rows.indices, rows.data
    for r in range(rows.shape[0]):
        lo, hi = indptr[r], indptr[r + 1]
        cols = indices[lo:hi]
        vals = data[lo:hi]
        peak = np.max(np.abs(vals))
        scaled = vals / peak
        if scaled[0] < 0:
            scaled = -scaled
        key = (tuple(cols.tolist()), tuple(np.round(scaled, 12).tolist()))
        if key not in seen:
            seen.add(key)
            keep.append(r)
    if len(keep) == rows.shape[0]:
        return rows
    return rows[keep]


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


def _gram_certifies_trivial(rows: scipy.sparse.csr_matrix, m: int, tol: float) -> bool:
    """Whether one Cholesky factorisation proves the identity is the only solution.

    With R the rows, n = m^2 unknowns, F = ||R||_F^2, k the most nonzeros in
    one column of R, i the unit identity coordinate vector and c = 4, the
    dense matrix

        A = R^T R + F i i^T - tau I,    tau = c max((n + k) eps, tol^2) F,

    is factored once.  To first order in eps, forming R^T R errs by at most
    k eps F in 2-norm (each entry sums at most k products), adding F i i^T and
    subtracting tau by at most 4 eps F, and a Cholesky factorisation that
    runs to completion is exact for a matrix within (n + 1) eps tr(A) <=
    2 (n + 1) eps F of the one factored (Demmel's bound).  For n >= 4 the sum
    (2 n + k + 6) eps F is at most 3 (n + k) eps F <= 3 tau / 4, so success
    proves that the exact A has no eigenvalue below -3 tau / 4: every unit v
    orthogonal to i has ||R v||^2 > tau / 4 >= tol^2 F >= tol^2 sigma_max^2.
    (For n = 1 there is no such v.)  The second-smallest singular value of R
    is then above the rank cut of :func:`_nullspace`, so at most one direction
    survives it.  The identity must also pass that cut, ||R i|| <= tol times
    the largest column norm of R (a lower bound on sigma_max), or the answer
    is left to the full pipeline.  Duplicate rows add no direction to R^T R,
    so it is formed from the rows as assembled.  On the cube constructions
    at d = 3..8 the second-smallest eigenvalue of R^T R is 0.02-0.35 of the
    largest, and tau at most 1.3e-8 of it.
    """
    n = m * m
    fro2 = float(np.dot(rows.data, rows.data))
    if fro2 == 0.0:
        return False
    # Fortran order lets LAPACK factor the matrix in place
    gram = (rows.T @ rows).toarray(order="F")
    residual = rows @ identity_coords(m)
    if float(np.dot(residual, residual)) / m > tol * tol * float(gram.diagonal().max()):
        return False
    k = int(np.bincount(rows.indices, minlength=n).max())
    tau = _CHOLESKY_C * max((n + k) * np.finfo(float).eps, tol * tol) * fro2
    gram[:m, :m] += fro2 / m
    gram.flat[:: n + 1] -= tau
    try:
        scipy.linalg.cholesky(gram, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def _solve(
    cs: ConstraintSystem, tol: float, check: str = "constraint system"
) -> np.ndarray:
    """Orthonormal nullspace basis (columns, in coordinates) of a constraint system.

    A system the Cholesky test certifies trivial gets exactly the unit
    identity; any other goes through row dedup and the blockwise QR/SVD.
    """
    _check_unknowns(cs.m, check)
    if _gram_certifies_trivial(cs.rows, cs.m, tol):
        return identity_coords(cs.m)[:, None] / math.sqrt(cs.m)
    return _nullspace(_dedup_rows(cs.rows), cs.m * cs.m, tol)


def solution_space(cs: ConstraintSystem, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Frobenius-orthonormal Hermitian basis of the constraint nullspace."""
    basis = _solve(cs, tol)
    return [hermitian_from_coords(basis[:, k], cs.m) for k in range(basis.shape[1])]


def certify_triviality(
    sset: StateSet,
    cut: Bipartition,
    actor: Sequence[str] | str,
    tol: float = DEFAULT_TOL,
) -> TrivialityVerdict:
    """Decide whether every orthogonality-preserving element on ``actor`` is trivial.

    The verdict is Trivial exactly when the Hermitian solution space is
    one-dimensional (the identity direction, which is always a solution for a
    mutually orthogonal input set).  When nontrivial, the witness is the first
    nullspace basis element with the identity direction projected out,
    normalized to unit Frobenius norm; see :class:`TrivialityVerdict` for why
    a witness always yields a valid nontrivial measurement.
    """
    name = _check_name(cut, actor)
    _check_unknowns(_actor_side(sset, cut, actor)[0], name)
    cs = assemble_constraints(sset, cut, actor, tol)
    basis = _solve(cs, tol, name)
    dim = basis.shape[1]
    if dim == 1:
        return TrivialityVerdict(trivial=True, solution_dim=1, witness=None)
    ident = identity_coords(cs.m) / math.sqrt(cs.m)
    witness = None
    for k in range(dim):
        v = basis[:, k]
        v = v - np.dot(ident, v) * ident
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            witness = hermitian_from_coords(v / nrm, cs.m)
            break
    return TrivialityVerdict(trivial=False, solution_dim=int(dim), witness=witness)


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
    for cut, actor in checks:
        _check_unknowns(_actor_side(sset, cut, actor)[0], _check_name(cut, actor))
    results = [
        CheckResult(
            cut=cut.name,
            actor="".join(actor),
            verdict=certify_triviality(sset, cut, actor, tol),
        )
        for cut, actor in checks
    ]
    return NonlocalityReport(
        checks=tuple(results),
        strongly_nonlocal=all(r.verdict.trivial for r in results),
    )
