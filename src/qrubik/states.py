"""Sparse multiparty pure states: layouts, inner products, flattening, set validation.

States are kept unnormalized throughout; probabilities are always computed as
Born-rule ratios, so normalization only ever happens inside the simulator.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import gc
import json
import math
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse

DEFAULT_TOL = 1e-9

Index = tuple[int, ...]


@dataclass(frozen=True)
class PartyLayout:
    """Ordered parties with local dimensions, the tensor factors of the joint space."""

    parties: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parties", tuple(self.parties))
        object.__setattr__(self, "dims", _integers(self.dims, "local dimensions"))
        if not self.parties:
            raise ValueError("layout needs at least one party")
        if len(self.parties) != len(self.dims):
            raise ValueError("parties and dims must have equal length")
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("party labels must be distinct")
        if any(d < 1 for d in self.dims):
            raise ValueError("every local dimension must be >= 1")

    @classmethod
    def uniform(cls, parties: Sequence[str], dim: int) -> "PartyLayout":
        return cls(tuple(parties), tuple(dim for _ in parties))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.parties.index(label)
        except ValueError:
            raise KeyError(f"unknown party {label!r}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]


@dataclass(frozen=True)
class Bipartition:
    """A split of the parties into two nonempty complementary groups."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if not self.left or not self.right:
            raise ValueError("both sides of a bipartition must be nonempty")
        if set(self.left) & set(self.right):
            raise ValueError("bipartition sides must be disjoint")

    @classmethod
    def of(cls, layout: PartyLayout, left: Iterable[str]) -> "Bipartition":
        """Bipartition with the given left side; both sides keep layout order."""
        left_set = set(left)
        unknown = left_set - set(layout.parties)
        if unknown:
            raise ValueError(f"unknown parties {sorted(unknown)} in bipartition")
        l = tuple(p for p in layout.parties if p in left_set)
        r = tuple(p for p in layout.parties if p not in left_set)
        return cls(l, r)

    def validate_for(self, layout: PartyLayout) -> None:
        if set(self.left) | set(self.right) != set(layout.parties):
            raise ValueError(
                f"bipartition {self.name} does not cover layout parties {layout.parties}"
            )

    @property
    def name(self) -> str:
        return "".join(self.left) + "|" + "".join(self.right)


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as ints; a value that is not equal to an int (a fraction,
    a string, a non-finite number) is refused, not truncated."""
    given = tuple(values)
    try:
        ints = tuple(int(v) for v in given)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != given:
        raise ValueError(f"{what} must be integers, got {list(given)}")
    return ints


def _checked_index(layout: PartyLayout, idx: Sequence[int]) -> Index:
    """``idx`` as a tuple of ints, refused unless it is a multi-index of ``layout``."""
    key = _integers(idx, "index entries")
    if len(key) != len(layout.parties):
        raise ValueError(f"index {key} has wrong arity for layout {layout.parties}")
    for component, d in zip(key, layout.dims):
        if not 0 <= component < d:
            raise ValueError(f"index {key} out of range for dims {layout.dims}")
    return key


def _canonical_terms(
    layout: PartyLayout, terms: Iterable[tuple[Sequence[int], complex]]
) -> tuple[tuple[Index, complex], ...]:
    merged: dict[Index, complex] = {}
    for idx, amp in terms:
        key = _checked_index(layout, idx)
        merged[key] = merged.get(key, 0j) + complex(amp)
    for key, amp in merged.items():
        if not cmath.isfinite(amp):
            raise ValueError(f"non-finite amplitude {amp} at index {key}")
    return tuple(sorted((k, v) for k, v in merged.items() if v != 0))


@dataclass(frozen=True)
class PureState:
    """Unnormalized pure state as a sparse list of (multi-index, amplitude) terms.

    Terms are canonicalized on construction: duplicate indices merged, zero
    amplitudes dropped, and the list sorted lexicographically by multi-index,
    which fixes serialization byte-for-byte.
    """

    layout: PartyLayout
    terms: tuple[tuple[Index, complex], ...]
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _canonical_terms(self.layout, self.terms))

    @classmethod
    def _canonical(
        cls, layout: PartyLayout, terms: tuple[tuple[Index, complex], ...], label: str | None
    ) -> "PureState":
        """The state of ``terms`` that are canonical already (as
        :func:`_canonical_terms` returns them), taken as they are."""
        state = object.__new__(cls)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "terms", terms)
        object.__setattr__(state, "label", label)
        return state

    @property
    def support(self) -> tuple[Index, ...]:
        return tuple(idx for idx, _ in self.terms)

    def scaled(self, factor: complex) -> "PureState":
        return PureState(self.layout, [(i, a * factor) for i, a in self.terms], self.label)

    def relabeled(self, label: str) -> "PureState":
        return PureState._canonical(self.layout, self.terms, label)

    def to_vector(self) -> np.ndarray:
        """Dense coefficient vector over the full Hilbert space, lexicographic order."""
        return _dense_vector(self.layout.dims, self.terms)


def _strides(dims: Sequence[int]) -> np.ndarray:
    strides = np.ones(len(dims), dtype=np.int64)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


def _dense_vector(dims: Sequence[int], terms: Iterable[tuple[Index, complex]]) -> np.ndarray:
    """The C-order vector over ``dims`` with each (multi-index, amplitude) of ``terms``."""
    vec = np.zeros(math.prod(dims), dtype=complex)
    strides = _strides(dims)
    for idx, amp in terms:
        vec[int(np.dot(idx, strides))] = amp
    return vec


def inner_product(a: PureState, b: PureState) -> complex:
    """Hermitian inner product <a|b> = sum conj(amp_a) * amp_b over matching indices."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    if len(a.terms) > len(b.terms):
        return complex(inner_product(b, a)).conjugate()
    b_map = dict(b.terms)
    total = 0j
    for idx, amp in a.terms:
        other = b_map.get(idx)
        if other is not None:
            total += amp.conjugate() * other
    return total


def norm(s: PureState) -> float:
    return math.sqrt(inner_product(s, s).real)


def flatten(s: PureState, cut: Bipartition) -> np.ndarray:
    """Coefficient matrix of a state across a bipartition.

    Rows enumerate the left-side basis and columns the right-side basis, both
    in lexicographic order of the parties as they appear in the layout.
    """
    cut.validate_for(s.layout)
    axes = [s.layout.axis(p) for p in cut.left + cut.right]
    coefficients = s.to_vector().reshape(s.layout.dims).transpose(axes)
    return coefficients.reshape(math.prod(coefficients.shape[: len(cut.left)]), -1)


class StateSet:
    """An ordered collection of states sharing one layout, with unique labels.

    A set is held as its layout, its labels and the read-only (state, index,
    amplitude) arrays of its terms (:attr:`term_arrays`).  A set built from
    arrays (:func:`_canonical_set`, as the loader and the cube builders build
    them) makes the :class:`PureState` of each state only when :attr:`states`
    is first read.
    """

    def __init__(self, layout: PartyLayout, states: Iterable[PureState]) -> None:
        states = tuple(states)
        for i, s in enumerate(states):
            if s.layout != layout:
                raise ValueError(f"state {i} does not share the set layout")
            if s.label is None:
                raise ValueError(f"state {i} has no label")
        labels = _unique_labels(s.label for s in states)
        _checked_count(layout, len(labels))
        self.__dict__.update(layout=layout, labels=labels, states=states)

    @classmethod
    def _of_arrays(
        cls,
        layout: PartyLayout,
        labels: Sequence[str],
        arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> "StateSet":
        """The set whose state k is labelled ``labels[k]`` and has the terms
        ``arrays`` holds for it, canonical as :func:`_canonical_arrays` gives them."""
        sset = object.__new__(cls)
        labels = _unique_labels(labels)
        sset.__dict__.update(layout=layout, labels=labels, term_arrays=_read_only(arrays))
        return sset

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable StateSet")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateSet):
            return NotImplemented
        return (self.layout, self.labels) == (other.layout, other.labels) and all(
            np.array_equal(a, b) for a, b in zip(self.term_arrays, other.term_arrays)
        )

    def __hash__(self) -> int:
        return hash((self.layout, self.labels))

    def __repr__(self) -> str:
        return f"StateSet({self.layout!r}, {len(self)} states)"

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, key: int) -> PureState:
        return self.states[key]

    @functools.cached_property
    def states(self) -> tuple[PureState, ...]:
        return _pure_states(self.layout, self.labels, self.term_arrays)

    def subset(self, count: int) -> "StateSet":
        state, idx, amps = self.term_arrays
        labels = self.labels[:count]
        end = int(np.searchsorted(state, len(labels)))
        return StateSet._of_arrays(self.layout, labels, (state[:end], idx[:end], amps[:end]))

    @functools.cached_property
    def term_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_term_arrays` of the set's states, formed once, read-only."""
        return _read_only(_term_arrays(self.layout, self.states))

    @functools.cached_property
    def _unit_amplitudes(self) -> np.ndarray:
        """:func:`_unit_scaled` of the amplitudes of :attr:`term_arrays`,
        formed once, read-only."""
        state, _, amps = self.term_arrays
        return _read_only((_unit_scaled(state, amps, len(self)),))[0]

    @functools.cached_property
    def _cell_count(self) -> int:
        """The number of distinct cells (product basis states) the terms
        touch, counted once."""
        dims = self.layout.dims
        return _bins(_flat_index(self.term_arrays[1], dims, range(len(dims))))[0].size

    @functools.cached_property
    def _unit_gram(self) -> tuple[scipy.sparse.csr_matrix, float, float]:
        """The Gram matrix G of the unit states, formed once, its arrays
        read-only, with delta = ||G - I||_F and the root of the sum of
        |G_ij|^2 over the pairs i < j."""
        unit = _set_matrix(self, unit=True)
        gram = unit.conj() @ unit.T
        _read_only((gram.data, gram.indices, gram.indptr))
        return (
            gram,
            float(np.linalg.norm((gram - scipy.sparse.identity(len(self))).data)),
            float(np.linalg.norm(scipy.sparse.triu(gram, k=1).data)),
        )

    @functools.cached_property
    def _nonorthogonal_pairs(self) -> dict[float, tuple[int, int] | None]:
        """:meth:`_nonorthogonal_pair` of each tolerance asked so far."""
        return {}

    def _nonorthogonal_pair(self, tol: float) -> tuple[int, int] | None:
        """:func:`_first_nonorthogonal_pair` of :attr:`_unit_gram` at ``tol``,
        found once per tolerance."""
        found = self._nonorthogonal_pairs
        if tol not in found:
            found[tol] = _first_nonorthogonal_pair(self._unit_gram[0], tol)
        return found[tol]


def _unique_labels(labels: Iterable[str]) -> tuple[str, ...]:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("state labels must be unique")
    return labels


def _checked_count(layout: PartyLayout, count: int) -> None:
    """Refuse ``count`` states of ``layout`` unless every (state, cell) number,
    state x total dimension + C-order cell index, fits in int64."""
    total = layout.total_dim
    if count * total >= 2**63:
        raise ValueError(f"{count} states x {total} cells: (state, cell) numbers beyond int64")


def _power_of_two_scaled(owner: np.ndarray, amps: np.ndarray, count: int) -> np.ndarray:
    """``amps`` with the entries of each state (``owner``, 0 <= owner < count)
    times the power of two that puts their largest real or imaginary part in
    [1, 2).

    The scaling is exact, and it keeps the products of two amplitudes that the
    couplings and Born probabilities are made of from underflowing or
    overflowing for states given at an extreme scale.  When every state is
    already there, as in the cube sets, ``amps`` is returned as it is.
    """
    peak = np.zeros(count)
    np.maximum.at(peak, owner, np.maximum(np.abs(amps.real), np.abs(amps.imag)))
    shift = (1 - np.frexp(peak)[1])[owner]
    if not shift.any():
        return amps
    scaled = np.empty_like(amps)
    scaled.real = np.ldexp(amps.real, shift)
    scaled.imag = np.ldexp(amps.imag, shift)
    return scaled


def _unit_scaled(owner: np.ndarray, amps: np.ndarray, count: int) -> np.ndarray:
    """``amps`` with each state (``owner``, as for :func:`_power_of_two_scaled`)
    scaled by its power of two, then divided by its norm.

    The norm sums re^2 + im^2 over the state's entries in the order given, as
    :func:`norm` does over its terms, and the real and imaginary parts are
    divided apart (numpy's complex-by-real division is not exact per
    component), so each amplitude is bit for bit the prescaled term over
    :func:`norm`.
    """
    amps = _power_of_two_scaled(owner, amps, count)
    square = amps.real * amps.real + amps.imag * amps.imag
    norms = np.sqrt(np.bincount(owner, weights=square, minlength=count))[owner]
    unit = np.empty_like(amps)
    unit.real = amps.real / norms
    unit.imag = amps.imag / norms
    return unit


@dataclass(frozen=True)
class SetReport:
    """Orthogonality and span diagnostics for one state set."""

    size: int
    pairwise_orthogonal: bool
    span_rank: int


def _term_arrays(
    layout: PartyLayout, states: Sequence[PureState]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every term of ``states`` as three arrays: the position of its state in
    ``states``, its multi-index (one row per term) and its amplitude."""
    state = np.repeat(np.arange(len(states)), [len(s.terms) for s in states])
    idx = np.array([i for s in states for i, _ in s.terms], dtype=np.int64)
    amps = np.array([a for s in states for _, a in s.terms], dtype=complex)
    return state, idx.reshape(-1, len(layout.dims)), amps


def _read_only(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _state_ranges(owner: np.ndarray, count: int) -> Iterator[tuple[int, int]]:
    """The (start, end) of the terms of each of ``count`` states in the
    ascending ``owner`` of :func:`_term_arrays`."""
    ends = np.cumsum(np.bincount(owner, minlength=count)).tolist()
    return zip([0] + ends, ends)


def _pure_states(
    layout: PartyLayout,
    labels: Sequence[str | None],
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[PureState, ...]:
    """The states ``labels[k]`` whose terms are the rows of the canonical
    (state, index, amplitude) ``arrays`` (:func:`_canonical_arrays`) with
    state k, taken as they are."""
    owner, idx, amps = arrays
    keys = list(zip(*idx.T.tolist()))
    values = amps.tolist()
    return tuple(
        PureState._canonical(layout, tuple(zip(keys[start:end], values[start:end])), label)
        for label, (start, end) in zip(labels, _state_ranges(owner, len(labels)))
    )


def _bins(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, ascending, and the bin of each value, as numpy's
    ``unique(values, return_inverse=True)`` gives them, from one stable sort:
    every grouping by equal keys goes through here."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _summed(inverse: np.ndarray, amp: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of ``amp`` by bin, each added in input order from 0.0."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(inverse, amp.real, minlength=size)
    out.imag = np.bincount(inverse, amp.imag, minlength=size)
    return out


def _coalesced(key: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries sorted by key, the amplitudes at one key summed in input order
    from 0.0 (as ``0j + amp`` adds them, which turns a -0.0 part into +0.0),
    and exact zeros dropped."""
    key, inverse = _bins(key)
    amp = _summed(inverse, amp, key.size)
    nonzero = amp != 0
    return key[nonzero], amp[nonzero]


def _canonical_arrays(
    layout: PartyLayout, count: int, owner: np.ndarray, idx: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The terms (``owner[t]``, ``idx[t]``, ``amps[t]``) of ``count`` states
    numbered by ``owner``, canonicalised at once as :func:`_canonical_terms`
    canonicalises each state's, as the (state, index, amplitude) arrays of
    :func:`_term_arrays`.

    Raises unless the states pass :func:`_checked_count`.  Returns None
    unless ``idx`` holds an int multi-index of ``layout`` per row, ``amps``
    complex amplitudes and every merged amplitude is finite, so that the
    caller can take :func:`_canonical_terms` per state instead, which raises
    the error.  The terms of one (state, cell) number are merged by
    :func:`_coalesced`, as ``merged.get(key, 0j) + amp`` merges them.
    """
    _checked_count(layout, count)
    dims = layout.dims
    if (
        idx.dtype.kind != "i"
        or amps.dtype.kind != "c"
        or idx.ndim != 2
        or idx.shape[1] != len(dims)
        or not owner.shape == amps.shape == idx.shape[:1]
        or ((idx < 0) | (idx >= dims)).any()
    ):
        return None
    total, strides = layout.total_dim, _strides(dims)
    key, amps = _coalesced(owner * total + idx @ strides, amps)
    if not np.isfinite(amps).all():
        return None
    owner, cell = np.divmod(key, total)
    return owner, cell[:, None] // strides % dims, amps


def _canonical_set(
    layout: PartyLayout,
    labels: Sequence[str],
    owner: np.ndarray,
    idx: np.ndarray,
    amps: np.ndarray,
) -> StateSet | None:
    """The set of the states ``labels[k]`` whose terms have ``owner`` k,
    through :func:`_canonical_arrays`, or None where that refuses them."""
    arrays = _canonical_arrays(layout, len(labels), owner, idx, amps)
    return None if arrays is None else StateSet._of_arrays(layout, labels, arrays)


def _flat_index(idx: np.ndarray, dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """C-order index of each row of ``idx`` on the given axes, in that order."""
    axes = list(axes)
    return idx[:, axes] @ _strides([dims[a] for a in axes])


def _set_matrix(
    sset: StateSet, row_axes: Sequence[int] = (), unit: bool = False, per_state: bool = False
) -> scipy.sparse.csr_matrix:
    """The set as a sparse matrix with row (state, index on ``row_axes``) and
    column the index on the other axes; with no row axes, one state per row.
    With ``unit``, every state is taken at norm one (:func:`_unit_scaled`).
    With ``per_state``, the column is (state, index on the other axes), so
    the matrix times its conjugate transpose holds only each state's own
    block."""
    dims = sset.layout.dims
    col_axes = [a for a in range(len(dims)) if a not in row_axes]
    m = math.prod(dims[a] for a in row_axes)
    state, idx, amps = sset.term_arrays
    if unit:
        amps = sset._unit_amplitudes
    width = sset.layout.total_dim // m
    rows = state * m + _flat_index(idx, dims, row_axes)
    cols = _flat_index(idx, dims, col_axes)
    if per_state:
        cols = cols + state * width
        width *= len(sset)
    return scipy.sparse.csr_matrix((amps, (rows, cols)), shape=(len(sset) * m, width))


def _key_positions(block: np.ndarray, key: np.ndarray, n_blocks: int):
    """Each entry's position among the distinct keys of its block, ascending,
    and the number of distinct keys of every block (keys non-negative, and
    ``n_blocks`` times the largest key within int64)."""
    span = int(key.max()) + 1
    pairs, inverse = _bins(block.astype(np.int64) * span + key)
    counts = np.bincount(pairs // span, minlength=n_blocks)
    return inverse - (np.cumsum(counts) - counts)[block], counts


def _block_singular_values(
    block: np.ndarray, row: np.ndarray, col: np.ndarray, amps: np.ndarray, n_blocks: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Singular values of the dense blocks of a block-sparse matrix.

    Entry k holds ``amps[k]`` in block ``block[k]`` (0 <= block < n_blocks,
    every block with at least one entry) at row key ``row[k]`` and column key
    ``col[k]``, no two entries of a block at the same keys. A block is the
    dense matrix over its distinct row keys and its distinct column keys,
    both ascending.

    Two kinds of block are read off their entries: a block with one row or
    one column has one singular value, the norm of its entries, and a block
    with as many entries as rows and as columns is a permuted diagonal, whose
    singular values are the moduli of its entries. The coefficient matrix of
    a cube-set state across any one-party cut is of one of these kinds. Every
    other block goes to a batched SVD, the blocks of one shape stacked.
    Returns (block ids, singular values) pairs, one row of descending
    singular values per block.
    """
    if not block.size:
        return []
    r, heights = _key_positions(block, row, n_blocks)
    c, widths = _key_positions(block, col, n_blocks)
    sizes = np.minimum(heights, widths)
    entry_counts = np.bincount(block, minlength=n_blocks)
    direct = (sizes == 1) | ((entry_counts == heights) & (entry_counts == widths))
    span = int(widths.max()) + 1
    # a direct block is keyed by minus its number of singular values, any
    # other block by its shape
    codes, shape = _bins(np.where(direct, -sizes, heights * span + widths))
    # renumber the blocks so that those of one key are consecutive
    order = np.argsort(shape, kind="stable")
    entry_id = np.argsort(order)[block]
    entries = np.argsort(entry_id, kind="stable")
    ends = np.cumsum(np.bincount(shape, minlength=codes.size))
    entry_ends = np.cumsum(np.bincount(shape[block], minlength=codes.size))
    result = []
    start = entry_start = 0
    for code, end, entry_end in zip(codes.tolist(), ends, entry_ends):
        ids = order[start:end]
        e = entries[entry_start:entry_end]
        if code == -1:
            firsts = np.cumsum(entry_counts[ids]) - entry_counts[ids]
            svals = np.hypot.reduceat(np.abs(amps[e]), firsts)[:, None]
        elif code < 0:
            svals = np.sort(np.abs(amps[e]).reshape(-1, -code), axis=1)[:, ::-1]
        else:
            h, w = divmod(code, span)
            stack = np.zeros((end - start, h, w), dtype=complex)
            stack[entry_id[e] - start, r[e], c[e]] = amps[e]
            svals = np.linalg.svd(stack, compute_uv=False)
        result.append((ids, svals))
        start, entry_start = end, entry_end
    return result


def _components(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected component of each (row, col) entry of a sparse pattern, where
    rows and columns are the nodes and entries the edges: components numbered
    0.. in order of their smallest row, and their number.

    Union-find by hooking every root to the smallest root it shares an entry
    with, then pointing every node at its root, until no entry joins two roots.
    """
    n_rows = int(rows.max()) + 1
    cols = _bins(cols)[1] + n_rows
    parent = np.arange(int(cols.max()) + 1)
    while True:
        up = parent[parent]
        while not np.array_equal(up, parent):
            parent, up = up, up[up]
        a, b = parent[rows], parent[cols]
        join = a != b
        if not join.any():
            break
        np.minimum.at(parent, np.maximum(a, b)[join], np.minimum(a, b)[join])
    roots, component = _bins(a)
    return component, roots.size


def _span_rank(mat: scipy.sparse.spmatrix, tol: float) -> int:
    """Numerical rank of a sparse matrix: singular values above ``tol`` times
    the largest.

    The SVD is taken per connected component of the support pattern, where
    the matrix is block-diagonal up to a permutation, so the blocks together
    have the singular values of the whole matrix besides its zeros.
    """
    coo = mat.tocoo()
    if not coo.nnz:
        return 0
    component, n = _components(coo.row, coo.col)
    svals = np.concatenate(
        [s.ravel() for _, s in _block_singular_values(component, coo.row, coo.col, coo.data, n)]
    )
    top = svals.max()
    return int(np.sum(svals > tol * top)) if top > 0 else 0


def _first_nonorthogonal_pair(gram: scipy.sparse.spmatrix, tol: float) -> tuple[int, int] | None:
    """Lexicographically first i < j with |<i|j>| > tol * |i| * |j|, or None.

    ``gram`` is the set's Gram matrix, sparse (most pairs of a cube-partition
    set share no support); the norms are read off its diagonal.
    """
    norms = np.sqrt(gram.diagonal().real)
    coo = gram.tocoo()
    upper = coo.row < coo.col
    i, j, value = coo.row[upper], coo.col[upper], coo.data[upper]
    bad = np.abs(value) > tol * norms[i] * norms[j]
    if not bad.any():
        return None
    i, j = i[bad], j[bad]
    first = np.lexsort((j, i))[0]
    return int(i[first]), int(j[first])


def validate_set(sset: StateSet, tol: float = DEFAULT_TOL) -> SetReport:
    """Check pairwise orthogonality (relative tolerance) and the numerical span rank."""
    mat = _set_matrix(sset)
    orthogonal = _first_nonorthogonal_pair(mat.conj() @ mat.T, tol) is None
    return SetReport(size=len(sset), pairwise_orthogonal=orthogonal, span_rank=_span_rank(mat, tol))


def state_set_to_dict(sset: StateSet) -> dict:
    """JSON-ready document: dims, parties, and per-state sparse terms as [re, im]."""
    return {
        "dims": list(sset.layout.dims),
        "parties": list(sset.layout.parties),
        "states": [
            {
                "label": s.label,
                "terms": [
                    {"idx": list(idx), "amp": [amp.real, amp.imag]}
                    for idx, amp in s.terms
                ],
            }
            for s in sset.states
        ],
    }


def _amplitude(pair: Sequence[float]) -> complex:
    if len(pair) != 2:
        raise ValueError(f"amplitude {pair!r} is not an [re, im] pair")
    return complex(pair[0], pair[1])


def _document_set(layout: PartyLayout, entries) -> StateSet | None:
    """The set of a document's state entries through :func:`_canonical_set`,
    or None when its labels are not strings, its indices not int rows, its
    amplitudes not numeric [re, im] pairs or :func:`_canonical_arrays`
    refuses them."""
    try:
        labels = [entry["label"] for entry in entries]
        terms = [entry["terms"] for entry in entries]
        idx = np.array([t["idx"] for ts in terms for t in ts])
        pairs = np.array([t["amp"] for ts in terms for t in ts])
        counts = [len(ts) for ts in terms]
    except (KeyError, TypeError, IndexError, ValueError, OverflowError):
        return None
    if (
        not all(isinstance(label, str) for label in labels)
        or pairs.dtype.kind not in "bif"
        or pairs.shape != (len(idx), 2)
    ):
        return None
    amps = np.empty(len(pairs), dtype=complex)
    amps.real, amps.imag = pairs[:, 0], pairs[:, 1]
    owner = np.repeat(np.arange(len(labels)), counts)
    return _canonical_set(layout, labels, owner, idx, amps)


def state_set_from_dict(doc: Mapping) -> StateSet:
    """The set of a document as :func:`state_set_to_dict` writes it.

    The whole document is canonicalised at once (:func:`_document_set`);
    when that refuses it, every state is read through :class:`PureState`,
    which raises the error or, for an index written as 1.0 or true, reads it
    as that int.
    """
    try:
        layout = PartyLayout(tuple(doc["parties"]), tuple(doc["dims"]))
        sset = _document_set(layout, doc["states"])
        if sset is not None:
            return sset
        states = []
        for entry in doc["states"]:
            terms = [(t["idx"], _amplitude(t["amp"])) for t in entry["terms"]]
            label = entry["label"]
            if not isinstance(label, str):
                raise ValueError(f"state label {label!r} is not a string")
            states.append(PureState(layout, terms, label))
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed state-set document: {exc}") from exc
    return StateSet(layout, tuple(states))


def _json_scalar(value) -> str:
    return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)


def _json_container(open_: str, close: str, items: Sequence[str], depth: int) -> str:
    """Encoded items in a JSON list or object at nesting ``depth``, laid out
    as ``json.dump(..., indent=1)`` lays them out."""
    if not items:
        return open_ + close
    inner = "\n" + " " * (depth + 1)
    return open_ + inner + ("," + inner).join(items) + "\n" + " " * depth + close


def _json_object(fields: Sequence[tuple[str, str]], depth: int) -> str:
    return _json_container("{", "}", [f'"{key}": {value}' for key, value in fields], depth)


def _document_chunks(sset: StateSet) -> Iterator[str]:
    """The document of :func:`state_set_to_dict` exactly as ``json.dump(doc,
    fh, indent=1)`` writes it, a state at a time, with the final newline.

    Every term has one shape, so the terms do not pass through the
    pure-Python encoder that ``indent`` selects. The states with one number
    of terms form a class, and all states of a class are filled in one ``%``
    pass of the class's template (a state's template, repeated) from a slice
    of one flat list of the values of every term: indices print with ``%d``,
    and amplitudes are finite floats and print with ``float.__repr__``, as
    the encoder prints them, formed once per distinct real or imaginary part
    (the parts of a cube set are a few roots of unity). The filled states are
    then split apart, given their labels and put back in set order.
    """
    layout = sset.layout
    term = _json_object(
        [
            ("idx", _json_container("[", "]", ["%d"] * len(layout.dims), 5)),
            ("amp", _json_container("[", "]", ["%s", "%s"], 5)),
        ],
        4,
    )
    dims = _json_container("[", "]", [str(d) for d in layout.dims], 1)
    parties = _json_container("[", "]", [_json_scalar(p) for p in layout.parties], 1)
    yield f'{{\n "dims": {dims},\n "parties": {parties},\n "states": '
    state, idx, amps = sset.term_arrays
    counts = np.bincount(state, minlength=len(sset.labels))
    # the terms class by class, and within a class in set order
    order = np.argsort(counts[state], kind="stable")
    parts = np.stack([amps.real[order], amps.imag[order]], axis=1)
    # parts told apart by their bits, so that -0.0 and 0.0 stay two
    bits, part = _bins(parts.view(np.int64).ravel())
    reprs = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    width = len(layout.dims) + 2
    values = np.empty((order.size, width), dtype=object)
    values[:, :-2], values[:, -2:] = idx[order], reprs[part.reshape(-1, 2)]
    values = values.ravel().tolist()
    bodies = []
    start = 0
    sizes, state_class = _bins(counts)
    for n, m in zip(sizes.tolist(), np.bincount(state_class, minlength=sizes.size).tolist()):
        body = ',\n   "terms": ' + _json_container("[", "]", [term] * n, 3) + "\n  }"
        end = start + m * n * width
        # no filled value holds a NUL, so it parts the states of a class
        bodies += ("\0".join([body] * m) % tuple(values[start:end])).split("\0")
        start = end
    place = np.argsort(np.argsort(counts, kind="stable"))
    separator = "[\n  "
    for label, k in zip(sset.labels, place.tolist()):
        yield separator + '{\n   "label": ' + _json_scalar(label) + bodies[k]
        separator = ",\n  "
    yield ("\n ]" if sset.labels else "[]") + "\n}\n"


def save_state_set(sset: StateSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_document_chunks(sset))


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """The cyclic garbage collector switched off for the whole process, and
    back on afterwards if it was on (:func:`load_state_set` says when that
    helps, and why it is not meant for threaded callers)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_state_set(path: str) -> StateSet:
    """The set of a document file (:func:`state_set_from_dict`).

    The cyclic garbage collector is paused while the file is decoded and the
    set built: the decoded document holds no cycles and is dropped before
    this returns, but its hundreds of thousands of containers would trigger
    full collections that traverse all of them.

    The pause switches the collector off for the whole process and restores
    the state found on entry, so this is not meant for threaded callers:
    other threads run uncollected meanwhile, and two overlapping loads (or a
    thread that switches the collector meanwhile) may leave it in the wrong
    state.
    """
    with _collector_paused(), open(path, "r", encoding="utf-8") as fh:
        return state_set_from_dict(json.load(fh))
