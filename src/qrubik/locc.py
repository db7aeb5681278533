"""Entanglement-assisted discrimination protocols: trees, playback, resource audit.

A protocol is a finite tree over party-owned registers.  Nodes are local
measurements (branching on outcomes), ideal teleports (register ownership
moves, one shared pair consumed), and answer leaves.  Execution walks the
tree once with all candidate states together, held as one sparse array per
node, tracking branch probabilities, which declared resources each path
consumes, and whether the survivors at each node stay mutually orthogonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .states import DEFAULT_TOL, StateSet, _first_nonorthogonal_pair, _strides
from .states import _power_of_two_scaled

_PRUNE = 1e-12
# the most levels a measurement step may act on: its operators are held
# dense, 16 MiB each at the limit
_MAX_STEP_LEVELS = 2**10


class ProtocolError(ValueError):
    """Malformed or physically inconsistent protocol document."""


@dataclass(frozen=True)
class Register:
    name: str
    owner: str
    dim: int


@dataclass(frozen=True)
class RegisterTable:
    registers: tuple[Register, ...]

    def __post_init__(self) -> None:
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise ProtocolError("register names must be unique")
        if any(not isinstance(r.dim, (int, np.integer)) or r.dim < 1 for r in self.registers):
            raise ProtocolError("register dims must be integers >= 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    def get(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise ProtocolError(f"unknown register {name!r}")

    def dims(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.get(n).dim for n in names)

    @functools.cached_property
    def strides(self) -> dict[str, int]:
        """Each register's stride in the flat (C-order) index over the whole table."""
        strides = _strides([r.dim for r in self.registers])
        return dict(zip(self.names, strides.tolist()))

    @functools.cached_property
    def size(self) -> int:
        return math.prod(r.dim for r in self.registers)

    @functools.cached_property
    def _layouts(self) -> dict:
        return {}

    def _layout(
        self, regs: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """For ``regs``: their strides and dims in the table, their strides in
        an operator's index, and the table offset of each operator index."""
        found = self._layouts.get(regs)
        if found is None:
            strides = np.array([self.strides[r] for r in regs], dtype=np.int64)
            dims = np.array(self.dims(regs), dtype=np.int64)
            inner = _strides(dims)
            index = np.arange(int(np.prod(dims)), dtype=np.int64)
            found = strides, dims, inner, (index[:, None] // inner % dims) @ strides
            self._layouts[regs] = found
        return found

    def _index_map(
        self, union: tuple[str, ...], regs: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """For each index of an operator on ``union``: its index on ``regs``,
        a subset in any order, and itself with the digits of ``regs`` set to 0."""
        key = (union, regs)
        if key not in self._layouts:
            dims = np.array(self.dims(union), dtype=np.int64)
            at = [union.index(r) for r in regs]
            index = np.arange(int(np.prod(dims)), dtype=np.int64)
            digits = index[:, None] // _strides(dims)[at] % dims[at]
            self._layouts[key] = digits @ _strides(dims[at]), index - digits @ _strides(dims)[at]
        return self._layouts[key]


@dataclass(frozen=True)
class ResourceDecl:
    """A shared maximally entangled pair sum_k |k,k> of local dimension ``dim``."""

    name: str
    pair: tuple[str, str]
    dim: int
    registers: tuple[str, str]

    @property
    def ebits(self) -> float:
        return math.log2(self.dim)


@dataclass(frozen=True)
class MeasurementOperator:
    """One outcome operator, stored dense on the ordered register tuple ``regs``."""

    name: str
    regs: tuple[str, ...]
    matrix: np.ndarray
    touches: frozenset[str] = field(default=frozenset())

    @functools.cached_property
    def _gather(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The matrix's diagonal if nothing lies off it, and the rows that
        hold a nonzero."""
        diagonal = self.matrix.diagonal().copy()
        if np.count_nonzero(self.matrix) != np.count_nonzero(diagonal):
            diagonal = None
        return diagonal, np.flatnonzero(self.matrix.any(axis=1))


@dataclass(frozen=True)
class MeasurementStep:
    party: str
    operators: tuple[MeasurementOperator, ...]
    branches: Mapping[str, object]


@dataclass(frozen=True)
class Teleport:
    source: str
    resource: str
    to: str
    then: object


@dataclass(frozen=True)
class Leaf:
    answer: str


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    table: RegisterTable
    resources: tuple[ResourceDecl, ...]
    root: object
    notes: tuple[str, ...] = ()

    @property
    def principal_registers(self) -> tuple[Register, ...]:
        claimed = {r for res in self.resources for r in res.registers}
        return tuple(r for r in self.table.registers if r.name not in claimed)

    def resource(self, name: str) -> ResourceDecl:
        for res in self.resources:
            if res.name == name:
                return res
        raise ProtocolError(f"unknown resource {name!r}")


def _matrix_from_json(entry: Sequence, name: str) -> np.ndarray:
    """An n x n array of [re, im] number pairs as a complex matrix, exactly."""
    try:
        pairs = np.array(entry)
    except ValueError:  # ragged nesting
        pairs = np.array(None)
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[1:] != (len(pairs), 2):
        raise ProtocolError(f"operator {name!r} matrix is not an n x n array of [re, im] pairs")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(mat)]


def _distinct_regs(regs: Sequence[str], name: str) -> tuple[str, ...]:
    """``regs`` as a tuple, none listed twice."""
    regs = tuple(regs)
    for r in regs:
        if regs.count(r) > 1:
            raise ProtocolError(f"operator {name!r} lists register {r!r} twice")
    return regs


def _proj_levels(
    item: Mapping, table: RegisterTable, name: str
) -> tuple[tuple[str, ...], np.ndarray]:
    """A ``proj`` item's registers and the flat index of each listed level."""
    regs = _distinct_regs(item["regs"], name)
    dims = table.dims(regs)
    strides = _strides(dims).tolist()
    flat = []
    for level in item["levels"]:
        if len(level) != len(regs):
            raise ProtocolError(f"level {level} arity mismatch for regs {regs}")
        if not all(isinstance(k, (int, np.integer)) and 0 <= k < d for k, d in zip(level, dims)):
            raise ProtocolError(f"operator {name!r} level {level} is outside dims {dims}")
        flat.append(sum(k * s for k, s in zip(level, strides)))
    return regs, np.array(flat, dtype=np.int64)


def _acts_on(
    stack: np.ndarray, union: tuple[str, ...], reg: str, table: RegisterTable, tol: float
) -> np.ndarray:
    """For each operator of ``stack``, dense on ``union``: True unless it
    factors as N (x) I on ``reg``, i.e. equals its block at reg's level 0
    times delta(level of reg) to within tol * max(max |M|, 1)."""
    level, rest = table._index_map(union, (reg,))
    factored = stack[:, rest[:, None], rest] * (level[:, None] == level)
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    return np.abs(stack - factored).max(axis=(1, 2)) > tol * scale


def _parse_operator_docs(
    docs: Sequence[Mapping],
    table: RegisterTable,
    by_reg: Mapping[str, ResourceDecl],
    tol: float,
) -> tuple[MeasurementOperator, ...]:
    """The operators of one step, each dense on all the step's registers (in
    table order) and marked with the resources whose registers it does not
    leave as N (x) I."""
    names: list[str] = []
    complements: list[str] = []
    parts: list[tuple[str, tuple[str, ...], object]] = []
    for doc in docs:
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("measurement operator without a name")
        names.append(name)
        if doc.get("complement"):
            complements.append(name)
        elif "proj" in doc:
            items = [_proj_levels(item, table, name) for item in doc["proj"]]
            regs = tuple(r for r in table.names if any(r in iregs for iregs, _ in items))
            parts.append((name, regs, items))
        elif "matrix" in doc:
            regs = _distinct_regs(doc["regs"], name)
            mat = _matrix_from_json(doc["matrix"], name)
            full = math.prod(table.dims(regs))
            if mat.shape != (full, full):
                raise ProtocolError(
                    f"operator {name!r} matrix shape {mat.shape} does not match regs {regs}"
                )
            if not np.all(np.isfinite(mat)):
                raise ProtocolError(f"operator {name!r} matrix has non-finite entries")
            parts.append((name, regs, mat))
        else:
            raise ProtocolError(f"operator {name!r} needs 'proj', 'matrix' or 'complement'")

    if len(names) != len(set(names)):
        raise ProtocolError("operator names within a step must be unique")
    if len(complements) > 1:
        raise ProtocolError("at most one complement operator per step")
    union = tuple(r for r in table.names if any(r in regs for _, regs, _ in parts))
    if not union:
        raise ProtocolError("measurement step acts on no registers")
    full = math.prod(table.dims(union))
    if full > _MAX_STEP_LEVELS:
        raise ProtocolError(
            f"measurement step on {union} has {full} levels, above the limit of "
            f"{_MAX_STEP_LEVELS} for a dense operator"
        )

    def embed(mat: np.ndarray, regs: tuple[str, ...]) -> np.ndarray:
        sub, rest = table._index_map(union, regs)
        return mat[sub[:, None], sub] * (rest[:, None] == rest)

    mats = {}
    for name, regs, part in parts:
        if isinstance(part, np.ndarray):
            mats[name] = embed(part, regs)
        else:
            mats[name] = np.zeros((full, full))
            for iregs, flat in part:
                counts = np.bincount(flat, minlength=math.prod(table.dims(iregs)))
                mats[name] += embed(np.diag(counts), iregs)
    if complements:
        mats[complements[0]] = np.eye(full) - sum(mats.values())
    stack = np.array([mats[name] for name in names], dtype=complex)
    completeness = sum(m.conj().T @ m for m in stack)
    if np.max(np.abs(completeness - np.eye(full))) > tol:
        raise ProtocolError("measurement operators do not satisfy completeness")

    touches: list[set[str]] = [set() for _ in names]
    for r in union:
        if r in by_reg:
            for k in np.flatnonzero(_acts_on(stack, union, r, table, tol)):
                touches[k].add(by_reg[r].name)
    return tuple(
        MeasurementOperator(name, union, mat, frozenset(touched))
        for name, mat, touched in zip(names, stack, touches)
    )


def parse_protocol(doc: Mapping, tol: float = DEFAULT_TOL) -> ProtocolSpec:
    """Validate and compile a protocol document.

    Checks register uniqueness, resource wiring, measurement completeness,
    measurement locality (a party may only act on registers it owns at that
    point of the tree), and single-use of every teleport resource.  A
    document of the wrong shape (a missing key, a number where a list or a
    mapping belongs) raises :class:`ProtocolError` as well.
    """
    try:
        return _compile(doc, tol)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ProtocolError(f"malformed protocol document: {exc}") from exc


def _compile(doc: Mapping, tol: float) -> ProtocolSpec:
    table = RegisterTable(
        tuple(Register(r["name"], r["owner"], r["dim"]) for r in doc["registers"])
    )
    resource_docs = doc.get("resources", [])
    root_doc = doc["root"]

    resources = []
    seen = set()
    for r in resource_docs:
        res = ResourceDecl(
            name=r["name"],
            pair=tuple(r["pair"]),
            dim=int(r["dim"]),
            registers=tuple(r["registers"]),
        )
        if res.name in seen:
            raise ProtocolError(f"duplicate resource {res.name!r}")
        seen.add(res.name)
        if len(res.pair) != 2 or res.pair[0] == res.pair[1]:
            raise ProtocolError(f"resource {res.name!r} must join two distinct parties")
        owners = {table.get(n).owner for n in res.registers}
        if owners != set(res.pair):
            raise ProtocolError(
                f"resource {res.name!r} registers are not held by its party pair"
            )
        for n in res.registers:
            if table.get(n).dim != res.dim:
                raise ProtocolError(
                    f"resource {res.name!r} register {n!r} dim mismatch"
                )
        resources.append(res)
    resources = tuple(resources)
    by_reg = {}
    for res in resources:
        for n in res.registers:
            if n in by_reg:
                raise ProtocolError(f"register {n!r} claimed by two resources")
            by_reg[n] = res

    parties = {r.owner for r in table.registers}
    teleports_used: set[str] = set()

    def parse_node(node: Mapping, owners: dict[str, str]) -> object:
        kind = node.get("type")
        if kind == "leaf":
            answer = node.get("answer")
            if not isinstance(answer, str) or not answer:
                raise ProtocolError("leaf without an answer")
            return Leaf(answer=answer)
        if kind == "teleport":
            src = node["source"]
            res = None
            for candidate in resources:
                if candidate.name == node["resource"]:
                    res = candidate
            if res is None:
                raise ProtocolError(f"teleport references unknown resource {node['resource']!r}")
            if res.name in teleports_used:
                raise ProtocolError(f"resource {res.name!r} teleported twice")
            teleports_used.add(res.name)
            dest = node["to"]
            if dest not in parties:
                raise ProtocolError(f"teleport destination {dest!r} is not a party")
            if table.get(src).dim != res.dim:
                raise ProtocolError(
                    f"teleport of {src!r} (dim {table.get(src).dim}) over a "
                    f"dim-{res.dim} resource"
                )
            if owners[src] not in res.pair or dest not in res.pair:
                raise ProtocolError(
                    f"teleport {src!r}->{dest!r} does not ride resource {res.name!r}"
                )
            new_owners = dict(owners)
            new_owners[src] = dest
            return Teleport(source=src, resource=res.name, to=dest, then=parse_node(node["then"], new_owners))
        if kind == "measure":
            party = node["party"]
            if party not in parties:
                raise ProtocolError(f"unknown measuring party {party!r}")
            ops = _parse_operator_docs(node["operators"], table, by_reg, tol)
            for reg in ops[0].regs:
                if owners[reg] != party:
                    raise ProtocolError(
                        f"party {party!r} measures register {reg!r} owned by {owners[reg]!r}"
                    )
            branch_docs = node.get("branches", {})
            names = {op.name for op in ops}
            if set(branch_docs) != names:
                raise ProtocolError(
                    f"branches {sorted(branch_docs)} do not match outcomes {sorted(names)}"
                )
            branches = {
                name: parse_node(branch_docs[name], owners) for name in branch_docs
            }
            return MeasurementStep(party=party, operators=ops, branches=branches)
        raise ProtocolError(f"unknown node type {kind!r}")

    owners0 = {r.name: r.owner for r in table.registers}
    root = parse_node(root_doc, owners0)
    return ProtocolSpec(
        name=doc.get("name", "protocol"),
        table=table,
        resources=resources,
        root=root,
        notes=tuple(doc.get("notes", [])),
    )


def _abs2(amp: np.ndarray) -> np.ndarray:
    return amp.real * amp.real + amp.imag * amp.imag


def _summed(inverse: np.ndarray, amp: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of ``amp`` by bin, each added in input order."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(inverse, amp.real, minlength=size)
    out.imag = np.bincount(inverse, amp.imag, minlength=size)
    return out


def _bins(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, sorted, and the bin of each value: np.unique's
    inverse without its overhead, which dominates on arrays this small."""
    distinct = np.unique(values)
    return distinct, np.searchsorted(distinct, values)


def _coalesced(pos: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries sorted by position, the amplitudes at one position summed in
    input order, and exact zeros dropped."""
    pos, inverse = _bins(pos)
    amp = _summed(inverse, amp, pos.size)
    nonzero = amp != 0
    return pos[nonzero], amp[nonzero]


@dataclass(frozen=True)
class _Joint:
    """``count`` candidates that share registers, ownership and consumed
    resources, held as one sparse array.

    Entry e is the amplitude ``amp[e]`` at ``pos[e] = row * table.size + flat``
    of candidate ``row``, where ``flat`` is the C-order index over the whole
    register table and a register that is no longer live sits at level 0.
    Positions are unique and sorted, and amplitudes nonzero.
    """

    table: RegisterTable
    live: tuple[str, ...]
    owners: Mapping[str, str]
    consumed: frozenset[str]
    count: int
    pos: np.ndarray
    amp: np.ndarray

    def _entries(self, pos: np.ndarray, amp: np.ndarray) -> "_Joint":
        return _Joint(self.table, self.live, self.owners, self.consumed, self.count, pos, amp)

    @functools.cached_property
    def norm2(self) -> np.ndarray:
        """|psi|^2 of each candidate."""
        return np.bincount(self.pos // self.table.size, _abs2(self.amp), minlength=self.count)

    def measure(self, op: MeasurementOperator) -> tuple["_Joint", np.ndarray]:
        """Apply one outcome operator to every candidate; returns the
        unnormalized post-states and the Born probabilities |M psi|^2 / |psi|^2."""
        for r in op.regs:
            if r not in self.live:
                raise ValueError(f"operator {op.name!r} acts on {r!r}, which is no longer live")
        if not self.norm2.all():
            raise ValueError("cannot measure the zero state")
        strides, dims, inner, offset = self.table._layout(op.regs)
        diagonal, rows = op._gather
        # each entry's index on op.regs picks the operator column it meets
        sub = (self.pos[:, None] // strides % dims) @ inner
        if diagonal is not None:
            amp = diagonal[sub] * self.amp
            nonzero = amp != 0
            post = self._entries(self.pos[nonzero], amp[nonzero])
        else:
            # gather the column at the rows that hold a nonzero, and scatter
            # the nonzero products to the entry's position with that index
            # replaced by their rows
            value = op.matrix[rows[:, None], sub].T * self.amp[:, None]
            src, k = np.nonzero(value)
            post = self._entries(
                *_coalesced((self.pos - offset[sub])[src] + offset[rows[k]], value[src, k])
            )
        return post, post.norm2 / self.norm2

    def teleport(
        self, source: str, resource: ResourceDecl, to: str, tol: float
    ) -> "_Joint":
        """Factor the resource pair out of every candidate and move ``source``."""
        if resource.name in self.consumed:
            raise ValueError(f"resource {resource.name!r} already consumed")
        if self.table.get(source).dim != resource.dim:
            raise ValueError(
                f"teleport of {source!r} needs a dim-{self.table.get(source).dim} resource"
            )
        d = resource.dim
        s1, s2 = (self.table.strides[r] for r in resource.registers)
        first, second = self.pos // s1 % d, self.pos // s2 % d
        rest = self.pos - first * s1 - second * s2
        # a candidate's mat[rest, (k, l)] must be v[rest] delta_kl, v the mean
        # of the diagonal: ||mat - v mes^T|| counts the entries off the
        # diagonal, the diagonal entries minus v, and the missing ones (-v)
        diag = first == second
        key, inverse = _bins(rest[diag])
        v = _summed(inverse, self.amp[diag], key.size) / d
        missing = d - np.bincount(inverse, minlength=key.size)
        row = self.pos // self.table.size
        residual = (
            np.bincount(row[~diag], _abs2(self.amp[~diag]), minlength=self.count)
            + np.bincount(row[diag], _abs2(self.amp[diag] - v[inverse]), minlength=self.count)
            + np.bincount(key // self.table.size, missing * _abs2(v), minlength=self.count)
        )
        if np.any(np.sqrt(residual) > tol * np.maximum(np.sqrt(self.norm2), 1e-30)):
            raise ValueError(
                f"resource {resource.name!r} is no longer in its initial entangled state"
            )
        nonzero = v != 0
        return _Joint(
            self.table,
            tuple(r for r in self.live if r not in resource.registers),
            {**self.owners, source: to},
            self.consumed | {resource.name},
            self.count,
            key[nonzero],
            v[nonzero],
        )

    def take(self, keep: np.ndarray, touches: frozenset[str]) -> "_Joint":
        """The candidates flagged in ``keep``, with ``touches`` consumed."""
        size = self.table.size
        row, flat = np.divmod(self.pos, size)
        entry = keep[row]
        return _Joint(
            self.table,
            self.live,
            self.owners,
            self.consumed | touches,
            int(keep.sum()),
            (np.cumsum(keep) - 1)[row[entry]] * size + flat[entry],
            self.amp[entry],
        )

    def gram(self) -> np.ndarray:
        """Dense Gram matrix <i|j> of the candidates, over their joint support."""
        row, flat = np.divmod(self.pos, self.table.size)
        columns, col = _bins(flat)
        mat = np.zeros((self.count, columns.size), dtype=complex)
        mat[row, col] = self.amp
        return mat.conj() @ mat.T


@dataclass(frozen=True)
class BranchOutcome:
    answer: str
    probability: float
    resources: tuple[str, ...]


@dataclass(frozen=True)
class StateOutcome:
    label: str
    branches: tuple[BranchOutcome, ...]
    probability_total: float
    correct: bool


@dataclass(frozen=True)
class ResourceUsage:
    resource: str
    pair: tuple[str, str]
    dim: int
    expected_copies: float

    @property
    def ebits(self) -> float:
        return self.expected_copies * math.log2(self.dim)


@dataclass(frozen=True)
class PairUsage:
    pair: tuple[str, str]
    dim: int
    expected_copies: float

    @property
    def ebits(self) -> float:
        return self.expected_copies * math.log2(self.dim)


@dataclass(frozen=True)
class ExecutionReport:
    """Per-state discrimination outcomes and expected resource consumption.

    Expectations are taken over a uniform prior on the candidate set; a
    resource counts as consumed on a path when a teleport rides it or any
    measurement along the path acts non-proportionally-to-identity on one of
    its registers.
    """

    outcomes: tuple[StateOutcome, ...]
    correct: bool
    usage: tuple[ResourceUsage, ...]
    pair_usage: tuple[PairUsage, ...]
    total_ebits: float


def _initial(spec: ProtocolSpec, states: Sequence) -> _Joint:
    """The candidates with every shared pair in sum_k |k,k>, each scaled by a
    power of two (:func:`_power_of_two_scaled`), which leaves every Born ratio
    as it is."""
    table = spec.table
    strides = table.strides
    principal = np.array([strides[r.name] for r in spec.principal_registers], dtype=np.int64)
    row = np.array([k for k, s in enumerate(states) for _ in s.terms], dtype=np.int64)
    idx = np.array([i for s in states for i, _ in s.terms], dtype=np.int64)
    amp = np.array([a for s in states for _, a in s.terms], dtype=complex)
    amp = _power_of_two_scaled(row, amp, len(states))
    pairs = np.zeros(1, dtype=np.int64)
    for res in spec.resources:
        step = strides[res.registers[0]] + strides[res.registers[1]]
        pairs = (pairs[:, None] + step * np.arange(res.dim)).reshape(-1)
    pos = row * table.size + idx.reshape(row.size, principal.size) @ principal
    pos = (pos[:, None] + pairs).reshape(-1)
    order = np.argsort(pos)
    return _Joint(
        table,
        table.names,
        {r.name: r.owner for r in table.registers},
        frozenset(),
        len(states),
        pos[order],
        np.repeat(amp, pairs.size)[order],
    )


def _groups(
    spec: ProtocolSpec, sset: StateSet, tol: float
) -> Iterator[tuple[object, np.ndarray, np.ndarray, _Joint]]:
    """Walk the tree depth first with all candidates together.

    Yields every node reached with its survivors: their indices in the set,
    their path probabilities and their joint state.  A candidate leaves a
    branch whose Born probability is at most the pruning cutoff.
    """
    if not len(sset):
        raise ProtocolError("the state set has no states to discriminate")
    principal = spec.principal_registers
    if len(principal) != len(sset.layout.parties):
        raise ProtocolError(
            f"state set has {len(sset.layout.parties)} parties but the protocol "
            f"exposes {len(principal)} principal registers"
        )
    for reg, d in zip(principal, sset.layout.dims):
        if reg.dim != d:
            raise ProtocolError(
                f"principal register {reg.name!r} has dim {reg.dim}, states need {d}"
            )

    def walk(node, index, prob, joint):
        yield node, index, prob, joint
        if isinstance(node, Teleport):
            res = spec.resource(node.resource)
            yield from walk(node.then, index, prob, joint.teleport(node.source, res, node.to, tol))
        elif isinstance(node, MeasurementStep):
            for op in node.operators:
                post, born = joint.measure(op)
                keep = born > _PRUNE
                if keep.any():
                    yield from walk(
                        node.branches[op.name],
                        index[keep],
                        prob[keep] * born[keep],
                        post.take(keep, op.touches),
                    )

    n = len(sset)
    yield from walk(spec.root, np.arange(n), np.ones(n), _initial(spec, sset.states))


def run_protocol(
    spec: ProtocolSpec, sset: StateSet, tol: float = DEFAULT_TOL
) -> ExecutionReport:
    """Traverse the tree for every candidate state and account the resources."""
    branches: list[list[BranchOutcome]] = [[] for _ in sset.states]
    for node, index, prob, joint in _groups(spec, sset, tol):
        if isinstance(node, Leaf):
            resources = tuple(sorted(joint.consumed))
            for i, p in zip(index.tolist(), prob.tolist()):
                branches[i].append(BranchOutcome(node.answer, p, resources))

    outcomes = []
    copies = {res.name: 0.0 for res in spec.resources}
    weight = 1.0 / len(sset)
    for state, found in zip(sset.states, branches):
        total = sum(b.probability for b in found)
        correct = bool(found) and all(b.answer == state.label for b in found)
        for b in found:
            for name in b.resources:
                copies[name] += weight * b.probability
        outcomes.append(
            StateOutcome(
                label=state.label,
                branches=tuple(found),
                probability_total=total,
                correct=correct,
            )
        )

    usage = tuple(
        ResourceUsage(
            resource=res.name,
            pair=res.pair,
            dim=res.dim,
            expected_copies=copies[res.name],
        )
        for res in spec.resources
    )
    pair_map: dict[tuple[tuple[str, str], int], float] = {}
    for u in usage:
        key = (tuple(sorted(u.pair)), u.dim)
        pair_map[key] = pair_map.get(key, 0.0) + u.expected_copies
    pair_usage = tuple(
        PairUsage(pair=pair, dim=dim, expected_copies=c)
        for (pair, dim), c in sorted(pair_map.items())
    )
    total_ebits = sum(u.ebits for u in usage)
    return ExecutionReport(
        outcomes=tuple(outcomes),
        correct=all(o.correct for o in outcomes),
        usage=usage,
        pair_usage=pair_usage,
        total_ebits=total_ebits,
    )


def check_orthogonality_preservation(
    spec: ProtocolSpec, sset: StateSet, tol: float = DEFAULT_TOL
) -> bool:
    """True iff after every step the surviving candidates stay mutually orthogonal."""
    return all(
        joint.count < 2 or _first_nonorthogonal_pair(joint.gram(), tol) is None
        for _, _, _, joint in _groups(spec, sset, tol)
    )
