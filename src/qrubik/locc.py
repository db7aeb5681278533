"""Entanglement-assisted discrimination protocols: trees, playback, resource audit.

A protocol is a finite tree over party-owned registers.  Nodes are local
measurements (branching on outcomes), ideal teleports (register ownership
moves, one shared pair consumed), and answer leaves.  Execution walks the
tree a level at a time with all candidate states together, the nodes at one
depth held as one sparse array, tracking branch probabilities, which
declared resources each path consumes, and whether the survivors at each
node stay mutually orthogonal.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .states import DEFAULT_TOL, StateSet, _bins, _coalesced, _strides, _summed
from .states import _collector_paused, _power_of_two_scaled

_PRUNE = 1e-12
# the most levels a measurement step may act on: its operators are held
# dense, 16 MiB each at the limit
_MAX_STEP_LEVELS = 2**10
# the most entries of one step's dense operators (operators times levels
# squared), 16 MiB of complex numbers; its checks take a few times that
_MAX_STEP_ENTRIES = 2**20
# the most entries one stack of steps holds while their operators are
# compiled, 16 MiB of complex numbers (a larger group is split)
_MAX_GROUP_ENTRIES = 2**20
# the most entries the walk starts from (the candidates' terms times the
# levels of every shared pair), 64 MiB of amplitudes and 32 MiB of positions
_MAX_INITIAL_ENTRIES = 2**22
# the refusal of a set with no states, which the CLI makes for every command
_NO_STATES = "the state set has no states to discriminate"


class ProtocolError(ValueError):
    """Malformed or physically inconsistent protocol document."""


def _is_dim(value: object) -> bool:
    """True for an integer >= 1 that is not a bool: a fraction or a numeric
    string is refused, not truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


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
        if not all(_is_dim(r.dim) for r in self.registers):
            raise ProtocolError("register dims must be integers >= 1")

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    @functools.cached_property
    def _by_name(self) -> dict[str, Register]:
        return {r.name: r for r in self.registers}

    def get(self, name: str) -> Register:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):  # unknown, or not a name at all
            raise ProtocolError(f"unknown register {name!r}") from None

    def dims(self, names: Sequence[str]) -> tuple[int, ...]:
        # a 1-tuple of a tuple: no key of _layout or _index_map has that shape
        key = (tuple(names),)
        try:
            return self._layouts[key]
        except (KeyError, TypeError):  # not yet looked up, or not names at all
            found = tuple(self.get(n).dim for n in names)
        self._layouts[key] = found  # only known names get here
        return found

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

    def _union(self, regs: tuple[tuple[str, ...], ...]) -> tuple[tuple[str, ...], int]:
        """The known names in the tuples ``regs``, in table order, and their levels."""
        key = ("union", regs)
        if key not in self._layouts:
            used = {r for names in regs for r in names}
            union = tuple(r for r in self.names if r in used)
            self._layouts[key] = union, math.prod(self.dims(union))
        return self._layouts[key]

    def _index_map(
        self, union: tuple[str, ...], regs: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """For each index of an operator on ``union``: its index on ``regs``,
        a subset in any order, and itself with the digits of ``regs`` set to 0."""
        key = (union, regs)
        if key not in self._layouts:
            dims = self.dims(union)
            strides = _strides(dims)
            index = np.arange(math.prod(dims), dtype=np.int64)
            sub, rest = np.zeros_like(index), index
            for at in map(union.index, regs):
                digit = index // strides[at] % dims[at]
                sub, rest = sub * dims[at] + digit, rest - digit * strides[at]
            self._layouts[key] = sub, rest
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


@dataclass(frozen=True)
class MeasurementStep:
    """One local measurement; its operators all act on the same registers."""

    party: str
    operators: tuple[MeasurementOperator, ...]
    branches: Mapping[str, object]

    @functools.cached_property
    def _kernel(self) -> tuple["_Kernels", int]:
        """The stack of kernels that holds this step's operators, and the
        step's slot in it; equal parsed steps share a slot of their group's."""
        stack = np.array([[op.matrix for op in self.operators]])
        return _kernels(stack, [self.operators[0].regs])[0]


@dataclass(frozen=True, eq=False)
class _Kernels:
    """The operators of a stack of steps on ``regs``, ``outcomes`` each, as
    the walk reads them: column c of the step at slot s holds the entries
    ``start[s * L + c]`` to ``start[s * L + c + 1]`` of ``outcome``, ``row``
    and ``value``, its nonzeros in every operator, by operator and then row
    (L the levels of ``regs``)."""

    regs: tuple[str, ...]
    outcomes: int
    start: np.ndarray
    outcome: np.ndarray
    row: np.ndarray
    value: np.ndarray


def _kernels(stacks: np.ndarray, regs: Sequence[tuple[str, ...]]) -> list[tuple[_Kernels, int]]:
    """The kernels of the steps of ``stacks``, (steps, k, L, L), step s on
    ``regs[s]``: one stack of kernels per run of steps on the same registers.
    Returns each step's stack and its slot there."""
    steps, k, levels, _ = stacks.shape
    step, column, outcome, row = np.nonzero(stacks.transpose(0, 3, 1, 2) != 0)
    start = np.searchsorted(step * levels + column, np.arange(steps * levels + 1))
    value, found = stacks[step, outcome, row, column], []
    for union, run in itertools.groupby(regs):
        s0, s1 = len(found), len(found) + len(list(run))
        e0, e1 = start[s0 * levels], start[s1 * levels]
        at = start[s0 * levels : s1 * levels + 1] - e0
        kernels = _Kernels(union, k, at, outcome[e0:e1], row[e0:e1], value[e0:e1])
        found += [(kernels, s - s0) for s in range(s0, s1)]
    return found


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


def _pair_parts(entry: Sequence, n: int) -> tuple | None:
    """The real parts and then the imaginary parts of ``entry`` when it is
    ``n`` [re, im] pairs of numbers: ints within int64 and floats, numpy
    scalars included, none a bool; else None."""
    try:
        if len(entry) != n:
            return None
        re, im = zip(*entry, strict=True)
    except (TypeError, ValueError):  # a number where a list belongs, or a pair of another length
        return None
    parts = re + im
    types = set(map(type, parts))
    if types == {float}:
        return parts
    numbers = (int, float, np.integer, np.floating)
    if bool in types or not all(issubclass(t, numbers) for t in types):
        return None
    ints = [part for part in parts if isinstance(part, (int, np.integer))]
    return parts if not ints or -(2**63) <= min(ints) <= max(ints) < 2**63 else None


def _complex(parts: np.ndarray) -> np.ndarray:
    """Real parts and then imaginary parts, (..., 2, n), as complex numbers
    (..., n), exactly."""
    return np.ascontiguousarray(np.swapaxes(parts, -1, -2)).view(complex)[..., 0]


def _matrix_from_json(entry: Sequence, name: str) -> np.ndarray:
    """An n x n array of [re, im] number pairs (:func:`_pair_parts`) as a
    complex matrix, exactly."""
    try:
        rows = [_pair_parts(row, len(entry)) for row in entry]
    except TypeError:  # a number where a list belongs
        rows = []
    if not rows or None in rows:
        raise ProtocolError(f"operator {name!r} matrix is not an n x n array of [re, im] pairs")
    return _complex(np.array(rows, dtype=float).reshape(len(rows), 2, -1))


def _vector_parts(entry: Sequence, name: str, n: int) -> tuple:
    """The parts (:func:`_pair_parts`) of ``n`` [re, im] number pairs that
    are finite and not all zero."""
    parts = _pair_parts(entry, n)
    if parts is None:
        raise ProtocolError(f"operator {name!r} vector is not {n} [re, im] number pairs")
    norm = math.hypot(*parts)  # inf or NaN when a part is, or when it overflows
    if not math.isfinite(norm) and not all(map(math.isfinite, parts)):
        raise ProtocolError(f"operator {name!r} vector has non-finite entries")
    if not norm:
        raise ProtocolError(f"operator {name!r} vector is zero")
    return parts


def _projectors(vectors: np.ndarray) -> np.ndarray:
    """|v><v| / <v|v> for each row v of ``vectors``, v first scaled by the
    power of two that puts its largest part in [1, 2) (exactly, and so that
    <v|v> neither overflows nor underflows)."""
    m, n = vectors.shape
    v = _power_of_two_scaled(np.repeat(np.arange(m), n), vectors.reshape(-1), m).reshape(m, n)
    return v[:, :, None] * v[:, None, :].conj() / _abs2(v).sum(axis=1)[:, None, None]


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
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """A ``proj`` item's registers and the flat index of each listed level."""
    regs = _distinct_regs(item["regs"], name)
    dims = table.dims(regs)
    strides = _strides(dims).tolist()
    flat = []
    for level in item["levels"]:
        if len(level) != len(regs):
            raise ProtocolError(f"level {level} arity mismatch for regs {regs}")
        if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in level):
            raise ProtocolError(f"operator {name!r} level {level} is not one integer per register")
        if not all(0 <= k < d for k, d in zip(level, dims)):
            raise ProtocolError(f"operator {name!r} level {level} is outside dims {dims}")
        flat.append(sum(k * s for k, s in zip(level, strides)))
    return regs, tuple(flat)


def _acts_on(ops: np.ndarray, level: np.ndarray, rest: np.ndarray, tol: float) -> np.ndarray:
    """For each operator of ``ops``, n x L x L: True unless it factors as
    N (x) I on a register, i.e. equals its block at the register's level 0
    times delta(level of the register) to within tol * max(max |M|, 1); the
    register's index maps ``level`` and ``rest`` (:meth:`RegisterTable._index_map`)
    are one for all operators or one row each."""
    factored = ops[np.arange(len(ops))[:, None, None], rest[..., :, None], rest[..., None, :]]
    factored = factored * (level[..., :, None] == level[..., None, :])
    scale = np.maximum(np.abs(ops).max(axis=(1, 2)), 1.0)
    return np.abs(ops - factored).max(axis=(1, 2)) > tol * scale


@dataclass
class _StepParts:
    """A measurement step as the tree pass of :func:`_compile` reads it: the
    operator names, the position of the complement operator, the parts
    (position, registers, and a ``proj``'s levels, a ``matrix`` or a
    ``vector``'s projector), the ``vector`` parts whose projectors are not
    yet formed (position, registers, the entry's checked parts) and the
    union of their registers in table order."""

    names: list[str]
    complement: int | None
    parts: list[tuple[int, tuple[str, ...], object]]
    vectors: list[tuple[int, tuple[str, ...], tuple]]
    union: tuple[str, ...]
    compiled: tuple = ()  # its kernels, slot, operators and their touches


def _step_parts(docs: Sequence[Mapping], table: RegisterTable) -> _StepParts:
    """The operator documents of one step, checked and read, not yet embedded."""
    names: list[str] = []
    complements: list[int] = []
    parts: list[tuple[int, tuple[str, ...], object]] = []
    vectors: list[tuple[int, tuple[str, ...], tuple]] = []
    for doc in docs:
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("measurement operator without a name")
        complement = doc.get("complement", False)
        if complement is not True and complement is not False:
            raise ProtocolError(f"operator {name!r} complement must be true or false")
        if complement:
            complements.append(len(names))
        elif "proj" in doc:
            items = tuple(_proj_levels(item, table, name) for item in doc["proj"])
            parts.append((len(names), table._union(tuple(r for r, _ in items))[0], items))
        elif "matrix" in doc:
            regs = _distinct_regs(doc["regs"], name)
            mat = _matrix_from_json(doc["matrix"], name)
            full = math.prod(table.dims(regs))
            if mat.shape != (full, full):
                raise ProtocolError(
                    f"operator {name!r} matrix shape {mat.shape} does not match regs {regs}"
                )
            if not np.isfinite(mat).all():
                raise ProtocolError(f"operator {name!r} matrix has non-finite entries")
            parts.append((len(names), regs, mat))
        elif "vector" in doc:
            regs = _distinct_regs(doc["regs"], name)
            checked = _vector_parts(doc["vector"], name, math.prod(table.dims(regs)))
            vectors.append((len(names), regs, checked))
        else:
            raise ProtocolError(
                f"operator {name!r} needs 'proj', 'matrix', 'vector' or 'complement'"
            )
        names.append(name)

    if len(names) != len(set(names)):
        raise ProtocolError("operator names within a step must be unique")
    if len(complements) > 1:
        raise ProtocolError("at most one complement operator per step")
    union, full = table._union(tuple(part[1] for part in parts + vectors))
    if not union:
        raise ProtocolError("measurement step acts on no registers")
    if full > _MAX_STEP_LEVELS:
        raise ProtocolError(
            f"measurement step on {union} has {full} levels, above the limit of "
            f"{_MAX_STEP_LEVELS} for a dense operator"
        )
    if len(names) * full * full > _MAX_STEP_ENTRIES:
        raise ProtocolError(
            f"measurement step on {union} has {len(names)} operators on {full} levels, "
            f"above the limit of {_MAX_STEP_ENTRIES} dense operator entries"
        )
    return _StepParts(names, complements[0] if complements else None, parts, vectors, union)


def _compile_steps(
    steps: Sequence[tuple[_StepParts, MeasurementStep]],
    table: RegisterTable,
    by_reg: Mapping[str, ResourceDecl],
    tol: float,
) -> None:
    """Set the operators of each step node from its parts; raises unless
    every step satisfies completeness.  Equal steps (the same registers,
    outcomes, complement position and part bytes, whatever the names) are
    compiled once and share a slot of a stack, and their operators when
    their names are equal too.  The distinct steps with the same levels and
    outcomes are compiled in one pass, of at most ``_MAX_GROUP_ENTRIES``."""
    pending: dict[int, tuple[list, list]] = {}  # each length's parts and their steps, in read order
    for step, _ in steps:
        for vector in step.vectors:
            flat, found = pending.setdefault(len(vector[2]) // 2, ([], []))
            flat += vector[2]
            found.append((step, vector))
    for n, (flat, found) in pending.items():  # each distinct vector's projector, formed once
        rows = _complex(np.array(flat, dtype=float).reshape(-1, 2, n))
        distinct, inverse = _bins(rows.view(f"V{16 * n}")[:, 0])  # by their bytes
        vectors = distinct.view(complex).reshape(-1, n)
        projectors, per = [], max(1, _MAX_GROUP_ENTRIES // (n * n))  # at most per pass
        for at in range(0, len(vectors), per):
            projectors += list(_projectors(vectors[at : at + per]))
        for (step, vector), u in zip(found, inverse.tolist()):
            step.parts.append((vector[0], vector[1], projectors[u]))

    distinct: dict[tuple, _StepParts] = {}
    twins = []  # the first step equal to each
    for step, _ in steps:
        key = (step.union, len(step.names), step.complement) + tuple(
            (j, regs, part.tobytes() if isinstance(part, np.ndarray) else part)
            for j, regs, part in step.parts
        )
        twins.append(distinct.setdefault(key, step))
    classes: dict[tuple[int, int], list[_StepParts]] = {}
    for step in distinct.values():
        classes.setdefault((math.prod(table.dims(step.union)), len(step.names)), []).append(step)
    for (levels, k), members in classes.items():
        members.sort(key=lambda step: step.union)  # the steps on one union in a run
        per = max(1, _MAX_GROUP_ENTRIES // (k * levels * levels))
        for start in range(0, len(members), per):
            _compile_pass(members[start : start + per], table, by_reg, tol)
    operators: dict[tuple, tuple[MeasurementOperator, ...]] = {}
    for (step, node), twin in zip(steps, twins):
        kernels, slot, stack, touches = twin.compiled
        key = (id(twin), *step.names)
        if key not in operators:
            unions = itertools.repeat(step.union)
            operators[key] = tuple(map(MeasurementOperator, step.names, unions, stack, touches))
        # the node is still being built; _kernel is the cached property's slot
        vars(node).update(operators=operators[key], _kernel=(kernels, slot))


def _compile_pass(
    steps: list[_StepParts], table: RegisterTable, by_reg: Mapping[str, ResourceDecl], tol: float
) -> None:
    """Compile ``steps``, which have as many levels and outcomes as each
    other, in one read-only stack, and set their ``compiled``: each operator
    dense on its step's registers (in table order), the complement as the
    identity minus the others, and marked with the resources whose registers
    it does not leave as N (x) I."""
    k, levels = len(steps[0].names), math.prod(table.dims(steps[0].union))
    stack = np.zeros((len(steps), k, levels, levels), dtype=complex)
    ops = stack.reshape(-1, levels, levels)  # operator j of step s at s * k + j
    # the matrix and projector parts, by registers
    dense: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[list[int], list[np.ndarray]]] = {}
    diagonal = np.arange(levels)
    for s, step in enumerate(steps):
        for j, regs, part in step.parts:
            if isinstance(part, np.ndarray):
                ids, arrays = dense.setdefault((step.union, regs), ([], []))
                ids.append(s * k + j)
                arrays.append(part)
                continue
            # a proj operator is diagonal: the number of times each level is listed
            for iregs, flat in part:
                sub, _ = table._index_map(step.union, iregs)
                counts = np.bincount(np.array(flat, dtype=np.int64), minlength=len(sub))
                ops[s * k + j, diagonal, diagonal] += counts[sub]
    for (union, regs), (ids, arrays) in dense.items():
        sub, rest = table._index_map(union, regs)
        ops[ids] = np.array(arrays)[:, sub[:, None], sub] * (rest[:, None] == rest)
    owing = [(s, step.complement) for s, step in enumerate(steps) if step.complement is not None]
    if owing:
        at, complement = np.array(owing).T
        others = np.array([[j for j in range(k) if j != c] for c in complement.tolist()])
        total = 0  # summed from 0 in operator order, as sum() does
        for j in range(k - 1):
            total = total + stack[at, others[:, j]]
        stack[at, complement] = np.eye(levels) - total

    # a step's sum of M^H M is A^H A, A its operators stacked as rows
    a = stack.reshape(len(steps), k * levels, levels)
    deviation = np.abs(a.conj().transpose(0, 2, 1) @ a - np.eye(levels))
    if np.any(deviation.max(axis=(1, 2)) > tol):
        raise ProtocolError("measurement operators do not satisfy completeness")

    # the resources whose registers each operator does not leave as N (x) I:
    # each operator against each register of its step that a resource holds,
    # at most a pass's worth of entries at a time
    tests = [
        (s * k + j, r, *table._index_map(step.union, (r,)))
        for s, step in enumerate(steps) for r in step.union if r in by_reg for j in range(k)
    ]
    touched: list[list[str]] = [[] for _ in range(len(ops))]
    per = max(1, _MAX_GROUP_ENTRIES // (levels * levels))
    for start in range(0, len(tests), per):
        at, regs, level, rest = zip(*tests[start : start + per])
        acts = _acts_on(ops[list(at)], np.array(level), np.array(rest), tol)
        for o, r in itertools.compress(zip(at, regs), acts.tolist()):
            touched[o].append(by_reg[r].name)
    stack.flags.writeable = False  # equal steps share its views
    kernels = _kernels(stack, [step.union for step in steps])
    for s, step in enumerate(steps):
        step.compiled = (*kernels[s], stack[s], list(map(frozenset, touched[s * k : s * k + k])))


def parse_protocol(doc: Mapping, tol: float = DEFAULT_TOL) -> ProtocolSpec:
    """Validate and compile a protocol document.

    Checks register uniqueness, resource wiring, measurement completeness,
    measurement locality (a party may only act on registers it owns at that
    point of the tree), and single-use of every teleport resource.  A
    document of the wrong shape (a missing key, a number where a list or a
    mapping belongs) raises :class:`ProtocolError` as well.

    The cyclic garbage collector is paused meanwhile, as in
    :func:`~qrubik.states.load_state_set` (and with its caveat about threads).
    """
    try:
        with _collector_paused():
            return _compile(doc, tol)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ProtocolError(f"malformed protocol document: {exc}") from exc


def _compile(doc: Mapping, tol: float) -> ProtocolSpec:
    name, notes = doc.get("name", "protocol"), doc.get("notes", [])
    if not isinstance(name, str):
        raise ProtocolError("protocol name must be a string")
    if not isinstance(notes, (list, tuple)) or not all(isinstance(n, str) for n in notes):
        raise ProtocolError("protocol notes must be a list of strings")
    table = RegisterTable(
        tuple(Register(r["name"], r["owner"], r["dim"]) for r in doc["registers"])
    )
    root_doc = doc["root"]

    resources = []
    seen = set()
    for r in doc.get("resources", []):
        res = ResourceDecl(r["name"], tuple(r["pair"]), r["dim"], tuple(r["registers"]))
        if not _is_dim(res.dim):
            raise ProtocolError(f"resource {res.name!r} dim must be an integer >= 1")
        if res.name in seen:
            raise ProtocolError(f"duplicate resource {res.name!r}")
        seen.add(res.name)
        if len(res.pair) != 2 or res.pair[0] == res.pair[1]:
            raise ProtocolError(f"resource {res.name!r} must join two distinct parties")
        if {table.get(n).owner for n in res.registers} != set(res.pair):
            raise ProtocolError(f"resource {res.name!r} registers are not held by its party pair")
        for n in res.registers:
            if table.get(n).dim != res.dim:
                raise ProtocolError(f"resource {res.name!r} register {n!r} dim mismatch")
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
    leaves: dict[str, Leaf] = {}  # one leaf per answer
    # the tree pass checks structure and reads each step into ``steps``; their
    # operators are compiled once it is done.  (``steps`` is passed, not
    # closed over, so that parse_node's reference to itself keeps no step
    # alive after the pass.)
    def parse_node(node: Mapping, owners: dict[str, str], steps: list) -> object:
        kind = node.get("type")
        if kind == "leaf":
            answer = node.get("answer")
            if not isinstance(answer, str) or not answer:
                raise ProtocolError("leaf without an answer")
            return leaves.get(answer) or leaves.setdefault(answer, Leaf(answer))
        if kind == "teleport":
            src = node["source"]
            res = next((r for r in resources if r.name == node["resource"]), None)
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
            then = parse_node(node["then"], {**owners, src: dest}, steps)
            return Teleport(source=src, resource=res.name, to=dest, then=then)
        if kind == "measure":
            party = node["party"]
            if party not in parties:
                raise ProtocolError(f"unknown measuring party {party!r}")
            step = _step_parts(node["operators"], table)
            measured = MeasurementStep(party, (), {})
            steps.append((step, measured))
            for reg in step.union:
                if owners[reg] != party:
                    raise ProtocolError(
                        f"party {party!r} measures register {reg!r} owned by {owners[reg]!r}"
                    )
            branch_docs = node.get("branches", {})
            if set(branch_docs) != set(step.names):
                raise ProtocolError(
                    f"branches {sorted(branch_docs)} do not match outcomes {sorted(step.names)}"
                )
            for name in branch_docs:
                measured.branches[name] = parse_node(branch_docs[name], owners, steps)
            return measured
        raise ProtocolError(f"unknown node type {kind!r}")

    owners0 = {r.name: r.owner for r in table.registers}
    steps: list[tuple[_StepParts, MeasurementStep]] = []
    try:
        root = parse_node(root_doc, owners0, steps)
    finally:
        # also when the tree pass fails: the steps read so far come before
        # its fault in depth-first order, so their completeness is checked first
        _compile_steps(steps, table, by_reg, tol)
    return ProtocolSpec(name, table, resources, root, tuple(notes))


def _abs2(amp: np.ndarray) -> np.ndarray:
    return amp.real * amp.real + amp.imag * amp.imag


def _ranges(first: np.ndarray, many: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices ``first[i]`` to ``first[i] + many[i] - 1`` for each i in
    turn, and the i of each."""
    owner = np.repeat(np.arange(many.size), many)
    return owner, np.arange(owner.size) + np.repeat(first - (np.cumsum(many) - many), many)


def _measure_fault(step: MeasurementStep, live: Sequence[str], zero: bool) -> str | None:
    """Why ``step`` cannot measure candidates with registers ``live``, some
    of them the zero state when ``zero``, or None."""
    for r in step.operators[0].regs:
        if r not in live:
            return f"operator {step.operators[0].name!r} acts on {r!r}, which is no longer live"
    return "cannot measure the zero state" if zero else None


def _outcomes(
    kernels: _Kernels,
    slot: np.ndarray,
    count: int,
    table: RegisterTable,
    pos: np.ndarray,
    amp: np.ndarray,
    norm2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Apply every outcome operator of the steps of ``kernels`` to ``count``
    candidates, entry e meeting the step at ``slot[e]``.

    ``pos`` and ``amp`` are the candidates' entries as the walk holds them
    (:func:`_walk`), and ``norm2`` their |psi|^2.  Returns the Born
    probabilities |M psi|^2 / |psi|^2, (k, count), the mask of those above
    the pruning cutoff, and the survivors' entries and norms, renumbered in
    (outcome, candidate) order.  All outcomes are formed in one pass, outcome
    o's entries at keys ``o * count * size + pos``, and the sums at one key
    run in the order of a pass over the one step alone.  Raises before
    forming them unless every key fits in int64.
    """
    size, k = table.size, kernels.outcomes
    _check_positions(size, outcomes=k, candidates=count)
    strides, dims, inner, offset = table._layout(kernels.regs)
    # each entry's index on the step's registers picks the operator column it
    # meets; each nonzero there gives a product, by entry, operator and row
    sub = sum(pos // s % d * i for s, d, i in zip(strides, dims, inner))
    column = slot * offset.size + sub
    first = kernels.start[column]
    entry, at = _ranges(first, kernels.start[column + 1] - first)
    # a product goes to the entry's position with that index replaced by its
    # row, and those that land together are summed, by entry and then row
    key, amp = _coalesced(
        kernels.outcome[at] * (count * size)
        + (pos - offset[sub])[entry]
        + offset[kernels.row[at]],
        kernels.value[at] * amp[entry],
    )
    cell = key // size  # outcome * count + candidate
    found = np.bincount(cell, _abs2(amp), minlength=k * count)
    born = found.reshape(k, count) / norm2
    keep = born > _PRUNE
    entry = keep.reshape(-1)[cell]
    pos = (np.cumsum(keep) - 1)[cell[entry]] * size + key[entry] % size
    return born, keep, pos, amp[entry], found[keep.reshape(-1)]


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


def _check_positions(size: int, **counts: int) -> None:
    """Raise unless the product of ``counts`` (each named) times ``size``
    register-table levels is below 2^63: the walk's int64 positions."""
    if math.prod(counts.values()) * size >= 2**63:
        named = " x ".join(f"{count} {name}" for name, count in counts.items())
        raise ProtocolError(
            f"positions do not fit in int64: {named} x {size} register-table levels >= 2^63"
        )


def _initial(spec: ProtocolSpec, sset: StateSet) -> tuple[np.ndarray, np.ndarray]:
    """The root's entries, sorted by position: the candidates with every
    shared pair in sum_k |k,k>, each scaled by a power of two
    (:func:`_power_of_two_scaled`), which leaves every Born ratio as it is.
    Raises before allocating unless there are at most
    ``_MAX_INITIAL_ENTRIES`` entries and every position fits in int64
    (:func:`_check_positions`)."""
    table = spec.table
    row, idx, amp = sset.term_arrays
    entries = row.size * math.prod(res.dim for res in spec.resources)
    if entries > _MAX_INITIAL_ENTRIES:
        raise ProtocolError(
            f"the walk starts from {entries} entries (the candidates' terms times the "
            f"levels of every shared pair), above the limit of {_MAX_INITIAL_ENTRIES}"
        )
    _check_positions(table.size, candidates=len(sset))
    strides = table.strides
    principal = np.array([strides[r.name] for r in spec.principal_registers], dtype=np.int64)
    amp = _power_of_two_scaled(row, amp, len(sset))
    pairs = np.zeros(1, dtype=np.int64)
    for res in spec.resources:
        step = strides[res.registers[0]] + strides[res.registers[1]]
        pairs = (pairs[:, None] + step * np.arange(res.dim)).reshape(-1)
    pos = row * table.size + idx @ principal
    pos = (pos[:, None] + pairs).reshape(-1)
    order = np.argsort(pos)
    return pos[order], np.repeat(amp, pairs.size)[order]


@dataclass
class _Node:
    """A node of the tree as the level walk reaches it, with its survivors,
    the frontier's candidates ``start`` to ``start + count``.  ``path`` is the
    branch taken at each node above it (0 past a teleport), so that paths
    sort in depth-first order."""

    tree: object
    path: tuple[int, ...]
    start: int
    count: int
    live: tuple[str, ...]
    owners: Mapping[str, str]
    consumed: frozenset[str]


def _walk(
    spec: ProtocolSpec, sset: StateSet, tol: float, orthogonality: bool
) -> tuple[list[tuple[tuple[int, ...], str, np.ndarray, np.ndarray, frozenset[str]]], bool]:
    """Walk the tree a level at a time with all candidates together.

    The nodes at one depth are one frontier: one sparse array of entries
    over all their candidates, numbered node by node, and each candidate's
    |psi|^2, index in the set and path probability.  Entry e is the
    amplitude ``amp[e]`` at ``pos[e] = candidate * table.size + flat``, where
    ``flat`` is the C-order index over the whole register table and a
    register that is no longer live sits at level 0; positions are unique
    and sorted, and amplitudes nonzero.  The measurement steps whose
    operators share a stack of kernels are applied in one pass of
    :func:`_outcomes`.  A candidate leaves a branch whose Born probability is
    at most the pruning cutoff.

    Returns each leaf reached, in depth-first order, as its path, answer,
    survivors' indices and path probabilities and consumed resources; and,
    with ``orthogonality``, whether the survivors at every node reached stay
    mutually orthogonal, read off one block-diagonal Gram matrix per
    frontier.  A fault is raised as a depth-first walk meets it: only the
    nodes before it in depth-first order go on, and it is raised unless one
    of them faults or is found not orthogonal first.  A frontier whose
    positions would pass int64 is refused at once.
    """
    if not len(sset):
        raise ProtocolError(_NO_STATES)
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

    table, size, n = spec.table, spec.table.size, len(sset)
    pos, amp = _initial(spec, sset)
    owners = {r.name: r.owner for r in table.registers}
    nodes = [_Node(spec.root, (), 0, n, table.names, owners, frozenset())]
    norm2 = np.bincount(pos // size, _abs2(amp), minlength=n)
    frontier = pos, amp, norm2, np.arange(n), np.ones(n)
    # (path, 0, None) for survivors found not orthogonal, (path, 1, error) for
    # a fault: at one node the depth-first walk checks orthogonality first
    events: list[tuple[tuple[int, ...], int, ValueError | None]] = []
    leaves = []
    while nodes:
        if events:
            first = min(events, key=lambda event: event[:2])[0]
            nodes = [node for node in nodes if node.path < first]
        buckets, frontier = _buckets(nodes, frontier, size, events)
        if orthogonality:
            path = _first_nonorthogonal_node(
                [node for _, bucket in buckets for node in bucket], frontier, size, tol
            )
            if path is not None:
                events.append((path, 0, None))
        grown = []
        for key, bucket in buckets:
            if isinstance(key, _Kernels):
                grown.append(_measured(key, bucket, table, frontier))
                continue
            for node in bucket:
                if isinstance(node.tree, Leaf):
                    index, prob = (a[node.start : node.start + node.count] for a in frontier[3:])
                    leaves.append((node.path, node.tree.answer, index, prob, node.consumed))
                elif isinstance(node.tree, Teleport):
                    try:
                        grown.append(_teleported(node, spec, tol, frontier))
                    except ValueError as error:
                        events.append((node.path, 1, error))
        # each part numbers its candidates from 0: shift them to follow the last
        total, parts = 0, []
        for children, (pos, *rest) in grown:
            _check_positions(size, candidates=total + len(rest[1]))
            for child in children:
                child.start += total
            parts.append((pos + total * size, *rest))
            total += len(rest[1])
        nodes = [child for children, _ in grown for child in children]
        if parts:
            frontier = tuple(np.concatenate(arrays) for arrays in zip(*parts))

    first = min(events, key=lambda event: event[:2]) if events else None
    if first is not None and first[2] is not None:
        raise first[2]
    leaves.sort(key=lambda leaf: leaf[0])
    return leaves, first is None


def _buckets(
    nodes: list[_Node], frontier: tuple[np.ndarray, ...], size: int, events: list
) -> tuple[list[tuple[object, list[_Node]]], tuple[np.ndarray, ...]]:
    """The nodes of a frontier in buckets, in order of first appearance: the
    steps that share a stack of kernels (keyed by it), the steps that fault
    (None; their faults go to ``events``), and the other nodes by kind.

    ``frontier`` holds the entries (positions and amplitudes), then each
    candidate's |psi|^2, index in the set and path probability.  It is
    returned with the candidates of the nodes only, renumbered bucket by
    bucket, and each node's ``start`` moved to match.
    """
    pos, amp, norm2, *rest = frontier
    some_zero = not norm2.all()
    buckets: dict[object, list[_Node]] = {}
    for node in nodes:
        key = type(node.tree)
        if isinstance(node.tree, MeasurementStep):
            zero = some_zero and not norm2[node.start : node.start + node.count].all()
            fault = _measure_fault(node.tree, node.live, zero)
            if fault:
                events.append((node.path, 1, ValueError(fault)))
            key = None if fault else node.tree._kernel[0]
        buckets.setdefault(key, []).append(node)
    nodes = [node for bucket in buckets.values() for node in bucket]
    counts = np.array([node.count for node in nodes], dtype=np.int64)
    shift = np.array([node.start for node in nodes], dtype=np.int64) - (np.cumsum(counts) - counts)
    for node, by in zip(nodes, shift.tolist()):
        node.start -= by
    if not shift.any() and counts.sum() == norm2.size:
        return list(buckets.items()), frontier
    take = np.repeat(shift, counts) + np.arange(counts.sum())
    where = np.full(norm2.size, -1)
    where[take] = np.arange(take.size)
    row = where[pos // size]
    kept = np.flatnonzero(row >= 0)
    # a candidate's entries are one run, sorted by position: a stable sort by
    # the new number keeps them so
    kept = kept[np.argsort(row[kept], kind="stable")]
    entries = row[kept] * size + pos[kept] % size, amp[kept]
    return list(buckets.items()), (*entries, *(a[take] for a in (norm2, *rest)))


def _measured(
    kernels: _Kernels, nodes: list[_Node], table: RegisterTable, frontier: tuple[np.ndarray, ...]
) -> tuple[list[_Node], list[np.ndarray]]:
    """The steps at ``nodes``, whose operators ``kernels`` holds, applied in
    one pass of :func:`_outcomes` to their survivors, the frontier's
    candidates from ``nodes[0].start`` on.  Returns the children reached,
    by outcome and then node, and their frontier arrays, the candidates
    numbered from 0."""
    (pos, amp, norm2, index, prob), size = frontier, table.size
    c0, c1 = nodes[0].start, nodes[-1].start + nodes[-1].count
    e0, e1 = np.searchsorted(pos, [c0 * size, c1 * size]).tolist()
    pos = pos[e0:e1] - c0 * size
    starts = np.array([node.start for node in nodes], dtype=np.int64) - c0
    runs = np.diff(np.searchsorted(pos, starts * size), append=pos.size)
    slot = np.repeat([node.tree._kernel[1] for node in nodes], runs)
    born, keep, *arrays = _outcomes(kernels, slot, c1 - c0, table, pos, amp[e0:e1], norm2[c0:c1])
    arrays += np.broadcast_to(index[c0:c1], keep.shape)[keep], (prob[c0:c1] * born)[keep]
    kept = np.add.reduceat(keep, starts, axis=1, dtype=np.int64).reshape(-1).tolist()
    children, total = [], 0
    for (o, node), count in zip(itertools.product(range(len(keep)), nodes), kept):
        if count:
            op = node.tree.operators[o]
            children.append(
                _Node(
                    node.tree.branches[op.name], node.path + (o,), total, count,
                    node.live, node.owners, node.consumed | op.touches,
                )
            )
            total += count
    return children, arrays


def _teleported(
    node: _Node, spec: ProtocolSpec, tol: float, frontier: tuple[np.ndarray, ...]
) -> tuple[list[_Node], list[np.ndarray]]:
    """The teleport at ``node`` applied to its survivors, the frontier's
    candidates from ``node.start`` on: the resource pair factored out of
    every candidate and the source moved.  Returns its child, and the
    child's frontier arrays, the candidates numbered from 0."""
    (pos, amp, norm2, index, prob), table, tree = frontier, spec.table, node.tree
    size, resource, count = table.size, spec.resource(tree.resource), node.count
    if resource.name in node.consumed:
        raise ValueError(f"resource {resource.name!r} already consumed")
    if table.get(tree.source).dim != resource.dim:
        raise ValueError(
            f"teleport of {tree.source!r} needs a dim-{table.get(tree.source).dim} resource"
        )
    c0, c1 = node.start, node.start + count
    e0, e1 = np.searchsorted(pos, [c0 * size, c1 * size]).tolist()
    pos, amp = pos[e0:e1] - c0 * size, amp[e0:e1]
    d = resource.dim
    s1, s2 = (table.strides[r] for r in resource.registers)
    first, second = pos // s1 % d, pos // s2 % d
    rest = pos - first * s1 - second * s2
    # a candidate's mat[rest, (k, l)] must be v[rest] delta_kl, v the mean
    # of the diagonal: ||mat - v mes^T|| counts the entries off the
    # diagonal, the diagonal entries minus v, and the missing ones (-v)
    diag = first == second
    key, inverse = _bins(rest[diag])
    v = _summed(inverse, amp[diag], key.size) / d
    missing = d - np.bincount(inverse, minlength=key.size)
    row = pos // size
    residual = (
        np.bincount(row[~diag], _abs2(amp[~diag]), minlength=count)
        + np.bincount(row[diag], _abs2(amp[diag] - v[inverse]), minlength=count)
        + np.bincount(key // size, missing * _abs2(v), minlength=count)
    )
    if np.any(np.sqrt(residual) > tol * np.maximum(np.sqrt(norm2[c0:c1]), 1e-30)):
        raise ValueError(
            f"resource {resource.name!r} is no longer in its initial entangled state"
        )
    nonzero = v != 0
    pos, amp = key[nonzero], v[nonzero]
    child = _Node(
        tree.then,
        node.path + (0,),
        0,
        count,
        tuple(r for r in node.live if r not in resource.registers),
        {**node.owners, tree.source: tree.to},
        node.consumed | {resource.name},
    )
    norm2 = np.bincount(pos // size, _abs2(amp), minlength=count)
    return [child], [pos, amp, norm2, index[c0:c1], prob[c0:c1]]


def _first_nonorthogonal_node(
    nodes: list[_Node], frontier: tuple[np.ndarray, ...], size: int, tol: float
) -> tuple[int, ...] | None:
    """The path of the first node in depth-first order at which two
    survivors i, j have |<i|j>| > tol * |i| * |j|, or None.

    The frontier's Gram matrix is block-diagonal: its columns are (node,
    flat index), so that only candidates at one node meet.  Its entries off
    the diagonal are summed from the products of each entry with those after
    it in its column.
    """
    pos, amp, norm2, *_ = frontier
    counts = np.array([node.count for node in nodes], dtype=np.int64)
    if counts.max(initial=0) < 2:
        return None
    owner = np.repeat(np.arange(len(nodes)), counts)
    row = pos // size
    column = owner[row] * size + pos % size
    order = np.argsort(column, kind="stable")  # a column's entries by candidate
    column = column[order]
    after = np.searchsorted(column, column, side="right") - np.arange(1, column.size + 1)
    left, right = _ranges(np.arange(1, column.size + 1), after)
    left, right = order[left], order[right]
    pairs, inverse = _bins(row[left] * owner.size + row[right])
    gram = _summed(inverse, amp[left].conj() * amp[right], pairs.size)
    i, j = np.divmod(pairs, owner.size)
    norms = np.sqrt(norm2)
    bad = np.abs(gram) > tol * norms[i] * norms[j]
    if not bad.any():
        return None
    return min(nodes[k].path for k in set(owner[i[bad]].tolist()))


def run_protocol(
    spec: ProtocolSpec, sset: StateSet, tol: float = DEFAULT_TOL
) -> ExecutionReport:
    """Traverse the tree for every candidate state and account the resources."""
    branches: list[list[BranchOutcome]] = [[] for _ in range(len(sset))]
    for _, answer, index, prob, consumed in _walk(spec, sset, tol, orthogonality=False)[0]:
        resources = tuple(sorted(consumed))
        for i, p in zip(index.tolist(), prob.tolist()):
            branches[i].append(BranchOutcome(answer, p, resources))

    outcomes = []
    copies = {res.name: 0.0 for res in spec.resources}
    weight = 1.0 / len(sset)
    for label, found in zip(sset.labels, branches):
        total = sum(b.probability for b in found)
        correct = bool(found) and all(b.answer == label for b in found)
        for b in found:
            for name in b.resources:
                copies[name] += weight * b.probability
        outcomes.append(
            StateOutcome(
                label=label,
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
    return _walk(spec, sset, tol, orthogonality=True)[1]
