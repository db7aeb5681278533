import copy
import functools
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
import pytest

from qrubik import (
    PartyLayout,
    ProtocolError,
    PureState,
    StateSet,
    build_snoes,
    check_orthogonality_preservation,
    parse_protocol,
    run_protocol,
)
from qrubik.locc import (
    _PRUNE,
    BranchOutcome,
    Leaf,
    MeasurementOperator,
    MeasurementStep,
    StateOutcome,
    Teleport,
    RegisterTable,
    _initial,
    _measured,
    _Node,
    _outcomes,
    _teleported,
)
from qrubik.states import DEFAULT_TOL, _strides
from qrubik.locc import matrix_to_json
from qrubik.protocols import (
    SNAKE_3,
    bell_state_set,
    example1_protocol,
    prop1_protocol,
    prop2_protocol,
)

from reference_data import GRID39_PAIRS, dense_operator, dense_protocol


def _minimal_doc():
    return {
        "name": "toy",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2},
            {"name": "B", "owner": "Bob", "dim": 2},
        ],
        "resources": [],
        "root": {
            "type": "measure",
            "party": "Alice",
            "operators": [
                {"name": "P0", "proj": [{"regs": ["A"], "levels": [[0]]}]},
                {"name": "P1", "complement": True},
            ],
            "branches": {
                "P0": {"type": "leaf", "answer": "x"},
                "P1": {"type": "leaf", "answer": "y"},
            },
        },
    }


def test_parse_minimal_protocol():
    spec = parse_protocol(_minimal_doc())
    assert [r.name for r in spec.principal_registers] == ["A", "B"]
    assert spec.root.party == "Alice"


def test_parse_prop2_shape():
    spec = parse_protocol(prop2_protocol())
    assert len(spec.resources) == 5
    ancillas = {r for res in spec.resources for r in res.registers}
    assert len(ancillas) == 10
    assert [r.name for r in spec.principal_registers] == ["A", "B", "C"]
    # the five top-level stages appear as operator name prefixes
    stages = set()

    def walk(node):
        if hasattr(node, "operators"):
            for op in node.operators:
                if op.name.startswith("M") and op.name[1].isdigit():
                    stages.add(int(op.name[1]))
            for child in node.branches.values():
                walk(child)
        elif hasattr(node, "then"):
            walk(node.then)

    walk(spec.root)
    assert stages == {1, 2, 3, 4, 5}


def test_parse_rejects_incomplete_measurement():
    doc = _minimal_doc()
    doc["root"]["operators"] = [
        {"name": "P0", "proj": [{"regs": ["A"], "levels": [[0]]}]}
    ]
    doc["root"]["branches"] = {"P0": {"type": "leaf", "answer": "x"}}
    with pytest.raises(ProtocolError, match="completeness"):
        parse_protocol(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_parse_rejects_non_finite_matrix(value):
    # NaN slips past a plain "deviation > tol" completeness test
    doc = _minimal_doc()
    doc["root"]["operators"][0] = {
        "name": "P0",
        "regs": ["A"],
        "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [value, 0.0]]],
    }
    with pytest.raises(ProtocolError, match="non-finite"):
        parse_protocol(doc)


def test_parse_rejects_foreign_register():
    doc = _minimal_doc()
    doc["root"]["operators"][0]["proj"][0]["regs"] = ["B"]
    doc["root"]["operators"][0]["proj"][0]["levels"] = [[0]]
    with pytest.raises(ProtocolError, match="owned by"):
        parse_protocol(doc)


def test_parse_rejects_unknown_register():
    doc = _minimal_doc()
    doc["root"]["operators"][0]["proj"][0]["regs"] = ["Z"]
    with pytest.raises(ProtocolError, match="unknown register"):
        parse_protocol(doc)


def test_parse_rejects_resource_reuse_and_dim_mismatch():
    base = {
        "name": "toy",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2},
            {"name": "B", "owner": "Bob", "dim": 2},
            {"name": "a", "owner": "Alice", "dim": 2},
            {"name": "b", "owner": "Bob", "dim": 2},
        ],
        "resources": [
            {"name": "r", "pair": ["Alice", "Bob"], "dim": 2, "registers": ["a", "b"]}
        ],
    }
    doc = dict(base)
    doc["root"] = {
        "type": "teleport",
        "source": "A",
        "resource": "r",
        "to": "Bob",
        "then": {
            "type": "teleport",
            "source": "B",
            "resource": "r",
            "to": "Bob",
            "then": {"type": "leaf", "answer": "x"},
        },
    }
    with pytest.raises(ProtocolError, match="twice"):
        parse_protocol(doc)

    doc = dict(base)
    doc["registers"] = [
        {"name": "A", "owner": "Alice", "dim": 3},
        {"name": "B", "owner": "Bob", "dim": 3},
        {"name": "a", "owner": "Alice", "dim": 2},
        {"name": "b", "owner": "Bob", "dim": 2},
    ]
    doc["root"] = {
        "type": "teleport",
        "source": "A",
        "resource": "r",
        "to": "Bob",
        "then": {"type": "leaf", "answer": "x"},
    }
    with pytest.raises(ProtocolError, match="dim"):
        parse_protocol(doc)


def _one(state):
    """A one-state set."""
    return StateSet(state.layout, (state,))


def _step(*operators):
    """A measurement step on ``operators``, each branch a leaf."""
    return MeasurementStep("Alice", operators, {op.name: Leaf(op.name) for op in operators})


def _frontier(table, pos, amp, count):
    """``count`` candidates' entries as a walk frontier: with each
    candidate's |psi|^2, index and path probability."""
    norm2 = np.bincount(pos // table.size, amp.real**2 + amp.imag**2, minlength=count)
    return pos, amp, norm2, np.arange(count), np.ones(count)


def _root(spec, sset):
    """The walk's root node and its frontier."""
    table = spec.table
    owners = {r.name: r.owner for r in table.registers}
    node = _Node(spec.root, (), 0, len(sset), table.names, owners, frozenset())
    return node, _frontier(table, *_initial(spec, sset), len(sset))


def _at(table, node, frontier):
    """A node of a frontier, and its candidates' arrays, numbered from 0."""
    pos, *rest = frontier
    c0, c1 = node.start, node.start + node.count
    e0, e1 = np.searchsorted(pos, [c0 * table.size, c1 * table.size])
    arrays = pos[e0:e1] - c0 * table.size, rest[0][e0:e1], *(a[c0:c1] for a in rest[1:])
    return replace(node, start=0), arrays


def _measure(table, node, frontier):
    """The step at ``node``, alone in its frontier, through the walk's pass:
    for each operator in order, the Born probabilities and the mask of the
    survivors (:func:`_outcomes`), and the child that :func:`_measured`
    makes with its frontier arrays (None when no candidate survives)."""
    kernels, slot = node.tree._kernel
    pos, amp, norm2, *_ = frontier
    born, keep, *_ = _outcomes(
        kernels, np.full(pos.size, slot), node.count, table, pos, amp, norm2
    )
    children, arrays = _measured(kernels, [node], table, frontier)
    reached = {child.path[-1]: _at(table, child, arrays) for child in children}
    return [(born[o], keep[o], reached.get(o)) for o in range(len(node.tree.operators))]


def test_apply_measurement_born_rule():
    spec = parse_protocol(example1_protocol())
    bell = bell_state_set()
    table = spec.table
    node, frontier = _root(spec, _one(bell[0]))  # |00>+|11> with the shared pair
    n1 = spec.root.operators[0]
    (prob, keep, post), *_ = _measure(table, node, frontier)
    assert prob[0] == pytest.approx(0.5)
    assert keep.tolist() == [True]
    # surviving components are |0,0,0,0> and |1,1,1,1> on (A, B, a, b)
    vector = _dense(table, *post).vector
    nz = {tuple(int(x) for x in idx) for idx in np.argwhere(np.abs(vector) > 1e-12)}
    assert nz == {(0, 0, 0, 0), (1, 1, 1, 1)}

    ident = type(n1)(name="I", regs=("A",), matrix=np.eye(2, dtype=complex))
    [(prob, keep, same)] = _measure(table, replace(node, tree=_step(ident)), frontier)
    assert prob[0] == pytest.approx(1.0)
    assert np.allclose(_dense(table, *same).vector, _dense(table, node, frontier).vector)

    nothing = type(n1)(
        name="Z", regs=("A", "a"), matrix=np.zeros((4, 4), dtype=complex)
    )
    [(prob, keep, gone)] = _measure(table, replace(node, tree=_step(nothing)), frontier)
    assert prob[0] == 0.0
    # the walk makes no child, so no node and no entries, for an outcome
    # that no candidate survives
    assert keep.tolist() == [False] and gone is None


def test_teleport_moves_ownership_and_consumes():
    spec = parse_protocol(prop1_protocol())
    b3 = build_snoes(3)
    node, frontier = _root(spec, _one(b3[0]))  # prop1 first teleports C to Bob
    [moved], arrays = _teleported(node, spec, DEFAULT_TOL, frontier)
    assert moved.owners["C"] == "Bob"
    assert "phi3_bc" in moved.consumed
    assert "b0" not in moved.live and "c0" not in moved.live
    # amplitudes unchanged: norm matches the input state times remaining pairs
    vector = _dense(spec.table, moved, arrays).vector
    assert np.vdot(vector, vector).real == pytest.approx(2 * 2 * 2)
    again = replace(moved, tree=replace(spec.root, to="Charlie"))
    with pytest.raises(ValueError, match="consumed"):
        _teleported(again, spec, DEFAULT_TOL, arrays)


def test_teleport_grid_mapping_matches_reference_bipartite_set():
    spec = parse_protocol(prop1_protocol())
    b3 = build_snoes(3)
    for k, s in enumerate(b3.states):
        node, frontier = _root(spec, _one(s))
        [moved], arrays = _teleported(node, spec, DEFAULT_TOL, frontier)
        sim = _dense(spec.table, moved, arrays)
        # project out the untouched dim-2 pairs and read the (A, B, C) part
        axes = [sim.live.index(r) for r in ("A", "B", "C")]
        vec = sim.vector
        keep = np.argwhere(np.abs(vec) > 1e-12)
        cells = set()
        for full_idx in keep:
            a = int(full_idx[axes[0]])
            bc = SNAKE_3[(int(full_idx[axes[1]]), int(full_idx[axes[2]]))]
            cells.add((a, bc))
        expected = set(GRID39_PAIRS[k // 2])
        assert cells == expected, s.label


def test_teleport_needs_a_resource_of_the_source_dim():
    # prop1 teleports the dim-3 register C: over a dim-2 pair both walks refuse
    spec = parse_protocol(prop1_protocol())
    spec = replace(spec, root=replace(spec.root, resource="phi2_ab"))
    for walk in (run_protocol, check_orthogonality_preservation):
        with pytest.raises(ValueError, match="teleport of 'C' needs a dim-3 resource"):
            walk(spec, build_snoes(3))


def test_teleport_to_current_owner_is_noop_but_consumes():
    doc = {
        "name": "toy",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2},
            {"name": "B", "owner": "Bob", "dim": 2},
            {"name": "a", "owner": "Alice", "dim": 2},
            {"name": "b", "owner": "Bob", "dim": 2},
        ],
        "resources": [
            {"name": "r", "pair": ["Alice", "Bob"], "dim": 2, "registers": ["a", "b"]}
        ],
        "root": {
            "type": "teleport",
            "source": "B",
            "resource": "r",
            "to": "Bob",
            "then": {
                "type": "measure",
                "party": "Bob",
                "operators": [
                    {"name": "P0", "proj": [{"regs": ["B"], "levels": [[0]]}]},
                    {"name": "P1", "complement": True},
                ],
                "branches": {
                    "P0": {"type": "leaf", "answer": "x"},
                    "P1": {"type": "leaf", "answer": "y"},
                },
            },
        },
    }
    spec = parse_protocol(doc)
    layout = PartyLayout(("A", "B"), (2, 2))
    sset = StateSet(
        layout,
        (
            PureState(layout, [((0, 0), 1)], "x"),
            PureState(layout, [((0, 1), 1)], "y"),
        ),
    )
    report = run_protocol(spec, sset)
    assert report.correct
    assert report.usage[0].expected_copies == pytest.approx(1.0)


def test_example1_report():
    spec = parse_protocol(example1_protocol())
    bell = bell_state_set()
    report = run_protocol(spec, bell)
    assert report.correct
    for o in report.outcomes:
        assert o.probability_total == pytest.approx(1.0, abs=1e-9)
    assert len(report.usage) == 1
    assert report.usage[0].expected_copies == pytest.approx(1.0, abs=1e-9)
    assert report.total_ebits == pytest.approx(1.0, abs=1e-9)
    assert check_orthogonality_preservation(spec, bell)


def test_prop1_report_matches_reference_costs():
    spec = parse_protocol(prop1_protocol())
    b3 = build_snoes(3)
    report = run_protocol(spec, b3)
    assert report.correct
    for o in report.outcomes:
        assert o.probability_total == pytest.approx(1.0, abs=1e-9)
    pair = {(u.pair, u.dim): u.expected_copies for u in report.pair_usage}
    assert pair[(("Alice", "Bob"), 2)] == pytest.approx(4 / 3, abs=1e-9)
    assert pair[(("Bob", "Charlie"), 3)] == pytest.approx(1.0, abs=1e-9)
    assert ("Alice", "Charlie") not in {p for p, _ in pair}
    assert report.total_ebits == pytest.approx(4 / 3 + math.log2(3), abs=1e-9)
    assert report.total_ebits < 2 * math.log2(3)
    assert spec.notes  # the resource-pair discrepancy is flagged
    assert check_orthogonality_preservation(spec, b3)


def test_prop2_report_matches_reference_costs():
    spec = parse_protocol(prop2_protocol())
    b3 = build_snoes(3)
    report = run_protocol(spec, b3)
    assert report.correct
    for o in report.outcomes:
        assert o.probability_total == pytest.approx(1.0, abs=1e-9)
    pair = {(u.pair, u.dim): u.expected_copies for u in report.pair_usage}
    assert pair[(("Alice", "Bob"), 2)] == pytest.approx(7 / 6, abs=1e-9)
    assert pair[(("Alice", "Charlie"), 2)] == pytest.approx(7 / 6, abs=1e-9)
    assert pair[(("Bob", "Charlie"), 2)] == pytest.approx(1 / 6, abs=1e-9)
    assert report.total_ebits == pytest.approx(2.5, abs=1e-9)
    assert report.total_ebits < 2 * math.log2(3)
    assert check_orthogonality_preservation(spec, b3)


def test_discrimination_failure_is_reported_not_raised():
    doc = copy.deepcopy(example1_protocol())

    def swap_answers(node):
        if node.get("type") == "leaf":
            if node["answer"] == "psi1":
                node["answer"] = "psi2"
            elif node["answer"] == "psi2":
                node["answer"] = "psi1"
            return
        if node.get("type") == "measure":
            for child in node["branches"].values():
                swap_answers(child)
        elif node.get("type") == "teleport":
            swap_answers(node["then"])

    swap_answers(doc["root"])
    report = run_protocol(parse_protocol(doc), bell_state_set())
    assert not report.correct
    flags = {o.label: o.correct for o in report.outcomes}
    assert not flags["psi1"] and not flags["psi2"]
    assert flags["psi3"] and flags["psi4"]


def test_state_set_must_fit_principal_registers():
    spec = parse_protocol(example1_protocol())
    with pytest.raises(ProtocolError, match="principal"):
        run_protocol(spec, build_snoes(3))


def test_empty_state_set_is_refused():
    # no states to tell apart: neither a report of "correct" nor a vacuous
    # orthogonality verdict
    spec = parse_protocol(example1_protocol())
    empty = StateSet(bell_state_set().layout, ())
    for walk in (run_protocol, check_orthogonality_preservation):
        with pytest.raises(ProtocolError, match="no states"):
            walk(spec, empty)


def _two_party_3x3():
    layout = PartyLayout(("A", "B"), (3, 3))
    return StateSet(
        layout,
        tuple(PureState(layout, [((k, k), 1)], f"s{k}") for k in range(3)),
    )


@pytest.mark.parametrize(
    "protocol, states",
    [
        # two parties against prop1's three principal registers
        (prop1_protocol, _two_party_3x3),
        # three dim-3 parties against example1's two dim-2 principal registers
        (example1_protocol, functools.partial(build_snoes, 3)),
    ],
    ids=["party-count", "dims"],
)
def test_orthogonality_check_needs_fitting_set(protocol, states):
    with pytest.raises(ProtocolError, match="principal"):
        check_orthogonality_preservation(parse_protocol(protocol()), states())


def test_orthogonality_check_reports_collapse():
    # Alice reads A in the computational basis: |+>|0> and |->|0> both
    # collapse to |0>|0> on the P0 branch
    spec = parse_protocol(_minimal_doc())
    layout = PartyLayout(("A", "B"), (2, 2))
    sset = StateSet(
        layout,
        (
            PureState(layout, [((0, 0), 1), ((1, 0), 1)], "x"),
            PureState(layout, [((0, 0), 1), ((1, 0), -1)], "y"),
        ),
    )
    assert not check_orthogonality_preservation(spec, sset)


# The dense per-candidate interpreter: every candidate is a full state vector
# over the live registers, copied at each step.  The joint sparse walk of
# qrubik.locc must reproduce it.


@dataclass(frozen=True)
class _Dense:
    """One candidate: live register axes, vector, ownership, consumed set."""

    table: RegisterTable
    live: tuple[str, ...]
    vector: np.ndarray
    owners: Mapping[str, str]
    consumed: frozenset[str]


def _dense(table, node, frontier):
    """The one candidate at ``node`` as a dense vector over its live registers."""
    assert node.count == 1
    pos, amp, *_ = frontier
    dims = table.dims(node.live)
    vector = np.zeros(dims, dtype=complex)
    digits = tuple(pos // table.strides[r] % d for r, d in zip(node.live, dims))
    vector[digits] = amp
    return _Dense(table, node.live, vector, node.owners, node.consumed)


def _joint(dense, tree):
    """A dense candidate as a one-candidate node at ``tree``, and its frontier."""
    at = np.flatnonzero(dense.vector)
    digits = np.unravel_index(at, dense.vector.shape)
    pos = sum(d * dense.table.strides[r] for d, r in zip(digits, dense.live))
    order = np.argsort(pos)
    amp = dense.vector.reshape(-1)[at[order]]
    node = _Node(tree, (), 0, 1, dense.live, dense.owners, dense.consumed)
    return node, _frontier(dense.table, pos[order], amp, 1)


def _dense_initial_state(spec, state):
    table = spec.table
    names = table.names
    dims = tuple(r.dim for r in table.registers)
    principal = [r.name for r in spec.principal_registers]
    vector = np.zeros(dims, dtype=complex)
    res_regs = [(res, res.registers) for res in spec.resources]
    ranges = [range(res.dim) for res, _ in res_regs]
    pos = {n: i for i, n in enumerate(names)}
    for idx, amp in state.terms:
        base = [0] * len(names)
        for comp, reg in zip(idx, principal):
            base[pos[reg]] = comp
        for combo in itertools.product(*ranges) if ranges else [()]:
            full = list(base)
            for (res, (ra, rb)), level in zip(res_regs, combo):
                full[pos[ra]] = level
                full[pos[rb]] = level
            vector[tuple(full)] = amp
    owners = {r.name: r.owner for r in table.registers}
    return _Dense(table, names, vector, owners, frozenset())


def _dense_apply_measurement(sim, op):
    axes = [sim.live.index(r) for r in op.regs]
    dims = sim.vector.shape
    q = int(np.prod([dims[a] for a in axes]))
    moved = np.moveaxis(sim.vector, axes, range(len(axes)))
    flat = moved.reshape(q, -1)
    before = float(np.vdot(flat, flat).real)
    if before == 0.0:
        raise ValueError("cannot measure the zero state")
    post = op.matrix @ flat
    prob = float(np.vdot(post, post).real) / before
    post_tensor = np.moveaxis(post.reshape(moved.shape), range(len(axes)), axes)
    return _Dense(sim.table, sim.live, post_tensor, sim.owners, sim.consumed), prob


def _dense_teleport(sim, source, resource, to, tol=1e-9):
    if resource.name in sim.consumed:
        raise ValueError(f"resource {resource.name!r} already consumed")
    if sim.table.get(source).dim != resource.dim:
        raise ValueError(
            f"teleport of {source!r} needs a dim-{sim.table.get(source).dim} resource"
        )
    r1, r2 = resource.registers
    axes = [sim.live.index(r1), sim.live.index(r2)]
    d = resource.dim
    moved = np.moveaxis(sim.vector, axes, (-2, -1))
    rest_shape = moved.shape[:-2]
    mat = moved.reshape(-1, d * d)
    mes = np.eye(d, dtype=complex).reshape(-1)
    v = mat @ mes.conj() / d
    residual = mat - np.outer(v, mes)
    if np.linalg.norm(residual) > tol * max(np.linalg.norm(mat), 1e-30):
        raise ValueError(
            f"resource {resource.name!r} is no longer in its initial entangled state"
        )
    live = tuple(n for n in sim.live if n not in (r1, r2))
    owners = dict(sim.owners)
    owners[source] = to
    return _Dense(
        sim.table, live, v.reshape(rest_shape), owners, sim.consumed | {resource.name}
    )


def _reference_outcomes(spec, sset, tol=1e-9):
    """Per-candidate depth-first walk: each state traverses the tree on its own."""
    outcomes = []
    for state in sset.states:
        branches = []

        def walk(node, sim, prob):
            if isinstance(node, Leaf):
                branches.append(
                    BranchOutcome(
                        answer=node.answer,
                        probability=prob,
                        resources=tuple(sorted(sim.consumed)),
                    )
                )
                return
            if isinstance(node, Teleport):
                res = spec.resource(node.resource)
                walk(node.then, _dense_teleport(sim, node.source, res, node.to, tol), prob)
                return
            for op in node.operators:
                post, p = _dense_apply_measurement(sim, op)
                if p <= _PRUNE:
                    continue
                next_sim = _Dense(
                    post.table,
                    post.live,
                    post.vector,
                    post.owners,
                    post.consumed | op.touches,
                )
                walk(node.branches[op.name], next_sim, prob * p)

        walk(spec.root, _dense_initial_state(spec, state), 1.0)
        outcomes.append(
            StateOutcome(
                label=state.label,
                branches=tuple(branches),
                probability_total=sum(b.probability for b in branches),
                correct=bool(branches) and all(b.answer == state.label for b in branches),
            )
        )
    return tuple(outcomes)


def _reordered_b3():
    b3 = build_snoes(3)
    order = [(7 * k + 3) % len(b3) for k in range(len(b3))]
    return StateSet(b3.layout, tuple(b3[k] for k in order))


@pytest.mark.parametrize(
    "protocol, states",
    [
        (example1_protocol, bell_state_set),
        (prop1_protocol, functools.partial(build_snoes, 3)),
        (prop2_protocol, functools.partial(build_snoes, 3)),
        (prop1_protocol, _reordered_b3),
    ],
    ids=["example1-bell", "prop1-b3", "prop2-b3", "prop1-b3-reordered"],
)
def test_joint_walk_matches_per_candidate_walk(protocol, states):
    spec = parse_protocol(protocol())
    sset = states()
    assert run_protocol(spec, sset).outcomes == _reference_outcomes(spec, sset)


def _seeded_variant(sset, seed, phases):
    """The set permuted and each state scaled by a positive real or a phase."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sset))
    if phases:
        factors = np.exp(2j * np.pi * rng.random(len(sset)))
    else:
        factors = rng.uniform(0.25, 4.0, len(sset))
    return StateSet(sset.layout, tuple(sset[k].scaled(f) for k, f in zip(order, factors)))


@pytest.mark.parametrize("phases", [False, True], ids=["real", "phase"])
@pytest.mark.parametrize(
    "protocol, states, seed",
    [
        (example1_protocol, bell_state_set, 11),
        (prop1_protocol, functools.partial(build_snoes, 3), 12),
        (prop2_protocol, functools.partial(build_snoes, 3), 13),
    ],
    ids=["example1-bell", "prop1-b3", "prop2-b3"],
)
def test_joint_walk_agrees_on_scaled_sets(protocol, states, seed, phases):
    # amplitudes that are no longer exact binary fractions may round
    # differently in the sparse sums than in the dense products
    spec = parse_protocol(protocol())
    sset = _seeded_variant(states(), seed, phases)
    joint = run_protocol(spec, sset).outcomes
    reference = _reference_outcomes(spec, sset)
    assert len(joint) == len(reference)
    for got, want in zip(joint, reference):
        assert (got.label, got.correct) == (want.label, want.correct)
        assert [(b.answer, b.resources) for b in got.branches] == [
            (b.answer, b.resources) for b in want.branches
        ]
        for b, ref in zip(got.branches, want.branches):
            assert abs(b.probability - ref.probability) <= 1e-15
        # a total sums the branches' differences
        bound = 1e-15 * len(want.branches)
        assert abs(got.probability_total - want.probability_total) <= bound
    assert check_orthogonality_preservation(spec, sset)


def test_one_candidate_kernels_match_dense_reference():
    # a dense random state and operators on two registers, listed out of
    # table order: a dense one, so that every column scatters to several
    # rows and the sums have many terms, and a rank-1 projector on levels 1
    # and 4, as the sign dances use, whose zero rows make the row map count
    spec = parse_protocol(prop1_protocol())
    rng = np.random.default_rng(5)
    node, frontier = _root(spec, _one(build_snoes(3)[4]))  # at prop1's first teleport
    sim = _dense(spec.table, node, frontier)
    vector = rng.normal(size=sim.vector.shape) + 1j * rng.normal(size=sim.vector.shape)
    vector[rng.random(vector.shape) < 0.3] = 0
    sim = replace(sim, vector=vector)
    regs = ("b", "B")
    sign = np.zeros(6)
    sign[[1, 4]] = 1, -1
    ops = [
        MeasurementOperator(name=name, regs=regs, matrix=matrix)
        for name, matrix in (
            ("M", rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))),
            ("P", np.outer(sign, sign) / 2),
        )
    ]
    # each operator alone, and both as the outcomes of one step
    for step in (_step(ops[0]), _step(ops[1]), _step(*ops)):
        measured = _measure(spec.table, *_joint(sim, step))
        for op, (prob, keep, post) in zip(step.operators, measured):
            post = _dense(spec.table, *post)
            want, want_prob = _dense_apply_measurement(sim, op)
            assert keep.tolist() == [True]
            assert post.live == want.live
            assert np.allclose(post.vector, want.vector, rtol=1e-14, atol=1e-14)
            assert prob[0] == pytest.approx(want_prob, rel=1e-14)

    res = spec.resource("phi3_bc")
    [child], arrays = _teleported(node, spec, DEFAULT_TOL, frontier)
    moved = _dense(spec.table, child, arrays)
    reference = _dense_teleport(_dense(spec.table, node, frontier), "C", res, "Bob")
    assert (moved.live, moved.owners, moved.consumed) == (
        reference.live, reference.owners, reference.consumed
    )
    assert np.array_equal(moved.vector, reference.vector)


def _apply_one(table, frontier, op):
    """One outcome operator applied on its own and its survivors taken: the
    one-operator-at-a-time reference for the walk's pass over a step
    (:func:`_outcomes`).  Returns the Born ratios, the survivors' mask, and
    the survivors' entries: positions, with the candidates renumbered, and
    amplitudes."""
    joint_pos, joint_amp, norm2, *_ = frontier
    size = table.size
    strides, dims, inner, offset = table._layout(op.regs)
    sub = (joint_pos[:, None] // strides % dims) @ inner
    diagonal = op.matrix.diagonal()
    if np.count_nonzero(op.matrix) == np.count_nonzero(diagonal):
        amp = diagonal[sub] * joint_amp
        pos, amp = joint_pos[amp != 0], amp[amp != 0]
    else:
        rows = np.flatnonzero(op.matrix.any(axis=1))
        value = op.matrix[rows[:, None], sub].T * joint_amp[:, None]
        src, k = np.nonzero(value)
        key = (joint_pos - offset[sub])[src] + offset[rows[k]]
        pos, inverse = np.unique(key, return_inverse=True)
        amp = np.zeros(pos.size, dtype=complex)
        np.add.at(amp, inverse, value[src, k])  # in input order, from 0j
        pos, amp = pos[amp != 0], amp[amp != 0]
    row = pos // size
    born = np.bincount(row, amp.real**2 + amp.imag**2, minlength=norm2.size) / norm2
    keep = born > _PRUNE
    entry = keep[row]
    return born, keep, (np.cumsum(keep) - 1)[row[entry]] * size + pos[entry] % size, amp[entry]


def _random_operator(rng, name, regs, size, kind):
    """A random operator with exact zeros: some rows all zero, some entries
    zero, and for ``diagonal`` nothing off the diagonal."""
    matrix = np.round(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)), 2)
    matrix[rng.random((size, size)) < 0.4] = 0
    matrix[rng.random(size) < 0.3] = 0
    if kind == "diagonal":
        matrix = np.diag(np.diag(matrix))
    return MeasurementOperator(name, regs, matrix, frozenset({f"t{name}"}))


@pytest.mark.parametrize("kinds", [("dense",) * 3, ("diagonal",) * 4, ("diagonal", "dense")])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_step_kernel_matches_one_operator_at_a_time(seed, kinds):
    # all 24 candidates of b3 with prop1's five shared pairs, so that the
    # operators meet several candidates and entries per fibre; the step's
    # registers are listed out of table order; columns of zeros make one
    # outcome lose some candidates, and a zero operator loses them all
    rng = np.random.default_rng(seed)
    spec = parse_protocol(prop1_protocol())
    node, frontier = _root(spec, build_snoes(3))
    regs = tuple(rng.permutation(["B", "b", "A"]).tolist())
    size = math.prod(spec.table.dims(regs))
    ops = [_random_operator(rng, f"M{k}", regs, size, kind) for k, kind in enumerate(kinds)]
    # the first operator sees only level 0 of A: candidates without it drop out
    level_a = np.unravel_index(np.arange(size), spec.table.dims(regs))[regs.index("A")]
    ops[0].matrix[:, level_a != 0] = 0
    ops.append(MeasurementOperator("Z", regs, np.zeros((size, size), dtype=complex)))
    counts = []
    node = replace(node, tree=_step(*ops))
    for op, (born, keep, reached) in zip(ops, _measure(spec.table, node, frontier)):
        want_born, want_keep, want_pos, want_amp = _apply_one(spec.table, frontier, op)
        assert np.array_equal(born, want_born), op.name
        assert np.array_equal(keep, want_keep), op.name
        # the walk makes a child only for an outcome that some candidate survives
        assert (reached is None) == (keep.sum() == 0), op.name
        if reached is None:
            assert want_pos.size == want_amp.size == 0, op.name
            counts.append(0)
            continue
        child, (pos, amp, norm2, index, prob) = reached
        assert np.array_equal(pos, want_pos), op.name
        assert np.array_equal(amp, want_amp), op.name
        assert child.count == keep.sum()
        assert child.consumed == node.consumed | op.touches
        # the norms handed to the child are the ones it would compute
        abs2 = amp.real**2 + amp.imag**2
        fresh = np.bincount(pos // spec.table.size, abs2, minlength=child.count)
        assert np.array_equal(norm2, fresh), op.name
        # and its survivors' indices and path probabilities, from 1 at the root
        assert np.array_equal(index, np.flatnonzero(keep)), op.name
        assert np.array_equal(prob, born[keep]), op.name
        counts.append(child.count)
    # some outcome keeps only part of the candidates, and "Z" none of them
    assert any(0 < c < node.count for c in counts) and counts[-1] == 0


def _node(doc, *branches):
    """The node of a protocol document reached through ``branches``."""
    node = doc["root"]
    for name in branches:
        node = node["branches"][name]
    return node


def _overcounted(*branches):
    # a level listed twice: the proj operator has a 2 on its diagonal
    def spoil(doc):
        levels = _node(doc, *branches)["operators"][0]["proj"][0]["levels"]
        levels.insert(0, list(levels[0]))
    return spoil


def _spoiled(*edits):
    def spoil(doc):
        for edit in edits:
            edit(doc)
    return spoil


def _foreign_regs(doc):
    # Bob's step below N1 measures Alice's registers
    _node(doc, "N1")["operators"][0]["proj"][0]["regs"] = ["A", "a"]


def _deep_incomplete(doc):
    # a 4 x 4 matrix operator three steps down, with one entry doubled
    ops = _node(doc, "N1", "N2")["operators"]
    ops[0] = dense_operator(ops[0])
    ops[0]["matrix"][0][0] = [2.0, 0.0]


def _bad_level(*branches):
    def spoil(doc):
        _node(doc, *branches)["operators"].insert(
            1, {"name": "X", "proj": [{"regs": ["A", "a"], "levels": [[0, 7]]}]}
        )
    return spoil


def _short_vector(doc):
    # m0p12S0+, the first operator two steps down, one entry short
    _node(doc, "N1", "N2")["operators"][0]["vector"].pop()


def _duplicated_vector(doc):
    # a second copy of m0p12S0+ in its step, with a branch: the step's
    # operators then sum past the identity
    node = _node(doc, "N1", "N2")
    node["operators"].insert(1, dict(copy.deepcopy(node["operators"][0]), name="twice"))
    node["branches"]["twice"] = {"type": "leaf", "answer": "x"}


# Documents with two faults: the one met first in depth-first order is
# reported, a step's completeness counting as met as soon as its operators
# are read, before its ownership and branch checks; a vector's fault counts
# as met as its operator is read, before any later fault of its step
TWO_FAULT_DOCUMENTS = {
    "incomplete-then-foreign-register": (_spoiled(_overcounted(), _foreign_regs), "completeness"),
    "incomplete-and-branch-mismatch": (
        _spoiled(_overcounted(), lambda doc: doc["root"]["branches"].pop("N1bar")),
        "completeness",
    ),
    "incomplete-and-own-foreign-party": (
        _spoiled(_overcounted(), lambda doc: doc["root"].update(party="Bob")),
        "completeness",
    ),
    "deep-incomplete-then-bad-level": (
        _spoiled(_deep_incomplete, _bad_level("N1bar")),
        "completeness",
    ),
    "deep-incomplete-then-unknown-node": (
        _spoiled(_deep_incomplete, lambda doc: _node(doc, "N1bar", "N2").update(type="dance")),
        "completeness",
    ),
    "missing-key-then-incomplete": (
        _spoiled(lambda doc: _node(doc, "N1").pop("party"), _overcounted("N1bar")),
        "malformed protocol document",
    ),
    "bad-level-in-an-incomplete-step": (
        _spoiled(_overcounted(), _bad_level()),
        "level [0, 7] is outside dims",
    ),
    "leaf-without-answer-then-incomplete": (
        _spoiled(
            lambda doc: _node(doc, "N1", "N2", "m0p12S0r").pop("answer"), _overcounted("N1bar")
        ),
        "leaf without an answer",
    ),
    "short-vector-in-an-incomplete-step": (
        _spoiled(_duplicated_vector, _short_vector), "is not 4 [re, im] number pairs"
    ),
    "incomplete-then-short-vector": (_spoiled(_overcounted(), _short_vector), "completeness"),
    "short-vector-then-incomplete": (
        _spoiled(_short_vector, _overcounted("N1bar")), "is not 4 [re, im] number pairs"
    ),
    "short-vector-then-nameless-operator": (
        _spoiled(_short_vector, lambda doc: _node(doc, "N1", "N2")["operators"][1].update(name="")),
        "is not 4 [re, im] number pairs",
    ),
    "short-vector-in-a-foreign-party-step": (
        _spoiled(_short_vector, lambda doc: _node(doc, "N1", "N2").update(party="Bob")),
        "is not 4 [re, im] number pairs",
    ),
}


@pytest.mark.parametrize("case", list(TWO_FAULT_DOCUMENTS))
def test_first_fault_in_depth_first_order_is_reported(case):
    spoil, message = TWO_FAULT_DOCUMENTS[case]
    doc = copy.deepcopy(example1_protocol())
    spoil(doc)
    with pytest.raises(ProtocolError, match=re.escape(message)):
        parse_protocol(doc)


def _pair_doc(root):
    """Alice holds A and a, Bob holds B and b, and (a, b) is a shared pair."""
    return {
        "name": "toy",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2},
            {"name": "B", "owner": "Bob", "dim": 2},
            {"name": "a", "owner": "Alice", "dim": 2},
            {"name": "b", "owner": "Bob", "dim": 2},
        ],
        "resources": [
            {"name": "r", "pair": ["Alice", "Bob"], "dim": 2, "registers": ["a", "b"]}
        ],
        "root": root,
    }


def _disturbing_doc(operators):
    """Alice acts on her half ``a`` of the shared pair, then, on the first
    outcome, teleports A over it."""
    after = {
        "type": "teleport",
        "source": "A",
        "resource": "r",
        "to": "Bob",
        "then": {"type": "leaf", "answer": "x"},
    }
    return _pair_doc(
        {
            "type": "measure",
            "party": "Alice",
            "operators": operators,
            "branches": {
                op["name"]: after if k == 0 else {"type": "leaf", "answer": "y"}
                for k, op in enumerate(operators)
            },
        }
    )


def _pair_of_states():
    layout = PartyLayout(("A", "B"), (2, 2))
    return StateSet(
        layout,
        (
            PureState(layout, [((0, 0), 1)], "x"),
            PureState(layout, [((1, 1), 2j)], "y"),
        ),
    )


@pytest.mark.parametrize(
    "operators, ratio",
    [
        # |00>: the diagonal entry minus v and the missing |11> entry (-v)
        (
            [
                {"name": "P0", "proj": [{"regs": ["a"], "levels": [[0]]}]},
                {"name": "P1", "complement": True},
            ],
            1 / math.sqrt(2),
        ),
        # |00> - |11>: v = 0, so only the diagonal entries minus v count
        ([{"name": "Z", "regs": ["a"], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}], 1.0),
        # |10> + |01>: only the entries off the diagonal count
        ([{"name": "X", "regs": ["a"], "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}], 1.0),
    ],
    ids=["projector", "phase-flip", "bit-flip"],
)
def test_teleport_refuses_a_disturbed_resource(operators, ratio):
    parsed = parse_protocol(_disturbing_doc(operators))
    sset = _pair_of_states()
    # a measurement that acts on the pair marks it consumed when parsed ...
    with pytest.raises(ValueError, match="already consumed"):
        run_protocol(parsed, sset)
    # ... so unmark it to reach the residual test of the joint walk, whose
    # relative residual ||mat - v mes^T|| / ||mat|| is ``ratio`` here
    root = replace(
        parsed.root,
        operators=tuple(replace(op, touches=frozenset()) for op in parsed.root.operators),
    )
    spec = replace(parsed, root=root)
    for tol in (1e-9, 0.99 * ratio):
        with pytest.raises(ValueError, match="no longer in its initial entangled state"):
            run_protocol(spec, sset, tol)
    run_protocol(spec, sset, 1.01 * ratio)


def test_measuring_a_teleported_pair_register_is_refused():
    # a teleport factors the pair out of the state; its registers keep their
    # owners, so parsing accepts a later measurement of one of them
    measure_b = {
        "type": "measure",
        "party": "Bob",
        "operators": [
            {"name": "P0", "proj": [{"regs": ["b"], "levels": [[0]]}]},
            {"name": "P1", "complement": True},
        ],
        "branches": {
            "P0": {"type": "leaf", "answer": "x"},
            "P1": {"type": "leaf", "answer": "y"},
        },
    }
    doc = _pair_doc(
        {"type": "teleport", "source": "A", "resource": "r", "to": "Bob", "then": measure_b}
    )
    with pytest.raises(ValueError, match="'b', which is no longer live"):
        run_protocol(parse_protocol(doc), _pair_of_states())


def _split(party, reg, first, rest):
    """``party`` measures ``reg`` (dim 2): level 0 goes to ``first``, the
    complement to ``rest``."""
    return {
        "type": "measure",
        "party": party,
        "operators": [
            {"name": "P0", "proj": [{"regs": [reg], "levels": [[0]]}]},
            {"name": "P1", "complement": True},
        ],
        "branches": {"P0": first, "P1": rest},
    }


def _teleport_then_measure(resource, register):
    """Alice teleports A to Bob over ``resource``; Bob then measures
    ``register``, a half of that pair, which the teleport has factored out."""
    leaf = {"type": "leaf", "answer": "x"}
    return {
        "type": "teleport",
        "source": "A",
        "resource": resource,
        "to": "Bob",
        "then": _split("Bob", register, leaf, leaf),
    }


def _two_pair_doc(first, rest):
    """Alice splits A: level 0 goes to ``first``, level 1 to ``rest``; (a, b)
    and (c, d) are shared pairs."""
    doc = _pair_doc(_split("Alice", "A", first, rest))
    doc["registers"] += [
        {"name": "c", "owner": "Alice", "dim": 2},
        {"name": "d", "owner": "Bob", "dim": 2},
    ]
    doc["resources"].append(
        {"name": "s", "pair": ["Alice", "Bob"], "dim": 2, "registers": ["c", "d"]}
    )
    return doc


def test_walk_faults_are_reported_in_depth_first_order():
    # the first branch faults at depth 3, the second at depth 2: a walk by
    # levels meets the second first, a depth-first walk the first
    leaf = {"type": "leaf", "answer": "y"}
    deep = _split("Bob", "B", _teleport_then_measure("r", "b"), leaf)
    doc = _two_pair_doc(deep, _teleport_then_measure("s", "d"))
    spec, sset = parse_protocol(doc), _pair_of_states()
    for walk in (run_protocol, check_orthogonality_preservation):
        with pytest.raises(ValueError, match="'b', which is no longer live"):
            walk(spec, sset)
    # two states collapse to one at depth 3 of the first branch, before the
    # second branch faults at depth 2 in depth-first order
    layout = PartyLayout(("A", "B"), (2, 2))
    collapsing = StateSet(
        layout,
        (
            PureState(layout, [((0, 0), 1), ((0, 1), 1)], "x"),
            PureState(layout, [((0, 0), 1), ((0, 1), -1)], "y"),
            PureState(layout, [((1, 1), 1)], "z"),
        ),
    )
    identity = {
        "type": "measure",
        "party": "Bob",
        "operators": [{"name": "I", "proj": [{"regs": ["B"], "levels": [[0], [1]]}]}],
        "branches": {"I": _split("Bob", "B", leaf, leaf)},
    }
    spec = parse_protocol(_two_pair_doc(identity, _teleport_then_measure("s", "d")))
    assert check_orthogonality_preservation(spec, collapsing) is False
    with pytest.raises(ValueError, match="'d', which is no longer live"):
        run_protocol(spec, collapsing)


def test_orthogonality_check_pairs_candidates_at_one_node_only():
    # both outcomes are I / sqrt 2 on A: each candidate reaches both children
    # in the same state, and at each child the candidates stay orthogonal
    half = [[[0.5**0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5**0.5, 0.0]]]
    doc = _minimal_doc()
    doc["root"]["operators"] = [
        {"name": name, "regs": ["A"], "matrix": half} for name in ("P0", "P1")
    ]
    spec = parse_protocol(doc)
    layout = PartyLayout(("A", "B"), (2, 2))
    sset = StateSet(
        layout,
        (
            PureState(layout, [((0, 0), 1), ((1, 0), 1)], "x"),
            PureState(layout, [((0, 0), 1), ((1, 0), -1)], "y"),
        ),
    )
    assert check_orthogonality_preservation(spec, sset) is True
    assert [len(o.branches) for o in run_protocol(spec, sset).outcomes] == [2, 2]


def test_zero_candidate_cannot_be_measured():
    spec = parse_protocol(_minimal_doc())
    layout = PartyLayout(("A", "B"), (2, 2))
    sset = StateSet(
        layout,
        (PureState(layout, [((0, 0), 1)], "x"), PureState(layout, [], "y")),
    )
    for walk in (run_protocol, check_orthogonality_preservation):
        with pytest.raises(ValueError, match="cannot measure the zero state"):
            walk(spec, sset)


def test_shipped_documents_round_trip():
    from qrubik.make_data import write_data
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_data(tmp)
        assert sorted(os.path.basename(p) for p in paths) == [
            "b3.json",
            "b4.json",
            "bell.json",
            "example1.json",
            "prop1.json",
            "prop2.json",
        ]
        with open(os.path.join(tmp, "prop1.json")) as fh:
            doc = json.load(fh)
        spec = parse_protocol(doc)
        assert spec.name == "prop1"


# The dense re-layout of operators that parse_protocol used before its index
# map: an embedding by tensordot with np.eye and a transpose, and a factor
# test by reshape, transpose and compare.  The parsed operators must match it.


def _extend_operator(
    mat: np.ndarray,
    regs: Sequence[str],
    target: Sequence[str],
    table: RegisterTable,
) -> np.ndarray:
    """Embed an operator into the ordered register tuple ``target`` (identity elsewhere)."""
    if tuple(regs) == tuple(target):
        return mat
    dims = table.dims(regs)
    tensor = mat.reshape(dims + dims)
    n = len(regs)
    extra = [r for r in target if r not in regs]
    for r in extra:
        d = table.get(r).dim
        tensor = np.tensordot(tensor, np.eye(d), axes=0)
        # new axes arrive as (..., out_r, in_r); collect positions later
    # axis layout now: out(regs), in(regs), then (out, in) pairs per extra reg
    out_axes = {r: i for i, r in enumerate(regs)}
    in_axes = {r: n + i for i, r in enumerate(regs)}
    base = 2 * n
    for k, r in enumerate(extra):
        out_axes[r] = base + 2 * k
        in_axes[r] = base + 2 * k + 1
    order = [out_axes[r] for r in target] + [in_axes[r] for r in target]
    tensor = np.transpose(tensor, order)
    full = int(np.prod(table.dims(target)))
    return tensor.reshape(full, full)


def _acts_nontrivially(
    mat: np.ndarray, regs: Sequence[str], reg: str, table: RegisterTable, tol: float
) -> bool:
    """True unless the operator factors as N (x) I on ``reg``."""
    if reg not in regs:
        return False
    dims = table.dims(regs)
    axis = list(regs).index(reg)
    d = dims[axis]
    rest = int(np.prod(dims)) // d
    tensor = mat.reshape(dims + dims)
    # move reg's out/in axes last
    n = len(regs)
    order = [i for i in range(n) if i != axis] + [i for i in range(n, 2 * n) if i != n + axis]
    order += [axis, n + axis]
    t = np.transpose(tensor, order).reshape(rest, rest, d, d)
    candidate = t[:, :, 0, 0]
    recomposed = candidate[:, :, None, None] * np.eye(d)[None, None, :, :]
    scale = max(np.max(np.abs(mat)), 1.0)
    return bool(np.max(np.abs(t - recomposed)) > tol * scale)


def _reference_step(docs, table, resources, tol=1e-9):
    """One step's operators, embedded on the step's registers, and the
    resources each touches, built with the dense reference helpers."""
    plain = {}
    complement = None
    for doc in docs:
        if doc.get("complement"):
            complement = doc["name"]
        elif "proj" in doc:
            regs = tuple(r for r in table.names if any(r in i["regs"] for i in doc["proj"]))
            mat = np.zeros((math.prod(table.dims(regs)),) * 2, dtype=complex)
            for item in doc["proj"]:
                iregs = tuple(item["regs"])
                proj = np.zeros((math.prod(table.dims(iregs)),) * 2, dtype=complex)
                for level in item["levels"]:
                    flat = int(np.dot(level, _strides(table.dims(iregs))))
                    proj[flat, flat] += 1.0
                mat = mat + _extend_operator(proj, iregs, regs, table)
            plain[doc["name"]] = regs, mat
        elif "vector" in doc:
            v = [complex(re, im) for re, im in doc["vector"]]
            norm = sum(abs(z) ** 2 for z in v)
            matrix = [[a * b.conjugate() / norm for b in v] for a in v]
            plain[doc["name"]] = tuple(doc["regs"]), np.array(matrix, dtype=complex)
        else:
            matrix = [[complex(re, im) for re, im in row] for row in doc["matrix"]]
            plain[doc["name"]] = tuple(doc["regs"]), np.array(matrix, dtype=complex)
    union = tuple(r for r in table.names if any(r in regs for regs, _ in plain.values()))
    ops = {name: _extend_operator(mat, regs, union, table) for name, (regs, mat) in plain.items()}
    if complement:
        ops[complement] = np.eye(math.prod(table.dims(union))) - sum(ops.values())
    touches = {
        name: frozenset(
            res.name
            for res in resources
            for r in res.registers
            if r in union and _acts_nontrivially(mat, union, r, table, tol)
        )
        for name, mat in ops.items()
    }
    return union, ops, touches


def _steps(doc, node):
    """Each measurement step of a parsed tree with its document."""
    if isinstance(node, Teleport):
        yield from _steps(doc["then"], node.then)
    elif not isinstance(node, Leaf):
        yield doc, node
        for name, child in node.branches.items():
            yield from _steps(doc["branches"][name], child)


def _assert_matches_reference(doc, spec):
    steps = 0
    for step_doc, step in _steps(doc["root"], spec.root):
        union, ops, touches = _reference_step(step_doc["operators"], spec.table, spec.resources)
        assert [op.name for op in step.operators] == [d["name"] for d in step_doc["operators"]]
        for op in step.operators:
            assert op.regs == union
            assert np.array_equal(op.matrix, ops[op.name]), op.name
            assert op.touches == touches[op.name], op.name
        steps += 1
    return steps


@pytest.mark.parametrize("name", ["example1", "prop1", "prop2"])
def test_parsed_operators_match_dense_reference(name):
    from importlib import resources

    doc = json.loads(resources.files("qrubik").joinpath("data", f"{name}.json").read_text())
    assert _assert_matches_reference(doc, parse_protocol(doc)) > 0


def _walk_kernel(step):
    """The step's operators as the walk reads them, out of the stack that
    holds them: where each column's nonzeros start, and their operators,
    rows and values."""
    kernels, slot = step._kernel
    levels = len(step.operators[0].matrix)
    start = kernels.start[slot * levels : (slot + 1) * levels + 1]
    at = slice(start[0], start[-1])
    return start - start[0], kernels.outcome[at], kernels.row[at], kernels.value[at]


@pytest.mark.parametrize(
    "name, states",
    [
        ("example1", bell_state_set),
        ("prop1", functools.partial(build_snoes, 3)),
        ("prop2", functools.partial(build_snoes, 3)),
    ],
    ids=["example1", "prop1", "prop2"],
)
def test_split_groups_compile_the_same_operators(name, states, monkeypatch):
    # one stack per distinct step instead of one per group of steps: the
    # same bytes, touches and walk kernels, and those kernels as a step formed
    # outside the parser computes them from its operators; walked, every
    # bucket of steps then holds the nodes of one distinct step, which share
    # its slot, with the same reports
    from importlib import resources
    from qrubik import locc

    doc = json.loads(resources.files("qrubik").joinpath("data", f"{name}.json").read_text())
    grouped = parse_protocol(doc)
    monkeypatch.setattr(locc, "_MAX_GROUP_ENTRIES", 1)
    alone = parse_protocol(doc)
    pairs = list(zip(_steps(doc["root"], grouped.root), _steps(doc["root"], alone.root)))
    assert pairs
    for (_, a), (_, b) in pairs:
        assert [op.name for op in a.operators] == [op.name for op in b.operators] != []
        for x, y in zip(a.operators, b.operators):
            assert (x.name, x.regs, x.touches) == (y.name, y.regs, y.touches)
            assert x.matrix.tobytes() == y.matrix.tobytes()
        for kernel in (_walk_kernel(b), _walk_kernel(replace(a))):
            for x, y in zip(_walk_kernel(a), kernel):
                assert np.array_equal(x, y)
    sset = states()
    assert run_protocol(alone, sset) == run_protocol(grouped, sset)
    assert check_orthogonality_preservation(alone, sset) is True


@pytest.mark.parametrize(
    "name, counts",
    [("example1", (15, 9, 11, 4)), ("prop1", (97, 34, 62, 11)), ("prop2", (307, 57, 175, 24))],
)
def test_equal_steps_share_a_slot(name, counts):
    # steps, distinct steps (each compiled once, into one slot), distinct
    # operator tuples (equal steps with equal names share theirs) and stacks
    # of kernels (one per group of steps on the same registers)
    from importlib import resources

    doc = json.loads(resources.files("qrubik").joinpath("data", f"{name}.json").read_text())
    steps = [step for _, step in _steps(doc["root"], parse_protocol(doc).root)]
    slots = {(id(step._kernel[0]), step._kernel[1]) for step in steps}
    operators = {id(step.operators) for step in steps}
    assert (len(steps), len(slots), len(operators), len({k for k, _ in slots})) == counts
    # the shared operators cannot be written through
    assert not any(op.matrix.flags.writeable for step in steps for op in step.operators)


def test_numpy_vector_entries_give_the_same_operator_bytes():
    # each vector entry an array of numpy floats, read as the lists are
    doc = example1_protocol()
    spec, arrays = parse_protocol(doc), copy.deepcopy(doc)
    for step_doc, _ in _steps(arrays["root"], spec.root):
        for op in step_doc["operators"]:
            if "vector" in op:
                op["vector"] = np.array(op["vector"])
    pairs = zip(_steps(doc["root"], spec.root), _steps(arrays["root"], parse_protocol(arrays).root))
    for (_, a), (_, b) in pairs:
        assert [op.matrix.tobytes() for op in a.operators] == [
            op.matrix.tobytes() for op in b.operators
        ]


def _operator_bytes(doc):
    spec = parse_protocol(doc)
    steps = _steps(doc["root"], spec.root)
    return [op.matrix.tobytes() for _, step in steps for op in step.operators]


def _with_matrix_part(doc, part):
    # P0 on A written as a matrix, the real part of its (0, 0) entry ``part``
    doc["root"]["operators"][0] = {
        "name": "P0",
        "regs": ["A"],
        "matrix": [[[part, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    return doc


@pytest.mark.parametrize("part", [1, np.int64(1), np.float64(1.0), np.float32(1.0), np.uint8(1)])
def test_int_and_numpy_parts_read_as_their_floats(part):
    # the real part of m0p12S0+'s |11> entry, 1.0 as shipped
    doc = example1_protocol()
    spoiled = copy.deepcopy(doc)
    _node(spoiled, "N1", "N2")["operators"][0]["vector"][3][0] = part
    assert _operator_bytes(spoiled) == _operator_bytes(doc)
    assert _operator_bytes(_with_matrix_part(_minimal_doc(), part)) == _operator_bytes(
        _with_matrix_part(_minimal_doc(), 1.0)
    )


@pytest.mark.parametrize("part", [2**63, -(2**63) - 1, 2**70, 10**400, np.uint64(2**63), np.True_])
def test_parts_beyond_int64_and_numpy_bools_are_refused(part):
    # one pair check reads vector and matrix entries: an int part must fit in
    # int64, and no part may be a bool, numpy's included
    doc = example1_protocol()
    _node(doc, "N1", "N2")["operators"][0]["vector"][3][0] = part
    with pytest.raises(ProtocolError, match=re.escape("vector is not 4 [re, im] number pairs")):
        parse_protocol(doc)
    with pytest.raises(ProtocolError, match=re.escape("is not an n x n array of [re, im] pairs")):
        parse_protocol(_with_matrix_part(_minimal_doc(), part))


def _vector_entries(node):
    """The vector of every vector operator under ``node``, in document order."""
    if node["type"] == "teleport":
        return _vector_entries(node["then"])
    if node["type"] == "leaf":
        return []
    found = [op["vector"] for op in node["operators"] if "vector" in op]
    for child in node["branches"].values():
        found += _vector_entries(child)
    return found


@pytest.mark.parametrize("protocol", [example1_protocol, prop1_protocol, prop2_protocol])
def test_bins_group_the_shipped_vectors_as_np_unique_does(protocol):
    # the projector of each distinct vector is formed once, its bytes the key
    from qrubik.locc import _complex, _vector_parts
    from qrubik.states import _bins

    by_length = {}
    for vector in _vector_entries(protocol()["root"]):
        parts = np.array(_vector_parts(vector, "v", len(vector)), dtype=float)
        by_length.setdefault(len(vector), []).append(_complex(parts.reshape(2, -1)))
    for n, vectors in by_length.items():
        rows = np.array(vectors).view(f"V{16 * n}")[:, 0]
        distinct, inverse = _bins(rows)
        want, want_inverse = np.unique(rows, return_inverse=True)
        assert distinct.tobytes() == want.tobytes() and np.array_equal(inverse, want_inverse)
        assert distinct.size < rows.size


def test_positions_beyond_int64_are_refused_before_allocating():
    # three candidates on a table of 2^29 x 2^29 x 4 x 4 = 2^62 levels: the
    # third one's positions, from 2^63 on, wrapped to negative numbers, which
    # np.bincount refused with a message about a list.  The bound is the
    # states' one: candidates x levels below 2^63
    doc = {
        "name": "wide",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2**29},
            {"name": "B", "owner": "Bob", "dim": 2**29},
            {"name": "a", "owner": "Alice", "dim": 4},
            {"name": "b", "owner": "Bob", "dim": 4},
        ],
        "resources": [
            {"name": "r", "pair": ["Alice", "Bob"], "dim": 4, "registers": ["a", "b"]}
        ],
        "root": {"type": "leaf", "answer": "s0"},
    }
    layout = PartyLayout(("A", "B"), (2**29, 2**29))
    sset = StateSet(layout, [PureState(layout, [((k, k), 1)], f"s{k}") for k in range(3)])
    spec = parse_protocol(doc)
    with pytest.raises(ProtocolError, match=r"3 candidates x 4611686018427387904 register"):
        run_protocol(spec, sset)
    assert run_protocol(spec, sset.subset(1)).correct


def _proj(name, regs, levels):
    return {"name": name, "proj": [{"regs": regs, "levels": levels}]}


def test_outcome_keys_beyond_int64_are_refused():
    # ten product states on 2^29 x 2^29 x 3 levels fit (30 x 2^58 positions),
    # but a three-outcome step keys its products by outcome x 10 candidates x
    # 3 x 2^58, which wrapped past int64 and ended in np.bincount refusing a
    # list with negative elements
    doc = {
        "name": "wide",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2**29},
            {"name": "B", "owner": "Bob", "dim": 2**29},
            {"name": "C", "owner": "Charlie", "dim": 3},
        ],
        "root": {
            "type": "measure",
            "party": "Charlie",
            "operators": [_proj(f"c{k}", ["C"], [[k]]) for k in range(3)],
            "branches": {f"c{k}": {"type": "leaf", "answer": f"s{k}"} for k in range(3)},
        },
    }
    layout = PartyLayout(("A", "B", "C"), (2**29, 2**29, 3))
    states = [PureState(layout, [((k, k, k % 3), 1)], f"s{k}") for k in range(10)]
    spec = parse_protocol(doc)
    with pytest.raises(
        ProtocolError,
        match=r"do not fit in int64: 3 outcomes x 10 candidates x 864691128455135232 register",
    ):
        run_protocol(spec, StateSet(layout, states))
    assert run_protocol(spec, StateSet(layout, states[:3])).correct


def test_frontier_positions_beyond_int64_are_refused():
    # two steps on different registers at one depth, each within the bound
    # (2 outcomes x 3 candidates x 2^60 levels), keep all three candidates on
    # both outcomes: the next frontier's 12 candidates x 2^60 positions
    # wrapped past int64, and np.repeat then refused negative counts
    def step(*operators, answers):
        names = [op["name"] for op in operators]
        ends = {
            name: {
                "type": "measure",
                "party": "Charlie",
                "operators": [_proj("all", ["C"], [[0], [1], [2], [3]])],
                "branches": {"all": {"type": "leaf", "answer": answer}},
            }
            for name, answer in zip(names, answers)
        }
        return {
            "type": "measure", "party": "Charlie", "operators": list(operators), "branches": ends
        }

    complement = lambda name: {"name": name, "complement": True}
    low = step(_proj("l0", ["C"], [[0]]), complement("l1"), answers=["s0", "s1"])
    high = step(_proj("h2", ["C", "c"], [[2, 0], [2, 1]]), complement("h3"), answers=["s0", "s1"])
    doc = {
        "name": "split",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2**28},
            {"name": "B", "owner": "Bob", "dim": 2**28},
            {"name": "C", "owner": "Charlie", "dim": 4},
            {"name": "c", "owner": "Charlie", "dim": 2},
            {"name": "a", "owner": "Alice", "dim": 2},
        ],
        "resources": [
            {"name": "r", "pair": ["Alice", "Charlie"], "dim": 2, "registers": ["a", "c"]}
        ],
        "root": {
            "type": "measure",
            "party": "Charlie",
            "operators": [_proj("lo", ["C"], [[0], [1]]), _proj("hi", ["C"], [[2], [3]])],
            "branches": {"lo": low, "hi": high},
        },
    }
    layout = PartyLayout(("A", "B", "C"), (2**28, 2**28, 4))
    sset = StateSet(
        layout, [PureState(layout, [((k, k, c), 1) for c in range(4)], f"s{k}") for k in range(3)]
    )
    spec = parse_protocol(doc)
    with pytest.raises(ProtocolError, match=r"int64: 12 candidates x 1152921504606846976 register"):
        run_protocol(spec, sset)
    report = run_protocol(spec, sset.subset(1))
    assert [b.probability for b in report.outcomes[0].branches] == [0.25] * 4


# sha256 of each shipped protocol with its vector operators in the dense
# form, written as make_data writes it: the documents as they were shipped
# in that form
DENSE_DOCUMENT_SHA256 = {
    "example1": "2e36634ecf4f4cd94f0c1477a3828566d12f3e638e4c87972698baff266af66c",
    "prop1": "cd441a746622361235fe47ddfbdd6efd3a9d49dcb5a85e465059c21cc7cb2539",
    "prop2": "168f8b1bd77620e3f888c1e92e97a8b552b7dd82fdda6a3994b2555676afa1bb",
}


def _vector_operators(node):
    if node["type"] == "teleport":
        return _vector_operators(node["then"])
    if node["type"] == "leaf":
        return 0
    return sum("vector" in op for op in node["operators"]) + sum(
        _vector_operators(child) for child in node["branches"].values()
    )


@pytest.mark.parametrize(
    "name, states",
    [
        ("example1", bell_state_set),
        ("prop1", functools.partial(build_snoes, 3)),
        ("prop2", functools.partial(build_snoes, 3)),
    ],
)
def test_vector_operators_compile_as_their_dense_matrices(name, states):
    # the shipped rank-one projectors, written as their vectors, against the
    # same documents with each written as its dense matrix: the same bytes,
    # touches and walk kernels, and the same reports
    from importlib import resources

    doc = json.loads(resources.files("qrubik").joinpath("data", f"{name}.json").read_text())
    dense = dense_protocol(doc)
    assert _vector_operators(doc["root"]) > 0 and _vector_operators(dense["root"]) == 0
    text = json.dumps(dense, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_DOCUMENT_SHA256[name]
    parsed, reference = parse_protocol(doc), parse_protocol(dense)
    pairs = list(zip(_steps(doc["root"], parsed.root), _steps(dense["root"], reference.root)))
    assert pairs
    for (_, a), (_, b) in pairs:
        assert [op.name for op in a.operators] == [op.name for op in b.operators]
        for x, y in zip(a.operators, b.operators):
            assert (x.regs, x.touches) == (y.regs, y.touches), x.name
            assert x.matrix.tobytes() == y.matrix.tobytes(), x.name
        for x, y in zip(_walk_kernel(a), _walk_kernel(b)):
            assert x.tobytes() == y.tobytes()
    sset = states()
    assert run_protocol(parsed, sset) == run_protocol(reference, sset)
    assert check_orthogonality_preservation(parsed, sset) is True
    assert check_orthogonality_preservation(reference, sset) is True


def _vector_doc(vector):
    """Alice splits (c, A) by the projector onto ``vector`` and its complement;
    the operator lists its registers out of table order."""
    return {
        "name": "toy",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2},
            {"name": "B", "owner": "Bob", "dim": 2},
            {"name": "c", "owner": "Alice", "dim": 3},
        ],
        "root": {
            "type": "measure",
            "party": "Alice",
            "operators": [
                {"name": "P", "regs": ["c", "A"], "vector": [[z.real, z.imag] for z in vector]},
                {"name": "Q", "complement": True},
            ],
            "branches": {
                "P": {"type": "leaf", "answer": "x"},
                "Q": {"type": "leaf", "answer": "y"},
            },
        },
    }


def test_vector_operator_does_not_depend_on_the_vector_scale():
    # |v|^2 overflows at 2^600 v and underflows at 2^-600 v; scaled by a
    # power of two first, all three give the same bytes
    rng = np.random.default_rng(11)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v[2] = 0
    found = []
    for factor in (1.0, 2.0**600, 2.0**-600):
        spec = parse_protocol(_vector_doc(v * factor))
        found.append([op.matrix.tobytes() for op in spec.root.operators])
    assert found[0] == found[1] == found[2]
    projector = np.outer(v, v.conj()) / np.vdot(v, v).real  # on (c, A)
    on_a_c = projector.reshape(3, 2, 3, 2).transpose(1, 0, 3, 2).reshape(6, 6)
    assert np.allclose(spec.root.operators[0].matrix, on_a_c, rtol=0, atol=1e-15)
    assert spec.root.operators[0].regs == ("A", "c")


def test_vector_above_the_level_limit_is_refused_before_allocating():
    # a 2048-entry vector on a step of 8192 levels: its projector alone would
    # be 64 MiB and the step's operators 1 GiB each
    doc = copy.deepcopy(example1_protocol())
    doc["registers"].append({"name": "x", "owner": "Alice", "dim": 2048})
    _node(doc, "N1", "N2")["operators"][0].update(regs=["x"], vector=[[1.0, 0.0]] * 2048)
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="8192 levels, above the limit of 1024"):
            parse_protocol(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _wide_step_doc(levels):
    """Alice measures one register of ``levels`` levels with the projectors
    onto its first seven levels and their complement."""
    ops = [
        {"name": f"P{k}", "regs": ["x"], "vector": [[float(j == k), 0.0] for j in range(levels)]}
        for k in range(7)
    ]
    ops.append({"name": "rest", "complement": True})
    return {
        "name": "wide",
        "registers": [{"name": "x", "owner": "Alice", "dim": levels}],
        "root": {
            "type": "measure",
            "party": "Alice",
            "operators": ops,
            "branches": {op["name"]: {"type": "leaf", "answer": op["name"]} for op in ops},
        },
    }


def test_step_above_the_entry_limit_is_refused_before_allocating():
    # eight operators on one 512-level register, a 40 KB document: the
    # step's stack of 8 x 512^2 entries would be 32 MiB, and its checks
    # took four times that
    doc = _wide_step_doc(512)
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="8 operators on 512 levels, above the limit"):
            parse_protocol(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # on 256 levels the same step is within the limit
    assert len(parse_protocol(_wide_step_doc(256)).root.operators) == 8


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("factored", [False, True], ids=["entangling", "factored"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_random_matrix_operators_match_dense_reference(seed, factored):
    # Alice holds A, c and her half a of a shared pair; her two operators list
    # their registers out of table order, so the embedding must permute, and
    # a factored operator leaves a as N (x) I and so must not touch the pair
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.2, 1.3)
    if factored:
        first = np.kron(np.eye(3), _random_unitary(rng, 2))  # on (a, A)
        second = np.kron(_random_unitary(rng, 2), np.eye(3))  # on (c, a)
    else:
        first, second = _random_unitary(rng, 6), _random_unitary(rng, 6)
    ops = [
        {"name": "K", "regs": ["a", "A"], "matrix": math.cos(theta) * first},
        {"name": "L", "regs": ["c", "a"], "matrix": math.sin(theta) * second},
    ]
    for op in ops:
        op["matrix"] = [[[z.real, z.imag] for z in row] for row in op["matrix"]]
    doc = {
        "name": "toy",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2},
            {"name": "B", "owner": "Bob", "dim": 2},
            {"name": "c", "owner": "Alice", "dim": 2},
            {"name": "a", "owner": "Alice", "dim": 3},
            {"name": "b", "owner": "Bob", "dim": 3},
        ],
        "resources": [
            {"name": "r", "pair": ["Alice", "Bob"], "dim": 3, "registers": ["a", "b"]}
        ],
        "root": {
            "type": "measure",
            "party": "Alice",
            "operators": ops,
            "branches": {
                "K": {"type": "leaf", "answer": "x"},
                "L": {"type": "leaf", "answer": "y"},
            },
        },
    }
    spec = parse_protocol(doc)
    assert _assert_matches_reference(doc, spec) == 1
    assert spec.root.operators[0].regs == ("A", "c", "a")
    touched = frozenset() if factored else frozenset({"r"})
    assert [op.touches for op in spec.root.operators] == [touched, touched]


def _random_document(seed):
    """A three-level tree of random complete steps.  Each splits the levels
    of one or two of a party's registers, in random order, into ``proj``
    operators and dense sign-dance projectors onto (|u> +- |v>) / sqrt 2, and
    puts the complement, when there is one, at a random position; ``a`` and
    ``b`` are a shared pair."""
    rng = np.random.default_rng(seed)
    dims = {"A": 2, "B": 3, "a": 2, "b": 2, "c": 3}
    owned = {"Alice": ["A", "a", "c"], "Bob": ["B", "b"]}

    def step(depth):
        party = ["Alice", "Bob"][rng.integers(2)]
        regs = [str(r) for r in rng.permutation(owned[party])[: rng.integers(1, 3)]]
        levels = [list(map(int, l)) for l in itertools.product(*(range(dims[r]) for r in regs))]
        order = rng.permutation(len(levels))
        ops, used = [], 0
        while used < len(levels) and len(ops) < 3:
            chunk = [levels[i] for i in order[used : used + rng.integers(1, 3)]]
            used += len(chunk)
            name = f"o{rng.integers(10**9)}"
            if len(chunk) == 2 and rng.random() < 0.6:
                u, v = (int(np.ravel_multi_index(l, [dims[r] for r in regs])) for l in chunk)
                matrix = np.zeros((len(levels),) * 2)
                matrix[[u, v, u, v], [u, v, v, u]] = 0.5, 0.5, rng.choice([0.5, -0.5]), 0
                matrix[v, u] = matrix[u, v]
                ops.append({"name": name, "regs": regs, "matrix": matrix_to_json(matrix)})
            else:
                ops.append({"name": name, "proj": [{"regs": regs, "levels": chunk}]})
        if used < len(levels) or any("matrix" in op for op in ops):
            ops.insert(int(rng.integers(len(ops) + 1)), {"name": "rest", "complement": True})
        branches = {
            op["name"]: step(depth - 1) if depth and rng.random() < 0.7
            else {"type": "leaf", "answer": "x"}
            for op in ops
        }
        return {"type": "measure", "party": party, "operators": ops, "branches": branches}

    return {
        "name": "random",
        "registers": [
            {"name": n, "owner": o, "dim": dims[n]}
            for n, o in (("A", "Alice"), ("B", "Bob"), ("a", "Alice"), ("b", "Bob"), ("c", "Alice"))
        ],
        "resources": [{"name": "r", "pair": ["Alice", "Bob"], "dim": 2, "registers": ["a", "b"]}],
        "root": step(3),
    }


def test_random_documents_match_dense_reference():
    # many steps per group of steps on the same registers, with the
    # complement at different positions, against the dense re-layout and
    # the per-candidate walk
    layout = PartyLayout(("A", "B", "C"), (2, 3, 3))
    sset = StateSet(
        layout,
        (
            PureState(layout, [((0, 0, 0), 1), ((1, 2, 1), 1)], "p"),
            PureState(layout, [((0, 1, 2), 1), ((1, 0, 1), -1j)], "q"),
            PureState(layout, [((1, 1, 1), 1), ((0, 2, 0), 0.5)], "r"),
        ),
    )
    positions, steps = {}, 0
    for seed in range(12):
        doc = _random_document(seed)
        spec = parse_protocol(doc)
        steps += _assert_matches_reference(doc, spec)
        for step_doc, _ in _steps(doc["root"], spec.root):
            names = [op["name"] for op in step_doc["operators"]]
            if "rest" in names:
                positions.setdefault(len(names), set()).add(names.index("rest"))
        walk, reference = run_protocol(spec, sset).outcomes, _reference_outcomes(spec, sset)
        assert len(walk) == len(reference)
        for got, want in zip(walk, reference):
            assert [(b.answer, b.resources) for b in got.branches] == [
                (b.answer, b.resources) for b in want.branches
            ]
            for b, ref in zip(got.branches, want.branches):
                assert abs(b.probability - ref.probability) <= 1e-15
    assert steps > 50 and any(len(p) > 1 for p in positions.values())


def test_identity_factor_detection_drives_touching():
    from qrubik.locc import RegisterTable, Register, _acts_on

    table = RegisterTable(
        (Register("A", "Alice", 2), Register("a", "Alice", 2))
    )
    union = ("A", "a")
    correlated = np.zeros((4, 4), dtype=complex)
    for a_level, anc in ((0, 0), (1, 1)):
        correlated[a_level * 2 + anc, a_level * 2 + anc] = 1.0
    assert _acts_on(correlated[None], *table._index_map(union, ("a",)), 1e-9).all()

    factored = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), 3 * np.eye(2))
    assert not _acts_on(factored[None], *table._index_map(union, ("a",)), 1e-9).any()
    assert _acts_on(factored[None], *table._index_map(union, ("A",)), 1e-9).all()
