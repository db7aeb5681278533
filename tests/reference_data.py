"""Frozen reference tables used as construction oracles, and the dense form
of protocol ``vector`` operators.

The cell lists below are hand-entered literal tables for the small-d
families; the tests compare generated sets against them rather than
re-deriving anything from the generator code.
"""

from __future__ import annotations

import cmath
import copy
import math

import numpy as np

from qrubik import PartyLayout, PureState, StateSet
from qrubik.locc import matrix_to_json

W3 = cmath.exp(2j * math.pi / 3)


def _w3(k: int) -> complex:
    r = k % 3
    return 1 + 0j if r == 0 else cmath.exp(2j * math.pi * r / 3)


# The twelve +/- cell pairs of the 24-state set in 3x3x3, reference order.
SET3_PAIRS = [
    ((1, 0, 0), (2, 0, 1)),
    ((1, 0, 1), (2, 0, 0)),
    ((1, 0, 2), (2, 1, 2)),
    ((1, 1, 2), (2, 0, 2)),
    ((2, 1, 0), (2, 2, 1)),
    ((2, 1, 1), (2, 2, 0)),
    ((0, 1, 0), (1, 2, 0)),
    ((0, 2, 0), (1, 1, 0)),
    ((0, 2, 1), (1, 2, 2)),
    ((0, 2, 2), (1, 2, 1)),
    ((0, 0, 1), (0, 1, 2)),
    ((0, 0, 2), (0, 1, 1)),
]

# The eighteen cell triples of the 54-state set in 4x4x4, reference order.
SET4_TRIPLES = [
    ((1, 0, 0), (2, 0, 1), (3, 0, 2)),
    ((1, 0, 1), (2, 0, 2), (3, 0, 0)),
    ((1, 0, 2), (2, 0, 0), (3, 0, 1)),
    ((1, 0, 3), (2, 1, 3), (3, 2, 3)),
    ((1, 1, 3), (2, 2, 3), (3, 0, 3)),
    ((1, 2, 3), (2, 0, 3), (3, 1, 3)),
    ((3, 1, 0), (3, 2, 1), (3, 3, 2)),
    ((3, 1, 1), (3, 2, 2), (3, 3, 0)),
    ((3, 1, 2), (3, 2, 0), (3, 3, 1)),
    ((0, 1, 0), (1, 2, 0), (2, 3, 0)),
    ((0, 2, 0), (1, 3, 0), (2, 1, 0)),
    ((0, 3, 0), (1, 1, 0), (2, 2, 0)),
    ((0, 3, 1), (1, 3, 2), (2, 3, 3)),
    ((0, 3, 2), (1, 3, 3), (2, 3, 1)),
    ((0, 3, 3), (1, 3, 1), (2, 3, 2)),
    ((0, 0, 1), (0, 1, 2), (0, 2, 3)),
    ((0, 0, 2), (0, 1, 3), (0, 2, 1)),
    ((0, 0, 3), (0, 1, 1), (0, 2, 2)),
]

# Six face blocks of the 3-cube as J1 x J2 x J3 extents, reference order.
BLOCKS3 = [
    ((1, 2), (0,), (0, 1)),
    ((1, 2), (0, 1), (2,)),
    ((2,), (1, 2), (0, 1)),
    ((0, 1), (1, 2), (0,)),
    ((0, 1), (2,), (1, 2)),
    ((0,), (0, 1), (1, 2)),
]

# Six face blocks of the 4-cube.
BLOCKS4 = [
    ((1, 2, 3), (0,), (0, 1, 2)),
    ((1, 2, 3), (0, 1, 2), (3,)),
    ((3,), (1, 2, 3), (0, 1, 2)),
    ((0, 1, 2), (1, 2, 3), (0,)),
    ((0, 1, 2), (3,), (1, 2, 3)),
    ((0,), (0, 1, 2), (1, 2, 3)),
]

# Joint (row, column) cells of the 24 states after merging B and C into one
# 9-level system with the boustrophedon numbering; reference order.
GRID39_PAIRS = [
    ((1, 0), (2, 1)),
    ((1, 1), (2, 0)),
    ((1, 2), (2, 3)),
    ((1, 3), (2, 2)),
    ((2, 5), (2, 7)),
    ((2, 4), (2, 6)),
    ((0, 5), (1, 6)),
    ((0, 6), (1, 5)),
    ((0, 7), (1, 8)),
    ((0, 8), (1, 7)),
    ((0, 1), (0, 3)),
    ((0, 2), (0, 4)),
]

SNAKE_3 = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2,
    (1, 2): 3, (1, 1): 4, (1, 0): 5,
    (2, 0): 6, (2, 1): 7, (2, 2): 8,
}


def set3_states() -> StateSet:
    """The 24 reference states, expanded from SET3_PAIRS with +/- signs."""
    layout = PartyLayout.uniform(("A", "B", "C"), 3)
    states = []
    for n, (c0, c1) in enumerate(SET3_PAIRS):
        states.append(PureState(layout, [(c0, 1), (c1, 1)], f"psi{2 * n + 1}"))
        states.append(PureState(layout, [(c0, 1), (c1, -1)], f"psi{2 * n + 2}"))
    return StateSet(layout, tuple(states))


def completion3_states() -> list[PureState]:
    """The three diagonal completion states of the 3x3x3 basis."""
    layout = PartyLayout.uniform(("A", "B", "C"), 3)
    diag = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    return [
        PureState(layout, [(c, _w3(k * j)) for j, c in enumerate(diag)], f"psi{25 + k}")
        for k in range(3)
    ]


def set4_states() -> StateSet:
    """The 54 reference states, expanded from SET4_TRIPLES with w3 phases."""
    layout = PartyLayout.uniform(("A", "B", "C"), 4)
    states = []
    n = 0
    for cells in SET4_TRIPLES:
        for s in range(3):
            n += 1
            terms = [(c, _w3(s * j)) for j, c in enumerate(cells)]
            states.append(PureState(layout, terms, f"psi{n}"))
    return StateSet(layout, tuple(states))


def completion4_states() -> list[PureState]:
    """The ten completion states of the 4x4x4 basis: four diagonal phase
    states plus three +/- pairs on the central off-diagonal cells."""
    layout = PartyLayout.uniform(("A", "B", "C"), 4)
    diag = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]
    states = [
        PureState(layout, [(c, (1j) ** (k * j % 4)) for j, c in enumerate(diag)], f"psi{55 + k}")
        for k in range(4)
    ]
    n = 59
    for c0, c1 in (
        ((1, 2, 2), (2, 1, 1)),
        ((1, 1, 2), (2, 2, 1)),
        ((1, 2, 1), (2, 1, 2)),
    ):
        states.append(PureState(layout, [(c0, 1), (c1, 1)], f"psi{n}"))
        states.append(PureState(layout, [(c0, 1), (c1, -1)], f"psi{n + 1}"))
        n += 2
    return states


def bell_states() -> StateSet:
    layout = PartyLayout(("A", "B"), (2, 2))
    data = [
        ("psi1", [((0, 0), 1), ((1, 1), 1)]),
        ("psi2", [((0, 0), 1), ((1, 1), -1)]),
        ("psi3", [((0, 1), 1), ((1, 0), 1)]),
        ("psi4", [((0, 1), 1), ((1, 0), -1)]),
    ]
    return StateSet(layout, tuple(PureState(layout, t, l) for l, t in data))


def reducible_five_states() -> StateSet:
    """The five-state counterexample in 2x3: four Bell-type states plus |0,2>."""
    layout = PartyLayout(("A", "B"), (2, 3))
    data = [
        ("psi1", [((0, 0), 1), ((1, 1), 1)]),
        ("psi2", [((0, 0), 1), ((1, 1), -1)]),
        ("psi3", [((0, 1), 1), ((1, 0), 1)]),
        ("psi4", [((0, 1), 1), ((1, 0), -1)]),
        ("psi5", [((0, 2), 1)]),
    ]
    return StateSet(layout, tuple(PureState(layout, t, l) for l, t in data))


def ghz_basis() -> StateSet:
    """The eight three-qubit states |x> +/- |not-x> pairing 000/111, 011/100,
    001/110, 010/101."""
    layout = PartyLayout.uniform(("A", "B", "C"), 2)
    pairs = [
        ((0, 0, 0), (1, 1, 1)),
        ((0, 1, 1), (1, 0, 0)),
        ((0, 0, 1), (1, 1, 0)),
        ((0, 1, 0), (1, 0, 1)),
    ]
    states = []
    for n, (c0, c1) in enumerate(pairs):
        states.append(PureState(layout, [(c0, 1), (c1, 1)], f"phi{2 * n + 1}"))
        states.append(PureState(layout, [(c0, 1), (c1, -1)], f"phi{2 * n + 2}"))
    return StateSet(layout, tuple(states))


def dense_operator(op: dict) -> dict:
    """A protocol ``vector`` operator in the dense form: the ``matrix`` of
    its projector, np.outer(v, v.conj()) / np.vdot(v, v).real, with the keys
    in the order :mod:`qrubik.protocols` writes them."""
    v = np.array([complex(re, im) for re, im in op["vector"]])
    projector = np.outer(v, v.conj()) / np.vdot(v, v).real
    return {"name": op["name"], "regs": op["regs"], "matrix": matrix_to_json(projector)}


def dense_protocol(doc: dict) -> dict:
    """A copy of a protocol document with every ``vector`` operator in the
    dense form (:func:`dense_operator`)."""
    doc = copy.deepcopy(doc)
    nodes = [doc["root"]]
    while nodes:
        node = nodes.pop()
        if node["type"] == "teleport":
            nodes.append(node["then"])
        elif node["type"] == "measure":
            ops = node["operators"]
            ops[:] = [dense_operator(op) if "vector" in op else op for op in ops]
            nodes.extend(node["branches"].values())
    return doc
