"""Builders for the shipped discrimination protocols and state-set data files.

The protocol documents are plain JSON-able dicts in the format understood by
:func:`qrubik.locc.parse_protocol`.  Mirror branches that follow by symmetry are expanded in full here, as are the
terminal two- or three-party sign discriminations, so every leaf names exactly
one candidate.
"""

from __future__ import annotations

from .cube import build_snoes
from .states import PartyLayout, PureState, StateSet, _dense_vector

# Row-major flattening of a 3x3 (B, C) pair into the 9-level joint index used
# when one party holds both registers; this is the boustrophedon numbering of
# the 3 x 9 grid picture.
SNAKE_3 = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2,
    (1, 2): 3, (1, 1): 4, (1, 0): 5,
    (2, 0): 6, (2, 1): 7, (2, 2): 8,
}
SNAKE_3_INV = {v: k for k, v in SNAKE_3.items()}


def bell_state_set() -> StateSet:
    """The four two-qubit maximally entangled basis states."""
    layout = PartyLayout(("A", "B"), (2, 2))
    data = [
        ("psi1", [((0, 0), 1), ((1, 1), 1)]),
        ("psi2", [((0, 0), 1), ((1, 1), -1)]),
        ("psi3", [((0, 1), 1), ((1, 0), 1)]),
        ("psi4", [((0, 1), 1), ((1, 0), -1)]),
    ]
    return StateSet(
        layout, tuple(PureState(layout, terms, label) for label, terms in data)
    )


def _leaf(answer: str) -> dict:
    return {"type": "leaf", "answer": answer}


_DEAD = _leaf("none")


def _proj_op(name: str, *items: tuple[tuple[str, ...], list[tuple[int, ...]]]) -> dict:
    return {
        "name": name,
        "proj": [
            {"regs": list(regs), "levels": [list(l) for l in levels]}
            for regs, levels in items
        ],
    }


def _complement_op(name: str) -> dict:
    return {"name": name, "complement": True}


def _measure(party: str, operators: list[dict], branches: dict[str, dict]) -> dict:
    return {
        "type": "measure",
        "party": party,
        "operators": operators,
        "branches": branches,
    }


def _vector_projector_op(
    name: str, regs: tuple[str, ...], dims: tuple[int, ...], vector_components
) -> dict:
    """The projector onto v, written as its ``vector`` v (not normalised)."""
    v = _dense_vector(dims, vector_components)
    return {"name": name, "regs": list(regs), "vector": [[c.real, c.imag] for c in v.tolist()]}


def _sign_dance(
    stages: list[tuple[str, tuple[str, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]],
    label_plus: str,
    label_minus: str,
    prefix: str,
) -> dict:
    """Discriminate v0 +/- v1 where v0, v1 split componentwise over parties.

    ``stages`` lists (party, regs, dims, v0_levels, v1_levels); each party
    measures the projectors onto its (v0 + v1) and (v0 - v1) superpositions,
    and the overall sign is the product of the reported signs.
    """

    def node(stage_idx: int, parity: int) -> dict:
        if stage_idx == len(stages):
            return _leaf(label_plus if parity > 0 else label_minus)
        party, regs, dims, v0, v1 = stages[stage_idx]
        plus = _vector_projector_op(
            f"{prefix}S{stage_idx}+", regs, dims, [(v0, 1), (v1, 1)]
        )
        minus = _vector_projector_op(
            f"{prefix}S{stage_idx}-", regs, dims, [(v0, 1), (v1, -1)]
        )
        rest = _complement_op(f"{prefix}S{stage_idx}r")
        return _measure(
            party,
            [plus, minus, rest],
            {
                plus["name"]: node(stage_idx + 1, parity),
                minus["name"]: node(stage_idx + 1, -parity),
                rest["name"]: _DEAD,
            },
        )

    return node(0, 1)


def _bell_pattern(first, second, labels: tuple[str, str, str, str], prefix: str) -> dict:
    """Example-1 pattern: one shared pair separates four Bell-type candidates.

    ``first`` is (party, regs, dims, (x0, x1)) and ``second`` is
    (party, regs, dims, (g0, g1, h0, h1)); each party's last register is its
    half of the pair, and every level is a tuple over the other registers.
    Candidates labels[0] and labels[1] are the +/- superpositions of x0 g0 and
    x1 g1, labels[2] and labels[3] those of x0 h0 and x1 h1.  The first party
    measures L1, after which the ancilla level of the k-th element is k ^ mu
    for outcome mu; the second party's L2 then splits the g pair from the
    h pair, and a sign dance finishes each.
    """
    party1, regs1, dims1, (x0, x1) = first
    party2, regs2, dims2, (g0, g1, h0, h1) = second

    def dance(mu: int, y0, y1, plus: str, minus: str, tag: str) -> dict:
        return _sign_dance(
            [
                (party1, regs1, dims1, (*x0, mu), (*x1, 1 ^ mu)),
                (party2, regs2, dims2, (*y0, mu), (*y1, 1 ^ mu)),
            ],
            plus,
            minus,
            f"{prefix}u{mu}{tag}",
        )

    def after(mu: int) -> dict:
        l2 = _proj_op("L2", (regs2, [(*g0, mu), (*g1, 1 ^ mu)]))
        return _measure(
            party2,
            [l2, _complement_op("L2bar")],
            {
                "L2": dance(mu, g0, g1, labels[0], labels[1], "g"),
                "L2bar": dance(mu, h0, h1, labels[2], labels[3], "h"),
            },
        )

    l1 = _proj_op("L1", (regs1, [(*x0, 0), (*x1, 1)]))
    return _measure(
        party1, [l1, _complement_op("L1bar")], {"L1": after(0), "L1bar": after(1)}
    )


def example1_protocol() -> dict:
    """Two-qubit MES-assisted discrimination of the four Bell-type states."""

    def stage2(mu: int) -> dict:
        def av(a_level: int) -> int:
            return a_level ^ mu

        n2 = _proj_op("N2", (("B", "b"), [(0, av(0)), (1, av(1))]))
        n2bar = _complement_op("N2bar")
        dance12 = _sign_dance(
            [
                ("Alice", ("A", "a"), (2, 2), (0, av(0)), (1, av(1))),
                ("Bob", ("B", "b"), (2, 2), (0, av(0)), (1, av(1))),
            ],
            "psi1",
            "psi2",
            f"m{mu}p12",
        )
        dance34 = _sign_dance(
            [
                ("Alice", ("A", "a"), (2, 2), (0, av(0)), (1, av(1))),
                ("Bob", ("B", "b"), (2, 2), (1, av(0)), (0, av(1))),
            ],
            "psi3",
            "psi4",
            f"m{mu}p34",
        )
        return _measure("Bob", [n2, n2bar], {"N2": dance12, "N2bar": dance34})

    n1 = _proj_op("N1", (("A", "a"), [(0, 0), (1, 1)]))
    n1bar = _complement_op("N1bar")
    root = _measure("Alice", [n1, n1bar], {"N1": stage2(0), "N1bar": stage2(1)})
    return {
        "name": "example1",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 2},
            {"name": "B", "owner": "Bob", "dim": 2},
            {"name": "a", "owner": "Alice", "dim": 2},
            {"name": "b", "owner": "Bob", "dim": 2},
        ],
        "resources": [
            {
                "name": "phi2_ab",
                "pair": ["Alice", "Bob"],
                "dim": 2,
                "registers": ["a", "b"],
            }
        ],
        "root": root,
    }


def _bc(j: int) -> tuple[int, int]:
    return SNAKE_3_INV[j]


def prop1_protocol() -> dict:
    """Two-party-merged discrimination of the 24-state set in 3x3x3.

    An opening teleport moves Charlie's register to Bob; afterwards Bob acts
    on the (B, C) pair jointly.  Costs: one dim-3 pair Bob-Charlie plus 4/3
    dim-2 pairs Alice-Bob on average.
    """
    BC = ("B", "C")
    BCB = ("B", "C", "b")
    d33 = (3, 3)
    d332 = (3, 3, 2)
    # Bell-type sub-protocols: A in {1, 2} against joint (B, C) levels held by Bob
    A12 = ("Alice", ("A", "a1"), (3, 2), ((1,), (2,)))
    BCB1 = ("B", "C", "b1")

    def step4(alpha: int) -> dict:
        k41 = _proj_op("K4,1", ((BCB), [(*_bc(8), alpha), (*_bc(7), 1 ^ alpha)]))
        k42 = _proj_op("K4,2", ((BCB), [(*_bc(5), alpha), (*_bc(6), 1 ^ alpha)]))
        k4bar = _complement_op("K4bar")
        dance_1920 = _sign_dance(
            [
                ("Alice", ("A", "a"), (3, 2), (0, alpha), (1, 1 ^ alpha)),
                ("Bob", BCB, d332, (*_bc(8), alpha), (*_bc(7), 1 ^ alpha)),
            ],
            "psi19",
            "psi20",
            f"a{alpha}p1920",
        )
        dance_1314 = _sign_dance(
            [
                ("Alice", ("A", "a"), (3, 2), (0, alpha), (1, 1 ^ alpha)),
                ("Bob", BCB, d332, (*_bc(5), alpha), (*_bc(6), 1 ^ alpha)),
            ],
            "psi13",
            "psi14",
            f"a{alpha}p1314",
        )
        dance_1516 = _sign_dance(
            [
                ("Alice", ("A", "a"), (3, 2), (0, alpha), (1, 1 ^ alpha)),
                ("Bob", BCB, d332, (*_bc(6), alpha), (*_bc(5), 1 ^ alpha)),
            ],
            "psi15",
            "psi16",
            f"a{alpha}p1516",
        )
        return _measure(
            "Bob",
            [k41, k42, k4bar],
            {"K4,1": dance_1920, "K4,2": dance_1314, "K4bar": dance_1516},
        )

    def step3(alpha: int) -> dict:
        k3 = _proj_op("K3", (("A",), [(2,)]))
        k3bar = _complement_op("K3bar")
        four_products = _measure(
            "Bob",
            [
                _vector_projector_op("V9", BC, d33, [(_bc(5), 1), (_bc(7), 1)]),
                _vector_projector_op("V10", BC, d33, [(_bc(5), 1), (_bc(7), -1)]),
                _vector_projector_op("V11", BC, d33, [(_bc(4), 1), (_bc(6), 1)]),
                _vector_projector_op("V12", BC, d33, [(_bc(4), 1), (_bc(6), -1)]),
                _complement_op("Vr"),
            ],
            {
                "V9": _leaf("psi9"),
                "V10": _leaf("psi10"),
                "V11": _leaf("psi11"),
                "V12": _leaf("psi12"),
                "Vr": _DEAD,
            },
        )
        return _measure(
            "Alice", [k3, k3bar], {"K3": four_products, "K3bar": step4(alpha)}
        )

    def step2(alpha: int) -> dict:
        k21 = _proj_op("K2,1", ((BCB), [(*_bc(1), alpha), (*_bc(3), alpha)]))
        k22 = _proj_op("K2,2", ((BCB), [(*_bc(2), alpha), (*_bc(4), alpha)]))
        k23 = _proj_op("K2,3", ((BCB), [(*_bc(7), alpha), (*_bc(8), 1 ^ alpha)]))
        k24 = _proj_op("K2,4", ((BCB), [(*_bc(0), 1 ^ alpha), (*_bc(1), 1 ^ alpha)]))
        k25 = _proj_op("K2,5", ((BCB), [(*_bc(2), 1 ^ alpha), (*_bc(3), 1 ^ alpha)]))
        k2bar = _complement_op("K2bar")
        pick_2122 = _measure(
            "Bob",
            [
                _vector_projector_op("W21", BC, d33, [(_bc(1), 1), (_bc(3), 1)]),
                _vector_projector_op("W22", BC, d33, [(_bc(1), 1), (_bc(3), -1)]),
                _complement_op("Wr"),
            ],
            {"W21": _leaf("psi21"), "W22": _leaf("psi22"), "Wr": _DEAD},
        )
        pick_2324 = _measure(
            "Bob",
            [
                _vector_projector_op("W23", BC, d33, [(_bc(2), 1), (_bc(4), 1)]),
                _vector_projector_op("W24", BC, d33, [(_bc(2), 1), (_bc(4), -1)]),
                _complement_op("Wr"),
            ],
            {"W23": _leaf("psi23"), "W24": _leaf("psi24"), "Wr": _DEAD},
        )
        dance_1718 = _sign_dance(
            [
                ("Alice", ("A", "a"), (3, 2), (0, alpha), (1, 1 ^ alpha)),
                ("Bob", BCB, d332, (*_bc(7), alpha), (*_bc(8), 1 ^ alpha)),
            ],
            "psi17",
            "psi18",
            f"a{alpha}p1718",
        )
        return _measure(
            "Bob",
            [k21, k22, k23, k24, k25, k2bar],
            {
                "K2,1": pick_2122,
                "K2,2": pick_2324,
                "K2,3": dance_1718,
                "K2,4": _bell_pattern(
                    A12,
                    ("Bob", BCB1, d332, (_bc(0), _bc(1), _bc(1), _bc(0))),
                    ("psi1", "psi2", "psi3", "psi4"),
                    f"a{alpha}q14",
                ),
                "K2,5": _bell_pattern(
                    A12,
                    ("Bob", BCB1, d332, (_bc(2), _bc(3), _bc(3), _bc(2))),
                    ("psi5", "psi6", "psi7", "psi8"),
                    f"a{alpha}q58",
                ),
                "K2bar": step3(alpha),
            },
        )

    k1 = _proj_op("K1", (("A", "a"), [(0, 0), (1, 1), (2, 1)]))
    k1bar = _complement_op("K1bar")
    step1 = _measure("Alice", [k1, k1bar], {"K1": step2(0), "K1bar": step2(1)})
    root = {
        "type": "teleport",
        "source": "C",
        "resource": "phi3_bc",
        "to": "Bob",
        "then": step1,
    }
    return {
        "name": "prop1",
        "notes": [
            "The dim-3 pair is declared between Bob and Charlie, matching the "
            "resource tuple and the opening teleport; one source sentence "
            "instead places its consumption between Alice and Charlie, which "
            "is inconsistent with that opening move and is not followed here."
        ],
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 3},
            {"name": "B", "owner": "Bob", "dim": 3},
            {"name": "C", "owner": "Charlie", "dim": 3},
            {"name": "a", "owner": "Alice", "dim": 2},
            {"name": "b", "owner": "Bob", "dim": 2},
            {"name": "a1", "owner": "Alice", "dim": 2},
            {"name": "b1", "owner": "Bob", "dim": 2},
            {"name": "b0", "owner": "Bob", "dim": 3},
            {"name": "c0", "owner": "Charlie", "dim": 3},
        ],
        "resources": [
            {
                "name": "phi3_bc",
                "pair": ["Bob", "Charlie"],
                "dim": 3,
                "registers": ["b0", "c0"],
            },
            {
                "name": "phi2_ab",
                "pair": ["Alice", "Bob"],
                "dim": 2,
                "registers": ["a", "b"],
            },
            {
                "name": "phi2_ab1",
                "pair": ["Alice", "Bob"],
                "dim": 2,
                "registers": ["a1", "b1"],
            },
        ],
        "root": root,
    }


def prop2_protocol() -> dict:
    """Fully separated discrimination of the 24-state set in 3x3x3.

    Five dim-2 pairs; expected consumption (7/6, 7/6, 1/6) copies across the
    Alice-Bob, Alice-Charlie and Bob-Charlie pairs, 2.5 ebits in total.
    """

    def subtree(beta: int, gamma: int) -> dict:
        def step5() -> dict:
            m51 = _proj_op(
                "M5,1",
                (("A", "a1", "a2"), [(1, beta, 1 ^ gamma), (2, 1 ^ beta, 1 ^ gamma)]),
            )
            m52 = _proj_op(
                "M5,2",
                (("A", "a1", "a2"), [(1, 1 ^ beta, 1 ^ gamma), (2, beta, 1 ^ gamma)]),
            )
            m53 = _proj_op(
                "M5,3",
                (("A", "a1", "a2"), [(0, beta, gamma), (0, 1 ^ beta, 1 ^ gamma)]),
            )
            m5bar = _complement_op("M5bar")
            dance_56 = _sign_dance(
                [
                    ("Alice", ("A", "a1"), (3, 2), (1, beta), (2, 1 ^ beta)),
                    ("Bob", ("B", "b1"), (3, 2), (0, beta), (1, 1 ^ beta)),
                ],
                "psi5",
                "psi6",
                f"b{beta}g{gamma}p56",
            )
            dance_78 = _sign_dance(
                [
                    ("Alice", ("A", "a1"), (3, 2), (1, 1 ^ beta), (2, beta)),
                    ("Bob", ("B", "b1"), (3, 2), (1, 1 ^ beta), (0, beta)),
                ],
                "psi7",
                "psi8",
                f"b{beta}g{gamma}p78",
            )
            dance_2122 = _sign_dance(
                [
                    ("Alice", ("a1", "a2"), (2, 2), (beta, gamma), (1 ^ beta, 1 ^ gamma)),
                    ("Bob", ("B", "b1"), (3, 2), (0, beta), (1, 1 ^ beta)),
                    ("Charlie", ("C", "c1"), (3, 2), (1, gamma), (2, 1 ^ gamma)),
                ],
                "psi21",
                "psi22",
                f"b{beta}g{gamma}p2122",
            )
            dance_2324 = _sign_dance(
                [
                    ("Alice", ("a1", "a2"), (2, 2), (beta, 1 ^ gamma), (1 ^ beta, gamma)),
                    ("Bob", ("B", "b1"), (3, 2), (0, beta), (1, 1 ^ beta)),
                    ("Charlie", ("C", "c1"), (3, 2), (2, 1 ^ gamma), (1, gamma)),
                ],
                "psi23",
                "psi24",
                f"b{beta}g{gamma}p2324",
            )
            return _measure(
                "Alice",
                [m51, m52, m53, m5bar],
                {
                    "M5,1": dance_56,
                    "M5,2": dance_78,
                    "M5,3": dance_2122,
                    "M5bar": dance_2324,
                },
            )

        def step4() -> dict:
            m4 = _proj_op("M4", (("B",), [(2,)]))
            m4bar = _complement_op("M4bar")
            t1 = _proj_op("T1", (("A", "a2"), [(0, gamma), (1, 1 ^ gamma)]))
            t1bar = _complement_op("T1bar")
            dance_1718 = _sign_dance(
                [
                    ("Alice", ("A", "a2"), (3, 2), (0, gamma), (1, 1 ^ gamma)),
                    ("Charlie", ("C", "c1"), (3, 2), (1, gamma), (2, 1 ^ gamma)),
                ],
                "psi17",
                "psi18",
                f"b{beta}g{gamma}p1718",
            )
            dance_1920 = _sign_dance(
                [
                    ("Alice", ("A", "a2"), (3, 2), (0, 1 ^ gamma), (1, gamma)),
                    ("Charlie", ("C", "c1"), (3, 2), (2, 1 ^ gamma), (1, gamma)),
                ],
                "psi19",
                "psi20",
                f"b{beta}g{gamma}p1920",
            )
            split_1720 = _measure(
                "Alice", [t1, t1bar], {"T1": dance_1718, "T1bar": dance_1920}
            )
            return _measure("Bob", [m4, m4bar], {"M4": split_1720, "M4bar": step5()})

        def step3() -> dict:
            m3 = _proj_op("M3", (("C",), [(0,)]))
            m3bar = _complement_op("M3bar")
            return _measure(
                "Charlie",
                [m3, m3bar],
                {
                    # A in {0, 1} x B in {1, 2} with C = 0
                    "M3": _bell_pattern(
                        ("Alice", ("A", "a4"), (3, 2), ((0,), (1,))),
                        ("Bob", ("B", "b3"), (3, 2), ((1,), (2,), (2,), (1,))),
                        ("psi13", "psi14", "psi15", "psi16"),
                        f"b{beta}g{gamma}q1316",
                    ),
                    "M3bar": step4(),
                },
            )

        def step2() -> dict:
            m21 = _proj_op(
                "M2,1", (("A", "a1", "a2"), [(1, beta, gamma), (2, beta, gamma)])
            )
            m22 = _proj_op("M2,2", (("A", "a1", "a2"), [(2, 1 ^ beta, gamma)]))
            m2bar = _complement_op("M2bar")
            return _measure(
                "Alice",
                [m21, m22, m2bar],
                {
                    # A in {1, 2} x C in {0, 1} with B = 0
                    "M2,1": _bell_pattern(
                        ("Alice", ("A", "a3"), (3, 2), ((1,), (2,))),
                        ("Charlie", ("C", "c2"), (3, 2), ((0,), (1,), (1,), (0,))),
                        ("psi1", "psi2", "psi3", "psi4"),
                        f"b{beta}g{gamma}q14",
                    ),
                    # B in {1, 2} x C in {0, 1} with A = 2
                    "M2,2": _bell_pattern(
                        ("Bob", ("B", "b2"), (3, 2), ((1,), (2,))),
                        ("Charlie", ("C", "c3"), (3, 2), ((0,), (1,), (1,), (0,))),
                        ("psi9", "psi10", "psi11", "psi12"),
                        f"b{beta}g{gamma}q912",
                    ),
                    "M2bar": step3(),
                },
            )

        return step2()

    def charlie_stage(beta: int) -> dict:
        m2 = _proj_op("M2", (("C", "c1"), [(0, 0), (1, 0), (2, 1)]))
        m2bar = _complement_op("M2bar")
        return _measure(
            "Charlie",
            [m2, m2bar],
            {"M2": subtree(beta, 0), "M2bar": subtree(beta, 1)},
        )

    m1 = _proj_op("M1", (("B", "b1"), [(0, 0), (1, 1), (2, 1)]))
    m1bar = _complement_op("M1bar")
    root = _measure("Bob", [m1, m1bar], {"M1": charlie_stage(0), "M1bar": charlie_stage(1)})
    return {
        "name": "prop2",
        "registers": [
            {"name": "A", "owner": "Alice", "dim": 3},
            {"name": "B", "owner": "Bob", "dim": 3},
            {"name": "C", "owner": "Charlie", "dim": 3},
            {"name": "a1", "owner": "Alice", "dim": 2},
            {"name": "a2", "owner": "Alice", "dim": 2},
            {"name": "a3", "owner": "Alice", "dim": 2},
            {"name": "a4", "owner": "Alice", "dim": 2},
            {"name": "b1", "owner": "Bob", "dim": 2},
            {"name": "b2", "owner": "Bob", "dim": 2},
            {"name": "b3", "owner": "Bob", "dim": 2},
            {"name": "c1", "owner": "Charlie", "dim": 2},
            {"name": "c2", "owner": "Charlie", "dim": 2},
            {"name": "c3", "owner": "Charlie", "dim": 2},
        ],
        "resources": [
            {
                "name": "phi2_ab1",
                "pair": ["Alice", "Bob"],
                "dim": 2,
                "registers": ["a1", "b1"],
            },
            {
                "name": "phi2_ac1",
                "pair": ["Alice", "Charlie"],
                "dim": 2,
                "registers": ["a2", "c1"],
            },
            {
                "name": "phi2_ac2",
                "pair": ["Alice", "Charlie"],
                "dim": 2,
                "registers": ["a3", "c2"],
            },
            {
                "name": "phi2_bc",
                "pair": ["Bob", "Charlie"],
                "dim": 2,
                "registers": ["b2", "c3"],
            },
            {
                "name": "phi2_ab2",
                "pair": ["Alice", "Bob"],
                "dim": 2,
                "registers": ["a4", "b3"],
            },
        ],
        "root": root,
    }


def builtin_protocols() -> dict[str, dict]:
    return {
        "example1": example1_protocol(),
        "prop1": prop1_protocol(),
        "prop2": prop2_protocol(),
    }


def builtin_state_sets() -> dict[str, StateSet]:
    return {
        "bell": bell_state_set(),
        "b3": build_snoes(3),
        "b4": build_snoes(4),
    }
