"""Builders for the shipped discrimination protocols and state-set data files.

The protocol documents are plain JSON-able dicts in the format understood by
:func:`qrubik.locc.parse_protocol`.  Mirror branches that follow by symmetry
are expanded in full here, as are the terminal two- or three-party sign
discriminations, so every leaf names exactly one candidate.  Each measurement
is written as (operator, subtree) pairs, so every outcome is named once.
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

# A register belongs to the party whose initial its name starts with.
_OWNERS = {"a": "Alice", "b": "Bob", "c": "Charlie"}


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


def _registers(**dims: int) -> list[dict]:
    """Register declarations, in keyword order, each owned as :data:`_OWNERS` says."""
    return [
        {"name": name, "owner": _OWNERS[name[0].lower()], "dim": dim}
        for name, dim in dims.items()
    ]


def _resource(name: str, dim: int, *regs: str) -> dict:
    """A maximally entangled pair of dim ``dim`` held in ``regs``."""
    return {
        "name": name,
        "pair": [_OWNERS[reg[0].lower()] for reg in regs],
        "dim": dim,
        "registers": list(regs),
    }


def _leaf(answer: str) -> dict:
    return {"type": "leaf", "answer": answer}


_DEAD = _leaf("none")


def _proj(name: str, regs: tuple[str, ...], levels: list[tuple[int, ...]]) -> dict:
    return {"name": name, "proj": [{"regs": list(regs), "levels": [list(l) for l in levels]}]}


def _rest(name: str) -> dict:
    return {"name": name, "complement": True}


def _vector(name: str, regs: tuple[str, ...], dims: tuple[int, ...], components) -> dict:
    """The projector onto v, written as its ``vector`` v (not normalised)."""
    v = _dense_vector(dims, components)
    return {"name": name, "regs": list(regs), "vector": [[c.real, c.imag] for c in v.tolist()]}


def _measure(party: str, *outcomes: tuple[dict, dict]) -> dict:
    """``party`` measures the operators of ``outcomes``, each followed by its subtree."""
    return {
        "type": "measure",
        "party": party,
        "operators": [op for op, _ in outcomes],
        "branches": {op["name"]: subtree for op, subtree in outcomes},
    }


def _sign_dance(n: int, prefix: str, *stages) -> dict:
    """Discriminate psi{n} = v0 + v1 from psi{n + 1} = v0 - v1, where v0 and v1
    split componentwise over parties.

    Each stage is (party, regs, dims, v0_levels, v1_levels); each party
    measures the projectors onto its (v0 + v1) and (v0 - v1) superpositions,
    and the overall sign is the product of the reported signs.
    """

    def node(i: int, parity: int) -> dict:
        if i == len(stages):
            return _leaf(f"psi{n if parity > 0 else n + 1}")
        party, regs, dims, v0, v1 = stages[i]
        name = f"{prefix}S{i}"
        return _measure(
            party,
            (_vector(f"{name}+", regs, dims, [(v0, 1), (v1, 1)]), node(i + 1, parity)),
            (_vector(f"{name}-", regs, dims, [(v0, 1), (v1, -1)]), node(i + 1, -parity)),
            (_rest(f"{name}r"), _DEAD),
        )

    return node(0, 1)


def _bell_pattern(first, second, n: int, tag: str) -> dict:
    """Example-1 pattern: one shared pair separates psi{n} .. psi{n + 3}.

    ``first`` is (party, regs, dims, (x0, x1)) and ``second`` is
    (party, regs, dims, (g0, g1, h0, h1)); each party's last register is its
    half of the pair, and every level is a tuple over the other registers.
    psi{n} and psi{n + 1} are the +/- superpositions of x0 g0 and x1 g1,
    psi{n + 2} and psi{n + 3} those of x0 h0 and x1 h1.  The first party
    measures L1, after which the ancilla level of the k-th element is k ^ mu
    for outcome mu; the second party's L2 then splits the g pair from the
    h pair, and a sign dance finishes each.
    """
    party1, regs1, dims1, (x0, x1) = first
    party2, regs2, dims2, (g0, g1, h0, h1) = second
    prefix = f"{tag}q{n}{n + 3}"

    def dance(mu: int, y0, y1, k: int, half: str) -> dict:
        return _sign_dance(
            k,
            f"{prefix}u{mu}{half}",
            (party1, regs1, dims1, (*x0, mu), (*x1, 1 ^ mu)),
            (party2, regs2, dims2, (*y0, mu), (*y1, 1 ^ mu)),
        )

    def after(mu: int) -> dict:
        return _measure(
            party2,
            (_proj("L2", regs2, [(*g0, mu), (*g1, 1 ^ mu)]), dance(mu, g0, g1, n, "g")),
            (_rest("L2bar"), dance(mu, h0, h1, n + 2, "h")),
        )

    return _measure(
        party1,
        (_proj("L1", regs1, [(*x0, 0), (*x1, 1)]), after(0)),
        (_rest("L1bar"), after(1)),
    )


def example1_protocol() -> dict:
    """Two-qubit MES-assisted discrimination of the four Bell-type states."""

    def stage2(mu: int) -> dict:
        # Alice's N1 outcome mu flips the ancilla level of her k-th element to k ^ mu
        alice = ("Alice", ("A", "a"), (2, 2), (0, mu), (1, 1 ^ mu))
        bob = ("Bob", ("B", "b"), (2, 2))
        return _measure(
            "Bob",
            (
                _proj("N2", ("B", "b"), [(0, mu), (1, 1 ^ mu)]),
                _sign_dance(1, f"m{mu}p12", alice, (*bob, (0, mu), (1, 1 ^ mu))),
            ),
            (_rest("N2bar"), _sign_dance(3, f"m{mu}p34", alice, (*bob, (1, mu), (0, 1 ^ mu)))),
        )

    return {
        "name": "example1",
        "registers": _registers(A=2, B=2, a=2, b=2),
        "resources": [_resource("phi2_ab", 2, "a", "b")],
        "root": _measure(
            "Alice",
            (_proj("N1", ("A", "a"), [(0, 0), (1, 1)]), stage2(0)),
            (_rest("N1bar"), stage2(1)),
        ),
    }


def prop1_protocol() -> dict:
    """Two-party-merged discrimination of the 24-state set in 3x3x3.

    An opening teleport moves Charlie's register to Bob; afterwards Bob acts
    on the (B, C) pair jointly.  Costs: one dim-3 pair Bob-Charlie plus 4/3
    dim-2 pairs Alice-Bob on average.
    """
    BC, BCB = ("B", "C"), ("B", "C", "b")

    def bcb(j: int, x: int, k: int, y: int) -> list[tuple[int, ...]]:
        """(B, C, b) levels: snake level j with ancilla level x, and k with y."""
        return [(*SNAKE_3_INV[j], x), (*SNAKE_3_INV[k], y)]

    def picks(name: str, n: int, j: int, k: int) -> list[tuple[dict, dict]]:
        """Bob's projectors onto snake levels j + k and j - k of (B, C),
        answering psi{n} and psi{n + 1}."""
        v0, v1 = SNAKE_3_INV[j], SNAKE_3_INV[k]
        return [
            (_vector(f"{name}{n + i}", BC, (3, 3), [(v0, 1), (v1, s)]), _leaf(f"psi{n + i}"))
            for i, s in enumerate((1, -1))
        ]

    def stage(alpha: int) -> dict:
        """The tree after Alice's K1 leaves her ancilla level of A = 0 at alpha."""

        def dance(j: int, k: int, n: int) -> dict:
            return _sign_dance(
                n,
                f"a{alpha}p{n}{n + 1}",
                ("Alice", ("A", "a"), (3, 2), (0, alpha), (1, 1 ^ alpha)),
                ("Bob", BCB, (3, 3, 2), *bcb(j, alpha, k, 1 ^ alpha)),
            )

        def bell(j: int, k: int, n: int) -> dict:
            # A in {1, 2} against the joint (B, C) levels j and k held by Bob
            return _bell_pattern(
                ("Alice", ("A", "a1"), (3, 2), ((1,), (2,))),
                ("Bob", ("B", "C", "b1"), (3, 3, 2), tuple(SNAKE_3_INV[i] for i in (j, k, k, j))),
                n,
                f"a{alpha}",
            )

        step4 = _measure(
            "Bob",
            (_proj("K4,1", BCB, bcb(8, alpha, 7, 1 ^ alpha)), dance(8, 7, 19)),
            (_proj("K4,2", BCB, bcb(5, alpha, 6, 1 ^ alpha)), dance(5, 6, 13)),
            (_rest("K4bar"), dance(6, 5, 15)),
        )
        step3 = _measure(
            "Alice",
            (
                _proj("K3", ("A",), [(2,)]),
                _measure("Bob", *picks("V", 9, 5, 7), *picks("V", 11, 4, 6), (_rest("Vr"), _DEAD)),
            ),
            (_rest("K3bar"), step4),
        )
        return _measure(
            "Bob",
            (
                _proj("K2,1", BCB, bcb(1, alpha, 3, alpha)),
                _measure("Bob", *picks("W", 21, 1, 3), (_rest("Wr"), _DEAD)),
            ),
            (
                _proj("K2,2", BCB, bcb(2, alpha, 4, alpha)),
                _measure("Bob", *picks("W", 23, 2, 4), (_rest("Wr"), _DEAD)),
            ),
            (_proj("K2,3", BCB, bcb(7, alpha, 8, 1 ^ alpha)), dance(7, 8, 17)),
            (_proj("K2,4", BCB, bcb(0, 1 ^ alpha, 1, 1 ^ alpha)), bell(0, 1, 1)),
            (_proj("K2,5", BCB, bcb(2, 1 ^ alpha, 3, 1 ^ alpha)), bell(2, 3, 5)),
            (_rest("K2bar"), step3),
        )

    return {
        "name": "prop1",
        "notes": [
            "The dim-3 pair is declared between Bob and Charlie, matching the "
            "resource tuple and the opening teleport; one source sentence "
            "instead places its consumption between Alice and Charlie, which "
            "is inconsistent with that opening move and is not followed here."
        ],
        "registers": _registers(A=3, B=3, C=3, a=2, b=2, a1=2, b1=2, b0=3, c0=3),
        "resources": [
            _resource("phi3_bc", 3, "b0", "c0"),
            _resource("phi2_ab", 2, "a", "b"),
            _resource("phi2_ab1", 2, "a1", "b1"),
        ],
        "root": {
            "type": "teleport",
            "source": "C",
            "resource": "phi3_bc",
            "to": "Bob",
            "then": _measure(
                "Alice",
                (_proj("K1", ("A", "a"), [(0, 0), (1, 1), (2, 1)]), stage(0)),
                (_rest("K1bar"), stage(1)),
            ),
        },
    }


def prop2_protocol() -> dict:
    """Fully separated discrimination of the 24-state set in 3x3x3.

    Five dim-2 pairs; expected consumption (7/6, 7/6, 1/6) copies across the
    Alice-Bob, Alice-Charlie and Bob-Charlie pairs, 2.5 ebits in total.
    """

    def subtree(beta: int, gamma: int) -> dict:
        tag = f"b{beta}g{gamma}"
        A12 = ("A", "a1", "a2")
        # Bob's stage after his M1 leaves his ancilla level of B = 0 at beta
        bob = ("Bob", ("B", "b1"), (3, 2), (0, beta), (1, 1 ^ beta))

        def dance(n: int, *stages) -> dict:
            return _sign_dance(n, f"{tag}p{n}{n + 1}", *stages)

        step5 = _measure(
            "Alice",
            (
                _proj("M5,1", A12, [(1, beta, 1 ^ gamma), (2, 1 ^ beta, 1 ^ gamma)]),
                dance(5, ("Alice", ("A", "a1"), (3, 2), (1, beta), (2, 1 ^ beta)), bob),
            ),
            (
                _proj("M5,2", A12, [(1, 1 ^ beta, 1 ^ gamma), (2, beta, 1 ^ gamma)]),
                dance(
                    7,
                    ("Alice", ("A", "a1"), (3, 2), (1, 1 ^ beta), (2, beta)),
                    ("Bob", ("B", "b1"), (3, 2), (1, 1 ^ beta), (0, beta)),
                ),
            ),
            (
                _proj("M5,3", A12, [(0, beta, gamma), (0, 1 ^ beta, 1 ^ gamma)]),
                dance(
                    21,
                    ("Alice", ("a1", "a2"), (2, 2), (beta, gamma), (1 ^ beta, 1 ^ gamma)),
                    bob,
                    ("Charlie", ("C", "c1"), (3, 2), (1, gamma), (2, 1 ^ gamma)),
                ),
            ),
            (
                _rest("M5bar"),
                dance(
                    23,
                    ("Alice", ("a1", "a2"), (2, 2), (beta, 1 ^ gamma), (1 ^ beta, gamma)),
                    bob,
                    ("Charlie", ("C", "c1"), (3, 2), (2, 1 ^ gamma), (1, gamma)),
                ),
            ),
        )
        split_1720 = _measure(
            "Alice",
            (
                _proj("T1", ("A", "a2"), [(0, gamma), (1, 1 ^ gamma)]),
                dance(
                    17,
                    ("Alice", ("A", "a2"), (3, 2), (0, gamma), (1, 1 ^ gamma)),
                    ("Charlie", ("C", "c1"), (3, 2), (1, gamma), (2, 1 ^ gamma)),
                ),
            ),
            (
                _rest("T1bar"),
                dance(
                    19,
                    ("Alice", ("A", "a2"), (3, 2), (0, 1 ^ gamma), (1, gamma)),
                    ("Charlie", ("C", "c1"), (3, 2), (2, 1 ^ gamma), (1, gamma)),
                ),
            ),
        )
        step4 = _measure("Bob", (_proj("M4", ("B",), [(2,)]), split_1720), (_rest("M4bar"), step5))
        step3 = _measure(
            "Charlie",
            (
                _proj("M3", ("C",), [(0,)]),
                # A in {0, 1} x B in {1, 2} with C = 0
                _bell_pattern(
                    ("Alice", ("A", "a4"), (3, 2), ((0,), (1,))),
                    ("Bob", ("B", "b3"), (3, 2), ((1,), (2,), (2,), (1,))),
                    13,
                    tag,
                ),
            ),
            (_rest("M3bar"), step4),
        )
        return _measure(
            "Alice",
            (
                _proj("M2,1", A12, [(1, beta, gamma), (2, beta, gamma)]),
                # A in {1, 2} x C in {0, 1} with B = 0
                _bell_pattern(
                    ("Alice", ("A", "a3"), (3, 2), ((1,), (2,))),
                    ("Charlie", ("C", "c2"), (3, 2), ((0,), (1,), (1,), (0,))),
                    1,
                    tag,
                ),
            ),
            (
                _proj("M2,2", A12, [(2, 1 ^ beta, gamma)]),
                # B in {1, 2} x C in {0, 1} with A = 2
                _bell_pattern(
                    ("Bob", ("B", "b2"), (3, 2), ((1,), (2,))),
                    ("Charlie", ("C", "c3"), (3, 2), ((0,), (1,), (1,), (0,))),
                    9,
                    tag,
                ),
            ),
            (_rest("M2bar"), step3),
        )

    def charlie_stage(beta: int) -> dict:
        return _measure(
            "Charlie",
            (_proj("M2", ("C", "c1"), [(0, 0), (1, 0), (2, 1)]), subtree(beta, 0)),
            (_rest("M2bar"), subtree(beta, 1)),
        )

    return {
        "name": "prop2",
        "registers": _registers(
            A=3, B=3, C=3, a1=2, a2=2, a3=2, a4=2, b1=2, b2=2, b3=2, c1=2, c2=2, c3=2
        ),
        "resources": [
            _resource("phi2_ab1", 2, "a1", "b1"),
            _resource("phi2_ac1", 2, "a2", "c1"),
            _resource("phi2_ac2", 2, "a3", "c2"),
            _resource("phi2_bc", 2, "b2", "c3"),
            _resource("phi2_ab2", 2, "a4", "b3"),
        ],
        "root": _measure(
            "Bob",
            (_proj("M1", ("B", "b1"), [(0, 0), (1, 1), (2, 1)]), charlie_stage(0)),
            (_rest("M1bar"), charlie_stage(1)),
        ),
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
