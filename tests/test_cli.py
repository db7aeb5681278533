import hashlib
import json
import math
import os
import random
import tracemalloc
import types

import numpy as np
import pytest
from importlib import resources

from qrubik import cli, cube, verify
from qrubik.cli import main

from reference_data import dense_operator, ghz_basis
from qrubik import PartyLayout, PureState, StateSet, save_state_set, state_set_to_dict
from qrubik import build_snoeb, load_state_set, verify_strong_nonlocality
from qrubik.states import _term_arrays, state_set_from_dict


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _traced_run(capsys, *argv):
    """:func:`_run`, and the peak of the memory Python allocated meanwhile."""
    tracemalloc.start()
    try:
        found = _run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (*found, peak)


def _payload(out):
    report = json.loads(out)
    assert {"command", "version", "tolerance", "inputs", "result", "duration_seconds"} <= set(report)
    assert report["tolerance"] == 1e-9
    return report


def test_construct_and_verify_round_trip(tmp_path, capsys):
    out_file = str(tmp_path / "basis3.json")
    code, out, _ = _run(capsys, "construct", "--d", "3", "--basis", "--output", out_file)
    assert code == 0
    report = _payload(out)
    assert report["result"]["size"] == 27
    assert report["result"]["span_rank"] == 27
    assert report["result"]["pairwise_orthogonal"] is True
    assert os.path.exists(out_file)

    code, out, _ = _run(capsys, "verify", "--input", out_file)
    assert code == 0
    result = _payload(out)["result"]
    assert result["strongly_nonlocal"] is True
    assert result["summary"] == "certified strongly nonlocal"
    assert len(result["checks"]) == 6
    assert all(c["verdict"] == "Trivial" and c["solution_dim"] == 1 for c in result["checks"])


def test_construct_set_default_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "construct", "--d", "3")
    assert code == 0
    assert _payload(out)["result"]["size"] == 24
    assert os.path.exists("b3.json")


def test_construct_refuses_d_above_the_bound_before_building(tmp_path, capsys, monkeypatch):
    def refuse(d):
        raise AssertionError(f"the runs of d = {d} were built")

    monkeypatch.setattr(cube, "_run_cells", refuse)
    out_file = str(tmp_path / "big.json")
    for d in (cube.MAX_D + 1, 100):
        for basis in ((), ("--basis",)):
            code, out, err = _run(capsys, "construct", "--d", str(d), *basis, "--output", out_file)
            assert code == 2 and out == ""
            assert f"3 <= d <= {cube.MAX_D}" in err and f"d = {d}" in err
    assert not os.path.exists(out_file)
    # the bound itself passes the check and goes on to build the runs
    with pytest.raises(AssertionError, match=f"d = {cube.MAX_D} were built"):
        cube.build_snoeb(cube.MAX_D)


def test_analyze_profiles(tmp_path, capsys):
    out_file = str(tmp_path / "b3.json")
    _run(capsys, "construct", "--d", "3", "--output", out_file)
    code, out, _ = _run(capsys, "analyze", "--input", out_file)
    assert code == 0
    rows = _payload(out)["result"]["profiles"]
    assert len(rows) == 24
    for row in rows:
        assert sorted(row["ranks"].values())[0] == 1
        assert row["entangled"] and not row["genuine"]


def test_verify_single_check_and_exit_codes(tmp_path, capsys):
    ghz_file = str(tmp_path / "ghz.json")
    save_state_set(ghz_basis(), ghz_file)

    code, out, _ = _run(capsys, "verify", "--input", ghz_file, "--check", "A|BC:A")
    assert code == 0
    assert _payload(out)["result"]["verdict"] == "Trivial"

    code, out, _ = _run(capsys, "verify", "--input", ghz_file, "--check", "A|BC:BC")
    assert code == 1
    result = _payload(out)["result"]
    assert result["verdict"] == "Nontrivial"
    assert result["solution_dim"] == 2
    # a witness is printed at 12 significant digits
    parts = [x for row in result["witness"] for entry in row for x in entry]
    assert parts and all(x == float(f"{x:.12g}") for x in parts)

    code, out, _ = _run(capsys, "verify", "--input", ghz_file)
    assert code == 1
    result = _payload(out)["result"]
    assert result["strongly_nonlocal"] is False
    assert result["summary"].startswith("not certified")
    assert result["witness_check"]["actor"] in ("BC", "AC", "AB")


@pytest.mark.parametrize("check", ["A|QQ:A", "A|B:A", "A:A"])
def test_verify_check_rejects_a_wrong_right_side(capsys, check):
    code, out, err = _run(capsys, "verify", "--input", "b3", "--check", check)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be BC" in err


@pytest.mark.parametrize(
    "check, cut",
    [("A|BC:A", "A|BC"), ("B|AC:B", "B|AC"), ("C|AB:C", "C|AB"), ("A|CB:BC", "A|BC")],
)
def test_verify_check_accepts_the_complement(capsys, check, cut):
    code, out, _ = _run(capsys, "verify", "--input", "b3", "--check", check)
    assert code == 0
    assert _payload(out)["result"]["cut"] == cut


def test_simulate_packaged_documents(capsys):
    code, out, _ = _run(capsys, "simulate", "--protocol", "prop2", "--states", "b3")
    assert code == 0
    result = _payload(out)["result"]
    assert result["correct"] is True
    assert result["total_ebits"] == pytest.approx(2.5, abs=1e-9)
    pair_copies = {tuple(p["parties"]): p["expected_copies"] for p in result["pairs"]}
    assert pair_copies[("Alice", "Bob")] == pytest.approx(7 / 6, abs=1e-9)

    code, out, _ = _run(capsys, "simulate", "--protocol", "prop1", "--states", "b3")
    assert code == 0
    result = _payload(out)["result"]
    assert result["total_ebits"] == pytest.approx(4 / 3 + math.log2(3), abs=1e-9)
    assert "notes" in result


def test_simulate_example1_bell(capsys):
    code, out, _ = _run(capsys, "simulate", "--protocol", "example1", "--states", "bell")
    assert code == 0
    assert _payload(out)["result"]["total_ebits"] == pytest.approx(1.0, abs=1e-9)


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "verify", "--input", str(bad))
    assert code == 2
    assert "error" in err.lower()

    missing = str(tmp_path / "nope.json")
    code, _, err = _run(capsys, "analyze", "--input", missing)
    assert code == 2

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"dims": [2], "parties": ["A"], "states": [{}]}))
    code, _, err = _run(capsys, "analyze", "--input", str(schema))
    assert code == 2


def _packaged_doc(name):
    return json.loads(resources.files("qrubik").joinpath("data", name).read_text())


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_amplitude_exits_2(tmp_path, capsys, command, value):
    doc = _packaged_doc("b3.json")
    doc["states"][0]["terms"][0]["amp"][0] = value
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, command, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite amplitude" in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_protocol_matrix_exits_2(tmp_path, capsys, value):
    doc = _packaged_doc("example1.json")
    # N1 written out as its 4x4 diagonal matrix on (A, a), one entry spoiled
    matrix = [[[float(r == c and r in (0, 3)), 0.0] for c in range(4)] for r in range(4)]
    matrix[3][3][0] = value
    doc["root"]["operators"][0] = {"name": "N1", "regs": ["A", "a"], "matrix": matrix}
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", "--protocol", str(path), "--states", "bell")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


def _set_levels(levels):
    def spoil(protocol, states):
        protocol["root"]["operators"][0]["proj"][0]["levels"] = levels
    return spoil


def _set_matrix_cell(cell):
    def spoil(protocol, states):
        # m0p12S0+, two steps below the root, as its dense 4x4 matrix on (A, a)
        ops = protocol["root"]["branches"]["N1"]["branches"]["N2"]["operators"]
        ops[0] = dense_operator(ops[0])
        ops[0]["matrix"][1][2] = cell
    return spoil


def _edit_vector(edit):
    def spoil(protocol, states):
        # m0p12S0+, the projector onto |00> + |11> on (A, a), two steps below the root
        edit(protocol["root"]["branches"]["N1"]["branches"]["N2"]["operators"][0])
    return spoil


def _set_vector_part(value):
    def edit(op):
        op["vector"][3][0] = value  # the real part of the |11> entry
    return _edit_vector(edit)


def _wide_vector(protocol, states):
    # a 2048-entry vector: its projector alone would be 64 MiB
    protocol["registers"].append({"name": "x", "owner": "Alice", "dim": 2048})
    _edit_vector(lambda op: op.update(regs=["x"], vector=[[1.0, 0.0]] * 2048))(protocol, states)


def _setter(*path, value):
    """Set protocol or states document entry ``path`` (the first key picks
    the document) to ``value``."""
    def spoil(protocol, states):
        node = {"protocol": protocol, "states": states}
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return spoil


def _true_dim_pair(protocol, states):
    protocol["registers"] += [
        {"name": "x", "owner": "Alice", "dim": True},
        {"name": "y", "owner": "Bob", "dim": True},
    ]
    protocol["resources"].append(
        {"name": "r1", "pair": ["Alice", "Bob"], "dim": 1, "registers": ["x", "y"]}
    )


def _giant_pair(protocol, states):
    # a pair of 2^31 levels that no step measures: the walk's 2^35 root
    # entries (the 8 terms of bell.json times the 2 x 2^31 levels of the two
    # pairs) used to be allocated, from a 16 GiB range of the pair's levels
    protocol["registers"] += [
        {"name": "z", "owner": "Alice", "dim": 2**31},
        {"name": "w", "owner": "Bob", "dim": 2**31},
    ]
    protocol["resources"].append(
        {"name": "big", "pair": ["Alice", "Bob"], "dim": 2**31, "registers": ["z", "w"]}
    )


# Each spoils example1.json or bell.json; each used to end in a traceback, a
# giant allocation or a wrong answer with exit 0
MALFORMED_SIMULATE_INPUTS = {
    # [0, 3] on the dim-2 register a wrapped to (1, 1): exit 0, "correct"
    "level-above-dim": (_set_levels([[0, 0], [0, 3]]), "outside dims"),
    # [1, -1] wrapped to (0, 1)
    "negative-level": (_set_levels([[0, 0], [1, -1]]), "outside dims"),
    # read as [1, 1]
    "bool-level": (_set_levels([[0, 0], [True, True]]), "is not one integer per register"),
    "register-twice": (
        _setter("protocol", "root", "operators", 0, "proj", 0, "regs", value=["A", "A"]),
        "lists register 'A' twice",
    ),
    "short-cell": (_set_matrix_cell([1]), "[re, im] pairs"),
    "string-cell": (_set_matrix_cell("1+0j"), "[re, im] pairs"),
    # read as 0.0, so the operator was the projector it had been
    "bool-matrix-part": (_set_matrix_cell([False, 0.0]), "[re, im] pairs"),
    "short-vector": (
        _edit_vector(lambda op: op["vector"].pop()), "is not 4 [re, im] number pairs"
    ),
    "ragged-vector": (
        _edit_vector(lambda op: op["vector"][1].append(0.0)), "is not 4 [re, im] number pairs"
    ),
    "string-vector-part": (_set_vector_part("1"), "is not 4 [re, im] number pairs"),
    # read as 1.0, so the operator was the projector it had been
    "bool-vector-part": (_set_vector_part(True), "is not 4 [re, im] number pairs"),
    # an int part beyond float64's range, and one beyond int64's
    "huge-int-vector-part": (_set_vector_part(10**400), "is not 4 [re, im] number pairs"),
    "giant-int-vector-part": (_set_vector_part(2**70), "is not 4 [re, im] number pairs"),
    "nan-vector-part": (_set_vector_part(math.nan), "vector has non-finite entries"),
    "inf-vector-part": (_set_vector_part(math.inf), "vector has non-finite entries"),
    "zero-vector": (_edit_vector(lambda op: op.update(vector=[[0, 0]] * 4)), "vector is zero"),
    "vector-register-twice": (
        _edit_vector(lambda op: op.update(regs=["a", "a"])), "lists register 'a' twice"
    ),
    "vector-above-the-level-limit": (_wide_vector, "8192 levels, above the limit of 1024"),
    "pair-number": (
        _setter("protocol", "resources", 0, "pair", value=5),
        "malformed protocol document",
    ),
    "root-string": (_setter("protocol", "root", value="x"), "malformed protocol document"),
    "name-list": (
        _setter("protocol", "root", "operators", 0, "name", value=["N1"]),
        "operator without a name",
    ),
    # read as the complement
    "string-complement": (
        _setter("protocol", "root", "operators", 1, "complement", value="no"),
        "operator 'N1bar' complement must be true or false",
    ),
    # exit 0, the report printing ["s", "e", "e", ...]
    "string-notes": (
        _setter("protocol", "notes", value="see the paper"),
        "protocol notes must be a list of strings",
    ),
    # into the report as given
    "protocol-name-list": (
        _setter("protocol", "name", value=["x"]), "protocol name must be a string"
    ),
    # 58.2 TiB for the first step's dense operators
    "giant-register": (
        _setter("protocol", "registers", 0, "dim", value=10**6),
        "2000000 levels, above the limit",
    ),
    # read as dim 2, so the pair was reported as 1 ebit
    "fractional-resource-dim": (
        _setter("protocol", "resources", 0, "dim", value=2.9),
        "resource 'phi2_ab' dim must be an integer >= 1",
    ),
    "string-resource-dim": (
        _setter("protocol", "resources", 0, "dim", value="2"),
        "resource 'phi2_ab' dim must be an integer >= 1",
    ),
    # a pair of dim-true registers read as a dim-1 resource
    "bool-register-dim": (_true_dim_pair, "register dims must be integers >= 1"),
    "giant-resource-pair": (_giant_pair, "the walk starts from 34359738368 entries"),
    "label-list": (_setter("states", "states", 0, "label", value=["psi1"]), "not a string"),
    # exit 0 with "correct: true" about no states
    "no-states": (_setter("states", "states", value=[]), "no states"),
    # read as 2 without a word
    "fractional-dim": (_setter("states", "dims", 1, value=2.5), "must be integers"),
}


@pytest.mark.parametrize("case", list(MALFORMED_SIMULATE_INPUTS))
def test_malformed_simulate_input_exits_2(tmp_path, capsys, case):
    spoil, message = MALFORMED_SIMULATE_INPUTS[case]
    protocol, states = _packaged_doc("example1.json"), _packaged_doc("bell.json")
    spoil(protocol, states)
    paths = []
    for name, doc in (("protocol.json", protocol), ("states.json", states)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    argv = ["simulate", "--protocol", str(paths[0]), "--states", str(paths[1])]
    code, out, err, peak = _traced_run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and peak < 50 * 2**20


def _set_term(key, value):
    def spoil(doc):
        doc["states"][0]["terms"][0][key] = value
    return spoil


# Each spoils b3.json; each used to be read as some other set, with exit 0
MALFORMED_STATE_SETS = {
    # read as (0, 0, 0) and (1, 0, 0)
    "fractional-idx": (_set_term("idx", [0.9, 0, 0]), "index entries must be integers"),
    "fraction-above-one-idx": (_set_term("idx", [1.2, 0, 0]), "index entries must be integers"),
    "string-idx": (_set_term("idx", ["1", 0, 0]), "index entries must be integers"),
    # the 7 was dropped without a word
    "three-entry-amp": (_set_term("amp", [1, 0, 7]), "not an [re, im] pair"),
    # analyze exited 0 with the (state, cell) numbers, up to 24 x 4.5 * 10^19,
    # wrapped mod 2^64
    "cells-beyond-int64": (
        lambda doc: doc["dims"].__setitem__(1, 5 * 10**18),
        "24 states x 45000000000000000000 cells: (state, cell) numbers beyond int64",
    ),
}


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("case", list(MALFORMED_STATE_SETS))
def test_malformed_state_set_exits_2(tmp_path, capsys, case, command):
    spoil, message = MALFORMED_STATE_SETS[case]
    doc = _packaged_doc("b3.json")
    spoil(doc)
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(doc))
    code, out, err, peak = _traced_run(capsys, command, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and peak < 50 * 2**20


@pytest.mark.parametrize("command", ["analyze", "verify", "simulate"])
def test_amplitude_beyond_float_range_exits_2(tmp_path, capsys, command):
    # an integer amplitude of 400 digits used to raise OverflowError out of main
    doc = _packaged_doc("bell.json" if command == "simulate" else "b3.json")
    doc["states"][0]["terms"][0]["amp"] = [10**400, 0]
    path = str(tmp_path / "huge.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
    if command == "simulate":
        argv = ["simulate", "--protocol", "example1", "--states", path]
    else:
        argv = [command, "--input", path]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "malformed state-set document" in err


def test_analyze_takes_ranks_over_the_support(tmp_path, capsys):
    # a dense coefficient matrix per cut would take 3000 x 9e6 amplitudes
    layout = PartyLayout(("A", "B", "C"), (3000, 3000, 3000))
    sset = StateSet(
        layout,
        (
            PureState(layout, [((0, 0, 0), 1), ((2999, 1, 2999), 1)], "ghz"),
            PureState(layout, [((5, 6, 7), 1)], "product"),
        ),
    )
    path = str(tmp_path / "wide.json")
    save_state_set(sset, path)
    code, out, _ = _run(capsys, "analyze", "--input", path)
    assert code == 0
    rows = _payload(out)["result"]["profiles"]
    assert [sorted(row["ranks"].values()) for row in rows] == [[2, 2, 2], [1, 1, 1]]


def _wide_set(tmp_path, dims=(2, 18, 9)):
    # by default the A|BC:BC check has m = 162: m^2 = 26244 unknowns, above
    # the 9^4 limit; the set is tight, but with 2 states it leaves actor
    # indices uncovered, so no reduced-state certificate can decide the check
    layout = PartyLayout(("A", "B", "C"), dims)
    sset = StateSet(
        layout,
        (
            PureState(layout, [((0, 0, 0), 1), ((1, 1, 1), 1)], "plus"),
            PureState(layout, [((0, 0, 0), 1), ((1, 1, 1), -1)], "minus"),
        ),
    )
    path = str(tmp_path / "wide.json")
    save_state_set(sset, path)
    return path


def _state_file(tmp_path, states):
    layout = PartyLayout.uniform(("A", "B", "C"), 3)
    path = str(tmp_path / "states.json")
    save_state_set(StateSet(layout, tuple(PureState(layout, t, l) for t, l in states)), path)
    return path


def test_zero_state_exits_2(tmp_path, capsys):
    # a zero-amplitude state beside |111>: verify used to find a witness and
    # exit 1; its orthogonality check now refuses the state by name, as
    # analyze and simulate refuse it
    path = _state_file(tmp_path, [([((0, 0, 0), 0)], "zero"), ([((1, 1, 1), 1)], "one")])
    for argv, message in (
        (["verify", "--input", path], "input state zero is the zero state"),
        (["verify", "--input", path, "--check", "A|BC:A"], "input state zero is the zero state"),
        (["analyze", "--input", path], "zero state"),
        (["simulate", "--protocol", "prop1", "--states", path], "zero state"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err, argv


def test_empty_set_exits_2_in_every_command(tmp_path, capsys):
    # a set with no states leaves nothing to decide: verify used to report a
    # witness (exit 1) and analyze an empty profile list (exit 0)
    path = _state_file(tmp_path, [])
    for argv in (
        ["verify", "--input", path],
        ["analyze", "--input", path],
        ["simulate", "--protocol", "prop1", "--states", path],
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: the state set has no states to discriminate\n", argv


def test_solver_size_budget_exits_2(tmp_path, capsys):
    code, out, err = _run(capsys, "verify", "--input", _wide_set(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "m^2 = 26244" in err
    assert "above the solver limit of 6561" in err


def test_asymmetric_check_above_the_limit_exits_2_without_allocating(tmp_path, capsys):
    # the 100 product states |a b 0> touch 100 cells: a tight set, so the
    # A|BC:BC check (m = 100, N = 100) passes the size test before assembly
    # on min(m^2, N).  It leaves the actor indices (b, c), c > 0, uncovered, so
    # the reduced-state certificate declines, and the 10^4 x 10^4 fallback
    # (800 MB) must be refused, not allocated
    layout = PartyLayout(("A", "B", "C"), (10, 10, 10))
    sset = StateSet(
        layout,
        tuple(
            PureState(layout, [((a, b, 0), 1)], f"e{a}{b}") for a in range(10) for b in range(10)
        ),
    )
    path = str(tmp_path / "product.json")
    save_state_set(sset, path)
    code, out, err, peak = _traced_run(capsys, "verify", "--input", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "check A|BC:BC has m^2 = 10000 unknowns" in err
    assert "did not certify" in err
    assert peak < 50 * 2**20


@pytest.mark.parametrize("check", [None, "A|BC:BC"], ids=["all", "one"])
def test_solver_size_budget_is_checked_before_assembly(tmp_path, capsys, monkeypatch, check):
    def assemble(*args, **kwargs):
        raise AssertionError("constraints assembled before the size check")

    monkeypatch.setattr(verify, "assemble_constraints", assemble)
    argv = ["verify", "--input", _wide_set(tmp_path)] + (["--check", check] if check else [])
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "check A|BC:BC has m^2 = 26244 unknowns" in err


def test_basis_past_the_block_limit_exits_2_before_its_rows(tmp_path, capsys, monkeypatch):
    # the computational basis of 2 x 2 x 82: the A|BC:BC check has m = 164,
    # so m^2 = 26896 is above the 9^4 limit, but as a basis of N = 328
    # states it passes the size check on min(m^2, N).  It
    # is not trivial, so the reduced-state certificate declines, and the
    # check must stop before its rows are built
    layout = PartyLayout(("A", "B", "C"), (2, 2, 82))
    sset = StateSet(
        layout,
        tuple(
            PureState(layout, [((a, b, c), 1)], f"e{a}{b}{c}")
            for a in range(2) for b in range(2) for c in range(82)
        ),
    )
    path = str(tmp_path / "wide-basis.json")
    save_state_set(sset, path)
    assembled = []
    build = verify._rows

    def recording(sset, axes, m):
        assert m != 164, "rows of the m = 164 check built"
        assembled.append(m)
        return build(sset, axes, m)

    monkeypatch.setattr(verify, "_rows", recording)
    code, out, err = _run(capsys, "verify", "--input", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "check A|BC:BC has m^2 = 26896 unknowns" in err
    assert "the dense fallback is above the solver limit" in err
    # only the A|BC:A check before it, which is not trivial either, built rows
    assert assembled == [2]


# sha256 of json.dumps(result, sort_keys=True) for each shipped protocol and
# its state set; the simulator's output must not change by a single byte
SIMULATE_RESULT_SHA256 = {
    ("example1", "bell"): "6cc7f1edba991d36cb6c6b4ea25f5f60108990ed0f410fa67040c78cfa1fe1bc",
    ("prop1", "b3"): "0114a96122a428505a9d5367842a07c63806e3bf477f362a8441ee52a4d043f6",
    ("prop2", "b3"): "c04f37addaa74a2f07161a8a5e5b2166e4836fd1491bbecdd6f710cfc92ab580",
}


@pytest.mark.parametrize("protocol, states", list(SIMULATE_RESULT_SHA256))
def test_simulate_result_bytes_are_pinned(capsys, protocol, states):
    code, out, _ = _run(capsys, "simulate", "--protocol", protocol, "--states", states)
    assert code == 0
    result = json.dumps(_payload(out)["result"], sort_keys=True)
    assert hashlib.sha256(result.encode()).hexdigest() == SIMULATE_RESULT_SHA256[protocol, states]


# sha256 for `construct --d 5 --basis`: of json.dumps(result, sort_keys=True)
# without the output path, of the file it writes, and of the `analyze`
# result of that file
CONSTRUCT_RESULT_SHA256 = "525990b36072ab39644b4616f0030cc76e1f70af4571cc3a3bcd95d7dcdca9a4"
CONSTRUCT_FILE_SHA256 = "a8165f6919ebfaf5923d687747813816735f6baee711d3b0b5d8da4b569a6180"
ANALYZE_RESULT_SHA256 = "ef900a2490f51a66fe9c8297b9142a67078098769a62e9af481479b69269c869"


def test_construct_and_analyze_bytes_are_pinned(tmp_path, capsys):
    path = str(tmp_path / "b5_basis.json")
    code, out, _ = _run(capsys, "construct", "--d", "5", "--basis", "--output", path)
    assert code == 0
    result = _payload(out)["result"]
    assert result.pop("output") == path
    digest = lambda text: hashlib.sha256(text).hexdigest()
    assert digest(json.dumps(result, sort_keys=True).encode()) == CONSTRUCT_RESULT_SHA256
    assert digest(open(path, "rb").read()) == CONSTRUCT_FILE_SHA256

    code, out, _ = _run(capsys, "analyze", "--input", path)
    assert code == 0
    result = json.dumps(_payload(out)["result"], sort_keys=True)
    assert digest(result.encode()) == ANALYZE_RESULT_SHA256

    # the writer fills a template; json.dump(..., indent=1) is the reference
    # on the cases a template could get wrong: empty lists, a null label and
    # labels that need escaping
    layout = PartyLayout(("A", "B"), (2, 3))
    cases = [
        StateSet(layout, ()),
        StateSet(
            layout,
            (
                PureState(layout, [], "zero"),
                PureState(layout, [((1, 2), -0.5j), ((0, 0), 1e-300)], "\u03a9mega \"q\" \\"),
            ),
        ),
        _unlabelled(PureState(layout, [((0, 1), 1)], None)),
        _interleaved_term_counts(),
    ]
    for sset in cases:
        save_state_set(sset, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(state_set_to_dict(sset), indent=1) + "\n"


def _interleaved_term_counts():
    """A set whose states have 0, 1, 3 and 9 terms in interleaved order, so
    that the writer's classes of equal term counts are not runs of the set,
    with amplitude parts that repeat, -0.0 beside 0.0 and parts of extreme
    scale."""
    layout = PartyLayout(("A", "B", "C"), (3, 3, 2))
    rng = np.random.default_rng(9)
    cells = list(np.ndindex(*layout.dims))
    parts = [0.0, -0.0, 1.0, -0.5, 1 / 3, 0.1, 1e-300, -2.5e300]
    counts = [3, 0, 9, 1, 9, 3, 0, 1, 3, 9, 1, 0]
    owner, idx, amps = [], [], []
    for k, n in enumerate(counts):
        for c in np.sort(rng.choice(len(cells), n, replace=False)):
            owner.append(k)
            idx.append(cells[c])
            amps.append(complex(*rng.choice(parts, 2)))
    arrays = (np.array(owner, dtype=np.int64), np.array(idx, dtype=np.int64).reshape(-1, 3))
    labels = [f"s{k}" for k in range(len(counts))]
    return StateSet._of_arrays(layout, labels, (*arrays, np.array(amps, dtype=complex)))


def _unlabelled(state):
    """A stand-in for a set of one state without a label, which a StateSet
    refuses, with the fields the writer and ``state_set_to_dict`` read."""
    return types.SimpleNamespace(
        layout=state.layout,
        labels=(None,),
        term_arrays=_term_arrays(state.layout, [state]),
        states=(state,),
    )


# sha256 of the file `construct --d D --basis` writes and of the `analyze`
# result of that file; the d = 4 and d = 9 files hold the amplitude -1j,
# whose real part is written 0.0, not -0.0
BASIS_FILE_AND_ANALYZE_SHA256 = {
    4: (
        "67c2ba3fb2028db221faf70f4af488ca1bb952ca48adf5ea2bf8940a54138f6b",
        "e9eae6de8a971d977d3f3e8f38bf2c2b985e931ba4b0b9e0b01372113b8bcc15",
    ),
    9: (
        "7a7683018755ac9e7ded29d611652957a7264750a56de89dc79bef66f8b31d70",
        "d844249a5c92914c2c793c8335d52f94d5362894cf21aafe9b1eab72e0d82f7b",
    ),
}


@pytest.mark.parametrize("d", list(BASIS_FILE_AND_ANALYZE_SHA256))
def test_basis_file_and_analyze_bytes_are_pinned(tmp_path, capsys, d):
    path = str(tmp_path / f"b{d}_basis.json")
    code, _, _ = _run(capsys, "construct", "--d", str(d), "--basis", "--output", path)
    assert code == 0
    file_sha, analyze_sha = BASIS_FILE_AND_ANALYZE_SHA256[d]
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == file_sha
    code, out, _ = _run(capsys, "analyze", "--input", path)
    assert code == 0
    result = json.dumps(_payload(out)["result"], sort_keys=True)
    assert hashlib.sha256(result.encode()).hexdigest() == analyze_sha


@pytest.mark.parametrize("factor", [1e-170, 1e170])
def test_simulate_result_is_scale_invariant(tmp_path, capsys, factor):
    # Born ratios of states at a finite but extreme scale used to underflow
    # ("cannot measure the zero state") or overflow ("correct": false)
    b3 = state_set_from_dict(_packaged_doc("b3.json"))
    path = str(tmp_path / "scaled.json")
    save_state_set(StateSet(b3.layout, tuple(s.scaled(factor) for s in b3.states)), path)
    results = []
    for states in ("b3", path):
        code, out, _ = _run(capsys, "simulate", "--protocol", "prop1", "--states", states)
        assert code == 0
        results.append(_payload(out)["result"])
    assert results[0] == results[1]


def test_bad_invocation_leaves_the_next_one_as_it_was(capsys):
    # the argument parser is built once per process and shared by every call
    assert cli._build_parser() is cli._build_parser()
    good = ("simulate", "--protocol", "example1", "--states", "bell")
    results = []
    for bad in (
        ["simulate", "--protocol", "example1"],
        ["verify", "--bogus"],
        ["no-such-command"],
        [],
    ):
        code, out, _ = _run(capsys, *good)
        assert code == 0
        results.append(_payload(out)["result"])
        code, out, err = _run(capsys, *bad)
        assert code == 2 and out == "" and "usage: qrubik" in err
    code, out, _ = _run(capsys, *good)
    assert code == 0
    assert results == [_payload(out)["result"]] * 4


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "--bogus"]) == 2
    assert main(["no-such-command"]) == 2


def test_reports_are_deterministic(tmp_path, capsys):
    out_file = str(tmp_path / "b4.json")
    _run(capsys, "construct", "--d", "4", "--output", out_file)
    first_bytes = open(out_file, "rb").read()

    code, out1, _ = _run(capsys, "analyze", "--input", out_file)
    code, out2, _ = _run(capsys, "analyze", "--input", out_file)
    r1, r2 = json.loads(out1), json.loads(out2)
    del r1["duration_seconds"], r2["duration_seconds"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    out_file2 = str(tmp_path / "b4_again.json")
    _run(capsys, "construct", "--d", "4", "--output", out_file2)
    assert open(out_file2, "rb").read() == first_bytes


def test_numbers_printed_with_12_significant_digits(capsys):
    code, out, _ = _run(capsys, "simulate", "--protocol", "prop1", "--states", "b3")
    result = json.loads(out)["result"]
    # 4/3 + log2(3) rendered at 12 significant digits
    assert result["total_ebits"] == float(f"{4 / 3 + math.log2(3):.12g}")


def test_saved_basis_goes_through_every_command_without_pure_states(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(5)
    basis = build_snoeb(5)
    factors = rng.uniform(0.5, 2.0, len(basis)) * np.exp(2j * np.pi * rng.random(len(basis)))
    order = rng.permutation(len(basis))
    seeded = StateSet(
        basis.layout, tuple(basis[int(k)].scaled(complex(f)) for k, f in zip(order, factors))
    )
    path = str(tmp_path / "b5.json")
    save_state_set(seeded, path)

    def refuse(*args, **kwargs):
        raise AssertionError("a PureState was built")

    monkeypatch.setattr(PureState, "__init__", refuse)
    monkeypatch.setattr(PureState, "_canonical", refuse)
    sset = load_state_set(path)
    assert sset.labels == seeded.labels
    assert verify_strong_nonlocality(sset).strongly_nonlocal
    code, out, _ = _run(capsys, "verify", "--input", path)
    assert code == 0 and _payload(out)["result"]["strongly_nonlocal"] is True
    code, out, _ = _run(capsys, "verify", "--input", path, "--check", "A|BC:A")
    assert code == 0 and _payload(out)["result"]["verdict"] == "Trivial"
    code, out, _ = _run(capsys, "analyze", "--input", path)
    assert code == 0 and len(_payload(out)["result"]["profiles"]) == len(basis)
    copy = str(tmp_path / "copy.json")
    save_state_set(sset, copy)
    assert open(copy, "rb").read() == open(path, "rb").read()


# characters that a byte-level layout could mistake for structure, or that
# escape: quotes, backslashes, brackets, separators, control characters and
# non-ASCII, beside plain ones
_TRICKY = '"\\[]{},: \n\t\x00\x1fa1é☃\U0001f600'


def _random_text(rng, longest):
    return "".join(rng.choice(_TRICKY) for _ in range(rng.randrange(longest + 1)))


def _random_value(rng, depth=0):
    """A nested JSON value, at the top a container: empty containers occur
    at every depth; the numbers include NaN, +-Infinity, -0.0 and 20-digit
    ints."""
    kind = rng.randrange(4 if depth == 0 else 0, 8 if depth < 4 else 6)
    if kind == 0:
        return _random_text(rng, 5)
    if kind == 1:
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, rng.uniform(-1e3, 1e3)])
    if kind == 2:
        return rng.choice([rng.randrange(-50, 50), rng.randrange(-(10**20), 10**20)])
    if kind == 3:
        return rng.choice([True, False, None])
    if kind in (4, 5):
        return rng.choice([[], {}])
    size = rng.randrange(1, 4)
    if kind == 6:
        return [_random_value(rng, depth + 1) for _ in range(size)]
    return {_random_text(rng, 3): _random_value(rng, depth + 1) for _ in range(size)}


def test_layout_equals_the_indent_1_encoder_on_random_values():
    rng = random.Random(27)
    for _ in range(5000):
        value = _random_value(rng)
        compact = json.dumps(value, sort_keys=True, separators=(",", ": "))
        assert cli._indented(compact) == json.dumps(value, indent=1, sort_keys=True), compact


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--d", "4", "--basis", "--output", "{tmp}/b4.json"),
        ("analyze", "--input", "b3"),
        ("verify", "--input", "b3"),
        ("verify", "--input", "b3", "--check", "A|BC:A"),
        ("verify", "--input", "{tmp}/ghz.json"),
        ("verify", "--input", "{tmp}/ghz.json", "--check", "A|BC:BC"),
        ("simulate", "--protocol", "prop1", "--states", "b3"),
    ],
)
def test_report_is_laid_out_as_the_indent_1_encoder_lays_it_out(tmp_path, capsys, argv):
    save_state_set(ghz_basis(), str(tmp_path / "ghz.json"))
    _, out, _ = _run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert out == json.dumps(json.loads(out), indent=1, sort_keys=True) + "\n"


def _floats(value):
    if isinstance(value, dict):
        return [f for v in value.values() for f in _floats(v)]
    if isinstance(value, (list, tuple)):
        return [f for v in value for f in _floats(v)]
    return [value] if isinstance(value, float) else []


def test_construct_and_analyze_results_hold_no_float(tmp_path, capsys, monkeypatch):
    # their floats are not rounded: only simulate and a verify witness have any
    results = []
    emit = cli._emit

    def recording(command, inputs, payload, started):
        results.append(payload)
        emit(command, inputs, payload, started)

    monkeypatch.setattr(cli, "_emit", recording)
    path = str(tmp_path / "b5.json")
    assert main(["construct", "--d", "5", "--basis", "--output", path]) == 0
    assert main(["analyze", "--input", path]) == 0
    capsys.readouterr()
    assert len(results) == 2 and results[1]["profiles"]
    assert [_floats(r) for r in results] == [[], []]
