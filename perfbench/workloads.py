"""Benchmark workloads: seeded inputs, one job each, and its known answer.

A job runs ``qrubik`` commands in-process through ``qrubik.cli.main`` and
returns what the program printed; :func:`Workload.check` compares that with
the known answer and lists every mismatch.  Inputs are written to files in a
work directory and only those files reach the program.

The seed permutes the state order and scales every state by a positive real
factor.  It applies no complex phase: the constructions have real +/-1 and
root-of-unity amplitudes, and a phase would fill the imaginary constraint
rows they leave empty, roughly doubling the rows of every check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

import qrubik.cli
from qrubik import cube, locc, states

DATA = os.path.join(os.path.dirname(qrubik.cli.__file__), "data")


@dataclass(frozen=True)
class Call:
    """One command of a job: its arguments, exit code and standard output."""

    argv: tuple[str, ...]
    code: int
    out: str


def cli(*argv: str) -> Call:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qrubik.cli.main(list(argv))
    return Call(argv, code, out.getvalue())


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[str, random.Random], dict[str, str]]
    job: Callable[[dict[str, str]], list[Call]]
    check: Callable[[list[Call]], list[str]]


def seeded(sset: states.StateSet, rng: random.Random) -> states.StateSet:
    scaled = [s.scaled(2.0 ** rng.uniform(-1.0, 1.0)) for s in sset.states]
    rng.shuffle(scaled)
    return states.StateSet(sset.layout, tuple(scaled))


def _save(sset: states.StateSet, path: str) -> str:
    states.save_state_set(sset, path)
    return path


def _basis(d: int):
    """Input maker for the verify workloads: the seeded d^3 basis."""

    def make_inputs(work, rng):
        return {"basis": _save(seeded(cube.build_snoeb(d), rng), os.path.join(work, "basis.json"))}

    return make_inputs


def _result(call: Call, problems: list[str]) -> dict:
    """The report's ``result``, noting a nonzero exit code or unreadable output."""
    if call.code != 0:
        problems.append(f"{call.argv[0]}: exit code {call.code}")
    try:
        return json.loads(call.out)["result"]
    except (ValueError, KeyError, TypeError):
        problems.append(f"{call.argv[0]}: no report printed")
        return {}


def _trivial(result: dict, where: str, problems: list[str]) -> None:
    if result.get("verdict") != "Trivial" or result.get("solution_dim") != 1:
        problems.append(f"{where}: {result.get('verdict')} dim {result.get('solution_dim')}")


def verify_basis(d: int) -> Workload:
    """``qrubik verify`` with all six checks on the seeded d^3 basis."""

    def job(inputs):
        return [cli("verify", "--input", inputs["basis"])]

    def check(calls):
        problems: list[str] = []
        result = _result(calls[0], problems)
        if result.get("strongly_nonlocal") is not True:
            problems.append("not certified strongly nonlocal")
        checks = result.get("checks", [])
        if len(checks) != 6:
            problems.append(f"{len(checks)} checks reported, expected 6")
        for c in checks:
            _trivial(c, f"{c.get('cut')}:{c.get('actor')}", problems)
        return problems

    return Workload(_basis(d), job, check)


SINGLE_CHECKS = ("A|BC:A", "B|AC:B", "C|AB:C")


def verify_single(d: int) -> Workload:
    """``qrubik verify --check`` for each one-party actor on the seeded d^3 basis."""

    def job(inputs):
        return [cli("verify", "--input", inputs["basis"], "--check", c) for c in SINGLE_CHECKS]

    def check(calls):
        problems: list[str] = []
        if len(calls) != len(SINGLE_CHECKS):
            problems.append(f"{len(calls)} checks run, expected {len(SINGLE_CHECKS)}")
        for name, call in zip(SINGLE_CHECKS, calls):
            _trivial(_result(call, problems), name, problems)
        return problems

    return Workload(_basis(d), job, check)


# (protocol, state set, number of states, expected total ebits)
SIMULATIONS = (
    ("example1", "bell", 4, 1.0),
    ("prop1", "b3", 24, 4.0 / 3.0 + math.log2(3.0)),
    ("prop2", "b3", 24, 2.5),
)


def simulate(cases=SIMULATIONS) -> Workload:
    """``qrubik simulate`` per protocol, then the orthogonality walk on each."""

    def make_inputs(work, rng):
        inputs = {}
        for protocol, set_name, _, _ in cases:
            inputs[protocol] = shutil.copyfile(
                os.path.join(DATA, f"{protocol}.json"), os.path.join(work, f"{protocol}.json")
            )
            if set_name not in inputs:
                sset = states.load_state_set(os.path.join(DATA, f"{set_name}.json"))
                inputs[set_name] = _save(seeded(sset, rng), os.path.join(work, f"{set_name}.json"))
        return inputs

    def job(inputs):
        calls = []
        for protocol, set_name, _, _ in cases:
            ppath, spath = inputs[protocol], inputs[set_name]
            calls.append(cli("simulate", "--protocol", ppath, "--states", spath))
            with open(ppath, "r", encoding="utf-8") as fh:
                spec = locc.parse_protocol(json.load(fh))
            sset = states.load_state_set(spath)
            preserved = locc.check_orthogonality_preservation(spec, sset)
            calls.append(Call(("check_orthogonality_preservation", protocol), 0, json.dumps(preserved)))
        return calls

    def check(calls):
        problems: list[str] = []
        if len(calls) != 2 * len(cases):
            problems.append(f"{len(calls)} calls, expected {2 * len(cases)}")
        for (protocol, _, n_states, ebits), sim, ortho in zip(cases, calls[::2], calls[1::2]):
            result = _result(sim, problems)
            if result.get("correct") is not True:
                problems.append(f"{protocol}: discrimination not correct")
            if len(result.get("per_state", [])) != n_states:
                problems.append(f"{protocol}: {len(result.get('per_state', []))} outcomes")
            total = result.get("total_ebits")
            if not isinstance(total, (int, float)) or abs(total - ebits) > 1e-9:
                problems.append(f"{protocol}: total_ebits {total}, expected {ebits}")
            if json.loads(ortho.out) is not True:
                problems.append(f"{protocol}: orthogonality not preserved")
        return problems

    return Workload(make_inputs, job, check)


def construct_analyze(d: int) -> Workload:
    """``qrubik construct --basis`` for d, then ``qrubik analyze`` on its output.

    The input is d alone, so the seed has nothing to vary here.
    """
    size = d**3

    def make_inputs(work, rng):
        return {"output": os.path.join(work, f"b{d}_basis.json")}

    def job(inputs):
        out = inputs["output"]
        return [
            cli("construct", "--d", str(d), "--basis", "--output", out),
            cli("analyze", "--input", out),
        ]

    def check(calls):
        problems: list[str] = []
        built = _result(calls[0], problems)
        if built.get("size") != size or built.get("span_rank") != size:
            problems.append(f"size {built.get('size')} span rank {built.get('span_rank')}")
        if built.get("pairwise_orthogonal") is not True:
            problems.append("constructed set not pairwise orthogonal")
        rows = _result(calls[1], problems).get("profiles", [])
        if len(rows) != size:
            problems.append(f"{len(rows)} profile rows, expected {size}")
        if not all(r.get("entangled") is True for r in rows):
            problems.append("a constructed state is reported unentangled")
        return problems

    return Workload(make_inputs, job, check)


WORKLOADS = {
    "verify-basis-d6": verify_basis(6),
    "verify-single-d8": verify_single(8),
    "simulate-protocols": simulate(),
    "construct-analyze-d9": construct_analyze(9),
}

# Warm-up on small inputs that reaches every layer: cube, states, entangle,
# both kinds of verify check, and locc.  A d=6 warm-up would double each run.
WARM_UP = (construct_analyze(4), verify_basis(4), simulate(SIMULATIONS[:1]))
