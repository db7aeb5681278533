"""Command-line interface: construct, analyze, verify, simulate.

Every invocation prints one JSON report document on stdout with the command
echo, tool version, input digests, tolerance and the result payload.  Exit
codes: 0 success, 1 for a mathematically negative result (certification not
reached, discrimination failure), 2 for bad invocations or malformed inputs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .cube import MAX_D, build_snoeb, build_snoes
from .entangle import profile_rows
from .locc import _NO_STATES, ProtocolError, matrix_to_json, parse_protocol, run_protocol
from .states import (
    DEFAULT_TOL,
    Bipartition,
    _collector_paused,
    load_state_set,
    save_state_set,
    validate_set,
)
from .verify import CheckResult, certify_triviality, verify_strong_nonlocality

def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _round_floats(obj):
    """Limit numeric output to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _resolve_data(arg: str) -> str:
    """Accept a filesystem path or the bare name of a packaged data file."""
    if os.path.exists(arg):
        return arg
    name = arg if arg.endswith(".json") else arg + ".json"
    ref = resources.files("qrubik").joinpath("data", name)
    if ref.is_file():
        with resources.as_file(ref) as member:
            return str(member)
    raise FileNotFoundError(f"no such file or packaged document: {arg}")


def _load_set(arg: str):
    """The path and the state set of ``arg``; a set with no states leaves
    nothing to decide, and every command that reads one refuses it."""
    path = _resolve_data(arg)
    sset = load_state_set(path)
    if not len(sset):
        raise ValueError(_NO_STATES)
    return path, sset


# what each byte value is to the layout: 0 any other byte, 1 a quote, 2 a
# comma, 3 an open bracket, 4 a close bracket
_KIND = np.zeros(256, np.int8)
_KIND[list(b'",[{]}')] = 1, 2, 3, 3, 4, 4


def _indented(text: str) -> str:
    """``text``, compact JSON as ``json.dumps(..., separators=(",", ": "))``
    gives it, laid out as ``indent=1`` lays it out.

    With escaped pairs blanked, every quote left delimits a string, so the
    commas and brackets that an even number of quotes precede are outside
    strings.  A newline and one space per level of depth go after each comma
    and each non-empty open, and before each non-empty close.  Under
    ``ensure_ascii`` no string holds a raw newline, so the bytes are those of
    ``json.dumps(..., indent=1)`` of the same value with the same options.
    """
    data = text.encode("ascii")
    raw = np.frombuffer(data, np.uint8)
    if b"\\" in data:
        data = data.replace(b"\\\\", b"__").replace(b'\\"', b"__")
    kind = _KIND.take(np.frombuffer(data, np.uint8))
    pos = np.flatnonzero(kind)
    kind = kind[pos]
    quote = kind == 1
    outside = ~quote & ~np.logical_xor.accumulate(quote)
    pos, kind = pos[outside], kind[outside]
    opens, closes = kind == 3, kind == 4
    depth = np.cumsum(opens.astype(np.intp) - closes)
    # a container is empty when its open and close are adjacent
    empty = opens[:-1] & closes[1:] & (pos[:-1] + 1 == pos[1:])
    broken = np.ones(pos.size, bool)
    broken[:-1] &= ~empty
    broken[1:] &= ~empty
    # a break, a newline and depth spaces, goes after a comma or an open and
    # before a close; between two breaks there is at least one byte of text
    width = 1 + depth[broken]
    start = (pos + ~closes)[broken] + np.cumsum(width) - width
    edge = np.zeros(raw.size + width.sum() + 1, np.int8)
    edge[start], edge[start + width] = 1, -1
    out = np.full(edge.size - 1, ord(" "), np.uint8)
    out[np.cumsum(edge[:-1], dtype=np.int8) == 0] = raw
    out[start] = ord("\n")
    return out.tobytes().decode("ascii")


def _emit(command: str, inputs: dict[str, str], payload, started: float) -> None:
    """Print the report: ``payload`` is its ``result``, with any float in it
    already rounded (:func:`_round_floats`)."""
    report = {
        "command": command,
        "version": __version__,
        "tolerance": DEFAULT_TOL,
        "inputs": inputs,
        "result": payload,
        "duration_seconds": round(time.perf_counter() - started, 6),
    }
    sys.stdout.write(_indented(json.dumps(report, sort_keys=True, separators=(",", ": "))))
    sys.stdout.write("\n")


def _cmd_construct(args, started: float) -> int:
    sset = build_snoeb(args.d) if args.basis else build_snoes(args.d)
    out = args.output
    if out is None:
        out = f"b{args.d}_basis.json" if args.basis else f"b{args.d}.json"
    save_state_set(sset, out)
    report = validate_set(sset)
    payload = {
        "d": args.d,
        "basis": bool(args.basis),
        "output": out,
        "size": report.size,
        "pairwise_orthogonal": report.pairwise_orthogonal,
        "span_rank": report.span_rank,
    }
    _emit(_echo(args), {out: _digest(out)}, payload, started)
    return 0


def _cmd_analyze(args, started: float) -> int:
    path, sset = _load_set(args.input)
    payload = {"profiles": profile_rows(sset)}
    _emit(_echo(args), {path: _digest(path)}, payload, started)
    return 0


def _check_payload(result: CheckResult) -> dict:
    return {
        "cut": result.cut,
        "actor": result.actor,
        "verdict": result.verdict.verdict,
        "solution_dim": result.verdict.solution_dim,
    }


def _cmd_verify(args, started: float) -> int:
    path, sset = _load_set(args.input)
    if args.check:
        cut_name, _, actor = args.check.partition(":")
        left, _, right = cut_name.partition("|")
        # single-letter labels concatenate ("A|BC:BC"); longer ones need commas
        split = lambda s: tuple(s.split(",")) if "," in s else tuple(s)
        cut = Bipartition.of(sset.layout, split(left))
        if set(split(right)) != set(cut.right):
            raise ValueError(f"check {args.check!r}: the right side must be {''.join(cut.right)}")
        actor_parties = split(actor)
        verdict = certify_triviality(sset, cut, actor_parties)
        payload = _check_payload(CheckResult(cut.name, actor.replace(",", ""), verdict))
        if verdict.witness is not None:
            payload["witness"] = _round_floats(matrix_to_json(verdict.witness))
        _emit(_echo(args), {path: _digest(path)}, payload, started)
        return 0 if verdict.trivial else 1
    report = verify_strong_nonlocality(sset)
    payload = {
        "checks": [_check_payload(c) for c in report.checks],
        "strongly_nonlocal": report.strongly_nonlocal,
        # triviality everywhere is a sufficient criterion only, so a witness
        # is never reported as a proof of reducibility
        "summary": (
            "certified strongly nonlocal"
            if report.strongly_nonlocal
            else "not certified (nontrivial orthogonality-preserving "
            "measurement witness found)"
        ),
    }
    found = report.first_witness()
    if found is not None:
        check, witness = found
        payload["witness"] = _round_floats(matrix_to_json(witness))
        payload["witness_check"] = {"cut": check.cut, "actor": check.actor}
    _emit(_echo(args), {path: _digest(path)}, payload, started)
    return 0 if report.strongly_nonlocal else 1


def _cmd_simulate(args, started: float) -> int:
    ppath = _resolve_data(args.protocol)
    with _collector_paused(), open(ppath, "r", encoding="utf-8") as fh:
        spec = parse_protocol(json.load(fh))
    spath, sset = _load_set(args.states)
    report = run_protocol(spec, sset)
    payload = {
        "protocol": spec.name,
        "prior": "uniform",
        "correct": report.correct,
        "per_state": [
            {
                "label": o.label,
                "correct": o.correct,
                "probability_total": o.probability_total,
                "branches": [
                    {
                        "answer": b.answer,
                        "probability": b.probability,
                        "resources": list(b.resources),
                    }
                    for b in o.branches
                ],
            }
            for o in report.outcomes
        ],
        "resources": [
            {
                "name": u.resource,
                "pair": list(u.pair),
                "dim": u.dim,
                "expected_copies": u.expected_copies,
                "ebits": u.ebits,
            }
            for u in report.usage
        ],
        "pairs": [
            {
                "parties": list(u.pair),
                "dim": u.dim,
                "expected_copies": u.expected_copies,
                "ebits": u.ebits,
            }
            for u in report.pair_usage
        ],
        "total_ebits": report.total_ebits,
    }
    if spec.notes:
        payload["notes"] = list(spec.notes)
    _emit(
        _echo(args),
        {ppath: _digest(ppath), spath: _digest(spath)},
        _round_floats(payload),
        started,
    )
    return 0 if report.correct else 1


def _echo(args) -> str:
    return " ".join(args._argv)


@functools.cache  # built once per process: parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrubik",
        description=(
            "Construct cube-partition entangled state sets, certify strong "
            "nonlocality, and simulate entanglement-assisted discrimination."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a state set and write it to a file")
    p.add_argument("--d", type=int, required=True, help=f"local dimension, 3 <= d <= {MAX_D}")
    p.add_argument(
        "--basis", action="store_true", help="include the completion states"
    )
    p.add_argument("--output", help="output path (default b<d>[_basis].json)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="per-state entanglement profiles")
    p.add_argument("--input", required=True, help="state-set JSON file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="certify strong nonlocality")
    p.add_argument("--input", required=True, help="state-set JSON file")
    p.add_argument(
        "--check",
        help="run a single check, e.g. 'A|BC:A' or 'A|BC:BC'",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="run a discrimination protocol")
    p.add_argument("--protocol", required=True, help="protocol JSON file or name")
    p.add_argument("--states", required=True, help="state-set JSON file or name")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = ["qrubik"] + argv
    started = time.perf_counter()
    try:
        return args.func(args, started)
    except (ValueError, ProtocolError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
