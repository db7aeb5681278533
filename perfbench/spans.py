"""Spans around the public functions of each qrubik layer, installed from outside.

The package itself carries no timing code, so the traced run wraps the layer
entry points in place: every ``qrubik.*`` module that holds a reference to a
wrapped function gets the wrapper instead, and the originals come back when
the tracer is removed.  Each span records its self time (its duration minus
the spans nested in it), so the layer times of one job add up to at most the
job's wall time and the rest is CLI overhead (argument parsing, digests,
rounding, JSON output).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


def _actor_kind(args, kwargs) -> str:
    """``joint`` when the actor side of a check holds two parties (m = d^2)."""
    sset = args[0]
    actor = args[2] if len(args) > 2 else kwargs["actor"]
    n = 1 if actor in sset.layout.parties else len(actor)
    return "joint" if n > 1 else "single"


def _count_constraints(counts, args, kwargs, cs) -> None:
    kind = _actor_kind(args, kwargs)
    counts[f"checks_{kind}"] += 1
    counts[f"rows_{kind}"] += cs.rows.shape[0]
    counts[f"nnz_{kind}"] += cs.rows.nnz
    counts[f"unknowns_{kind}"] += cs.m * cs.m
    counts["pairs"] += cs.n_pairs
    counts["coupled_pairs"] += cs.n_coupled_pairs
    counts["assemblies"] += 1


def _count_protocol(counts, args, kwargs, report) -> None:
    spec = args[0]
    counts["leaves"] += sum(len(o.branches) for o in report.outcomes)
    size = math.prod(r.dim for r in spec.table.registers)
    counts["amplitudes"] = max(counts["amplitudes"], size)


# (module, function) -> (span name or function of the call, counter or None)
_TARGETS = {
    ("qrubik.cube", "build_snoes"): ("cube.build", None),
    ("qrubik.cube", "build_snoeb"): ("cube.build", None),
    ("qrubik.states", "load_state_set"): ("states.load", None),
    ("qrubik.states", "save_state_set"): ("states.save", None),
    ("qrubik.states", "validate_set"): ("states.validate", None),
    ("qrubik.entangle", "profile_rows"): ("entangle.profile", None),
    # the CLI reaches the solver through certify_triviality, whose self time
    # (dedup + nullspace + witness) is the solve stage
    ("qrubik.verify", "assemble_constraints"): (
        lambda a, k: f"verify.assemble_{_actor_kind(a, k)}",
        _count_constraints,
    ),
    ("qrubik.verify", "certify_triviality"): (
        lambda a, k: f"verify.solve_{_actor_kind(a, k)}",
        None,
    ),
    ("qrubik.locc", "parse_protocol"): ("locc.parse", None),
    ("qrubik.locc", "run_protocol"): ("locc.run", _count_protocol),
    ("qrubik.locc", "check_orthogonality_preservation"): ("locc.ortho", None),
}


class Tracer:
    """Self time per span name and work counts, since the last :meth:`reset`.

    One span stack serves the whole process, so calls must not overlap in
    threads; the benchmark unsets ``QRUBIK_THREADS``, which keeps the six
    checks sequential.
    """

    def __init__(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.times = defaultdict(float)
        self.counts = defaultdict(int)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._stack.pop()
                self.times[span] += elapsed - nested
                if self._stack:
                    self._stack[-1] += elapsed
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qrubik"]
        for (mod_name, fn_name), (name, counter) in _TARGETS.items():
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
