"""qrubik benchmark: closed-loop jobs, one client, timed from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

One run sets up (imports, seeded inputs, a small warm-up), then runs the
workload's job back to back for about S seconds, checking every job's output
against its known answer.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the last
line is one JSON object.  The exit code is 1 when any job's output was wrong.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SET_UPS = 3  # set-up samples per run: this process and two children
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_environment() -> dict:
    """One BLAS thread and QRUBIK_THREADS unset, before numpy loads.

    On a shared 2-core machine the d=6 job spread about three times wider
    across runs with two BLAS threads than with one.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {"nproc": len(os.sched_getaffinity(0)),
            "QRUBIK_THREADS": os.environ.pop("QRUBIK_THREADS", None)}


def _blas_threads(pkg) -> int | None:
    """Threads of the OpenBLAS bundled with ``pkg``, or None if not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(pinned: dict) -> dict:
    import numpy
    import scipy

    def blas(pkg):
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version"),
                "threads": _blas_threads(pkg)}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": pinned["nproc"],
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        # unset for every run; this is the value it had before
        "QRUBIK_THREADS_found": pinned["QRUBIK_THREADS"],
    }


def set_up(name: str, seed: int, work: str):
    """Seeded inputs for ``name`` plus the warm-up; returns the job inputs."""
    from workloads import WARM_UP, WORKLOADS

    for i, warm in enumerate(WARM_UP):
        folder = os.path.join(work, f"warm-up-{i}")
        os.mkdir(folder)
        problems = warm.check(warm.job(warm.make_inputs(folder, random.Random(seed))))
        if problems:
            raise RuntimeError(f"warm-up output wrong: {problems}")
    folder = os.path.join(work, name)
    os.mkdir(folder)
    return WORKLOADS[name].make_inputs(folder, random.Random(seed))


def _child_set_up(name: str, seed: int) -> float:
    """Set-up time of a fresh process, imports included."""
    cmd = [sys.executable, os.path.abspath(__file__), "--set-up-only",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_jobs(workload, inputs, seconds: float, tracer=None):
    """Closed loop, one client.  With a tracer every second job is traced.

    Jobs start while the next one is expected to end within ``seconds``; at
    least one job runs, and two when tracing so both kinds are timed.
    """
    plain, traced, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        durations = [t for t, *_ in plain + traced]
        if attempted >= (2 if tracer else 1) and (
            time.perf_counter() - start + statistics.median(durations) > seconds
        ):
            break
        tracing = tracer is not None and attempted % 2 == 1
        if tracing:
            tracer.install()
            tracer.reset()
        try:
            began = time.perf_counter()
            try:
                calls = workload.job(inputs)
            finally:
                elapsed = time.perf_counter() - began
                if tracing:
                    tracer.remove()
            wrong = workload.check(calls)
        except Exception as exc:  # a crashing job counts as failed; the loop goes on
            wrong = [f"{type(exc).__name__}: {exc}"]
        attempted += 1
        if wrong:
            failed += 1
            problems.extend(wrong)
        if tracing:
            traced.append((elapsed, dict(tracer.times), dict(tracer.counts)))
        else:
            plain.append((elapsed,))
    return plain, traced, attempted, failed, problems


LAYER_TIMES = (
    "verify.assemble_joint", "verify.solve_joint", "verify.assemble_single",
    "verify.solve_single", "locc.parse", "locc.run", "locc.ortho", "states.load",
    "states.validate", "states.save", "entangle.profile", "cube.build",
)


LAYER_METRICS = tuple(f"{span}_s" for span in LAYER_TIMES) + (
    "verify.rows_joint", "verify.nnz_joint", "verify.unknowns_joint", "verify.rows_single",
    "verify.nnz_single", "verify.pairs", "verify.coupled_pair_ratio", "locc.leaves",
    "locc.amplitudes",
)


def layer_metrics(times: dict, counts: dict) -> dict:
    """Per-layer values of one traced stretch; layers it never called are absent."""
    out = {f"{span}_s": (t, "s") for span, t in times.items()}
    for kind in ("joint", "single"):
        checks = counts.get(f"checks_{kind}")
        if checks:
            out[f"verify.rows_{kind}"] = (counts[f"rows_{kind}"] / checks, "count")
            out[f"verify.nnz_{kind}"] = (counts[f"nnz_{kind}"] / checks, "count")
    if counts.get("checks_joint"):
        out["verify.unknowns_joint"] = (counts["unknowns_joint"] / counts["checks_joint"], "count")
    if counts.get("assemblies"):
        out["verify.pairs"] = (counts["pairs"] / counts["assemblies"], "count")
        out["verify.coupled_pair_ratio"] = (counts["coupled_pairs"] / counts["pairs"], "ratio")
    if "leaves" in counts:
        out["locc.leaves"] = (counts["leaves"], "count")
        out["locc.amplitudes"] = (counts["amplitudes"], "count")
    return out


def per_layer(plain, traced, set_up_trace) -> tuple[dict, dict]:
    """Median over traced jobs; a layer the job never calls is taken from set-up.

    The warm-up in set-up reaches every layer, so every metric has a value.
    """
    per_job = [layer_metrics(times, counts) for _, times, counts in traced]
    from_set_up = layer_metrics(*set_up_trace)
    metrics, notes = {}, {}
    for name in LAYER_METRICS:
        values = [m[name] for m in per_job if name in m]
        if values:
            metrics[name] = (statistics.median(v for v, _ in values), values[0][1])
            notes[name] = f"median of {len(values)} traced jobs"
        else:
            metrics[name] = from_set_up[name]
            notes[name] = "not called by the job; measured in set-up"
    overheads = [wall - sum(times.values()) for wall, times, _ in traced]
    metrics["cli.overhead_s"] = (statistics.median(overheads), "s")
    notes["cli.overhead_s"] = "traced job wall time minus the summed layer times"
    untraced = statistics.median(t for t, in plain)
    with_spans = statistics.median(t for t, _, _ in traced)
    metrics["trace.overhead_pct"] = (100.0 * (with_spans - untraced) / untraced, "%")
    notes["trace.overhead_pct"] = (
        f"traced job {with_spans:.4f} s (median of {len(traced)}) "
        f"vs untraced job_s {untraced:.4f} s (median of {len(plain)})"
    )
    return metrics, notes


def self_test() -> int:
    """Each workload's check passes a real output, and a tampered one counts as failed."""
    from dataclasses import replace

    from workloads import SIMULATIONS, Call, construct_analyze, simulate, verify_basis, verify_single

    def edit(call: Call, change) -> Call:
        doc = json.loads(call.out)
        change(doc)
        return Call(call.argv, call.code, json.dumps(doc))

    def bump_dim(doc):
        result = doc["result"]
        (result["checks"][0] if "checks" in result else result)["solution_dim"] = 2

    def exit_code_1(calls):
        return [Call(calls[0].argv, 1, calls[0].out)] + calls[1:]

    cases = {
        "verify-basis": (verify_basis(4), [lambda c: [edit(c[0], bump_dim)]]),
        "verify-single": (verify_single(4), [lambda c: [edit(c[0], bump_dim)] + c[1:]]),
        "simulate": (simulate(SIMULATIONS[:1]), [
            lambda c: [edit(c[0], lambda d: d["result"].update(total_ebits=1.000001))] + c[1:],
            lambda c: c[:1] + [Call(c[1].argv, 0, "false")],
        ]),
        "construct-analyze": (construct_analyze(4), [
            lambda c: c[:1] + [edit(c[1], lambda d: d["result"]["profiles"].pop())],
        ]),
    }
    ok = True
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as work:
        for label, (workload, tampers) in cases.items():
            inputs = workload.make_inputs(work, random.Random(0))
            real = workload.job(inputs)
            _, _, attempted, failed, _ = run_jobs(workload, inputs, 0.0)
            ok &= failed == 0
            print(f"{label}: real output, {attempted} attempted, {failed} failed")
            for tamper in tampers + [exit_code_1]:
                faked = replace(workload, job=lambda _, t=tamper: t(list(real)))
                _, _, attempted, failed, problems = run_jobs(faked, inputs, 0.0)
                ok &= failed == attempted == 1
                print(f"{label}: tampered output, {attempted} attempted, {failed} failed: {problems}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test):
        parser.error("--workload is required")

    pinned = _pin_environment()
    if not os.path.isfile(os.path.join(SRC, "qrubik", "__init__.py")):
        print(f"error: no qrubik sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qrubik

    if not os.path.abspath(qrubik.__file__).startswith(SRC + os.sep):
        print(f"error: qrubik imported from {qrubik.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as work:
        if tracer:
            tracer.install()
        inputs = set_up(args.workload, args.seed, work)
        setup_here = time.perf_counter() - _STARTED
        if tracer:
            tracer.remove()
            set_up_trace = (dict(tracer.times), dict(tracer.counts))
        if args.set_up_only:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        set_ups = [setup_here]
        if not tracer:
            set_ups += [_child_set_up(args.workload, args.seed) for _ in range(SET_UPS - 1)]
        plain, traced, attempted, failed, problems = run_jobs(
            WORKLOADS[args.workload], inputs, args.seconds, tracer
        )

    if tracer:
        metrics, notes = per_layer(plain, traced, set_up_trace)
    else:
        jobs = [t for t, in plain]
        metrics = {
            "job_s": (statistics.median(jobs), "s"),
            "setup_s": (statistics.median(set_ups), "s"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "passed_frac": ((attempted - failed) / attempted, "frac"),
        }
        notes = {
            "job_s": f"median of {len(jobs)} jobs ({min(jobs):.3f} to {max(jobs):.3f})",
            "setup_s": f"median of {len(set_ups)} set-ups: " + ", ".join(f"{s:.3f}" for s in set_ups),
            "peak_rss_mb": "peak resident memory of this process",
            "passed_frac": f"1 - failed_frac; {failed} of {attempted} jobs failed",
        }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs, {failed} failed")
    for problem in sorted(set(problems)):
        print(f"  wrong output: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit:6s} {notes[name]}")
    print("env " + json.dumps(_environment(pinned), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
