"""Benchmark of pwmctrl's GRAPE optimizers and propagators, one workload a run.

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed`` (set-up is repeated and its
median reported), then runs rounds of the workload in a closed loop for
``--seconds``: one caller, each call after the previous returns.  Every
output is checked.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` the run probes every layer, runs each round once without
and once with spans, reports the per-layer metrics and the tracing overhead,
and writes its spans to ``.bench_out/`` at exit.  The last line of standard
output is the result as JSON; the exit status is nonzero when any operation
failed.  See ``perfbench/README.md`` for the output schema.
"""

from __future__ import annotations

import os

#: BLAS threads of the benchmark's own process, fixed before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig5", "multi-control", "pulse-pipeline")
#: Rounds every run completes, however long they take (the per-start
#: iteration counts are reported over exactly these).
MIN_ROUNDS = 3
#: Round pairs (untraced, traced) every traced run completes.
MIN_PAIRS = 2
#: No round starts this long after the process began, so a run ends in time.
HARD_STOP_S = 120.0
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pwm_op_s": "s",
    "pwc_op_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package() -> None:
    """Make pwmctrl importable from the checkout's ``src`` and import it."""
    src = ROOT / "src"
    if not (src / "pwmctrl" / "__init__.py").is_file():
        raise FileNotFoundError(f"no pwmctrl package under {src}")
    sys.path.insert(0, str(src))
    import pwmctrl  # noqa: F401


def _import_seconds() -> float:
    """Median time to import pwmctrl in a fresh interpreter, numpy included."""
    code = "import time; t = time.perf_counter(); import pwmctrl; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = [
        float(subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=60,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


def _per_iteration(starts, scheme: str) -> list[float]:
    """Seconds per iteration of each converged start that iterated."""
    return [wall / it for wall, it, ok in starts[scheme] if ok and it]


def _end_to_end(stats, grape_workload: bool) -> dict:
    """``{metric: (value, samples)}``: medians over one run's rounds.

    On the GRAPE workloads each start is normalized by its iteration count:
    the count depends on the start far more than on the code, and it is
    reported exactly beside these metrics.
    """
    if grape_workload:
        rounds = [w / n for w, n in zip(stats.round_wall, stats.round_work) if n]
        values = {
            "wall_s": rounds,
            "pwm_op_s": _per_iteration(stats.starts, "pwm"),
            "pwc_op_s": _per_iteration(stats.starts, "pwc"),
        }
    else:
        values = {
            "wall_s": stats.round_wall,
            "pwm_op_s": stats.commands["propagate_pwm"],
            "pwc_op_s": stats.commands["propagate_pwc"],
        }
    return {name: (statistics.median(v), len(v)) for name, v in values.items() if v}


def _derived(stats, grape_workload: bool) -> dict:
    """Numbers reported beside the gated metrics and never gated."""
    if not grape_workload:
        return {f"{name}_s": statistics.median(v) for name, v in stats.commands.items()}
    out = {"starts": stats.starts}
    for scheme, rows in stats.starts.items():
        done = [r for r in rows if r[2]]
        out[f"{scheme}_converged"] = f"{len(done)}/{len(rows)}"
        if done:
            out[f"{scheme}_solve_s"] = statistics.median(r[0] for r in done)
            out[f"{scheme}_iterations_median"] = statistics.median(r[1] for r in done)
    if "pwm_solve_s" in out and "pwc_solve_s" in out:
        out["solve_ratio_pwm_over_pwc"] = out["pwm_solve_s"] / out["pwc_solve_s"]
    return out


def _grape_layers(stats) -> dict:
    """Iteration counts over the first MIN_ROUNDS starts (exact for a seed)."""
    first = {s: rows[:MIN_ROUNDS] for s, rows in stats.starts.items()}
    out = {}
    for scheme, rows in first.items():
        out[f"grape.{scheme}_iterations"] = (sum(r[1] for r in rows), "count", None)
        per_iteration = _per_iteration(stats.starts, scheme)
        if per_iteration:
            out[f"grape.{scheme}_iter_s"] = (statistics.median(per_iteration), "s", len(per_iteration))
    return out


def _loop(wl, inp, seed, seconds, started, ledger, stats, tracers):
    """Rounds until ``seconds`` pass; each index runs once per tracer."""
    from workloads import Stats

    plain = Stats()
    t0 = time.perf_counter()
    index = 0
    floor = MIN_ROUNDS if len(tracers) == 1 else MIN_PAIRS
    while (index < floor or time.perf_counter() - t0 < seconds) and (
        time.perf_counter() - started < HARD_STOP_S
    ):
        for tracer in tracers:
            target = stats if tracer.enabled or len(tracers) == 1 else plain
            wl.round(inp, index, seed, tracer, ledger, target)
        index += 1
    return plain


def run(argv=None, sizes=None, out=sys.stdout) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    try:
        _import_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot import pwmctrl: {exc}", file=sys.stderr)
        return 2
    import_s = _import_seconds()
    from harness import Ledger, NoTracer, Tracer, environment
    from workloads import FULL, WORKLOADS, Stats, counting_tie_warnings, sort_sign_patterns

    wl = WORKLOADS[args.workload](sizes or FULL)
    grape_workload = args.workload != "pulse-pipeline"
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = ROOT / ".bench_work" / run_id
    ledger, stats = Ledger(), Stats()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = wl.setup(args.seed, work)
            setup_times.append(time.perf_counter() - t0)
        metrics = {"setup_s": (import_s + statistics.median(setup_times), "s", SETUP_REPEATS)}
        if args.trace:
            from probes import probe_layers

            tracer = Tracer(run_id)
            with counting_tie_warnings(stats):
                layers = probe_layers(inp, tracer, ledger, with_optimization=not grape_workload)
            seconds_left = max(args.seconds - (time.perf_counter() - started), 0.0)
            plain = _loop(wl, inp, args.seed, seconds_left, started, ledger, stats, (NoTracer(), tracer))
            if grape_workload:
                layers.update(_grape_layers(stats))
            layers["grape.patterns"] = (
                statistics.median(stats.patterns) if stats.patterns
                else sort_sign_patterns(inp.seq.widths), "count", None,
            )
            layers["grape.tie_warnings"] = (len(stats.tie_warnings), "count", None)
            overheads = [t / p - 1 for t, p in zip(stats.round_wall, plain.round_wall)]
            if "wall_s" in (traced := _end_to_end(stats, grape_workload)):
                value, n = traced["wall_s"]
                layers["trace.wall_s"] = (value, "s", n)
            layers["trace.overhead"] = (statistics.median(overheads), "ratio", len(overheads))
            layers["trace.spans"] = (len(tracer.spans), "count", None)
            metrics = dict(sorted(layers.items()))
            spans_dir = ROOT / ".bench_out"
            spans_dir.mkdir(exist_ok=True)
            tracer.write(spans_dir / f"spans-{run_id}.json")
        else:
            _loop(wl, inp, args.seed, args.seconds, started, ledger, stats, (NoTracer(),))
            for name, (value, n) in _end_to_end(stats, grape_workload).items():
                metrics[name] = (value, END_TO_END[name], n)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    if stats.tie_warnings:
        print(
            f"pwmctrl.grape UserWarning x{len(stats.tie_warnings)}: {stats.tie_warnings[0]}",
            file=sys.stderr,
        )
    for text in (t for _, t in ledger.failures):
        print(f"FAILED {text}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value!r} {unit}" + ("" if n is None else f" (n={n})"), file=out)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(stats.round_wall),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "derived": _derived(stats, grape_workload) if stats.round_wall else {},
        "environment": environment(BLAS_THREADS, {args.workload: args.seed}),
        "failures": [t for _, t in ledger.failures],
    }
    print("report " + json.dumps(report), file=out)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(run())
