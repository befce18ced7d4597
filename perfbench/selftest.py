"""Toy-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that each
metric ``BENCHMARK.json`` names is printed, on its own line and in the final
JSON, with its unit; then feeds deliberately wrong propagators to the
pipeline's output check and confirms the check trips.  Exits nonzero on the
first failed expectation.
"""

from __future__ import annotations

import io
import json
import shutil
import sys

import run

TOY = dict(
    fig5_total_time=20.0,
    mc_dim=4,
    mc_controls=2,
    mc_total_time=5.0,
    pipe_dim=4,
    pipe_controls=2,
    pipe_subintervals=40,
)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(spec: dict, sizes) -> None:
    for workload in run.WORKLOAD_NAMES:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = io.StringIO()
            argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
            status = run.run(argv, sizes=sizes, out=out)
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            label = f"{workload} --trace {trace}"
            _expect(status == 0 and result["correct"], f"{label}: {result['failed']} failed")
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
            names = {m["name"] for m in listed}
            _expect(set(result["metrics"]) == names, f"{label}: metrics {set(result['metrics']) ^ names}")
            for m in listed:
                got = result["metrics"][m["name"]]
                _expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
                _expect(
                    any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line for line in lines),
                    f"{label}: {m['name']} not printed with its unit",
                )
            print(f"ok {label}: {len(names)} metrics, {result['attempted']} operations")


def check_wrong_propagator(sizes) -> None:
    """A propagator that is not the program's must fail the pipeline check."""
    from workloads import PulsePipeline, output_problems
    from pwmctrl.io import write_propagator_csv

    work = run.ROOT / ".bench_work" / "selftest"
    try:
        inp = PulsePipeline(sizes).setup(3, work)
        path = work / "u_wrong.csv"
        write_propagator_csv(path, inp.reference)
        _expect(not output_problems("propagator:pwm", path, inp), "the exact propagator was rejected")
        swapped = inp.reference[[1, 0, *range(2, inp.system.dim)]]
        for wrong, expected in ((swapped, "distance"), (1.001 * inp.reference, "unitarity")):
            write_propagator_csv(path, wrong)
            problems = output_problems("propagator:pwm", path, inp)
            _expect(any(expected in p for p in problems), f"{expected} check did not trip: {problems}")
            print(f"ok wrong propagator trips the {expected} check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _expect(list(run.END_TO_END) == [m["name"] for m in spec["end_to_end"]], "end-to-end names")
    run._import_package()
    from workloads import Sizes

    sizes = Sizes(**TOY)
    check_wrong_propagator(sizes)
    check_metrics(spec, sizes)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
