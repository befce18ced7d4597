"""Spans, operation accounting and environment capture for the benchmark.

Nothing here imports ``pwmctrl``: the harness times the package from the
outside, around the calls the benchmark itself makes.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import statistics
import sys
import time

_NO_SPAN = contextlib.nullcontext()


class NoTracer:
    """Stand-in used by untraced runs: every span is a shared no-op."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    """In-memory spans (name, start, end, parent, run id), written out at exit.

    ``parent`` is the index of the enclosing span in ``spans`` (``None`` at
    the top level), so a span's self time is its duration minus the time its
    children cover.
    """

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"run": self.run_id, "spans": self.spans}, handle)


class Ledger:
    """Operations attempted and failed, with the reason for each failure.

    An operation is one optimization start, one CLI command or one layer
    probe call.  It fails if it raises, does not converge, or fails a
    correctness check; several reasons for one operation count once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []

    def begin(self, name: str) -> tuple[int, str]:
        self.attempted += 1
        return (self.attempted, name)

    def fail(self, op: tuple[int, str], reason: str) -> None:
        self.failures.append((op[0], f"{op[1]}: {reason}"))

    def check(self, op: tuple[int, str], ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(op, reason)
        return ok

    def call(self, op: tuple[int, str], fn, *args, **kwargs):
        """Run ``fn``; a raised exception fails ``op`` and yields ``None``."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps going and reports it
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return None

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.failures})


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(blas_threads: int, seeds: dict) -> dict:
    """Machine and library facts recorded with every result."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "seeds": seeds,
    }
