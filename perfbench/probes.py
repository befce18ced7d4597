"""Layer probes: each public layer of ``pwmctrl`` timed on one workload's inputs.

Every probe call runs inside a span named ``<module>.<function>[:<detail>]``
and the per-layer metrics are medians of those spans, so the numbers come
from the trace itself.  The probes run in the traced run only, on the
workload's own system, sequence and field, which puts the propagate, pwm, io
and cli numbers of every workload at that workload's N, K and M.
"""

from __future__ import annotations

import itertools
import statistics

import numpy as np

from pwmctrl import io as pio
from pwmctrl import (
    ControlSystem,
    GrapeOptions,
    HamiltonianCache,
    SampledField,
    TermCache,
    boundary_order,
    build_frame,
    cost_pwc,
    cost_pwm,
    error_order,
    evolve,
    gamma,
    gradient,
    lowpass_reconstruct,
    objective,
    optimize,
    optimize_pwc,
    pwm_approximate,
    pwm_signal,
    reference_propagator,
    spectrum,
    step_pwc,
    step_pwm,
    step_pwm_higher,
    step_spo,
)
from workloads import CUTOFF, SIGNAL_RATE, Inputs, cli_pass, propagator_problems

#: Repetitions of every probe; metrics are medians over them.
REPS = 3
#: Subintervals whose single steps are timed.
STEP_FRAMES = 20
#: Iteration cap of the bounded probe optimization on workloads without starts.
PROBE_ITERATIONS = 2
#: Taylor order at which the analytic cost model is reported (its cheapest).
COST_ORDER = 2
SCHEMES = ("pwm", "pwm4", "pwc", "spo")


def _qubit() -> ControlSystem:
    """The driven qubit that ``pwmctrl error-order`` fits on."""
    return ControlSystem(
        drift=np.diag([1.0, -1.0]).astype(complex),
        controls=(np.array([[0, 1], [1, 0]], dtype=complex),),
    )


def _signed_prefixes(n_controls: int) -> list[tuple]:
    return [
        tuple((k, d) for k, d in enumerate(signs) if d)
        for signs in itertools.product((0, 1, -1), repeat=n_controls)
    ]


def _median(tracer, span: str) -> tuple[float, str, int]:
    """(median duration, unit, sample count) of the spans named ``span``."""
    values = tracer.durations(span)
    return statistics.median(values), "s", len(values)


def _timed(tracer, ledger, name: str, fn, *args, **kwargs):
    op = ledger.begin(name)
    with tracer.span(name):
        result = ledger.call(op, fn, *args, **kwargs)
    return op, result


def probe_propagate(inp: Inputs, tracer, ledger) -> dict:
    system, xi, seq = inp.system, inp.xi, inp.seq
    prefixes = _signed_prefixes(system.n_controls)

    def fill():
        cache = HamiltonianCache(system, xi)
        for prefix in prefixes:
            cache.entry(prefix)
        return cache

    for _ in range(REPS):
        _, cache = _timed(tracer, ledger, "propagate.HamiltonianCache:fill", fill)
    terms = TermCache(system)
    frames = min(STEP_FRAMES, seq.n_pulses)
    mids = inp.field.value((np.arange(frames) + 0.5) * inp.tau).reshape(system.n_controls, frames)
    for scheme, step in (
        ("pwm", lambda m: step_pwm(system, xi, build_frame(seq, m + 1), cache)),
        ("pwm4", lambda m: step_pwm_higher(system, xi, seq, m + 1, 2, cache=cache)),
        ("pwc", lambda m: step_pwc(system, mids[:, m], inp.tau)),
        ("spo", lambda m: step_spo(system, mids[:, m], inp.tau, terms)),
    ):
        for m in range(frames):
            _timed(tracer, ledger, f"propagate.step:{scheme}", step, m)
    for _ in range(REPS):
        for scheme in SCHEMES:
            source = seq if scheme.startswith("pwm") else inp.field
            op, u = _timed(
                tracer, ledger, f"propagate.evolve:{scheme}", evolve, system, scheme, source, tau=inp.tau
            )
            for problem in [] if u is None else propagator_problems(u, scheme, inp):
                ledger.fail(op, problem)
        op, ref = _timed(
            tracer, ledger, "propagate.reference_propagator", reference_propagator,
            system, inp.field, 0.0, inp.field.duration, inp.reference_slices,
        )
        if ref is not None:
            ledger.check(op, np.array_equal(ref, inp.reference), "reference is not reproducible")
        _timed(
            tracer, ledger, "propagate.error_order", error_order,
            "pwm", _qubit(), np.sin, [0.2, 0.1, 0.05, 0.025], amplitudes=np.array([1.0]), t_start=0.5,
        )
    out = {
        "propagate.cache_fill_s": _median(tracer, "propagate.HamiltonianCache:fill"),
        "propagate.cache_entries": (cache.size, "count", None),
        "propagate.reference_s": _median(tracer, "propagate.reference_propagator"),
        "propagate.error_order_s": _median(tracer, "propagate.error_order"),
    }
    for scheme in SCHEMES:
        out[f"propagate.step_{scheme}_s"] = _median(tracer, f"propagate.step:{scheme}")
        out[f"propagate.evolve_{scheme}_s"] = _median(tracer, f"propagate.evolve:{scheme}")
    return out


def probe_grape(inp: Inputs, tracer, ledger, with_optimization: bool) -> dict:
    problem, widths = inp.problem, inp.seq.widths
    for _ in range(REPS):
        _timed(tracer, ledger, "grape.objective", objective, problem, widths)
        _timed(tracer, ledger, "grape.gradient", gradient, problem, widths)
    out = {
        "grape.objective_s": _median(tracer, "grape.objective"),
        "grape.gradient_s": _median(tracer, "grape.gradient"),
    }
    if with_optimization:
        options = GrapeOptions(max_iterations=PROBE_ITERATIONS)
        eps = inp.xi[:, None] * widths / inp.tau
        for scheme, fn, init in (("pwm", optimize, widths), ("pwc", optimize_pwc, eps)):
            _, res = _timed(tracer, ledger, f"grape.{fn.__name__}:probe", fn, problem, init, options)
            if res is not None:
                out[f"grape.{scheme}_iterations"] = (res.iterations, "count", None)
                out[f"grape.{scheme}_iter_s"] = (res.wall_time / max(res.iterations, 1), "s", 1)
    return out


def probe_pwm_io(inp: Inputs, tracer, ledger) -> dict:
    work = inp.work / "probe"
    work.mkdir(exist_ok=True)
    paths = {kind: work / f"{kind}.csv" for kind in ("field", "sequence", "spectrum", "propagator")}
    u = evolve(inp.system, "pwm", inp.seq)
    for _ in range(REPS):
        _timed(tracer, ledger, "io.read_field_csv:input", pio.read_field_csv, inp.files["field"])
        _timed(tracer, ledger, "pwm.pwm_approximate", pwm_approximate, inp.field, inp.xi, inp.tau)
        _, parts = _timed(
            tracer, ledger, "pwm.pwm_signal",
            lambda: [pwm_signal(inp.seq, k, SIGNAL_RATE) for k in range(inp.seq.n_controls)],
        )
        signal = SampledField(dt=parts[0].dt, values=np.vstack([p.values for p in parts]))
        _, spec = _timed(tracer, ledger, "pwm.spectrum", spectrum, signal, 0)
        _timed(tracer, ledger, "pwm.lowpass_reconstruct", lowpass_reconstruct, signal, CUTOFF)
        for kind, value in (("field", signal), ("sequence", inp.seq), ("spectrum", spec), ("propagator", u)):
            _timed(tracer, ledger, f"io.write_{kind}_csv", getattr(pio, f"write_{kind}_csv"), paths[kind], value)
            _timed(tracer, ledger, f"io.read_{kind}_csv", getattr(pio, f"read_{kind}_csv"), paths[kind])
    out = {
        "pwm.approximate_s": _median(tracer, "pwm.pwm_approximate"),
        "pwm.signal_s": _median(tracer, "pwm.pwm_signal"),
        "pwm.spectrum_s": _median(tracer, "pwm.spectrum"),
        "pwm.lowpass_s": _median(tracer, "pwm.lowpass_reconstruct"),
        "io.bytes_written": (sum(p.stat().st_size for p in paths.values()), "B", None),
    }
    for kind in paths:
        for verb in ("read", "write"):
            out[f"io.{kind}_{verb}_s"] = _median(tracer, f"io.{verb}_{kind}_csv")
    return out


#: Probe spans a CLI command's own work is made of, subtracted from its latency.
CLI_PARTS = {
    "approximate": ("io.read_field_csv:input", "pwm.pwm_approximate", "io.write_sequence_csv"),
    "signal": ("io.read_sequence_csv", "pwm.pwm_signal", "io.write_field_csv"),
    "spectrum": ("io.read_field_csv", "pwm.spectrum", "io.write_spectrum_csv"),
    "reconstruct": ("io.read_field_csv", "pwm.lowpass_reconstruct", "io.write_field_csv"),
    "propagate_pwm": ("io.read_sequence_csv", "propagate.evolve:pwm", "io.write_propagator_csv"),
    "propagate_pwm4": ("io.read_sequence_csv", "propagate.evolve:pwm4", "io.write_propagator_csv"),
    "propagate_pwc": ("io.read_field_csv:input", "propagate.evolve:pwc", "io.write_propagator_csv"),
    "propagate_spo": ("io.read_field_csv:input", "propagate.evolve:spo", "io.write_propagator_csv"),
    "error_order": ("propagate.error_order",),
}


def probe_cli(inp: Inputs, tracer, ledger) -> dict:
    """CLI latency minus its probed parts: an estimate of the CLI's own share."""
    for _ in range(REPS):
        cli_pass(inp, tracer, ledger)
    return {
        f"cli.{name}_est_s": (
            tracer.median(f"cli.main:{name}") - sum(tracer.median(p) for p in parts),
            "s",
            REPS,
        )
        for name, parts in CLI_PARTS.items()
    }


def probe_costmodel(inp: Inputs, layers: dict) -> dict:
    n, k = inp.system.dim, inp.system.n_controls
    return {
        "costmodel.gamma_measured": (
            layers["propagate.step_pwm_s"][0] / layers["propagate.step_pwc_s"][0],
            "ratio",
            layers["propagate.step_pwm_s"][2],
        ),
        "costmodel.gamma_analytic": (gamma(n, COST_ORDER, k), "ratio", None),
        "costmodel.boundary_order": (boundary_order(n, k), "order", None),
        "costmodel.cost_pwm": (cost_pwm(n, COST_ORDER, k), "mults", None),
        "costmodel.cost_pwc": (cost_pwc(n, COST_ORDER, k), "mults", None),
    }


def probe_layers(inp: Inputs, tracer, ledger, with_optimization: bool) -> dict:
    """All layer probes; returns ``{metric: (value, unit, samples or None)}``."""
    layers = probe_propagate(inp, tracer, ledger)
    layers.update(probe_grape(inp, tracer, ledger, with_optimization))
    layers.update(probe_pwm_io(inp, tracer, ledger))
    layers.update(probe_cli(inp, tracer, ledger))
    layers.update(probe_costmodel(inp, layers))
    return layers
