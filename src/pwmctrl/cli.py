"""Command-line interface: one subcommand per workflow, CSV/JSON artifacts.

Every option may also be supplied through ``--config FILE`` (a flat JSON
object keyed by the option name with underscores, e.g. ``{"total_time":
100.0}``); explicit flags override config values.  Errors are reported as a
single machine-parsable line ``error:<category>:<message>`` and exit status
1: ``usage`` when the command line does not parse, ``io`` for an ``OSError``,
a ``FileFormatError`` or a config file that is unreadable or not JSON, and
``validation`` for a missing or inconsistent option and any other
``ValueError``.  ``numeric`` failures (``OptimizationError``,
``FloatingPointError``, ``LinAlgError``) exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as artifacts
from .costmodel import default_dims, default_orders, gamma_grid
from .grape import (
    GrapeOptions,
    GrapeProblem,
    OptimizationError,
    optimize,
    optimize_pwc,
    run_fig5_benchmark,
    ten_level_problem,
)
from .model import ControlSystem, basis_state, build_ten_level_system, validate_system
from .propagate import error_order, evolve
from .pwm import (
    PWMSequence,
    SampledField,
    default_amplitudes,
    gaussian_train,
    inverse_pwm_pwc,
    lowpass_reconstruct,
    pwm_approximate,
    pwm_signal,
    spectrum,
)
from .pwm import _check_start

__all__ = ["main"]


class _CliError(Exception):
    """A failure reported as ``error:<category>:<message>`` with exit ``status``."""

    def __init__(self, category: str, message: str, status: int = 1) -> None:
        super().__init__(message)
        self.category = category
        self.status = status


#: Category and exit status of each library failure, looked up along the
#: exception's MRO: ``FileFormatError`` and ``LinAlgError`` before ``ValueError``.
_FAILURES = {
    artifacts.FileFormatError: ("io", 1),
    OSError: ("io", 1),
    OptimizationError: ("numeric", 2),
    FloatingPointError: ("numeric", 2),
    np.linalg.LinAlgError: ("numeric", 2),
    ValueError: ("validation", 1),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # do not print usage + exit(2); report uniformly
        raise _CliError("usage", message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _CliError("io", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError("io", f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _CliError("validation", "config must be a JSON object")
    return payload


class _Options:
    """Flag values with config-file fallback: flag > config > default."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = _load_config(getattr(args, "config", None))

    def get(self, name: str, default=None, required: bool = False):
        value = getattr(self.args, name)
        if value is None:
            value = self.config.get(name)
        if value is None:
            if required:
                raise _CliError(
                    "validation", f"missing required option --{name.replace('_', '-')}"
                )
            return default
        return value

    def floats(self, name: str, default=None, required: bool = False):
        value = self.get(name, default=default, required=required)
        if value is None:
            return None
        if isinstance(value, str):
            try:
                value = [float(x) for x in value.split(",") if x.strip()]
            except ValueError as exc:
                raise _CliError("validation", f"--{name}: {exc}") from exc
        return np.atleast_1d(np.asarray(value, dtype=float))


def _source(options: _Options) -> SampledField | PWMSequence:
    """The field or pulse sequence read from whichever of ``--field``/``--sequence`` is given."""
    field, sequence = options.get("field"), options.get("sequence")
    if (field is None) == (sequence is None):
        raise _CliError("validation", "give exactly one of --field or --sequence")
    if field is not None:
        return artifacts.read_field_csv(field)
    return artifacts.read_sequence_csv(sequence)


def _demo_two_level() -> ControlSystem:
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return ControlSystem(drift=sigma_z, controls=(sigma_x,))


#: Built-in systems by name: ``--builtin``, ``system --name`` and the qubit
#: that ``error-order`` drives.
_BUILTIN = {"ten-level": build_ten_level_system, "two-level": _demo_two_level}


def _builtin(name: str) -> ControlSystem:
    if name not in _BUILTIN:
        raise _CliError("validation", f"unknown built-in system {name!r}")
    return _BUILTIN[name]()


def _load_system(options: _Options) -> ControlSystem:
    path = options.get("system")
    builtin = options.get("builtin")
    if path is not None and builtin is not None:
        raise _CliError("validation", "give either --system or --builtin, not both")
    if path is not None:
        system = artifacts.read_system_json(path)
    elif builtin is not None:
        system = _builtin(builtin)
    else:
        raise _CliError("validation", "a system is required: --system FILE or --builtin NAME")
    report = validate_system(system)
    if not report.ok:
        raise _CliError("validation", f"system failed validation: {'; '.join(report.issues)}")
    return system


def _out_dir(options: _Options) -> Path:
    out = Path(options.get("out_dir", default="."))
    out.mkdir(parents=True, exist_ok=True)
    return out


#: Pulse makers by ``--kind``: the flag's choices and the check of a config value.
_PULSE_MAKERS = {"rect": pwm_signal, "gauss": gaussian_train}


def _sequence_signal(seq: PWMSequence, kind: str, rate: float | None) -> SampledField:
    if kind not in _PULSE_MAKERS:
        raise _CliError("validation", f"unknown pulse kind {kind!r}")
    if rate is None:
        rate = 512.0 / seq.tau
    parts = [_PULSE_MAKERS[kind](seq, k, rate) for k in range(seq.n_controls)]
    return SampledField(dt=parts[0].dt, values=np.vstack([f.values for f in parts]))


# ------------------------------------------------------------ subcommands

def _cmd_approximate(options: _Options) -> int:
    field = artifacts.read_field_csv(options.get("field", required=True))
    tau = float(options.get("tau", required=True))
    xi = options.floats("xi")
    if xi is None:
        xi = default_amplitudes(field)
    seq = pwm_approximate(field, xi, tau)
    out = options.get("out", required=True)
    artifacts.write_sequence_csv(out, seq)
    print(f"wrote {out}: {seq.n_pulses} subintervals, {seq.n_controls} control(s)")
    return 0


def _cmd_signal(options: _Options) -> int:
    seq = artifacts.read_sequence_csv(options.get("sequence", required=True))
    kind = options.get("kind", default="rect")
    signal = _sequence_signal(seq, kind, options.get("rate"))
    out = options.get("out", required=True)
    artifacts.write_field_csv(out, signal)
    print(f"wrote {out}: {signal.n_samples} samples, kind={kind}")
    return 0


def _cmd_reconstruct(options: _Options) -> int:
    mode = options.get("mode", default="lowpass")
    source = _source(options)
    if mode == "pwc":
        if not isinstance(source, PWMSequence):
            raise _CliError("validation", "--mode pwc requires --sequence")
        recon = inverse_pwm_pwc(source)
    elif mode == "lowpass":
        cutoff = options.get("cutoff", required=True)
        if isinstance(source, PWMSequence):
            source = _sequence_signal(source, "rect", options.get("rate"))
        recon = lowpass_reconstruct(source, float(cutoff))
    else:
        raise _CliError("validation", f"unknown mode {mode!r}")
    out = options.get("out", required=True)
    artifacts.write_field_csv(out, recon)
    print(f"wrote {out}: {recon.n_samples} samples, mode={mode}")
    return 0


def _cmd_spectrum(options: _Options) -> int:
    field = artifacts.read_field_csv(options.get("field", required=True))
    control = int(options.get("control", default=1))
    if not 1 <= control <= field.n_controls:
        raise _CliError("validation", f"--control must be in 1..{field.n_controls}")
    spec = spectrum(field, control - 1)
    out = options.get("out", required=True)
    artifacts.write_spectrum_csv(out, spec)
    print(f"wrote {out}: {spec.omega.size} bins, control {control}")
    return 0


def _cmd_propagate(options: _Options) -> int:
    system = _load_system(options)
    scheme = options.get("scheme", default="pwm")
    source = _source(options)
    tau = options.get("tau")
    tau = None if tau is None else float(tau)
    if tau is None and isinstance(source, SampledField):
        tau = source.dt * source.n_samples  # single step over the whole record
    xi = options.floats("xi")
    u = evolve(system, scheme, source, tau=tau, amplitudes=xi)
    out = options.get("out", required=True)
    artifacts.write_propagator_csv(out, u)
    print(f"wrote {out}: {system.dim}x{system.dim} propagator, scheme={scheme}")
    return 0


def _cmd_error_order(options: _Options) -> int:
    scheme = options.get("scheme", default="pwm")
    taus = options.floats("taus", default=[0.2, 0.1, 0.05, 0.025])
    resolution = int(options.get("resolution", default=10_000))
    t_start = float(options.get("t_start", default=0.5))
    try:
        _check_start(t_start, taus, resolution)
    except ValueError as exc:
        raise _CliError("validation", f"--t-start: {exc}") from exc
    fit = error_order(
        scheme,
        _builtin("two-level"),
        np.sin,
        taus,
        amplitudes=np.array([1.0]),
        resolution=resolution,
        t_start=t_start,
    )
    out = options.get("out")
    if out is not None:
        artifacts.write_error_order_csv(out, fit)
        print(f"wrote {out}")
    print(
        f"scheme={fit.scheme} slope={fit.slope:.4f} "
        f"intercept={fit.intercept:.4f} saturated={fit.saturated}"
    )
    return 0


def _grape_options(options: _Options) -> GrapeOptions:
    kwargs = {}
    for key, cast in (
        ("max_iterations", int),
        ("initial_step", float),
        ("width_bound", float),
        ("tolerance", float),
        ("rng_seed", int),
    ):
        value = options.get(key if key != "rng_seed" else "seed")
        if value is not None:
            kwargs[key] = cast(value)
    return GrapeOptions(**kwargs)


def _cmd_optimize(options: _Options) -> int:
    system = _load_system(options)
    initial = int(options.get("initial", required=True))
    target = int(options.get("target", required=True))
    if not (0 <= initial < system.dim and 0 <= target < system.dim):
        raise _CliError("validation", f"basis indices must be in 0..{system.dim - 1}")
    xi = options.floats("xi", default=[1.0])
    problem = GrapeProblem(
        system=system,
        psi_initial=basis_state(system.dim, initial),
        psi_target=basis_state(system.dim, target),
        total_time=float(options.get("total_time", required=True)),
        tau=float(options.get("tau", required=True)),
        amplitudes=xi,
    )
    grape_options = _grape_options(options)
    scheme = options.get("scheme", default="pwm")
    optimizer = {"pwm": optimize, "pwc": optimize_pwc}.get(scheme)
    if optimizer is None:
        raise _CliError("validation", f"--scheme must be pwm or pwc, got {scheme!r}")
    result = optimizer(problem, options=grape_options)
    out = _out_dir(options)
    if scheme == "pwm":
        seq = PWMSequence(tau=problem.tau, amplitudes=problem.amplitudes, widths=result.widths)
        artifacts.write_sequence_csv(out / "optimized_sequence.csv", seq)
        artifacts.write_field_csv(out / "optimized_field.csv", inverse_pwm_pwc(seq))
    else:
        artifacts.write_field_csv(
            out / "optimized_field.csv",
            SampledField(dt=problem.tau, values=result.widths),
        )
    artifacts.write_trace_csv(out / "trace.csv", result.trace)
    print(
        f"scheme={scheme} converged={result.converged} iterations={result.iterations} "
        f"evaluations={result.evaluations} final_J={result.trace[-1]:.6e} "
        f"wall_seconds={result.wall_time:.3f} stop_reason={result.stop_reason}"
    )
    return 0


def _seconds(value: float) -> str:
    """``value`` as ``1.234s``, or ``nan`` without a unit when nothing was timed."""
    return f"{value:.3f}s" if np.isfinite(value) else "nan"


def _cmd_benchmark(options: _Options) -> int:
    total_time = float(options.get("total_time", default=100.0))
    tau = float(options.get("tau", default=0.1))
    report = run_fig5_benchmark(
        repeats=int(options.get("repeats", default=25)),
        seed=int(options.get("seed", default=2024)),
        problem=ten_level_problem(total_time=total_time, tau=tau),
        options=_grape_options(options),
        jobs=int(options.get("jobs", default=1)),
    )
    out = _out_dir(options)
    artifacts.write_benchmark_csv(out / "benchmark.csv", report.rows)
    for i, spec in enumerate(report.spectra):
        artifacts.write_spectrum_csv(out / f"optimized_spectrum_{i:02d}.csv", spec)
    conv = {
        s: sum(1 for r in report.rows if r.scheme == s and r.converged)
        for s in ("pwm", "pwc")
    }
    runs = len(report.rows) // 2
    print(f"converged pwm={conv['pwm']}/{runs} pwc={conv['pwc']}/{runs}")
    pwm, pwc = (_seconds(report.median_wall[s]) for s in ("pwm", "pwc"))
    print(f"median_wall pwm={pwm} pwc={pwc} ratio={report.wall_ratio:.3f}")
    print(f"spectral peak hits: {report.peak_hits}/{len(report.spectra)}")
    pwm, pwc = (_seconds(report.mean_wall[s]) for s in ("pwm", "pwc"))
    top = report.max_iterations
    print(f"max_iterations pwm={top['pwm']} pwc={top['pwc']} mean_wall pwm={pwm} pwc={pwc}")
    return 0


def _cmd_complexity(options: _Options) -> int:
    k = int(options.get("K", default=1))
    dims = default_dims(
        count=int(options.get("dims_count", default=40)),
        low=int(options.get("Nmin", default=2)),
        high=int(options.get("Nmax", default=200)),
    )
    orders = default_orders(
        low=int(options.get("pmin", default=2)),
        high=int(options.get("pmax", default=30)),
    )
    grid = gamma_grid(k, dims=dims, orders=orders)
    out = _out_dir(options)
    artifacts.write_gamma_grid_csv(out / "gamma_grid.csv", grid)
    artifacts.write_contour_csv(out / "gamma_contour.csv", grid.dims, grid.boundary)
    print(
        f"wrote {out / 'gamma_grid.csv'} ({grid.values.size} cells, "
        f"gamma in [{grid.values.min():.4f}, {grid.values.max():.4f}])"
    )
    return 0


def _fig1_ingredients(samples_per_subinterval: int = 1024):
    m_count = 20
    duration = 2 * np.pi
    tau = duration / m_count
    n_samples = m_count * samples_per_subinterval
    dt = duration / n_samples
    times = (np.arange(n_samples) + 0.5) * dt
    field = SampledField(dt=dt, values=np.sin(times)[None, :])
    seq = pwm_approximate(field, np.array([1.0]), tau)
    return field, seq, samples_per_subinterval / tau


def _cmd_demo_fig1(options: _Options) -> int:
    field, seq, rate = _fig1_ingredients()
    out = _out_dir(options)
    signal = pwm_signal(seq, 0, rate)
    artifacts.write_field_csv(out / "fig1_field.csv", field)
    artifacts.write_sequence_csv(out / "fig1_sequence.csv", seq)
    artifacts.write_field_csv(out / "fig1_signal.csv", signal)
    artifacts.write_spectrum_csv(out / "fig1_spectrum.csv", spectrum(signal, 0))
    print(f"wrote fig1_field.csv fig1_sequence.csv fig1_signal.csv fig1_spectrum.csv in {out}")
    return 0


def _cmd_demo_fig4(options: _Options) -> int:
    _, seq, rate = _fig1_ingredients()
    out = _out_dir(options)
    train = gaussian_train(seq, 0, rate)
    artifacts.write_field_csv(out / "fig4_train.csv", train)
    artifacts.write_spectrum_csv(out / "fig4_spectrum.csv", spectrum(train, 0))
    print(f"wrote fig4_train.csv fig4_spectrum.csv in {out}")
    return 0


def _cmd_system(options: _Options) -> int:
    system = _builtin(options.get("name", default="ten-level"))
    out = options.get("out", required=True)
    artifacts.write_system_json(out, system)
    print(f"wrote {out}: dim={system.dim}, controls={system.n_controls}")
    return 0


# ----------------------------------------------------------------- parser

def _build_parser() -> _Parser:
    parser = _Parser(prog="pwmctrl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON file with default option values")
        return p

    p = command("approximate", _cmd_approximate, "convert a field CSV to a pulse sequence CSV")
    p.add_argument("--field", help="input field CSV")
    p.add_argument("--tau", type=float, help="subinterval length")
    p.add_argument("--xi", help="pulse amplitudes, comma-separated (default: 1.05*peak)")
    p.add_argument("--out", help="output sequence CSV")

    p = command("signal", _cmd_signal, "sample a pulse train as a field CSV")
    p.add_argument("--sequence", help="input sequence CSV")
    p.add_argument("--kind", choices=list(_PULSE_MAKERS), help="pulse shape (default rect)")
    p.add_argument("--rate", type=float, help="samples per unit time (default 512/tau)")
    p.add_argument("--out", help="output field CSV")

    p = command("reconstruct", _cmd_reconstruct, "recover a smooth or PWC field from pulses")
    p.add_argument("--sequence", help="input sequence CSV")
    p.add_argument("--field", help="input sampled-signal CSV (lowpass mode)")
    p.add_argument("--mode", choices=["lowpass", "pwc"], help="reconstruction mode")
    p.add_argument("--cutoff", type=float, help="low-pass cutoff (rad per unit time)")
    p.add_argument("--rate", type=float, help="sampling rate when starting from a sequence")
    p.add_argument("--out", help="output field CSV")

    p = command("spectrum", _cmd_spectrum, "one-sided DFT spectrum of a field CSV")
    p.add_argument("--field", help="input field CSV")
    p.add_argument("--control", type=int, help="1-based control column (default 1)")
    p.add_argument("--out", help="output spectrum CSV")

    p = command("propagate", _cmd_propagate, "propagator under a chosen scheme")
    p.add_argument("--system", help="system JSON file")
    p.add_argument("--builtin", choices=_BUILTIN, help="built-in system")
    p.add_argument("--scheme", help="pwc | spo | pwm | pwm4 | pwm6 ...")
    p.add_argument("--field", help="input field CSV")
    p.add_argument("--sequence", help="input sequence CSV")
    p.add_argument("--tau", type=float, help="subinterval length (field input)")
    p.add_argument("--xi", help="pulse amplitudes for pwm schemes with field input "
                   "(with --sequence, only the sequence's own)")
    p.add_argument("--out", help="output propagator CSV")

    p = command("error-order", _cmd_error_order, "fit single-step error order on a driven qubit")
    p.add_argument("--scheme", help="pwc | spo | pwm | pwm4 ... (default pwm)")
    p.add_argument("--taus", help="comma-separated step sizes")
    p.add_argument("--resolution", type=int, help="reference slices per tau window (default 10000)")
    p.add_argument("--t-start", dest="t_start", type=float, help="window start (default 0.5)")
    p.add_argument("--out", help="optional tau,error CSV")

    p = command("optimize", _cmd_optimize, "pulse optimization for a state transfer")
    p.add_argument("--system", help="system JSON file")
    p.add_argument("--builtin", choices=_BUILTIN, help="built-in system")
    p.add_argument("--initial", type=int, help="initial basis state (0-based)")
    p.add_argument("--target", type=int, help="target basis state (0-based)")
    p.add_argument("--total-time", dest="total_time", type=float, help="control horizon")
    p.add_argument("--tau", type=float, help="subinterval length")
    p.add_argument("--xi", help="pulse amplitudes, comma-separated")
    p.add_argument("--scheme", help="pwm (default) or pwc baseline")
    p.add_argument("--seed", type=int, help="seed for the random initial field")
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--tolerance", type=float, help="target infidelity")
    p.add_argument("--initial-step", dest="initial_step", type=float)
    p.add_argument("--width-bound", dest="width_bound", type=float)
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")

    p = command("benchmark-fig5", _cmd_benchmark, "repeated paired PWM/PWC optimization runs")
    p.add_argument("--repeats", type=int, help="number of paired runs (default 25)")
    p.add_argument("--seed", type=int, help="master seed (default 2024)")
    p.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    p.add_argument("--total-time", dest="total_time", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--initial-step", dest="initial_step", type=float)
    p.add_argument("--width-bound", dest="width_bound", type=float)
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")

    p = command("complexity", _cmd_complexity, "cost-ratio grid and equal-cost contour CSVs")
    p.add_argument("--K", dest="K", type=int, help="number of controls (default 1)")
    p.add_argument("--Nmin", dest="Nmin", type=int, help="smallest dimension (default 2)")
    p.add_argument("--Nmax", dest="Nmax", type=int, help="largest dimension (default 200)")
    p.add_argument("--pmin", dest="pmin", type=int, help="smallest Taylor order (default 2)")
    p.add_argument("--pmax", dest="pmax", type=int, help="largest Taylor order (default 30)")
    p.add_argument("--dims-count", dest="dims_count", type=int, help="log-spaced dim count")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")

    p = command("demo-fig1", _cmd_demo_fig1, "sine-to-pulses demo artifacts")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")

    p = command("demo-fig4", _cmd_demo_fig4, "Gaussian-train demo artifacts")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")

    p = command("system", _cmd_system, "emit a built-in system as JSON")
    p.add_argument("--name", choices=_BUILTIN, help="which system")
    p.add_argument("--out", help="output JSON path")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(_Options(args))
    except (_CliError, *_FAILURES) as exc:
        if isinstance(exc, _CliError):
            category, status = exc.category, exc.status
        else:
            category, status = next(_FAILURES[t] for t in type(exc).__mro__ if t in _FAILURES)
        print(f"error:{category}:{exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
