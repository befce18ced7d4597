"""Command-line interface: one subcommand per workflow, CSV/JSON artifacts.

Every option may also come from ``--config FILE``, a flat JSON object keyed by
option name with underscores (``{"total_time": 100.0}``).  A config value means
its flag's text: a string is the text, a number its ``repr``, an array its items
joined by commas; ``null`` means not given.  Flags override the config, which
overrides the declared defaults; keys naming no option of the subcommand are
ignored.  Errors are reported as one line ``error:<category>:<message>`` and
exit status 1: ``usage`` when the command line does not parse, ``io`` for an
``OSError``, a ``FileFormatError`` or a config file that is unreadable or not
JSON, and ``validation`` for a missing or inconsistent option, a config value
its option cannot read (``--seed: …``) and any other ``ValueError``.
``numeric`` failures (``OptimizationError``, ``FloatingPointError``,
``LinAlgError``) exit with status 2.
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


def _load_config(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _CliError("io", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError("io", f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _CliError("validation", "config must be a JSON object")
    return payload


def _flag_text(value) -> str:
    """The flag text a JSON string or number stands for."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    raise TypeError(f"expected a string, a number or an array of them, got {json.dumps(value)}")


def _config_defaults(command: argparse.ArgumentParser, config: dict) -> dict:
    """``config``'s values for ``command``'s options, each read by the option's own type."""
    defaults = {}
    for action in command._actions:
        value = config.get(action.dest)
        if value is None or action.dest in ("help", "config"):
            continue
        try:
            items = value if isinstance(value, list) else [value]
            text = ",".join(map(_flag_text, items))
            defaults[action.dest] = action.type(text) if action.type else text
        except (TypeError, ValueError) as exc:
            raise _CliError("validation", f"{action.option_strings[0]}: {exc}") from exc
    return defaults


def _float_list(flag: str):
    """The type of a comma-separated ``--flag``: ``"0.2,0.1"`` as a float array.

    Bad text is a ``validation`` error naming the flag, not argparse's usage error.
    """

    def parse(text: str) -> np.ndarray:
        try:
            return np.array([float(x) for x in text.split(",") if x.strip()], dtype=float)
        except ValueError as exc:
            raise _CliError("validation", f"--{flag}: {exc}") from exc

    return parse


def _require(args: argparse.Namespace, *names: str) -> None:
    """The one check that an option was given, as a flag or in the config."""
    for name in names:
        if getattr(args, name) is None:
            raise _CliError("validation", f"missing required option --{name.replace('_', '-')}")


def _source(args: argparse.Namespace) -> SampledField | PWMSequence:
    """The field or pulse sequence read from whichever of ``--field``/``--sequence`` is given."""
    if (args.field is None) == (args.sequence is None):
        raise _CliError("validation", "give exactly one of --field or --sequence")
    if args.field is not None:
        return artifacts.read_field_csv(args.field)
    return artifacts.read_sequence_csv(args.sequence)


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


def _load_system(args: argparse.Namespace) -> ControlSystem:
    if args.system is not None and args.builtin is not None:
        raise _CliError("validation", "give either --system or --builtin, not both")
    if args.system is not None:
        system = artifacts.read_system_json(args.system)
    elif args.builtin is not None:
        system = _builtin(args.builtin)
    else:
        raise _CliError("validation", "a system is required: --system FILE or --builtin NAME")
    report = validate_system(system)
    if not report.ok:
        raise _CliError("validation", f"system failed validation: {'; '.join(report.issues)}")
    return system


def _out_dir(args: argparse.Namespace) -> Path:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir


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

def _cmd_approximate(args: argparse.Namespace) -> int:
    field = artifacts.read_field_csv(args.field)
    xi = default_amplitudes(field) if args.xi is None else args.xi
    seq = pwm_approximate(field, xi, args.tau)
    artifacts.write_sequence_csv(args.out, seq)
    print(f"wrote {args.out}: {seq.n_pulses} subintervals, {seq.n_controls} control(s)")
    return 0


def _cmd_signal(args: argparse.Namespace) -> int:
    seq = artifacts.read_sequence_csv(args.sequence)
    signal = _sequence_signal(seq, args.kind, args.rate)
    artifacts.write_field_csv(args.out, signal)
    print(f"wrote {args.out}: {signal.n_samples} samples, kind={args.kind}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    source = _source(args)
    if args.mode == "pwc":
        if not isinstance(source, PWMSequence):
            raise _CliError("validation", "--mode pwc requires --sequence")
        recon = inverse_pwm_pwc(source)
    elif args.mode == "lowpass":
        _require(args, "cutoff")
        if isinstance(source, PWMSequence):
            source = _sequence_signal(source, "rect", args.rate)
        recon = lowpass_reconstruct(source, args.cutoff)
    else:
        raise _CliError("validation", f"unknown mode {args.mode!r}")
    artifacts.write_field_csv(args.out, recon)
    print(f"wrote {args.out}: {recon.n_samples} samples, mode={args.mode}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    field = artifacts.read_field_csv(args.field)
    if not 1 <= args.control <= field.n_controls:
        raise _CliError("validation", f"--control must be in 1..{field.n_controls}")
    spec = spectrum(field, args.control - 1)
    artifacts.write_spectrum_csv(args.out, spec)
    print(f"wrote {args.out}: {spec.omega.size} bins, control {args.control}")
    return 0


def _cmd_propagate(args: argparse.Namespace) -> int:
    system = _load_system(args)
    source = _source(args)
    tau = args.tau
    if tau is None and isinstance(source, SampledField):
        tau = source.dt * source.n_samples  # single step over the whole record
    u = evolve(system, args.scheme, source, tau=tau, amplitudes=args.xi)
    artifacts.write_propagator_csv(args.out, u)
    print(f"wrote {args.out}: {system.dim}x{system.dim} propagator, scheme={args.scheme}")
    return 0


def _cmd_error_order(args: argparse.Namespace) -> int:
    try:
        _check_start(args.t_start, args.taus, args.resolution)
    except ValueError as exc:
        raise _CliError("validation", f"--t-start: {exc}") from exc
    fit = error_order(
        args.scheme,
        _builtin("two-level"),
        np.sin,
        args.taus,
        amplitudes=np.array([1.0]),
        resolution=args.resolution,
        t_start=args.t_start,
    )
    if args.out is not None:
        artifacts.write_error_order_csv(args.out, fit)
        print(f"wrote {args.out}")
    print(
        f"scheme={fit.scheme} slope={fit.slope:.4f} "
        f"intercept={fit.intercept:.4f} saturated={fit.saturated}"
    )
    return 0


def _grape_options(args: argparse.Namespace, **extra) -> GrapeOptions:
    knobs = ("max_iterations", "initial_step", "width_bound", "tolerance")
    return GrapeOptions(**{k: getattr(args, k) for k in knobs}, **extra)


def _cmd_optimize(args: argparse.Namespace) -> int:
    system = _load_system(args)
    if not (0 <= args.initial < system.dim and 0 <= args.target < system.dim):
        raise _CliError("validation", f"basis indices must be in 0..{system.dim - 1}")
    problem = GrapeProblem(
        system=system,
        psi_initial=basis_state(system.dim, args.initial),
        psi_target=basis_state(system.dim, args.target),
        total_time=args.total_time,
        tau=args.tau,
        amplitudes=args.xi,
    )
    grape_options = _grape_options(args, rng_seed=args.seed)
    optimizer = {"pwm": optimize, "pwc": optimize_pwc}.get(args.scheme)
    if optimizer is None:
        raise _CliError("validation", f"--scheme must be pwm or pwc, got {args.scheme!r}")
    result = optimizer(problem, options=grape_options)
    out = _out_dir(args)
    if args.scheme == "pwm":
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
        f"scheme={args.scheme} converged={result.converged} iterations={result.iterations} "
        f"evaluations={result.evaluations} final_J={result.trace[-1]:.6e} "
        f"wall_seconds={result.wall_time:.3f} stop_reason={result.stop_reason}"
    )
    return 0


def _seconds(value: float) -> str:
    """``value`` as ``1.234s``, or ``nan`` without a unit when nothing was timed."""
    return f"{value:.3f}s" if np.isfinite(value) else "nan"


def _cmd_benchmark(args: argparse.Namespace) -> int:
    report = run_fig5_benchmark(
        repeats=args.repeats,
        seed=args.seed,
        problem=ten_level_problem(total_time=args.total_time, tau=args.tau),
        options=_grape_options(args),
        jobs=args.jobs,
    )
    out = _out_dir(args)
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


def _cmd_complexity(args: argparse.Namespace) -> int:
    dims = default_dims(count=args.dims_count, low=args.Nmin, high=args.Nmax)
    grid = gamma_grid(args.K, dims=dims, orders=default_orders(low=args.pmin, high=args.pmax))
    out = _out_dir(args)
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


def _cmd_demo_fig1(args: argparse.Namespace) -> int:
    field, seq, rate = _fig1_ingredients()
    out = _out_dir(args)
    signal = pwm_signal(seq, 0, rate)
    artifacts.write_field_csv(out / "fig1_field.csv", field)
    artifacts.write_sequence_csv(out / "fig1_sequence.csv", seq)
    artifacts.write_field_csv(out / "fig1_signal.csv", signal)
    artifacts.write_spectrum_csv(out / "fig1_spectrum.csv", spectrum(signal, 0))
    print(f"wrote fig1_field.csv fig1_sequence.csv fig1_signal.csv fig1_spectrum.csv in {out}")
    return 0


def _cmd_demo_fig4(args: argparse.Namespace) -> int:
    _, seq, rate = _fig1_ingredients()
    out = _out_dir(args)
    train = gaussian_train(seq, 0, rate)
    artifacts.write_field_csv(out / "fig4_train.csv", train)
    artifacts.write_spectrum_csv(out / "fig4_spectrum.csv", spectrum(train, 0))
    print(f"wrote fig4_train.csv fig4_spectrum.csv in {out}")
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    system = _builtin(args.name)
    artifacts.write_system_json(args.out, system)
    print(f"wrote {args.out}: dim={system.dim}, controls={system.n_controls}")
    return 0


# ----------------------------------------------------------------- parser

def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name; each option is declared once here."""
    parser = _Parser(prog="pwmctrl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    xi, default = _float_list("xi"), "(default %(default)s)"

    def command(name, handler, help_text, *required):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler, required=required)
        p.add_argument("--config", help="JSON file with default option values")
        return p

    def out_dir(p):
        p.add_argument("--out-dir", type=Path, default=".", help=f"output directory {default}")

    def grape_knobs(p):
        p.add_argument("--max-iterations", type=int, default=GrapeOptions.max_iterations)
        p.add_argument("--tolerance", type=float, default=GrapeOptions.tolerance,
                       help="target infidelity")
        p.add_argument("--initial-step", type=float, default=GrapeOptions.initial_step)
        p.add_argument("--width-bound", type=float, default=GrapeOptions.width_bound)
        out_dir(p)

    p = command("approximate", _cmd_approximate, "convert a field CSV to a pulse sequence CSV",
                "field", "tau", "out")
    p.add_argument("--field", help="input field CSV")
    p.add_argument("--tau", type=float, help="subinterval length")
    p.add_argument("--xi", type=xi, help="pulse amplitudes, comma-separated (default: 1.05*peak)")
    p.add_argument("--out", help="output sequence CSV")

    p = command("signal", _cmd_signal, "sample a pulse train as a field CSV", "sequence", "out")
    p.add_argument("--sequence", help="input sequence CSV")
    p.add_argument("--kind", choices=list(_PULSE_MAKERS), default="rect",
                   help=f"pulse shape {default}")
    p.add_argument("--rate", type=float, help="samples per unit time (default 512/tau)")
    p.add_argument("--out", help="output field CSV")

    p = command("reconstruct", _cmd_reconstruct, "recover a smooth or PWC field from pulses",
                "out")
    p.add_argument("--sequence", help="input sequence CSV")
    p.add_argument("--field", help="input sampled-signal CSV (lowpass mode)")
    p.add_argument("--mode", choices=["lowpass", "pwc"], default="lowpass",
                   help="reconstruction mode")
    p.add_argument("--cutoff", type=float, help="low-pass cutoff (rad per unit time)")
    p.add_argument("--rate", type=float, help="sampling rate when starting from a sequence")
    p.add_argument("--out", help="output field CSV")

    p = command("spectrum", _cmd_spectrum, "one-sided DFT spectrum of a field CSV",
                "field", "out")
    p.add_argument("--field", help="input field CSV")
    p.add_argument("--control", type=int, default=1, help=f"1-based control column {default}")
    p.add_argument("--out", help="output spectrum CSV")

    p = command("propagate", _cmd_propagate, "propagator under a chosen scheme", "out")
    p.add_argument("--system", help="system JSON file")
    p.add_argument("--builtin", choices=_BUILTIN, help="built-in system")
    p.add_argument("--scheme", default="pwm", help="pwc | spo | pwm | pwm4 | pwm6 ...")
    p.add_argument("--field", help="input field CSV")
    p.add_argument("--sequence", help="input sequence CSV")
    p.add_argument("--tau", type=float, help="subinterval length (field input)")
    p.add_argument("--xi", type=xi, help="pulse amplitudes for pwm schemes with field input "
                   "(with --sequence, only the sequence's own)")
    p.add_argument("--out", help="output propagator CSV")

    p = command("error-order", _cmd_error_order, "fit single-step error order on a driven qubit")
    p.add_argument("--scheme", default="pwm", help=f"pwc | spo | pwm | pwm4 ... {default}")
    p.add_argument("--taus", type=_float_list("taus"), default="0.2,0.1,0.05,0.025",
                   help="comma-separated step sizes")
    p.add_argument("--resolution", type=int, default=10_000,
                   help=f"reference slices per tau window {default}")
    p.add_argument("--t-start", type=float, default=0.5, help=f"window start {default}")
    p.add_argument("--out", help="optional tau,error CSV")

    p = command("optimize", _cmd_optimize, "pulse optimization for a state transfer",
                "initial", "target", "total_time", "tau")
    p.add_argument("--system", help="system JSON file")
    p.add_argument("--builtin", choices=_BUILTIN, help="built-in system")
    p.add_argument("--initial", type=int, help="initial basis state (0-based)")
    p.add_argument("--target", type=int, help="target basis state (0-based)")
    p.add_argument("--total-time", type=float, help="control horizon")
    p.add_argument("--tau", type=float, help="subinterval length")
    p.add_argument("--xi", type=xi, default="1.0", help="pulse amplitudes, comma-separated")
    p.add_argument("--scheme", default="pwm", help="%(default)s (default) or pwc baseline")
    p.add_argument("--seed", type=int, default=GrapeOptions.rng_seed,
                   help="seed for the random initial field")
    grape_knobs(p)

    p = command("benchmark-fig5", _cmd_benchmark, "repeated paired PWM/PWC optimization runs")
    p.add_argument("--repeats", type=int, default=25, help=f"number of paired runs {default}")
    p.add_argument("--seed", type=int, default=2024, help=f"master seed {default}")
    p.add_argument("--jobs", type=int, default=1, help=f"parallel workers {default}; "
                   "the pool gets at most --repeats and the CPU count")
    p.add_argument("--total-time", type=float, default=100.0)
    p.add_argument("--tau", type=float, default=0.1)
    grape_knobs(p)

    p = command("complexity", _cmd_complexity, "cost-ratio grid and equal-cost contour CSVs")
    p.add_argument("--K", type=int, default=1, help=f"number of controls {default}")
    p.add_argument("--Nmin", type=int, default=2, help=f"smallest dimension {default}")
    p.add_argument("--Nmax", type=int, default=200, help=f"largest dimension {default}")
    p.add_argument("--pmin", type=int, default=2, help=f"smallest Taylor order {default}")
    p.add_argument("--pmax", type=int, default=30, help=f"largest Taylor order {default}")
    p.add_argument("--dims-count", type=int, default=40, help="log-spaced dim count")
    out_dir(p)

    out_dir(command("demo-fig1", _cmd_demo_fig1, "sine-to-pulses demo artifacts"))
    out_dir(command("demo-fig4", _cmd_demo_fig4, "Gaussian-train demo artifacts"))

    p = command("system", _cmd_system, "emit a built-in system as JSON", "out")
    p.add_argument("--name", choices=_BUILTIN, default="ten-level", help="which system")
    p.add_argument("--out", help="output JSON path")

    return parser, sub.choices


def main(argv=None) -> int:
    try:
        parser, commands = _build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, _load_config(args.config)))
            args = parser.parse_args(argv)  # flags again, over the config's defaults
        _require(args, *args.required)
        return args.handler(args)
    except (_CliError, *_FAILURES) as exc:
        if isinstance(exc, _CliError):
            category, status = exc.category, exc.status
        else:
            category, status = next(_FAILURES[t] for t in type(exc).__mro__ if t in _FAILURES)
        print(f"error:{category}:{exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
