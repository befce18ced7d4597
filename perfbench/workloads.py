"""The three workloads: inputs built from a seed, one round of work, checks.

``fig5`` is the paper's paired PWM-vs-PWC GRAPE benchmark on the ten-level
molecule (K = 1): two sort/sign patterns, a three-entry eigendecomposition
cache hit on every step.  ``multi-control`` runs the same optimizers on
random Hermitian systems with K = 3, where pattern grouping gives up to 48
groups per evaluation.  ``pulse-pipeline`` drives the ``pwmctrl`` CLI
in-process on files and exercises ``io``, ``pwm``, ``cli`` and the
frame-by-frame propagators, leaving ``grape`` idle.

A round is one closed-loop unit of work: one paired start on the GRAPE
workloads, one pass of every CLI command on the pipeline.  Only the calls
into the package are timed; checks run between them.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pwmctrl import cli, grape
from pwmctrl import io as pio
from pwmctrl import (
    ControlSystem,
    GrapeOptions,
    GrapeProblem,
    PWMSequence,
    SampledField,
    basis_state,
    default_amplitudes,
    evolve,
    gradient,
    infidelity,
    inverse_pwm_pwc,
    objective,
    optimize,
    optimize_pwc,
    pwm_approximate,
    random_initial_widths,
    reference_propagator,
    run_fig5_benchmark,
    ten_level_problem,
)
from pwmctrl.propagate import frobenius_distance, unitarity_defect


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the self-test swaps in toy values."""

    fig5_total_time: float = 100.0
    mc_dim: int = 10
    mc_controls: int = 3
    mc_total_time: float = 20.0
    pipe_dim: int = 32
    pipe_controls: int = 2
    pipe_subintervals: int = 1000


FULL = Sizes()
TAU = 0.1
#: Samples per subinterval of the pipeline's input field.
FIELD_SAMPLES_PER_STEP = 4
#: Pulse-train sampling rate: 20 samples per subinterval.
SIGNAL_RATE = 20 / TAU
#: Low-pass cutoff half-way to the first modulation sideband near 2*pi/tau.
CUTOFF = np.pi / TAU
#: Multi-control rounds that also check the gradient by central differences.
FD_ROUNDS = 2
#: |J(evolve) - J(optimizer)| allowed when re-evaluating an optimized result.
J_MATCH_TOL = 1e-9
UNITARITY_TOL = 1e-9
#: Distance to the reference allowed: C * sqrt(M) * tau^LOCAL_ORDER.  All four
#: schemes are locally third order here (pwm4 from a stored sequence scales the
#: widths, so it does not see the field vary inside a subinterval), and local
#: errors of varying sign add up over M steps like a random walk.
LOCAL_ORDER = 3
PROPAGATOR_CONSTANT = 50.0
ERROR_ORDER_SLOPE = (2.7, 3.3)
TIE_MARKER = "gradient there is one-sided"


#: Random streams of one seed: round ``i`` uses ``[seed, i]``; set-up inputs
#: use these tags, which no round index reaches.
PROBE_STREAM = 10**9
PIPELINE_STREAM = 10**9 + 1


def child_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (x + x.conj().T) / (2 * np.sqrt(dim))


def random_system(rng: np.random.Generator, dim: int, controls: int) -> ControlSystem:
    return ControlSystem(
        drift=random_hermitian(rng, dim),
        controls=tuple(random_hermitian(rng, dim) for _ in range(controls)),
    )


def transfer_problem(system: ControlSystem, total_time: float, amplitudes) -> GrapeProblem:
    """|0> -> |N-1> on the benchmark's tau grid."""
    n = system.dim
    return GrapeProblem(
        system=system,
        psi_initial=basis_state(n, 0),
        psi_target=basis_state(n, n - 1),
        total_time=total_time,
        tau=TAU,
        amplitudes=amplitudes,
    )


def smooth_field(rng: np.random.Generator, controls: int, steps: int) -> SampledField:
    """Sum of four slow random sines per control, peak-normalized to 1."""
    dt = TAU / FIELD_SAMPLES_PER_STEP
    t = (np.arange(steps * FIELD_SAMPLES_PER_STEP) + 0.5) * dt
    values = np.zeros((controls, t.size))
    for k in range(controls):
        for _ in range(4):
            omega, phase, amp = rng.uniform(0.2, 3.0), rng.uniform(0, 2 * np.pi), rng.uniform(0.3, 1)
            values[k] += amp * np.sin(omega * t + phase)
        values[k] /= np.max(np.abs(values[k]))
    return SampledField(dt=dt, values=values)


# ------------------------------------------------------------------ inputs

@dataclass
class Inputs:
    """One workload's system, field and files, shared by checks and probes.

    ``seq`` is ``pwm_approximate(field)``; ``reference`` is the exact
    propagator of the piecewise-constant ``field`` (one reference slice per
    field cell).
    """

    system: ControlSystem
    problem: GrapeProblem
    field: SampledField
    seq: PWMSequence
    reference: np.ndarray
    reference_slices: int
    files: dict[str, Path]
    work: Path
    #: Bytes of each CLI output that passed its checks; a later output with
    #: the same bytes passes them too, so it is not checked again.
    verified: dict[str, bytes] = field(default_factory=dict)

    @property
    def tau(self) -> float:
        return self.problem.tau

    @property
    def xi(self) -> np.ndarray:
        return self.problem.amplitudes


def make_inputs(problem: GrapeProblem, field: SampledField, work: Path) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    files = {"system": work / "system.json", "field": work / "field.csv"}
    pio.write_system_json(files["system"], problem.system)
    pio.write_field_csv(files["field"], field)
    seq = pwm_approximate(field, problem.amplitudes, problem.tau)
    slices = field.n_samples * -(-100 // field.n_samples)
    reference = reference_propagator(problem.system, field, 0.0, field.duration, slices)
    return Inputs(problem.system, problem, field, seq, reference, slices, files, work)


def field_of_widths(problem: GrapeProblem, widths: np.ndarray) -> SampledField:
    """The piecewise-constant field whose pulse widths are ``widths``."""
    return inverse_pwm_pwc(PWMSequence(tau=problem.tau, amplitudes=problem.amplitudes, widths=widths))


# ------------------------------------------------------------------ checks

def propagator_problems(u: np.ndarray, scheme: str, inp: Inputs) -> list[str]:
    """Unitarity and distance-to-reference checks of one propagator."""
    problems = []
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOL:
        problems.append(f"unitarity defect {defect:.3e} > {UNITARITY_TOL:g}")
    tol = PROPAGATOR_CONSTANT * np.sqrt(inp.problem.n_steps) * inp.tau**LOCAL_ORDER
    dist = frobenius_distance(u, inp.reference)
    if not dist <= tol:
        problems.append(f"{scheme}: distance to reference {dist:.3e} > {tol:.3e}")
    return problems


def _round_trip(path: Path, read, write) -> tuple[object, list[str]]:
    value = read(path)
    again = path.with_name(path.name + ".rt")
    write(again, value)
    same = again.read_bytes() == path.read_bytes()
    again.unlink()
    return value, [] if same else [f"{path.name} does not read back bit-exactly"]


def output_problems(kind: str, path: Path, inp: Inputs) -> list[str]:
    """Check one file the pipeline wrote; ``kind`` names its format."""
    if kind == "sequence":
        seq, problems = _round_trip(path, pio.read_sequence_csv, pio.write_sequence_csv)
        if not np.array_equal(seq.widths, inp.seq.widths):
            problems.append("sequence differs from pwm_approximate of the input field")
        return problems
    if kind == "field":
        return _round_trip(path, pio.read_field_csv, pio.write_field_csv)[1]
    if kind == "spectrum":
        return _round_trip(path, pio.read_spectrum_csv, pio.write_spectrum_csv)[1]
    if kind.startswith("propagator:"):
        u, problems = _round_trip(path, pio.read_propagator_csv, pio.write_propagator_csv)
        return problems + propagator_problems(u, kind.split(":", 1)[1], inp)
    if kind == "errors":
        rows = path.read_text().splitlines()
        cells = [row.split(",") for row in rows[1:]]
        problems = [
            f"{path.name}: cell {c!r} is not a shortest round-trip float"
            for row in cells for c in row if repr(float(c)) != c
        ]
        tau, err = np.array(cells, dtype=float).T
        slope = np.polyfit(np.log(tau), np.log(err), 1)[0]
        lo, hi = ERROR_ORDER_SLOPE
        if not lo <= slope <= hi:
            problems.append(f"pwm local error slope {slope:.3f} outside [{lo}, {hi}]")
        return problems
    raise ValueError(f"unknown output kind {kind!r}")


def pwm_result_problems(problem: GrapeProblem, res) -> list[str]:
    seq = PWMSequence(tau=problem.tau, amplitudes=problem.amplitudes, widths=res.widths)
    j = infidelity(evolve(problem.system, "pwm", seq), problem.psi_initial, problem.psi_target)
    return _result_problems("pwm", res, j)


def pwc_result_problems(problem: GrapeProblem, res) -> list[str]:
    field = SampledField(dt=problem.tau, values=res.widths)
    u = evolve(problem.system, "pwc", field, tau=problem.tau)
    return _result_problems("pwc", res, infidelity(u, problem.psi_initial, problem.psi_target))


def _result_problems(scheme: str, res, j: float) -> list[str]:
    problems = []
    final = float(res.trace[-1])
    if not res.converged:
        problems.append(f"{scheme} did not converge: J={final:.3e} after {res.iterations} iterations")
    if not abs(j - final) <= J_MATCH_TOL:
        problems.append(f"{scheme} re-evaluated J={j:.12e} differs from final_J={final:.12e}")
    return problems


def gradient_problems(problem: GrapeProblem, widths: np.ndarray, rng) -> list[str]:
    """Central difference of the PWM objective along a random unit direction."""
    direction = rng.standard_normal(widths.shape)
    direction /= np.linalg.norm(direction)
    h = 1e-6 * problem.tau
    fd = (objective(problem, widths + h * direction) - objective(problem, widths - h * direction)) / (2 * h)
    exact = float(np.sum(gradient(problem, widths) * direction))
    err = abs(fd - exact)
    if not err <= 1e-5 * max(abs(exact), 1e-3):
        return [f"directional derivative {exact:.9e} vs central difference {fd:.9e}"]
    return []


def sort_sign_patterns(widths: np.ndarray) -> int:
    """Distinct (sort order, sign) patterns over the subintervals of ``widths``."""
    order = np.argsort(-np.abs(widths), axis=0, kind="stable")
    signs = np.where(widths < 0, -1, 1)
    return len(np.unique(np.vstack([order, signs]).T, axis=0))


# ------------------------------------------------------------ run support

@dataclass
class Stats:
    """Samples collected over the rounds of one run."""

    round_wall: list[float] = field(default_factory=list)
    #: Optimizer iterations of each GRAPE round.
    round_work: list[int] = field(default_factory=list)
    starts: dict[str, list] = field(default_factory=lambda: {"pwm": [], "pwc": []})
    commands: dict[str, list[float]] = field(default_factory=dict)
    patterns: list[int] = field(default_factory=list)
    tie_warnings: list[str] = field(default_factory=list)


@contextlib.contextmanager
def counting_tie_warnings(stats: Stats):
    """Count every one-sided-gradient warning (Python shows each only once).

    Other warnings are re-issued unchanged after the block.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for w in caught:
        if TIE_MARKER in str(w.message):
            stats.tie_warnings.append(str(w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _record_start(stats: Stats, ledger, op, scheme: str, problem, res) -> None:
    stats.starts[scheme].append((res.wall_time, res.iterations, res.converged))
    check = pwm_result_problems if scheme == "pwm" else pwc_result_problems
    for problem_text in ledger.call(op, check, problem, res) or []:
        ledger.fail(op, problem_text)


# --------------------------------------------------------------- workloads

class _Workload:
    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes


class Fig5(_Workload):
    """``run_fig5_benchmark(repeats=1)`` per round, on the ten-level problem."""

    name = "fig5"

    def setup(self, seed: int, work: Path) -> Inputs:
        problem = ten_level_problem(total_time=self.sizes.fig5_total_time, tau=TAU)
        w0 = random_initial_widths(problem, child_rng(seed, PROBE_STREAM))
        inp = make_inputs(problem, field_of_widths(problem, w0), work)
        objective(problem, w0)  # fills the problem's eigendecomposition cache
        gradient(problem, w0)
        return inp

    def round(self, inp: Inputs, index: int, seed: int, tracer, ledger, stats: Stats) -> None:
        captured: list = []
        ops = {scheme: ledger.begin(f"{scheme} start") for scheme in ("pwm", "pwc")}
        child_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        with _capturing_starts(tracer, captured), counting_tie_warnings(stats):
            with tracer.span("grape.run_fig5_benchmark"):
                t0 = time.perf_counter()
                report = ledger.call(
                    ops["pwm"], run_fig5_benchmark, repeats=1, seed=child_seed, problem=inp.problem, jobs=1
                )
                wall = time.perf_counter() - t0
        if report is None:
            ledger.fail(ops["pwc"], "run_fig5_benchmark raised")
            return
        for scheme, problem, init, res in captured:
            if scheme == "pwm":
                stats.patterns.append(sort_sign_patterns(init))
            _record_start(stats, ledger, ops[scheme], scheme, problem, res)
        stats.round_wall.append(wall)
        stats.round_work.append(sum(res.iterations for *_, res in captured))
        ledger.check(ops["pwm"], len(report.spectra) == 1, "converged PWM run has no spectrum")


@contextlib.contextmanager
def _capturing_starts(tracer, sink: list):
    """Record every start ``run_fig5_benchmark`` optimizes, with a span each."""
    originals = (grape.optimize, grape.optimize_pwc)

    def wrap(scheme, fn):
        def wrapper(problem, init, options):
            with tracer.span(f"grape.{fn.__name__}"):
                res = fn(problem, init, options)
            sink.append((scheme, problem, np.array(init), res))
            return res

        return wrapper

    grape.optimize, grape.optimize_pwc = wrap("pwm", originals[0]), wrap("pwc", originals[1])
    try:
        yield
    finally:
        grape.optimize, grape.optimize_pwc = originals


class MultiControl(_Workload):
    """One fresh random K = 3 system per round, PWM and PWC from one start."""

    name = "multi-control"

    def setup(self, seed: int, work: Path) -> Inputs:
        rng = child_rng(seed, PROBE_STREAM)
        problem = self._problem(rng)
        w0 = random_initial_widths(problem, rng)
        inp = make_inputs(problem, field_of_widths(problem, w0), work)
        objective(problem, w0)
        gradient(problem, w0)
        return inp

    def _problem(self, rng) -> GrapeProblem:
        sizes = self.sizes
        system = random_system(rng, sizes.mc_dim, sizes.mc_controls)
        return transfer_problem(system, sizes.mc_total_time, 1.0)

    def round(self, inp: Inputs, index: int, seed: int, tracer, ledger, stats: Stats) -> None:
        rng = child_rng(seed, index)
        problem = self._problem(rng)
        options = GrapeOptions(rng_seed=int(rng.integers(2**32)))
        w0 = random_initial_widths(problem, np.random.default_rng(options.rng_seed))
        stats.patterns.append(sort_sign_patterns(w0))
        results, wall = {}, 0.0
        with counting_tie_warnings(stats):
            for scheme, fn in (("pwm", optimize), ("pwc", optimize_pwc)):
                op = ledger.begin(f"{scheme} start")
                with tracer.span(f"grape.{fn.__name__}"):
                    t0 = time.perf_counter()
                    res = ledger.call(op, fn, problem, options=options)
                    wall += time.perf_counter() - t0
                if res is not None:
                    results[scheme] = res
                    _record_start(stats, ledger, op, scheme, problem, res)
            if index < FD_ROUNDS:
                op = ledger.begin("pwm gradient check")
                for text in ledger.call(op, gradient_problems, problem, w0, rng) or []:
                    ledger.fail(op, text)
        if len(results) == 2:
            stats.round_wall.append(wall)
            stats.round_work.append(sum(r.iterations for r in results.values()))


def cli_commands(inp: Inputs) -> list[tuple[str, Path, str, list[str]]]:
    """(name, output file, output kind, argv without ``--out``) of each command."""
    f, w = inp.files, inp.work
    tau, xi = repr(inp.tau), ",".join(repr(float(x)) for x in inp.xi)
    system = ["--system", str(f["system"])]
    commands = [
        ("approximate", w / "seq.csv", "sequence",
         ["approximate", "--field", str(f["field"]), "--tau", tau, "--xi", xi]),
        ("signal", w / "signal.csv", "field",
         ["signal", "--sequence", str(w / "seq.csv"), "--kind", "rect", "--rate", repr(SIGNAL_RATE)]),
        ("spectrum", w / "spectrum.csv", "spectrum", ["spectrum", "--field", str(w / "signal.csv")]),
        ("reconstruct", w / "smooth.csv", "field",
         ["reconstruct", "--field", str(w / "signal.csv"), "--cutoff", repr(CUTOFF)]),
    ]
    for scheme in ("pwm", "pwm4"):
        commands.append((f"propagate_{scheme}", w / f"u_{scheme}.csv", f"propagator:{scheme}",
                         ["propagate", *system, "--scheme", scheme, "--sequence", str(w / "seq.csv")]))
    for scheme in ("pwc", "spo"):
        commands.append((f"propagate_{scheme}", w / f"u_{scheme}.csv", f"propagator:{scheme}",
                         ["propagate", *system, "--scheme", scheme, "--field", str(f["field"]), "--tau", tau]))
    commands.append(("error_order", w / "errors.csv", "errors", ["error-order", "--scheme", "pwm"]))
    return commands


DESIGN_COMMANDS = ("approximate", "signal", "spectrum", "reconstruct")


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = cli.main(argv)
    return status, out.getvalue()


def cli_pass(inp: Inputs, tracer, ledger) -> dict[str, float]:
    """Every CLI command once, each checked; returns each command's latency."""
    latency = {}
    for name, out, kind, argv in cli_commands(inp):
        op = ledger.begin(f"cli {name}")
        with tracer.span(f"cli.main:{name}"):
            t0 = time.perf_counter()
            result = ledger.call(op, run_cli, [*argv, "--out", str(out)])
            latency[name] = time.perf_counter() - t0
        if result is None:
            continue
        status, text = result
        if not ledger.check(op, status == 0, f"exit status {status}: {text.strip()}"):
            continue
        data = out.read_bytes()
        if inp.verified.get(name) == data:
            continue
        problems = ledger.call(op, output_problems, kind, out, inp)
        for problem in problems or []:
            ledger.fail(op, problem)
        if problems == []:
            inp.verified[name] = data
    return latency


class PulsePipeline(_Workload):
    """approximate -> signal -> spectrum -> reconstruct, propagate x4, error-order."""

    name = "pulse-pipeline"

    def setup(self, seed: int, work: Path) -> Inputs:
        sizes = self.sizes
        rng = child_rng(seed, PIPELINE_STREAM)
        system = random_system(rng, sizes.pipe_dim, sizes.pipe_controls)
        field_ = smooth_field(rng, sizes.pipe_controls, sizes.pipe_subintervals)
        problem = transfer_problem(system, sizes.pipe_subintervals * TAU, default_amplitudes(field_))
        inp = make_inputs(problem, field_, work)
        run_cli(["system", "--name", "two-level", "--out", str(work / "warmup.json")])
        return inp

    def round(self, inp: Inputs, index: int, seed: int, tracer, ledger, stats: Stats) -> None:
        latency = cli_pass(inp, tracer, ledger)
        stats.round_wall.append(sum(latency.values()))
        for name, value in latency.items():
            stats.commands.setdefault(name, []).append(value)
        stats.commands.setdefault("design", []).append(sum(latency[c] for c in DESIGN_COMMANDS))


WORKLOADS = {w.name: w for w in (Fig5, MultiControl, PulsePipeline)}
