"""CSV/JSON readers and writers for every artifact the toolkit emits.

Byte layout of every CSV file: optional ``# key=value`` comment lines, each
ending in ``\n``, then a header row and the data rows, each ending in
``\r\n`` (the ``excel`` dialect of :mod:`csv`).  Floating-point cells are
written with ``repr``, i.e. the shortest decimal string that round-trips to
the same double, so reading a file back reproduces the numbers bit-exactly;
integer cells are plain decimals.  Complex matrices are stored as
``[re, im]`` pairs (JSON) or ``re``/``im`` columns (CSV).

Readers accept quoted cells, blank lines and comment lines anywhere (they
parse with :mod:`csv`) and read numeric cells by Python's ``float`` and
``int`` rules.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from pathlib import Path

import numpy as np

from .costmodel import GammaGrid
from .model import ControlSystem
from .pwm import PWMSequence, SampledField, Spectrum, _check_int

__all__ = [
    "read_benchmark_csv",
    "read_contour_csv",
    "read_field_csv",
    "read_gamma_grid_csv",
    "read_propagator_csv",
    "read_sequence_csv",
    "read_spectrum_csv",
    "read_system_json",
    "read_trace_csv",
    "write_benchmark_csv",
    "write_contour_csv",
    "write_error_order_csv",
    "write_field_csv",
    "write_gamma_grid_csv",
    "write_propagator_csv",
    "write_sequence_csv",
    "write_spectrum_csv",
    "write_system_json",
    "write_trace_csv",
]


class FileFormatError(ValueError):
    """The file exists but does not match the expected layout."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_table(path, columns: dict, comments=()) -> None:
    """``# comment`` lines, a header of the column names and one row per entry.

    Integer columns are written as plain decimals, string columns as they are
    (their cells must need no quoting) and every other column as the ``repr``
    of its float64 values, byte for byte as ``csv.writer`` writes them; each
    column becomes Python scalars with one ``tolist``.
    """
    cells = [
        (col if col.dtype.kind in "iuU" else col.astype(np.float64)).tolist()
        for col in map(np.asarray, columns.values())
    ]
    row = ",".join(["{}"] * len(cells)) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.writelines(f"# {line}\n" for line in comments)
        handle.write(",".join(columns) + "\r\n")
        handle.write("".join(map(row.format, *cells)))


def _read_rows(path) -> tuple[dict[str, str], list[list[str]]]:
    """The ``# key=value`` comments and the other non-blank rows of a CSV file."""
    with open(path, newline="") as handle:
        text = handle.read()
    rows = [row for row in csv.reader(StringIO(text, newline="")) if row]
    return _split_comments(rows, text.count("#"))


def _split_comments(
    rows: list[list[str]], hashes: int
) -> tuple[dict[str, str], list[list[str]]]:
    """Comment rows (first cell starts with ``#``) parsed into a dict, and the rest.

    ``hashes`` counts the ``#`` characters of the file; once the rows seen
    hold all of them, no later row can be a comment and the scan stops.
    """
    meta: dict[str, str] = {}
    body: list[list[str]] = []
    for index, row in enumerate(rows):
        if not hashes:
            return meta, body + rows[index:]
        line = ",".join(row)
        hashes -= line.count("#")
        if row[0].strip().startswith("#"):
            for cell in line.lstrip("#").split(","):
                if "=" in cell:
                    key, value = cell.split("=", 1)
                    meta[key.strip()] = value.strip()
        else:
            body.append(row)
    return meta, body


def _comment(meta: dict[str, str], key: str, parse, path):
    """The ``# key=`` comment read by ``parse``; a ``FileFormatError`` if missing or rejected."""
    try:
        return parse(meta[key])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: missing or bad '# {key}=' comment ({exc})") from exc


def _require_header(
    body: list[list[str]], expected: list[str], path, name: str = ""
) -> list[list[str]]:
    """The rows under the header ``expected``; at least one if ``name`` names the table."""
    if not body or [c.strip() for c in body[0]] != expected:
        raise FileFormatError(
            f"{path}: expected header {','.join(expected)}"
        )
    if name and len(body) == 1:
        raise FileFormatError(f"{path}: empty {name}")
    return body[1:]


def _parse_rows(rows: list[list[str]], parsers, path) -> list[tuple]:
    """Each row's cells parsed by ``parsers``, one per column.

    Raises :class:`FileFormatError` naming the file on a row of another
    width or a cell its parser rejects.
    """
    out = []
    for number, row in enumerate(rows, 1):
        if len(row) != len(parsers):
            raise FileFormatError(
                f"{path}: data row {number} has {len(row)} cells, expected {len(parsers)}"
            )
        try:
            out.append(tuple(parse(cell) for parse, cell in zip(parsers, row)))
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad cell in data row {number} ({exc})") from exc
    return out


def _float_table(rows: list[list[str]], width: int, path) -> np.ndarray:
    if not rows or set(map(len, rows)) != {width}:
        raise FileFormatError(f"{path}: ragged or empty table")
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise FileFormatError(f"{path}: non-numeric cell ({exc})") from exc


# ---------------------------------------------------------------- fields

def write_field_csv(path, field: SampledField) -> None:
    """Midpoint-sampled field as ``t,u_1,...,u_K`` rows (dt in a comment)."""
    columns = {"t": field.times}
    columns.update((f"u_{k + 1}", u) for k, u in enumerate(field.values))
    _write_table(path, columns, [f"dt={_fmt(field.dt)}"])


def read_field_csv(path) -> SampledField:
    """Rebuild a sampled field; the grid must be uniform midpoints.

    The ``# dt=`` comment, when present, pins the cell width exactly;
    otherwise it is inferred from the time column.
    """
    meta, body = _read_rows(path)
    n_controls = len(body[0]) - 1 if body else 0
    if n_controls < 1:
        raise FileFormatError(f"{path}: no control columns")
    rows = _require_header(body, ["t"] + [f"u_{k + 1}" for k in range(n_controls)], path)
    data = _float_table(rows, n_controls + 1, path)
    t = data[:, 0]
    if "dt" in meta:
        dt = _comment(meta, "dt", float, path)
    elif t.size == 1:
        dt = 2 * t[0]
    else:
        dt = t[1] - t[0]
    if not (dt > 0 and np.isfinite(dt)):
        raise FileFormatError(f"{path}: time step {float(dt)!r} is not positive and finite")
    expected = (np.arange(t.size) + 0.5) * dt
    if np.any(np.abs(t - expected) > 1e-9 * max(dt, 1.0)):
        raise FileFormatError(f"{path}: time grid is not uniform midpoints")
    return SampledField(dt=float(dt), values=data[:, 1:].T.copy())


# --------------------------------------------------------------- sequences

def write_sequence_csv(path, seq: PWMSequence) -> None:
    """Pulse widths as ``m,t_center,w_1,...`` with tau and xi in comments."""
    columns = {"m": np.arange(1, seq.n_pulses + 1), "t_center": seq.centers}
    columns.update((f"w_{k + 1}", w) for k, w in enumerate(seq.widths))
    comments = [f"tau={_fmt(seq.tau)}", "xi=" + ";".join(_fmt(x) for x in seq.amplitudes)]
    _write_table(path, columns, comments)


def read_sequence_csv(path) -> PWMSequence:
    meta, body = _read_rows(path)
    tau = _comment(meta, "tau", float, path)
    xi = np.array(_comment(meta, "xi", lambda value: [float(x) for x in value.split(";")], path))
    n_controls = len(body[0]) - 2 if body else 0
    header = ["m", "t_center"] + [f"w_{k + 1}" for k in range(max(n_controls, 1))]
    rows = _require_header(body, header, path)
    if n_controls != xi.size:
        raise FileFormatError(f"{path}: xi lists {xi.size} controls, table has {n_controls}")
    data = _float_table(rows, n_controls + 2, path)
    return PWMSequence(tau=tau, amplitudes=xi, widths=data[:, 2:].T.copy())


# ---------------------------------------------------------------- spectra

def write_spectrum_csv(path, spec: Spectrum) -> None:
    columns = {"omega": spec.omega, "magnitude": spec.magnitude, "phase": spec.phase}
    _write_table(path, columns, [f"duration={_fmt(spec.duration)}", f"n_samples={spec.n_samples}"])


def read_spectrum_csv(path) -> Spectrum:
    meta, body = _read_rows(path)
    duration = _comment(meta, "duration", float, path)
    rows = _require_header(body, ["omega", "magnitude", "phase"], path)
    data = _float_table(rows, 3, path)
    n_samples = _comment(meta, "n_samples", int, path) if "n_samples" in meta else None
    return Spectrum(
        omega=data[:, 0],
        magnitude=data[:, 1],
        phase=data[:, 2],
        duration=duration,
        n_samples=n_samples,
    )


# ------------------------------------------------------------- propagators

def write_propagator_csv(path, u: np.ndarray) -> None:
    """Dense complex matrix as ``i,j,re,im`` rows (row-major)."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("propagator must be a square matrix")
    u = u.astype(np.complex128)
    i, j = np.indices(u.shape).reshape(2, -1)
    _write_table(path, {"i": i, "j": j, "re": u.real.ravel(), "im": u.imag.ravel()})


def read_propagator_csv(path) -> np.ndarray:
    rows = _require_header(_read_rows(path)[1], ["i", "j", "re", "im"], path, "propagator table")
    n = int(round(len(rows) ** 0.5))
    if n * n != len(rows):
        raise FileFormatError(f"{path}: {len(rows)} entries do not form a square matrix")
    values = _float_table(rows, 4, path)
    try:
        i, j = np.array(list(zip(*rows))[:2], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: bad index cell ({exc})") from exc
    # the first row whose index is out of range or already seen
    inside = (0 <= i) & (i < n) & (0 <= j) & (j < n)
    first = np.zeros(i.size, dtype=bool)
    first[np.unique(i * n + j, return_index=True)[1]] = True
    bad = ~(inside & first)
    if bad.any():
        row = bad.argmax()
        raise FileFormatError(f"{path}: bad or duplicate index ({i[row]}, {j[row]})")
    u = np.zeros((n, n), dtype=np.complex128)
    u.real[i, j] = values[:, 2]
    u.imag[i, j] = values[:, 3]
    return u


# ---------------------------------------------------------------- systems

def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _matrix_from_json(data, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape != (dim, dim, 2):
        raise FileFormatError(f"{what} must be a {dim}x{dim} matrix of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def write_system_json(path, system: ControlSystem) -> None:
    payload = {
        "dim": system.dim,
        "drift": _matrix_to_json(system.drift),
        "controls": [_matrix_to_json(h) for h in system.controls],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_system_json(path) -> ControlSystem:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        dim = _check_int(payload["dim"], "dim", 1)
        drift = _matrix_from_json(payload["drift"], dim, "drift")
        controls = tuple(
            _matrix_from_json(c, dim, f"controls[{i}]")
            for i, c in enumerate(payload["controls"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: missing or malformed field ({exc})") from exc
    if not controls:
        raise FileFormatError(f"{path}: at least one control matrix is required")
    return ControlSystem(drift=drift, controls=controls)


# --------------------------------------------------------------- benchmark

BENCHMARK_HEADER = ["run", "scheme", "iterations", "final_J", "wall_seconds", "converged"]


def write_benchmark_csv(path, rows) -> None:
    """Benchmark rows; accepts any iterable of BenchmarkRow-like objects."""
    cells = [
        (r.run, r.scheme, r.iterations, float(r.final_j), float(r.wall_seconds), int(r.converged))
        for r in rows
    ]
    columns = zip(*cells) if cells else [()] * len(BENCHMARK_HEADER)
    _write_table(path, dict(zip(BENCHMARK_HEADER, columns)))


def read_benchmark_csv(path):
    from .grape import BenchmarkRow

    rows = _require_header(_read_rows(path)[1], BENCHMARK_HEADER, path)
    return [
        BenchmarkRow(run, scheme, iterations, final_j, wall_seconds, bool(converged))
        for run, scheme, iterations, final_j, wall_seconds, converged
        in _parse_rows(rows, (int, str, int, float, float, int), path)
    ]


# ------------------------------------------------------------ optimization

def write_trace_csv(path, trace) -> None:
    """Objective trace as ``iteration,objective`` rows (iteration 0 = start)."""
    trace = np.asarray(trace, dtype=float)
    _write_table(path, {"iteration": np.arange(trace.size), "objective": trace})


def write_error_order_csv(path, fit) -> None:
    """Single-step errors of an :class:`~pwmctrl.propagate.ErrorOrderFit` as ``tau,error`` rows."""
    _write_table(path, {"tau": fit.taus, "error": fit.errors})


def read_trace_csv(path) -> np.ndarray:
    rows = _require_header(_read_rows(path)[1], ["iteration", "objective"], path, "trace")
    return np.array([objective for _, objective in _parse_rows(rows, (int, float), path)])


# -------------------------------------------------------------- cost grids

def write_gamma_grid_csv(path, grid: GammaGrid) -> None:
    dims, orders = (np.asarray(a).astype(np.int64) for a in (grid.dims, grid.orders))
    columns = {
        "N": np.repeat(dims, orders.size),
        "p": np.tile(orders, dims.size),
        "gamma": np.ravel(grid.values),
    }
    _write_table(path, columns)


def read_gamma_grid_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (N, p, gamma) columns as flat arrays."""
    rows = _require_header(_read_rows(path)[1], ["N", "p", "gamma"], path, "grid")
    n, p, g = map(np.asarray, zip(*_parse_rows(rows, (int, int, float), path)))
    return n, p, g


def write_contour_csv(path, dims, boundary) -> None:
    """Equal-cost boundary ``N,p_boundary`` (blank cell where undefined)."""
    cells = ["" if np.isnan(b) else _fmt(b) for b in np.asarray(boundary, dtype=float)]
    _write_table(path, {"N": np.asarray(dims).astype(np.int64), "p_boundary": cells})


def read_contour_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = _require_header(_read_rows(path)[1], ["N", "p_boundary"], path, "contour")
    parsers = (int, lambda cell: float(cell) if cell else np.nan)
    dims, boundary = map(np.array, zip(*_parse_rows(rows, parsers, path)))
    return dims, boundary
