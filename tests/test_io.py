import csv
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pwmctrl.costmodel import gamma_grid
from pwmctrl.grape import BenchmarkRow
from pwmctrl.io import (
    BENCHMARK_HEADER,
    FileFormatError,
    read_benchmark_csv,
    read_contour_csv,
    read_field_csv,
    read_gamma_grid_csv,
    read_propagator_csv,
    read_sequence_csv,
    read_spectrum_csv,
    read_system_json,
    read_trace_csv,
    write_benchmark_csv,
    write_contour_csv,
    write_error_order_csv,
    write_field_csv,
    write_gamma_grid_csv,
    write_propagator_csv,
    write_sequence_csv,
    write_spectrum_csv,
    write_system_json,
    write_trace_csv,
)
from pwmctrl.model import build_ten_level_system
from pwmctrl.pwm import PWMSequence, SampledField, Spectrum, spectrum

from conftest import random_hermitian


def random_field(rng, n_controls=2, n_samples=37) -> SampledField:
    return SampledField(
        dt=float(rng.uniform(0.01, 0.2)),
        values=rng.standard_normal((n_controls, n_samples)),
    )


class TestFieldRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        field = random_field(rng)
        path = tmp_path / "field.csv"
        write_field_csv(path, field)
        back = read_field_csv(path)
        assert back.dt == field.dt
        assert np.array_equal(back.values, field.values)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("# dt=0.1\nt,x_1\n0.05,1.0\n")
        with pytest.raises(FileFormatError, match="header"):
            read_field_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("# dt=0.1\nt,u_1\n0.05,1.0\n0.15\n")
        with pytest.raises(FileFormatError):
            read_field_csv(path)

    def test_rejects_off_midpoint_grid(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("# dt=0.1\nt,u_1\n0.0,1.0\n0.1,2.0\n")
        with pytest.raises(FileFormatError, match="midpoint"):
            read_field_csv(path)

    def test_infers_dt_when_comment_is_absent(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("t,u_1\n0.05,1.0\n0.15,2.0\n")
        field = read_field_csv(path)
        assert field.dt == pytest.approx(0.1, rel=1e-12)
        assert np.array_equal(field.values, [[1.0, 2.0]])

    def test_rejects_non_numeric_cell(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("# dt=0.1\nt,u_1\n0.05,oops\n")
        with pytest.raises(FileFormatError, match="numeric"):
            read_field_csv(path)


class TestSequenceRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        seq = PWMSequence(
            tau=float(rng.uniform(0.05, 0.3)),
            amplitudes=rng.uniform(0.5, 2.0, size=2),
            widths=rng.uniform(-0.04, 0.04, size=(2, 25)),
        )
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, seq)
        back = read_sequence_csv(path)
        assert back.tau == seq.tau
        assert np.array_equal(back.amplitudes, seq.amplitudes)
        assert np.array_equal(back.widths, seq.widths)

    def test_rejects_amplitude_count_mismatch(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text(
            "# tau=0.1\n# xi=1.0\nm,t_center,w_1,w_2\n1,0.05,0.01,0.02\n"
        )
        with pytest.raises(FileFormatError, match="xi"):
            read_sequence_csv(path)

    def test_rejects_missing_tau(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("# xi=1.0\nm,t_center,w_1\n1,0.05,0.01\n")
        with pytest.raises(FileFormatError, match="tau"):
            read_sequence_csv(path)


class TestSpectrumRoundTrip:
    @pytest.mark.parametrize("n_samples", [255, 256])
    def test_bit_exact_including_energy(self, tmp_path, rng, n_samples):
        field = SampledField(dt=0.01, values=rng.standard_normal((1, n_samples)))
        spec = spectrum(field, 0)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        back = read_spectrum_csv(path)
        assert np.array_equal(back.omega, spec.omega)
        assert np.array_equal(back.magnitude, spec.magnitude)
        assert np.array_equal(back.phase, spec.phase)
        assert back.duration == spec.duration
        assert back.n_samples == spec.n_samples
        assert back.energy() == spec.energy()

    def test_rejects_missing_duration(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# n_samples=4\nomega,magnitude,phase\n0.0,1.0,0.0\n")
        with pytest.raises(FileFormatError, match="duration"):
            read_spectrum_csv(path)


class TestPropagatorRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        from pwmctrl.propagate import expm_hermitian

        u = expm_hermitian(random_hermitian(5, rng), 0.7)
        path = tmp_path / "u.csv"
        write_propagator_csv(path, u)
        assert np.array_equal(read_propagator_csv(path), u)

    def test_rejects_duplicate_entry(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("i,j,re,im\n0,0,1.0,0.0\n0,0,1.0,0.0\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            read_propagator_csv(path)

    def test_rejects_non_square_index_set(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("i,j,re,im\n0,0,1.0,0.0\n0,1,0.0,0.0\n1,0,0.0,0.0\n")
        with pytest.raises(FileFormatError):
            read_propagator_csv(path)


class TestSystemJson:
    def test_round_trip_ten_level(self, tmp_path):
        system = build_ten_level_system()
        path = tmp_path / "system.json"
        write_system_json(path, system)
        back = read_system_json(path)
        assert back.dim == system.dim
        assert np.array_equal(back.drift, system.drift)
        assert len(back.controls) == len(system.controls)
        for a, b in zip(back.controls, system.controls):
            assert np.array_equal(a, b)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            read_system_json(path)

    def test_rejects_wrong_matrix_shape(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(
            '{"dim": 2, "drift": [[[1.0, 0.0]]], "controls": []}'
        )
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            read_system_json(path)

    @pytest.mark.parametrize(
        "dim, cell",
        [('"two"', "0.0"), ("2", '"a"'), ("2.7", "0.0"), ('"2"', "0.0")],
        ids=["non-integer-dim", "non-numeric-cell", "fractional-dim", "string-dim"],
    )
    def test_rejects_malformed_values_naming_the_file(self, tmp_path, dim, cell):
        path = tmp_path / "system.json"
        row = f"[[1.0, {cell}], [0.0, 0.0]]"
        path.write_text(
            f'{{"dim": {dim}, "drift": [{row}, {row}], "controls": [[{row}, {row}]]}}'
        )
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            read_system_json(path)


_SEQUENCE_ROWS = "m,t_center,w_1\n1,0.05,0.01\n"
_SPECTRUM_ROWS = "omega,magnitude,phase\n0.0,1.0,0.0\n"


@pytest.mark.parametrize("reader, text", [
    pytest.param(read_sequence_csv, "# tau=abc\n# xi=1.0\n" + _SEQUENCE_ROWS, id="sequence-tau"),
    pytest.param(read_sequence_csv, "# tau=0.1\n# xi=x\n" + _SEQUENCE_ROWS, id="sequence-xi"),
    pytest.param(read_sequence_csv, "# tau=0.1\n# xi=1.0\nm,foo,bar\n1,0.05,0.01\n",
                 id="sequence-header"),
    pytest.param(read_field_csv, "# dt=abc\nt,u_1\n0.05,1.0\n", id="field-dt"),
    pytest.param(read_field_csv, "# dt=nan\nt,u_1\n0.05,1.0\n", id="field-nan-dt"),
    pytest.param(read_spectrum_csv, "# duration=abc\n# n_samples=1\n" + _SPECTRUM_ROWS,
                 id="spectrum-duration"),
    pytest.param(read_spectrum_csv, "# duration=1.0\n# n_samples=1.5\n" + _SPECTRUM_ROWS,
                 id="spectrum-n-samples"),
])
def test_malformed_comment_or_header_names_the_file(tmp_path, reader, text):
    """A FileFormatError whose message starts with the path, never a bare ValueError."""
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(FileFormatError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: ")


class TestBenchmarkRoundTrip:
    def test_round_trip(self, tmp_path):
        rows = (
            BenchmarkRow(0, "pwm", 7, 4.2e-4, 0.31, True),
            BenchmarkRow(0, "pwc", 9, 9.9e-4, 0.74, True),
            BenchmarkRow(1, "pwm", 50, 2.5e-2, 1.20, False),
        )
        path = tmp_path / "bench.csv"
        write_benchmark_csv(path, rows)
        back = read_benchmark_csv(path)
        assert tuple(back) == rows

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bench.csv"
        path.write_text("run,scheme\n0,pwm\n")
        with pytest.raises(FileFormatError, match="header"):
            read_benchmark_csv(path)


class TestTraceRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        trace = np.sort(rng.uniform(1e-4, 1.0, size=12))[::-1]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        assert np.array_equal(read_trace_csv(path), trace)


class TestGammaGridRoundTrip:
    def test_bit_exact_flat_columns(self, tmp_path):
        grid = gamma_grid(1, dims=np.array([4, 10, 30]), orders=np.array([2, 8]))
        path = tmp_path / "grid.csv"
        write_gamma_grid_csv(path, grid)
        dims, orders, values = read_gamma_grid_csv(path)
        assert np.array_equal(dims, np.repeat(grid.dims, grid.orders.size))
        assert np.array_equal(orders, np.tile(grid.orders, grid.dims.size))
        assert np.array_equal(values, grid.values.ravel())

    def test_contour_round_trip_with_undefined_entries(self, tmp_path):
        dims = np.array([2, 10])
        boundary = np.array([np.nan, 12.25])
        path = tmp_path / "contour.csv"
        write_contour_csv(path, dims, boundary)
        dims_back, boundary_back = read_contour_csv(path)
        assert np.array_equal(dims_back, dims)
        assert np.isnan(boundary_back[0])
        assert boundary_back[1] == boundary[1]


_SHORT_TABLES = {
    "benchmark": (read_benchmark_csv, ",".join(BENCHMARK_HEADER) + "\n0,pwm,7,0.1,0.3,1\n"),
    "trace": (read_trace_csv, "iteration,objective\n0,1.0\n"),
    "gamma_grid": (read_gamma_grid_csv, "N,p,gamma\n4,2,0.5\n"),
    "contour": (read_contour_csv, "N,p_boundary\n4,\n"),
}


@pytest.mark.parametrize("kind", sorted(_SHORT_TABLES))
@pytest.mark.parametrize("last, message", [
    pytest.param(lambda cells: cells[:1], "data row 2 has 1 cells", id="short-row"),
    pytest.param(lambda cells: ["oops"] + cells[1:], "bad cell in data row 2", id="non-numeric"),
])
def test_table_readers_name_the_file_on_a_bad_row(tmp_path, kind, last, message):
    """A second data row, copied from the first with one defect, raises a
    FileFormatError naming the file (never a raw IndexError or ValueError)."""
    reader, text = _SHORT_TABLES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    reader(path)
    good_row = text.splitlines()[-1]
    path.write_text(text + ",".join(last(good_row.split(","))) + "\n")
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        reader(path)


# ------------------------------------------------------------- byte layout
#
# The writers build whole tables at once.  The references below are the
# former per-row writers, one ``csv.writer.writerow`` per row and ``repr`` per
# cell; every writer must match them byte for byte.


def _ref_fmt(x) -> str:
    return repr(float(x))


def _ref_field(path, field):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        handle.write(f"# dt={_ref_fmt(field.dt)}\n")
        writer.writerow(["t"] + [f"u_{k + 1}" for k in range(field.n_controls)])
        for i, t in enumerate(field.times):
            writer.writerow([_ref_fmt(t)] + [_ref_fmt(v) for v in field.values[:, i]])


def _ref_sequence(path, seq):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        handle.write(f"# tau={_ref_fmt(seq.tau)}\n")
        handle.write("# xi=" + ";".join(_ref_fmt(x) for x in seq.amplitudes) + "\n")
        writer.writerow(["m", "t_center"] + [f"w_{k + 1}" for k in range(seq.n_controls)])
        for m in range(seq.n_pulses):
            writer.writerow(
                [str(m + 1), _ref_fmt(seq.centers[m])] + [_ref_fmt(w) for w in seq.widths[:, m]]
            )


def _ref_spectrum(path, spec):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        handle.write(f"# duration={_ref_fmt(spec.duration)}\n")
        handle.write(f"# n_samples={spec.n_samples}\n")
        writer.writerow(["omega", "magnitude", "phase"])
        for i in range(spec.omega.size):
            writer.writerow(
                [_ref_fmt(spec.omega[i]), _ref_fmt(spec.magnitude[i]), _ref_fmt(spec.phase[i])]
            )


def _ref_propagator(path, u):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["i", "j", "re", "im"])
        for i in range(u.shape[0]):
            for j in range(u.shape[1]):
                writer.writerow([str(i), str(j), _ref_fmt(u[i, j].real), _ref_fmt(u[i, j].imag)])


def _ref_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


SPECIAL_FINITE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1 / 3]
FINITE = st.one_of(
    st.sampled_from(SPECIAL_FINITE),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6).map(float),
)
# float("nan") is the NaN that "nan" reads back as; other payloads do not round-trip
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([float("nan"), float("inf"), float("-inf")]))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def _tables(draw, elements, max_rows: int = 12, max_columns: int = 3) -> np.ndarray:
    k = draw(st.integers(1, max_columns))
    n = draw(st.integers(1, max_rows))
    return np.array(draw(st.lists(elements, min_size=k * n, max_size=k * n))).reshape(k, n)


@st.composite
def _sequences(draw) -> PWMSequence:
    tau = draw(st.one_of(st.sampled_from([0.1, 1.0, 3.0, 5e-324, 1e300]),
                         st.floats(1e-6, 1e3)))
    within = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, tau, -tau]),
        st.floats(-tau, tau),
    )
    widths = draw(_tables(within))
    xi = draw(st.lists(st.one_of(st.sampled_from([5e-324, 1.0, 2.0, 1e308]),
                                 st.floats(1e-300, 1e300)),
                       min_size=widths.shape[0], max_size=widths.shape[0]))
    return PWMSequence(tau=tau, amplitudes=xi, widths=widths)


@st.composite
def _spectra(draw) -> Spectrum:
    rows = draw(st.integers(1, 12))
    column = st.lists(ANY_FLOAT, min_size=rows, max_size=rows)
    magnitude = [abs(x) for x in draw(column)]
    return Spectrum(
        omega=draw(column), magnitude=magnitude, phase=draw(column),
        duration=draw(ANY_FLOAT), n_samples=2 * (rows - 1) + draw(st.integers(0, 1)),
    )


class TestByteLayout:
    @given(values=_tables(FINITE), dt=st.one_of(st.sampled_from([1.0, 0.5, 2.0]),
                                                 st.floats(1e-6, 1e3)))
    def test_field_matches_row_writer(self, tmp_path_factory, values, dt):
        field = SampledField(dt=dt, values=values)
        path, ref = self._paths(tmp_path_factory)
        write_field_csv(path, field)
        _ref_field(ref, field)
        assert path.read_bytes() == ref.read_bytes()
        back = read_field_csv(path)
        assert back.dt == field.dt and _same_bits(back.values, field.values)
        write_field_csv(ref, back)
        assert ref.read_bytes() == path.read_bytes()
        assert _same_bits(read_field_csv(ref).values, back.values)

    @given(seq=_sequences())
    def test_sequence_matches_row_writer(self, tmp_path_factory, seq):
        path, ref = self._paths(tmp_path_factory)
        write_sequence_csv(path, seq)
        _ref_sequence(ref, seq)
        assert path.read_bytes() == ref.read_bytes()
        back = read_sequence_csv(path)
        assert back.tau == seq.tau
        assert _same_bits(back.amplitudes, seq.amplitudes)
        assert _same_bits(back.widths, seq.widths)
        write_sequence_csv(ref, back)
        assert ref.read_bytes() == path.read_bytes()
        assert _same_bits(read_sequence_csv(ref).widths, back.widths)

    @given(spec=_spectra())
    def test_spectrum_matches_row_writer(self, tmp_path_factory, spec):
        path, ref = self._paths(tmp_path_factory)
        write_spectrum_csv(path, spec)
        _ref_spectrum(ref, spec)
        assert path.read_bytes() == ref.read_bytes()
        back = read_spectrum_csv(path)
        for name in ("omega", "magnitude", "phase"):
            assert _same_bits(getattr(back, name), getattr(spec, name))
        assert _same_bits(back.duration, spec.duration) and back.n_samples == spec.n_samples
        write_spectrum_csv(ref, back)
        assert ref.read_bytes() == path.read_bytes()

    @given(parts=st.integers(1, 5).flatmap(
        lambda n: st.lists(ANY_FLOAT, min_size=2 * n * n, max_size=2 * n * n)))
    def test_propagator_matches_row_writer(self, tmp_path_factory, parts):
        n = int(round((len(parts) // 2) ** 0.5))
        u = np.empty((n, n), dtype=np.complex128)
        u.real = np.reshape(parts[: n * n], (n, n))
        u.imag = np.reshape(parts[n * n :], (n, n))
        path, ref = self._paths(tmp_path_factory)
        write_propagator_csv(path, u)
        _ref_propagator(ref, u)
        assert path.read_bytes() == ref.read_bytes()
        back = read_propagator_csv(path)
        assert _same_bits(back, u)
        write_propagator_csv(ref, back)
        assert ref.read_bytes() == path.read_bytes()

    def test_real_and_integer_propagators_are_written_as_complex(self, tmp_path):
        for u in (np.array([[1, 0], [0, -1]]), np.array([[-0.0, 0.5], [2.0, 1.0]])):
            write_propagator_csv(tmp_path / "u.csv", u)
            _ref_propagator(tmp_path / "ref.csv", u)
            assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @given(values=st.lists(ANY_FLOAT, min_size=1, max_size=12))
    def test_small_tables_match_row_writer(self, tmp_path_factory, values):
        path, ref = self._paths(tmp_path_factory)
        write_trace_csv(path, values)
        _ref_rows(ref, ["iteration", "objective"],
                  [[str(i), _ref_fmt(v)] for i, v in enumerate(values)])
        assert path.read_bytes() == ref.read_bytes()
        fit = SimpleNamespace(taus=tuple(values), errors=tuple(values[::-1]))
        write_error_order_csv(path, fit)
        _ref_rows(ref, ["tau", "error"], [[repr(t), repr(e)] for t, e in zip(fit.taus, fit.errors)])
        assert path.read_bytes() == ref.read_bytes()

    def test_gamma_grid_matches_row_writer(self, tmp_path):
        grid = gamma_grid(2, dims=np.array([4, 10, 30]), orders=np.array([2, 8]))
        write_gamma_grid_csv(tmp_path / "grid.csv", grid)
        _ref_rows(tmp_path / "ref.csv", ["N", "p", "gamma"], [
            [str(int(n)), str(int(p)), _ref_fmt(grid.values[i, j])]
            for i, n in enumerate(grid.dims) for j, p in enumerate(grid.orders)
        ])
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @given(values=st.lists(ANY_FLOAT, max_size=8))
    @example(values=[])
    @example(values=[-0.0, float("nan"), 0.25])
    def test_benchmark_matches_row_writer(self, tmp_path_factory, values):
        rows = [
            BenchmarkRow(i // 2, ("pwm", "pwc")[i % 2], 7 * i, v, values[-1 - i], i % 3 == 0)
            for i, v in enumerate(values)
        ]
        path, ref = self._paths(tmp_path_factory)
        write_benchmark_csv(path, iter(rows))
        _ref_rows(ref, BENCHMARK_HEADER, [
            [str(r.run), r.scheme, str(r.iterations), _ref_fmt(r.final_j),
             _ref_fmt(r.wall_seconds), str(int(r.converged))]
            for r in rows
        ])
        assert path.read_bytes() == ref.read_bytes()

    @given(boundary=st.lists(ANY_FLOAT, max_size=8))
    @example(boundary=[])
    @example(boundary=[-0.0, float("nan"), 12.25])
    def test_contour_matches_row_writer(self, tmp_path_factory, boundary):
        dims = np.arange(2, 2 + len(boundary)) ** 2
        path, ref = self._paths(tmp_path_factory)
        write_contour_csv(path, dims, boundary)
        _ref_rows(ref, ["N", "p_boundary"], [
            [str(int(n)), "" if np.isnan(b) else _ref_fmt(b)] for n, b in zip(dims, boundary)
        ])
        assert path.read_bytes() == ref.read_bytes()

    @staticmethod
    def _paths(tmp_path_factory):
        base = tmp_path_factory.getbasetemp()
        return base / "bytes_new.csv", base / "bytes_ref.csv"


class TestReaderAtDepth:
    """A bad last row of a 10,000-row table is reported as a bad first row is."""

    ROWS = 10_000

    def _field_text(self, last: str) -> str:
        rows = [f"{(i + 0.5) * 0.1!r},{i % 7 - 3.0!r}" for i in range(self.ROWS - 1)]
        return "# dt=0.1\nt,u_1\n" + "\n".join(rows + [last]) + "\n"

    def _sequence_text(self, last: str) -> str:
        rows = [f"{i + 1},{(i + 0.5) * 0.1!r},0.01" for i in range(self.ROWS - 1)]
        return "# tau=0.1\n# xi=1.0\nm,t_center,w_1\n" + "\n".join(rows + [last]) + "\n"

    def _spectrum_text(self, last: str) -> str:
        rows = [f"{float(i)!r},1.0,0.0" for i in range(self.ROWS - 1)]
        return (f"# duration=1.0\n# n_samples={2 * (self.ROWS - 1)}\nomega,magnitude,phase\n"
                + "\n".join(rows + [last]) + "\n")

    @pytest.mark.parametrize("kind, reader, last, message", [
        ("field", read_field_csv, "999.95", "ragged or empty table"),
        ("field", read_field_csv, "999.95,1.0,2.0", "ragged or empty table"),
        ("field", read_field_csv, "999.95,oops",
         "non-numeric cell (could not convert string to float: 'oops')"),
        ("sequence", read_sequence_csv, "10000,999.95", "ragged or empty table"),
        ("sequence", read_sequence_csv, "10000,999.95,",
         "non-numeric cell (could not convert string to float: '')"),
        ("spectrum", read_spectrum_csv, "9999.0,1.0", "ragged or empty table"),
        ("spectrum", read_spectrum_csv, "9999.0,1.0,0x1",
         "non-numeric cell (could not convert string to float: '0x1')"),
    ])
    def test_bad_last_row_of_a_long_table(self, tmp_path, kind, reader, last, message):
        path = tmp_path / f"{kind}.csv"
        path.write_text(getattr(self, f"_{kind}_text")(last))
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
            reader(path)

    @pytest.mark.parametrize("last, index", [("0,0", "(0, 0)"), ("100,0", "(100, 0)"),
                                             ("99,-1", "(99, -1)")])
    def test_bad_last_propagator_index(self, tmp_path, last, index):
        rows = [f"{i},{j},1.0,-0.0" for i in range(100) for j in range(100)][:-1]
        path = tmp_path / "u.csv"
        path.write_text("i,j,re,im\n" + "\n".join(rows + [last + ",0.5,0.5"]) + "\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: bad or duplicate index {index}")):
            read_propagator_csv(path)

    def test_first_bad_propagator_row_is_reported(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("i,j,re,im\n0,2,0,0\n1,0,0,0\n1,0,0,0\n1,1,0,0\n")
        with pytest.raises(FileFormatError, match=re.escape("bad or duplicate index (0, 2)")):
            read_propagator_csv(path)

    def test_comments_after_the_table_are_still_read(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text('t,u_1\n0.05,1.0\n"# dt=0.1"\n\n0.15,2.0\n  # note=a#b\n')
        field = read_field_csv(path)
        assert field.dt == 0.1
        assert np.array_equal(field.values, [[1.0, 2.0]])
