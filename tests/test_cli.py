import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from pwmctrl import cli
from pwmctrl.cli import main
from pwmctrl.grape import GrapeOptions, GrapeProblem, optimize, run_fig5_benchmark
from pwmctrl.model import ControlSystem, basis_state
from pwmctrl.io import (
    read_field_csv,
    read_gamma_grid_csv,
    read_propagator_csv,
    read_sequence_csv,
    read_spectrum_csv,
    read_system_json,
    read_trace_csv,
)
from pwmctrl.propagate import evolve
from pwmctrl.pwm import SampledField, inverse_pwm_pwc, lowpass_reconstruct, pwm_signal
from pwmctrl.io import (
    write_field_csv,
    write_propagator_csv,
    write_spectrum_csv,
    write_system_json,
)

from conftest import random_hermitian


def library_bytes(tmp_path, writer, value) -> bytes:
    """The bytes ``writer`` puts in a file for ``value``: what the command must write."""
    path = tmp_path / "library.out"
    writer(path, value)
    return path.read_bytes()


def write_sine_field(path, n_samples=200, duration=2.0):
    dt = duration / n_samples
    t = (np.arange(n_samples) + 0.5) * dt
    write_field_csv(path, SampledField(dt=dt, values=np.sin(2 * np.pi * t)[None, :]))
    return path


def write_zero_field(path, n_samples=50, duration=5.0):
    dt = duration / n_samples
    write_field_csv(path, SampledField(dt=dt, values=np.zeros((1, n_samples))))
    return path


class TestApproximateAndConfig:
    def test_flag_overrides_config(self, tmp_path, capsys):
        field = write_sine_field(tmp_path / "field.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau": 0.5, "xi": "1.2"}))
        out = tmp_path / "seq.csv"

        assert main([
            "approximate", "--config", str(config),
            "--field", str(field), "--out", str(out),
        ]) == 0
        assert read_sequence_csv(out).tau == 0.5

        assert main([
            "approximate", "--config", str(config), "--tau", "0.25",
            "--field", str(field), "--out", str(out),
        ]) == 0
        seq = read_sequence_csv(out)
        assert seq.tau == 0.25
        assert seq.amplitudes[0] == 1.2
        assert "subintervals" in capsys.readouterr().out

    def test_default_amplitude_exceeds_field_peak(self, tmp_path):
        field = write_sine_field(tmp_path / "field.csv")
        out = tmp_path / "seq.csv"
        assert main([
            "approximate", "--field", str(field), "--tau", "0.25", "--out", str(out),
        ]) == 0
        seq = read_sequence_csv(out)
        peak = np.max(np.abs(read_field_csv(field).values))
        assert seq.amplitudes[0] > peak


class TestErrorReporting:
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["approximate", "--bogus", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:usage:")

    def test_missing_required_option_is_validation_error(self, tmp_path, capsys):
        field = write_sine_field(tmp_path / "field.csv")
        assert main(["approximate", "--field", str(field)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:validation:")
        assert "--tau" in err

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        assert main([
            "approximate", "--field", str(tmp_path / "nope.csv"),
            "--tau", "0.1", "--out", str(tmp_path / "o.csv"),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:io:")

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main([
            "approximate", "--field", str(bad),
            "--tau", "0.1", "--out", str(tmp_path / "o.csv"),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:io:")

    def test_out_of_range_control_is_validation_error(self, tmp_path, capsys):
        field = write_sine_field(tmp_path / "field.csv")
        assert main([
            "spectrum", "--field", str(field), "--control", "7",
            "--out", str(tmp_path / "s.csv"),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:validation:")


class TestErrorContract:
    def test_linalg_error_is_numeric(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(cli, "evolve", fail)
        field = write_zero_field(tmp_path / "zero.csv")
        assert main([
            "propagate", "--builtin", "two-level", "--field", str(field),
            "--tau", "0.5", "--out", str(tmp_path / "u.csv"),
        ]) == 2
        assert capsys.readouterr().err == "error:numeric:eigh did not converge\n"

    def test_system_and_builtin_together_is_validation_error(self, tmp_path, capsys):
        system_path = tmp_path / "system.json"
        assert main(["system", "--name", "two-level", "--out", str(system_path)]) == 0
        field = write_zero_field(tmp_path / "zero.csv")
        assert main([
            "propagate", "--system", str(system_path), "--builtin", "two-level",
            "--field", str(field), "--out", str(tmp_path / "u.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:validation:")
        assert "not both" in err

    def test_non_finite_system_is_validation_error(self, tmp_path, capsys):
        system_path = tmp_path / "system.json"
        assert main(["system", "--name", "two-level", "--out", str(system_path)]) == 0
        payload = json.loads(system_path.read_text())
        payload["drift"][0][0][0] = float("nan")
        system_path.write_text(json.dumps(payload))
        field = write_zero_field(tmp_path / "zero.csv")
        out = tmp_path / "u.csv"
        assert main([
            "propagate", "--system", str(system_path), "--scheme", "pwm",
            "--field", str(field), "--tau", "0.5", "--xi", "1.0", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:validation:")
        assert "drift has non-finite entries" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, category", [
        pytest.param(None, "io", id="missing"),
        pytest.param("{not json", "io", id="invalid-json"),
        pytest.param("[1, 2]", "validation", id="not-an-object"),
    ])
    def test_config_errors(self, tmp_path, capsys, text, category):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        assert main([
            "system", "--config", str(config), "--out", str(tmp_path / "s.json"),
        ]) == 1
        assert capsys.readouterr().err.startswith(f"error:{category}:")

    @pytest.mark.parametrize("args", [
        pytest.param(["propagate", "--scheme", "pwc", "--tau", "0"], id="pwc-zero-tau"),
        pytest.param(["propagate", "--scheme", "spo", "--tau", "0"], id="spo-zero-tau"),
        pytest.param(["propagate", "--scheme", "pwc", "--tau=-0.5"], id="pwc-negative-tau"),
        pytest.param(["propagate", "--scheme", "spo", "--tau=-0.5"], id="spo-negative-tau"),
        pytest.param(["propagate", "--scheme", "pwm", "--tau", "inf", "--xi", "1"], id="pwm-inf-tau"),
        pytest.param(["approximate", "--tau", "inf"], id="approximate-inf-tau"),
        pytest.param(["signal", "--rate", "inf"], id="signal-inf-rate"),
    ])
    def test_bad_time_grid_is_one_validation_line(self, tmp_path, capsys, args):
        """No traceback and no output file; -0.5 tiles the 5.0-long field, so
        only the sign check stops it from writing the identity."""
        field = write_zero_field(tmp_path / "zero.csv")
        source = ["--field", str(field)]
        if args[0] == "propagate":
            source += ["--builtin", "two-level"]
        if args[0] == "signal":
            seq = tmp_path / "seq.csv"
            assert main(["approximate", *source, "--tau", "0.5", "--out", str(seq)]) == 0
            capsys.readouterr()
            source = ["--sequence", str(seq)]
        out = tmp_path / "out.csv"
        assert main([*args, *source, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:validation:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("taus, shown", [("0.1,0", "0.0"), ("0.1,inf", "inf")])
    def test_bad_error_order_tau_is_one_validation_line(self, capsys, taus, shown):
        """Not the reference's ``t_end`` check, and no numpy warning first
        (a warning fails this test)."""
        assert main(["error-order", "--scheme", "pwc", "--taus", taus]) == 1
        assert capsys.readouterr().err == (
            f"error:validation:tau must be positive and finite, got {shown}\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_repeated_error_order_tau_is_one_validation_line(self, capsys):
        """A slope through one distinct step size is no fit: rejected before any
        propagator, with no numpy warning first (a warning fails this test)."""
        assert main(["error-order", "--scheme", "pwc", "--taus", "0.1,0.1"]) == 1
        assert capsys.readouterr() == (
            "", "error:validation:need at least two tau values to fit a slope, got [0.1]\n")

    def test_error_order_t_start_beyond_the_slice_width_is_one_validation_line(self, capsys):
        """At 1e17 the window's span rounds to 0; the line names the flag, not ``t_end``."""
        assert main(["error-order", "--scheme", "pwc", "--t-start", "1e17"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:validation:--t-start: t_start = 1e+17 ")
        assert err.count("\n") == 1 and "t_end" not in err

    @pytest.mark.parametrize("args, message", [
        pytest.param(["error-order", "--t-start", "inf"], "t_start must be finite",
                     id="error-order-inf-t-start"),
        pytest.param(["optimize", "--builtin", "ten-level", "--initial", "0", "--target", "3",
                      "--total-time", "10", "--tau", "0.1", "--initial-step", "inf"],
                     "initial_step must be positive and finite", id="optimize-inf-initial-step"),
    ])
    def test_non_finite_start_or_step_is_one_validation_line(self, tmp_path, capsys, args,
                                                             message):
        """Named as given; an infinite initial step would never end its line search."""
        assert main([*args, "--out-dir" if args[0] == "optimize" else "--out",
                     str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error:validation:{message}\n"
        assert not (tmp_path / "out").exists()


class TestSignalAndReconstruct:
    @pytest.fixture()
    def sequence_path(self, tmp_path):
        field = write_sine_field(tmp_path / "field.csv")
        seq = tmp_path / "seq.csv"
        main(["approximate", "--field", str(field), "--tau", "0.25",
              "--xi", "1.2", "--out", str(seq)])
        return seq

    def test_gaussian_signal_is_readable_and_bounded(self, tmp_path, sequence_path):
        out = tmp_path / "signal.csv"
        assert main([
            "signal", "--sequence", str(sequence_path), "--kind", "gauss",
            "--rate", "200", "--out", str(out),
        ]) == 0
        signal = read_field_csv(out)
        assert np.max(np.abs(signal.values)) <= 1.2 + 1e-9

    def test_pwc_reconstruction_matches_library(self, tmp_path, sequence_path):
        out = tmp_path / "recon.csv"
        assert main([
            "reconstruct", "--sequence", str(sequence_path), "--mode", "pwc",
            "--out", str(out),
        ]) == 0
        recon = read_field_csv(out)
        expected = inverse_pwm_pwc(read_sequence_csv(sequence_path))
        assert np.array_equal(recon.values, expected.values)

    def test_signal_without_rate_samples_at_512_over_tau(self, tmp_path, sequence_path):
        out = tmp_path / "signal.csv"
        assert main(["signal", "--sequence", str(sequence_path), "--out", str(out)]) == 0
        seq = read_sequence_csv(sequence_path)
        expected = pwm_signal(seq, 0, 512.0 / seq.tau)
        assert out.read_bytes() == library_bytes(tmp_path, write_field_csv, expected)

    def test_lowpass_from_a_sequence_matches_library(self, tmp_path, sequence_path):
        out = tmp_path / "recon.csv"
        assert main([
            "reconstruct", "--sequence", str(sequence_path), "--cutoff", "10",
            "--out", str(out),
        ]) == 0
        seq = read_sequence_csv(sequence_path)
        expected = lowpass_reconstruct(pwm_signal(seq, 0, 512.0 / seq.tau), 10.0)
        assert out.read_bytes() == library_bytes(tmp_path, write_field_csv, expected)

    def test_lowpass_from_a_field_matches_library(self, tmp_path, sequence_path):
        signal, out = tmp_path / "signal.csv", tmp_path / "recon.csv"
        assert main(["signal", "--sequence", str(sequence_path), "--rate", "200",
                     "--out", str(signal)]) == 0
        assert main([
            "reconstruct", "--field", str(signal), "--cutoff", "10", "--out", str(out),
        ]) == 0
        expected = lowpass_reconstruct(read_field_csv(signal), 10.0)
        assert out.read_bytes() == library_bytes(tmp_path, write_field_csv, expected)

    def test_unknown_kind_from_config_is_validation_error(self, tmp_path, sequence_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "triangle"}))
        out = tmp_path / "signal.csv"
        assert main([
            "signal", "--sequence", str(sequence_path), "--config", str(config),
            "--out", str(out),
        ]) == 1
        assert capsys.readouterr() == (
            "", "error:validation:--kind: invalid choice 'triangle' (choose from rect, gauss)\n")
        assert not out.exists()

    def test_lowpass_needs_cutoff(self, tmp_path, sequence_path, capsys):
        assert main([
            "reconstruct", "--sequence", str(sequence_path),
            "--out", str(tmp_path / "r.csv"),
        ]) == 1
        assert "cutoff" in capsys.readouterr().err

    def test_rejects_both_field_and_sequence(self, tmp_path, sequence_path, capsys):
        field = write_sine_field(tmp_path / "f2.csv")
        assert main([
            "reconstruct", "--sequence", str(sequence_path), "--field", str(field),
            "--cutoff", "10", "--out", str(tmp_path / "r.csv"),
        ]) == 1
        assert "exactly one" in capsys.readouterr().err


class TestPropagate:
    def test_pwm_equals_pwc_on_zero_field(self, tmp_path):
        field = write_zero_field(tmp_path / "zero.csv")
        u_paths = {}
        for scheme in ("pwm", "pwc"):
            u_paths[scheme] = tmp_path / f"u_{scheme}.csv"
            assert main([
                "propagate", "--builtin", "two-level", "--scheme", scheme,
                "--field", str(field), "--tau", "0.5", "--xi", "1.0",
                "--out", str(u_paths[scheme]),
            ]) == 0
        u_pwm = read_propagator_csv(u_paths["pwm"])
        u_pwc = read_propagator_csv(u_paths["pwc"])
        assert np.max(np.abs(u_pwm - u_pwc)) < 1e-12

    def test_xi_other_than_the_sequence_amplitudes_is_validation_error(self, tmp_path, capsys):
        field = write_sine_field(tmp_path / "field.csv")
        seq = tmp_path / "seq.csv"
        assert main(["approximate", "--field", str(field), "--tau", "0.25",
                     "--xi", "1.5", "--out", str(seq)]) == 0
        argv = ["propagate", "--builtin", "two-level", "--sequence", str(seq)]
        assert main([*argv, "--xi", "1.5", "--out", str(tmp_path / "u.csv")]) == 0
        capsys.readouterr()
        assert main([*argv, "--xi", "3", "--out", str(tmp_path / "u3.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:validation:amplitudes disagree")

    def test_field_without_tau_is_one_step_over_the_record(self, tmp_path):
        field_path, out = write_sine_field(tmp_path / "field.csv"), tmp_path / "u.csv"
        assert main([
            "propagate", "--builtin", "two-level", "--scheme", "pwc",
            "--field", str(field_path), "--out", str(out),
        ]) == 0
        field = read_field_csv(field_path)
        expected = evolve(cli._BUILTIN["two-level"](), "pwc", field,
                          tau=field.dt * field.n_samples)
        assert out.read_bytes() == library_bytes(tmp_path, write_propagator_csv, expected)

    def test_sequence_of_another_control_count_is_one_validation_line(self, tmp_path, capsys,
                                                                      rng):
        system, seq = tmp_path / "system.json", tmp_path / "seq.csv"
        write_system_json(system, ControlSystem(
            drift=random_hermitian(3, rng),
            controls=(random_hermitian(3, rng), random_hermitian(3, rng)),
        ))
        field = write_sine_field(tmp_path / "field.csv")
        assert main(["approximate", "--field", str(field), "--tau", "0.25",
                     "--out", str(seq)]) == 0
        capsys.readouterr()
        assert main(["propagate", "--system", str(system), "--sequence", str(seq),
                     "--out", str(tmp_path / "u.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error:validation:sequence has 1 controls, system has 2"]
        assert not (tmp_path / "u.csv").exists()

    def test_system_round_trip_through_json(self, tmp_path):
        system_path = tmp_path / "system.json"
        assert main(["system", "--name", "ten-level", "--out", str(system_path)]) == 0
        system = read_system_json(system_path)
        assert system.dim == 10

        field = write_zero_field(tmp_path / "zero.csv", n_samples=10, duration=1.0)
        out = tmp_path / "u.csv"
        assert main([
            "propagate", "--system", str(system_path), "--scheme", "pwc",
            "--field", str(field), "--tau", "0.1", "--out", str(out),
        ]) == 0
        assert read_propagator_csv(out).shape == (10, 10)

    def test_two_level_round_trip_through_json(self, tmp_path):
        system_path = tmp_path / "system.json"
        assert main(["system", "--name", "two-level", "--out", str(system_path)]) == 0
        field = write_sine_field(tmp_path / "field.csv")
        written = []
        for source in (["--system", str(system_path)], ["--builtin", "two-level"]):
            out = tmp_path / f"u_{len(written)}.csv"
            assert main([
                "propagate", *source, "--scheme", "pwm", "--field", str(field),
                "--tau", "0.25", "--xi", "1.2", "--out", str(out),
            ]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestSpectrumCommand:
    def test_writes_readable_spectrum(self, tmp_path):
        field = write_sine_field(tmp_path / "field.csv")
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--field", str(field), "--out", str(out)]) == 0
        spec = read_spectrum_csv(out)
        # the input is a unit sinusoid at 2*pi rad per unit time
        peak = spec.omega[np.argmax(spec.magnitude)]
        assert peak == pytest.approx(2 * np.pi, abs=spec.omega[1])


class TestErrorOrderCommand:
    def test_reports_third_order_slope(self, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        assert main([
            "error-order", "--scheme", "pwm", "--taus", "0.2,0.1,0.05",
            "--resolution", "4000", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        match = re.search(r"slope=([-0-9.]+)", stdout)
        assert match, stdout
        assert 2.7 < float(match.group(1)) < 3.3
        table = out.read_text().splitlines()
        assert table[0] == "tau,error"
        assert len(table) == 4


class TestOptimizeCommand:
    OPTIMIZE_ARGS = [
        "optimize", "--builtin", "two-level", "--initial", "0", "--target", "1",
        "--total-time", "5.0", "--tau", "0.25", "--seed", "7",
    ]

    def test_pwm_writes_sequence_field_and_trace(self, tmp_path, capsys):
        assert main(self.OPTIMIZE_ARGS + ["--out-dir", str(tmp_path)]) == 0
        seq = read_sequence_csv(tmp_path / "optimized_sequence.csv")
        field = read_field_csv(tmp_path / "optimized_field.csv")
        trace = read_trace_csv(tmp_path / "trace.csv")
        assert seq.n_pulses == 20 and field.n_samples == 20
        assert trace[-1] <= 1e-3
        printed = capsys.readouterr().out
        assert "converged=True" in printed
        assert "stop_reason=tolerance" in printed

    def test_prints_evaluations_after_iterations(self, tmp_path, capsys):
        assert main(self.OPTIMIZE_ARGS + ["--out-dir", str(tmp_path)]) == 0
        result = optimize(
            GrapeProblem(
                system=cli._BUILTIN["two-level"](), psi_initial=basis_state(2, 0),
                psi_target=basis_state(2, 1), total_time=5.0, tau=0.25, amplitudes=[1.0],
            ),
            options=GrapeOptions(rng_seed=7),
        )
        expected = f" iterations={result.iterations} evaluations={result.evaluations} "
        assert expected in capsys.readouterr().out
        assert result.evaluations > result.iterations

    def test_same_seed_gives_identical_artifacts(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(self.OPTIMIZE_ARGS + ["--out-dir", str(dir_a)]) == 0
        assert main(self.OPTIMIZE_ARGS + ["--out-dir", str(dir_b)]) == 0
        for name in ("optimized_sequence.csv", "trace.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_pwc_branch_writes_field_only(self, tmp_path):
        assert main(
            self.OPTIMIZE_ARGS
            + ["--scheme", "pwc", "--out-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "optimized_field.csv").exists()
        assert not (tmp_path / "optimized_sequence.csv").exists()
        assert np.all(np.abs(read_field_csv(tmp_path / "optimized_field.csv").values) <= 1.0)

    def test_bad_basis_index_is_validation_error(self, tmp_path, capsys):
        assert main([
            "optimize", "--builtin", "two-level", "--initial", "0", "--target", "5",
            "--total-time", "5.0", "--tau", "0.25", "--out-dir", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:validation:")

    def test_infinite_total_time_is_validation_error(self, tmp_path, capsys):
        assert main([
            "optimize", "--builtin", "two-level", "--initial", "0", "--target", "1",
            "--total-time", "inf", "--tau", "0.1", "--out-dir", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err.startswith("error:validation:")


class TestBenchmarkCommand:
    def test_tiny_run_writes_rows(self, tmp_path, capsys):
        assert main([
            "benchmark-fig5", "--repeats", "1", "--seed", "1",
            "--total-time", "1.0", "--tau", "0.1",
            "--max-iterations", "2", "--out-dir", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "benchmark.csv").read_text().splitlines()
        assert lines[0] == "run,scheme,iterations,final_J,wall_seconds,converged"
        assert len(lines) == 3
        out = capsys.readouterr().out.splitlines()
        # two iterations converge neither run: the medians are NaN, without a unit
        assert out[0] == "converged pwm=0/1 pwc=0/1"
        assert out[1] == "median_wall pwm=nan pwc=nan ratio=nan"

    def test_converged_run_writes_the_library_spectrum(self, tmp_path, capsys):
        """One full-size fig5 pair converges, and the optimized field's
        spectrum file holds the library's bytes."""
        assert main([
            "benchmark-fig5", "--repeats", "1", "--seed", "1", "--out-dir", str(tmp_path),
        ]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "converged pwm=1/1 pwc=1/1"
        [spectrum] = run_fig5_benchmark(repeats=1, seed=1).spectra
        written = (tmp_path / "optimized_spectrum_00.csv").read_bytes()
        assert written == library_bytes(tmp_path, write_spectrum_csv, spectrum)
        assert not (tmp_path / "optimized_spectrum_01.csv").exists()

    def test_prints_the_iteration_maximum_and_mean_wall(self, tmp_path, capsys):
        assert main([
            "benchmark-fig5", "--repeats", "2", "--seed", "1",
            "--total-time", "1.0", "--tau", "0.1",
            "--max-iterations", "2", "--out-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2].startswith("spectral peak hits: ")
        # nothing converges in two iterations: the maxima are the cap, the means NaN
        assert out[3] == "max_iterations pwm=2 pwc=2 mean_wall pwm=nan pwc=nan"


class TestComplexityCommand:
    def test_grid_contains_frozen_ratio(self, tmp_path):
        assert main([
            "complexity", "--K", "1", "--Nmin", "10", "--Nmax", "10",
            "--pmin", "2", "--pmax", "10", "--dims-count", "1",
            "--out-dir", str(tmp_path),
        ]) == 0
        dims, orders, values = read_gamma_grid_csv(tmp_path / "gamma_grid.csv")
        mask = (dims == 10) & (orders == 8)
        assert mask.sum() == 1
        assert values[mask][0] == pytest.approx(0.1648, abs=1e-4)
        contour = (tmp_path / "gamma_contour.csv").read_text().splitlines()
        assert contour[0] == "N,p_boundary"


class TestDemos:
    def test_fig1_emits_four_readable_artifacts(self, tmp_path):
        assert main(["demo-fig1", "--out-dir", str(tmp_path)]) == 0
        field = read_field_csv(tmp_path / "fig1_field.csv")
        seq = read_sequence_csv(tmp_path / "fig1_sequence.csv")
        signal = read_field_csv(tmp_path / "fig1_signal.csv")
        spec = read_spectrum_csv(tmp_path / "fig1_spectrum.csv")
        assert seq.n_pulses == 20
        assert np.max(np.abs(field.values)) <= 1.0
        assert set(np.round(np.unique(signal.values), 12)) <= {-1.0, 0.0, 1.0}
        assert spec.omega.size > 100

    def test_fig4_emits_two_readable_artifacts(self, tmp_path):
        assert main(["demo-fig4", "--out-dir", str(tmp_path)]) == 0
        train = read_field_csv(tmp_path / "fig4_train.csv")
        spec = read_spectrum_csv(tmp_path / "fig4_spectrum.csv")
        assert train.n_samples == spec.n_samples


# --------------------------------------------------------------- --config

@pytest.fixture()
def inputs(tmp_path):
    """A sine field, its pulse sequence and a two-level system JSON, written once."""
    field = write_sine_field(tmp_path / "field.csv")
    seq, system = tmp_path / "seq.csv", tmp_path / "system.json"
    assert main(["approximate", "--field", str(field), "--tau", "0.25", "--xi", "1.2",
                 "--out", str(seq)]) == 0
    assert main(["system", "--name", "two-level", "--out", str(system)]) == 0
    return {"field": str(field), "sequence": str(seq), "system": str(system)}


#: For each subcommand, option values (config keys) given once as flags and once
#: in a config; a value named by ``inputs`` is replaced by that file's path.
CONFIG_CASES = {
    "approximate": {"field": "field", "tau": 0.25, "xi": [1.3]},
    "signal": {"sequence": "sequence", "kind": "gauss", "rate": 200},
    "reconstruct": {"sequence": "sequence", "mode": "lowpass", "cutoff": 10, "rate": 300.0},
    "spectrum": {"field": "field", "control": 1},
    "propagate": {"system": "system", "scheme": "pwm4", "field": "field", "tau": 0.25,
                  "xi": "1.2"},
    "error-order": {"scheme": "pwc", "taus": [0.2, 0.1], "resolution": 500, "t_start": 0.25},
    "optimize": {"builtin": "two-level", "initial": 0, "target": 1, "total_time": 5.0,
                 "tau": 0.25, "xi": [1.0], "scheme": "pwm", "seed": 3, "max_iterations": 50,
                 "tolerance": 0.01, "initial_step": 0.5, "width_bound": 0.2},
    "benchmark-fig5": {"repeats": 1, "seed": 1, "jobs": 1, "total_time": 1.0, "tau": 0.1,
                       "max_iterations": 2, "tolerance": 0.01, "initial_step": 1.0,
                       "width_bound": 0.1},
    "complexity": {"K": 2, "Nmin": 4, "Nmax": 20, "pmin": 2, "pmax": 8, "dims_count": 5},
    "demo-fig1": {},
    "demo-fig4": {},
    "system": {"name": "two-level"},
}
DIRECTORY_OUTPUT = {"optimize", "benchmark-fig5", "complexity", "demo-fig1", "demo-fig4"}


def flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def written_files(directory) -> dict:
    """Each file under ``directory`` by name; ``benchmark.csv`` without its wall-time column."""
    files = {}
    for path in sorted(directory.rglob("*")):
        data = path.read_bytes()
        if path.name == "benchmark.csv":
            data = b"\n".join(b",".join(row.split(b",")[:4] + row.split(b",")[5:])
                              for row in data.splitlines())
        files[path.relative_to(directory).as_posix()] = data
    return files


class TestConfigMeansTheFlags:
    @pytest.mark.parametrize("command", list(CONFIG_CASES))
    def test_config_writes_what_the_flags_write(self, tmp_path, inputs, command, capsys):
        options = {key: inputs.get(value, value) if isinstance(value, str) else value
                   for key, value in CONFIG_CASES[command].items()}
        out_key = "out_dir" if command in DIRECTORY_OUTPUT else "out"
        runs = {}
        for how in ("flags", "config"):
            target = tmp_path / how
            if out_key == "out":
                target.mkdir()
            out = {out_key: str(target if out_key == "out_dir" else target / "result")}
            if how == "flags":
                argv = [command]
                for key, value in {**options, **out}.items():
                    argv += [f"--{key.replace('_', '-')}", flag_text(value)]
            else:
                config = tmp_path / f"{command}.json"
                config.write_text(json.dumps({**options, **out}))
                argv = [command, "--config", str(config)]
            assert main(argv) == 0, capsys.readouterr().err
            runs[how] = written_files(target)
        assert runs["flags"] and runs["config"] == runs["flags"]


class TestConfigPrecedence:
    """flag > config > declared default, for one option of each kind."""

    @pytest.fixture()
    def error_order_calls(self, monkeypatch):
        calls = []

        def record(scheme, system, field, taus, **kwargs):
            calls.append({"taus": list(taus), **kwargs})
            return SimpleNamespace(scheme=scheme, slope=3.0, intercept=0.0, saturated=False)

        monkeypatch.setattr(cli, "error_order", record)
        return calls

    @pytest.mark.parametrize("key, flag, default, config_value, flag_value", [
        pytest.param("t_start", "0.375", 0.5, 0.25, 0.375, id="float"),
        pytest.param("resolution", "300", 10_000, 400, 300, id="int"),
        pytest.param("taus", "0.3,0.15", [0.2, 0.1, 0.05, 0.025], [0.4, 0.2], [0.3, 0.15],
                     id="comma-list"),
    ])
    def test_error_order_option(self, tmp_path, error_order_calls, key, flag, default,
                                config_value, flag_value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: config_value}))
        option = f"--{key.replace('_', '-')}"
        for argv in (["error-order"], ["error-order", "--config", str(config)],
                     ["error-order", "--config", str(config), option, flag]):
            assert main(argv) == 0
        assert [call[key] for call in error_order_calls] == [default, config_value, flag_value]

    def test_choice(self, tmp_path, inputs, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "gauss"}))
        argv = ["signal", "--sequence", inputs["sequence"], "--out", str(tmp_path / "s.csv")]
        for extra in ([], ["--config", str(config)], ["--config", str(config), "--kind", "rect"]):
            assert main([*argv, *extra]) == 0
        kinds = re.findall(r"kind=(\w+)", capsys.readouterr().out)
        assert kinds == ["rect", "gauss", "rect"]

    def test_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": "from_config"}))
        assert main(["demo-fig4"]) == 0
        assert main(["demo-fig4", "--config", str(config)]) == 0
        assert main(["demo-fig4", "--config", str(config), "--out-dir", "from_flag"]) == 0
        for directory in (".", "from_config", "from_flag"):
            assert (tmp_path / directory / "fig4_train.csv").exists()

    def test_a_later_call_without_config_uses_the_declared_defaults(self, tmp_path, inputs,
                                                                    capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "gauss", "rate": 100}))
        argv = ["signal", "--sequence", inputs["sequence"], "--out", str(tmp_path / "s.csv")]
        assert main([*argv, "--config", str(config)]) == 0
        gauss = (tmp_path / "s.csv").read_bytes()
        assert main(argv) == 0
        assert re.findall(r"kind=(\w+)", capsys.readouterr().out) == ["gauss", "rect"]
        seq = read_sequence_csv(inputs["sequence"])
        expected = pwm_signal(seq, 0, 512.0 / seq.tau)
        assert (tmp_path / "s.csv").read_bytes() == library_bytes(tmp_path, write_field_csv,
                                                                  expected)
        assert gauss != (tmp_path / "s.csv").read_bytes()


class TestConfigValueIsReadByItsOption:
    """A config value means its flag's text, or is one ``validation`` line naming the
    option; it never reaches the library unread, nor stdout or stdin as a file number."""

    def run(self, tmp_path, argv, config, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        status = main([*argv, "--config", str(path)])
        return status, *capsys.readouterr()

    def test_rate_text_is_the_flag_text(self, tmp_path, inputs, capsys):
        out = tmp_path / "s.csv"
        status, stdout, err = self.run(
            tmp_path, ["signal", "--sequence", inputs["sequence"], "--out", str(out)],
            {"rate": "1000"}, capsys)
        assert (status, err) == (0, "")
        expected = pwm_signal(read_sequence_csv(inputs["sequence"]), 0, 1000.0)
        assert out.read_bytes() == library_bytes(tmp_path, write_field_csv, expected)

    def test_scheme_number_is_the_flag_text(self, tmp_path, inputs, capsys):
        argv = ["propagate", "--builtin", "two-level", "--sequence", inputs["sequence"],
                "--out", str(tmp_path / "u.csv")]
        status, stdout, err = self.run(tmp_path, argv, {"scheme": 5}, capsys)
        assert main([*argv, "--scheme", "5"]) == status == 1
        assert err == capsys.readouterr().err == "error:validation:unknown scheme '5'\n"
        assert stdout == ""

    def test_out_dir_number_is_a_directory_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        status, stdout, err = self.run(tmp_path, ["demo-fig4"], {"out_dir": 5}, capsys)
        assert (status, err) == (0, "")
        assert stdout == "wrote fig4_train.csv fig4_spectrum.csv in 5\n"
        assert (tmp_path / "5" / "fig4_spectrum.csv").exists()

    def test_array_for_a_single_value_is_its_joined_text(self, tmp_path, inputs, capsys):
        argv = ["approximate", "--field", inputs["field"]]
        status, _, err = self.run(tmp_path, [*argv, "--out", str(tmp_path / "a.csv")],
                                  {"tau": [0.25]}, capsys)
        assert (status, err) == (0, "")
        status, _, err = self.run(tmp_path, [*argv, "--out", str(tmp_path / "b.csv")],
                                  {"tau": [0.25, 0.5]}, capsys)
        assert status == 1
        assert err == ("error:validation:--tau: could not convert string to float: "
                       "'0.25,0.5'\n")
        assert read_sequence_csv(tmp_path / "a.csv").tau == 0.25
        assert not (tmp_path / "b.csv").exists()

    def test_out_number_is_a_file_name(self, tmp_path, inputs, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        status, stdout, err = self.run(
            tmp_path, ["approximate", "--field", inputs["field"], "--tau", "0.25"],
            {"out": 1}, capsys)
        assert (status, err) == (0, "")
        assert stdout == "wrote 1: 8 subintervals, 1 control(s)\n"
        assert read_sequence_csv(tmp_path / "1").n_pulses == 8

    def test_field_number_is_a_file_name(self, tmp_path, inputs, monkeypatch, capsys):
        """Read from the file ``0``, not from file descriptor 0 (stdin)."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "0").write_bytes((tmp_path / "field.csv").read_bytes())
        status, _, err = self.run(tmp_path, ["spectrum", "--out", "s.csv"], {"field": 0}, capsys)
        assert (status, err) == (0, "")
        assert main(["spectrum", "--field", "field.csv", "--out", "t.csv"]) == 0
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()

    @pytest.mark.parametrize("command, config, message", [
        pytest.param("benchmark-fig5", {"seed": 1.5},
                     "--seed: invalid literal for int() with base 10: '1.5'", id="int-fraction"),
        pytest.param("benchmark-fig5", {"repeats": 2.0},
                     "--repeats: invalid literal for int() with base 10: '2.0'",
                     id="int-float-form"),
        pytest.param("benchmark-fig5", {"tau": True},
                     "--tau: expected a string, a number or an array of them, got true",
                     id="boolean"),
        pytest.param("benchmark-fig5", {"out_dir": {"a": 1}},
                     '--out-dir: expected a string, a number or an array of them, '
                     'got {"a": 1}', id="object"),
        pytest.param("error-order", {"taus": [0.1, [0.05]]},
                     "--taus: expected a string, a number or an array of them, got [0.05]",
                     id="nested-array"),
        pytest.param("error-order", {"taus": "0.1,x"},
                     "--taus: could not convert string to float: 'x'", id="list-text"),
        pytest.param("error-order", {"resolution": "many"},
                     "--resolution: invalid literal for int() with base 10: 'many'",
                     id="int-text"),
    ])
    def test_unreadable_value_is_one_validation_line(self, tmp_path, monkeypatch, capsys,
                                                     command, config, message):
        monkeypatch.chdir(tmp_path)
        status, stdout, err = self.run(tmp_path, [command], config, capsys)
        assert (status, stdout) == (1, "")
        assert err == f"error:validation:{message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_null_and_unknown_keys_are_not_given(self, tmp_path, inputs, capsys):
        out = tmp_path / "s.csv"
        status, stdout, err = self.run(
            tmp_path, ["signal", "--sequence", inputs["sequence"], "--out", str(out)],
            {"kind": None, "rate": None, "cutoff": 3, "handler": 1, "config": 2}, capsys)
        assert (status, err) == (0, "")
        assert stdout.endswith("kind=rect\n")

    def test_required_option_from_config(self, tmp_path, inputs, capsys):
        out = tmp_path / "seq.csv"
        status, _, err = self.run(tmp_path, ["approximate", "--field", inputs["field"]],
                                  {"tau": 0.25, "out": str(out)}, capsys)
        assert (status, err) == (0, "")
        status, _, err = self.run(tmp_path, ["approximate", "--field", inputs["field"]],
                                  {"tau": 0.25, "out": None}, capsys)
        assert (status, err) == (1, "error:validation:missing required option --out\n")


class TestRejectionMessages:
    """CLI rejections the other tests never reach, each one line with its message."""

    @pytest.mark.parametrize("argv, config, message", [
        pytest.param(["error-order", "--taus", "0.1,x"], None,
                     "--taus: could not convert string to float: 'x'", id="taus-text"),
        pytest.param(["propagate", "--sequence", "{sequence}", "--out", "u.csv"],
                     {"builtin": "three-level"},
                     "--builtin: invalid choice 'three-level' (choose from ten-level, two-level)",
                     id="builtin-from-config"),
        pytest.param(["system", "--out", "s.json"], {"name": "three-level"},
                     "--name: invalid choice 'three-level' (choose from ten-level, two-level)",
                     id="name-from-config"),
        pytest.param(["propagate", "--sequence", "{sequence}", "--out", "u.csv"], None,
                     "a system is required: --system FILE or --builtin NAME", id="no-system"),
        pytest.param(["reconstruct", "--mode", "pwc", "--field", "{field}", "--out", "r.csv"],
                     None, "--mode pwc requires --sequence", id="pwc-from-a-field"),
        pytest.param(["reconstruct", "--sequence", "{sequence}", "--out", "r.csv"],
                     {"mode": "cubic"}, "--mode: invalid choice 'cubic' (choose from lowpass, pwc)",
                     id="mode-from-config"),
        pytest.param(["optimize", "--builtin", "two-level", "--initial", "0", "--target", "1",
                      "--total-time", "5", "--tau", "0.25", "--out-dir", "run"], {"scheme": "x"},
                     "--scheme: invalid choice 'x' (choose from pwm, pwc)",
                     id="optimize-scheme"),
        pytest.param(["optimize", "--builtin", "two-level", "--initial", "0", "--target", "2",
                      "--total-time", "5", "--tau", "0.25", "--out-dir", "run"], None,
                     "basis index must be in 0..1, got 2", id="optimize-target-past-n"),
        pytest.param(["benchmark-fig5", "--jobs", "0", "--repeats", "1", "--total-time", "1",
                      "--max-iterations", "2", "--out-dir", "bench"], None,
                     "jobs must be at least 1, got 0", id="zero-jobs"),
        *(pytest.param(["complexity", *flags, "--out-dir", "c"], None, message, id=ident)
          for flags, message, ident in [
              (["--Nmin", "1"], "--Nmin must be at least 2, got 1", "complexity-nmin"),
              (["--Nmin", "9", "--Nmax", "3"], "--Nmax must be at least 9, got 3",
               "complexity-nmax"),
              (["--pmin", "1"], "--pmin must be at least 2, got 1", "complexity-pmin"),
              (["--pmin", "9", "--pmax", "3"], "--pmax must be at least 9, got 3",
               "complexity-pmax"),
              (["--dims-count", "0"], "--dims-count must be at least 1, got 0",
               "complexity-dims-count"),
              (["--K", "0"], "--K must be at least 1, got 0", "complexity-k"),
          ]),
    ])
    def test_one_validation_line(self, tmp_path, inputs, monkeypatch, capsys, argv, config,
                                 message):
        monkeypatch.chdir(tmp_path)
        argv = [arg.format(**inputs) for arg in argv]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", "config.json"]
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error:validation:{message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv", [
        ["signal", "--kind", "x"], ["reconstruct", "--mode", "x"],
        ["propagate", "--builtin", "x"], ["optimize", "--scheme", "x"], ["system", "--name", "x"],
    ], ids=["kind", "mode", "builtin", "optimize-scheme", "name"])
    def test_bad_choice_flag_is_one_usage_line(self, capsys, argv):
        """As a flag, a value outside the choices does not parse: argparse's message."""
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error:usage:argument {argv[1]}: invalid choice: 'x'")
        assert err.count("\n") == 1
