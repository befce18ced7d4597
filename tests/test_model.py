import numpy as np
import pytest

from pwmctrl.model import (
    ControlSystem,
    _check_system,
    basis_state,
    validate_system,
)

from conftest import SIGMA_X, SIGMA_Z


class TestControlSystem:
    def test_dimensions(self, two_level):
        assert two_level.dim == 2
        assert two_level.n_controls == 1

    def test_arrays_are_immutable(self, two_level):
        with pytest.raises(ValueError):
            two_level.drift[0, 0] = 5.0
        with pytest.raises(ValueError):
            two_level.controls[0][0, 1] = 5.0

    def test_rejects_non_square_drift(self):
        with pytest.raises(ValueError):
            ControlSystem(drift=np.zeros((2, 3)), controls=(SIGMA_X,))

    def test_rejects_mismatched_control_shape(self):
        with pytest.raises(ValueError):
            ControlSystem(drift=SIGMA_Z, controls=(np.zeros((3, 3)),))

    def test_empty_controls_build_but_fail_validation(self):
        system = ControlSystem(drift=SIGMA_Z, controls=())
        assert system.n_controls == 0
        assert not validate_system(system).ok


class TestBasisState:
    @pytest.mark.parametrize("dim,index", [(2, 0), (2, 1), (10, 3), (10, 9)])
    def test_unit_vector(self, dim, index):
        psi = basis_state(dim, index)
        assert psi.shape == (dim,)
        assert psi.dtype == np.complex128
        assert psi[index] == 1.0
        assert np.linalg.norm(psi) == 1.0

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError):
            basis_state(2, index)


class TestValidateSystem:
    def test_builtin_systems_pass(self, two_level, ten_level):
        for system in (two_level, ten_level):
            report = validate_system(system)
            assert report.ok
            assert report.issues == ()
            assert all(r <= 1e-12 for r in report.residuals.values())

    def test_flags_non_hermitian_drift(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        system = ControlSystem(drift=bad, controls=(SIGMA_X,))
        report = validate_system(system)
        assert not report.ok
        assert any("drift" in issue for issue in report.issues)
        assert report.residuals["drift"] == pytest.approx(1.0)

    def test_flags_non_hermitian_control(self):
        bad = np.array([[0.0, 1e-6j], [0.0, 0.0]])
        system = ControlSystem(drift=SIGMA_Z, controls=(bad,))
        report = validate_system(system)
        assert not report.ok
        assert any("control" in issue for issue in report.issues)

    def test_flags_non_finite_entries(self):
        drift = SIGMA_Z.copy()
        drift[0, 0] = np.nan
        report = validate_system(ControlSystem(drift=drift, controls=(SIGMA_X,)))
        assert not report.ok
        assert report.issues == ("drift has non-finite entries",)

        control = SIGMA_X.copy()
        control[0, 1] = control[1, 0] = np.inf
        report = validate_system(ControlSystem(drift=SIGMA_Z, controls=(control,)))
        assert not report.ok
        assert report.issues == ("control 0 has non-finite entries",)
        with pytest.raises(ValueError, match="non-finite"):
            _check_system(ControlSystem(drift=SIGMA_Z, controls=(control,)))


class TestTenLevelSystem:
    """Structure of the built-in ladder system used by the optimizer benchmark."""

    def test_drift_spectrum(self, ten_level):
        expected = np.array([1.0, 5.0, 7.0, 8.0, 9.0, 10.0, 11.0, 11.8, 12.1, 12.4])
        assert np.array_equal(np.diag(ten_level.drift).real, expected)
        assert np.array_equal(ten_level.drift, np.diag(np.diag(ten_level.drift)))

    def test_dipole_is_symmetric_and_negated(self, ten_level):
        h1 = ten_level.controls[0]
        assert np.array_equal(h1, h1.T)
        assert np.max(np.abs(h1 - h1.conj().T)) == 0.0

    @pytest.mark.parametrize(
        "i,j,mu",
        [
            (0, 1, 0.3),
            (0, 2, 0.15),
            (0, 3, 0.0),
            (0, 6, 0.003),
            (1, 2, 0.2),
            (1, 3, 0.25),
            (2, 3, 0.1),
            (4, 7, 0.001),  # default background coupling
            (5, 9, 0.001),
        ],
    )
    def test_coupling_entries(self, ten_level, i, j, mu):
        h1 = ten_level.controls[0]
        assert h1[i, j] == -mu
        assert h1[j, i] == -mu

    def test_no_diagonal_coupling(self, ten_level):
        assert np.all(np.diag(ten_level.controls[0]) == 0.0)

    def test_transition_frequencies_of_interest(self, ten_level):
        levels = np.diag(ten_level.drift).real
        assert levels[2] - levels[1] == pytest.approx(2.0)  # not targeted
        assert levels[1] - levels[0] == pytest.approx(4.0)
        assert levels[3] - levels[1] == pytest.approx(3.0)


def test_one_level_system_fails_validation():
    system = ControlSystem(drift=np.eye(1), controls=(np.eye(1),))
    report = validate_system(system)
    assert not report.ok
    assert report.issues == ("dimension must be at least 2, got N=1",)
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        _check_system(system)
