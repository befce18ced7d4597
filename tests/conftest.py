import numpy as np
import pytest
from hypothesis import settings

from pwmctrl.model import ControlSystem, build_ten_level_system

# Property tests draw the same examples on every run and never time out on a
# slow box; no example database is written.
settings.register_profile(
    "pwmctrl", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("pwmctrl")

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@pytest.fixture
def two_level() -> ControlSystem:
    """Driven qubit: sigma_z drift, sigma_x control."""
    return ControlSystem(drift=SIGMA_Z, controls=(SIGMA_X,))


@pytest.fixture
def ten_level() -> ControlSystem:
    return build_ten_level_system()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240815)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def non_hermitian_ten_level() -> ControlSystem:
    """The ten-level system with 0.5 added to the upper triangle of its drift."""
    system = build_ten_level_system()
    drift = system.drift + 0.5 * np.triu(np.ones((system.dim, system.dim)), 1)
    return ControlSystem(drift=drift, controls=system.controls)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)
