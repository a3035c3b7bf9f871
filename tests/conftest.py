import numpy as np
import pytest
from hypothesis import settings

from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import PAULI_Z, projective_povm, pure_state

# Property tests run without a per-example deadline (numpy's first calls are
# slow) and draw the same examples on every run, so a failure reproduces.
settings.register_profile("fisherinfo", deadline=None, derandomize=True)
settings.load_profile("fisherinfo")

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collect one printed pass/fail line per acceptance check."""

    def log(name: str, ok: bool, detail: str) -> bool:
        _acceptance_lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        return ok

    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def plus_state():
    return pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))


@pytest.fixture(scope="session")
def base_model(plus_state):
    """z rotation imprinted on |+>, the recurring qubit example."""
    return UnitaryFamily(PAULI_Z, plus_state, 1)


@pytest.fixture(scope="session")
def multipass_model(plus_state):
    return UnitaryFamily(PAULI_Z, plus_state, 2)


@pytest.fixture(scope="session")
def x_basis_povm():
    # columns |+x>, |-x> so outcome 0 carries the cos^2 likelihood
    basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return projective_povm(basis)


@pytest.fixture(scope="session")
def z_basis_povm():
    return projective_povm(np.eye(2))
