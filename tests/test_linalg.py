"""The dense linear algebra under every model: the matrix helpers of
``fisherinfo.quantum``, and the generator's eigensystem and exponential
e^{-i t G} as ``UnitaryFamily`` holds them (``_gen_eig``, ``propagator``)."""

import numpy as np
import pytest

from fisherinfo.errors import DimensionMismatch, NotHermitian
from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import (
    HERMITIAN_ATOL,
    PAULI_X,
    PAULI_Z,
    adjoint,
    as_complex_matrix,
    identity,
)


def test_as_complex_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_complex_matrix(np.zeros((2, 3)))


def test_as_complex_matrix_rejects_oversized():
    with pytest.raises(DimensionMismatch):
        as_complex_matrix(np.eye(65))


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_eig_identity_is_degenerate_ones():
    w, _ = UnitaryFamily(identity(2))._gen_eig
    assert np.allclose(w, [1.0, 1.0])


def test_eig_pauli_z_ascending():
    w, _ = UnitaryFamily(PAULI_Z)._gen_eig
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_pauli_x_eigenpairs():
    w, v = UnitaryFamily(PAULI_X)._gen_eig
    assert np.allclose(w, [-1.0, 1.0])
    for k in range(2):
        assert np.max(np.abs(PAULI_X @ v[:, k] - w[k] * v[:, k])) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        UnitaryFamily(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_reconstructs_random_hermitian_matrices():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (a + a.conj().T) / 2.0
        w, v = UnitaryFamily(a)._gen_eig
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs((v * w) @ adjoint(v) - a)) < 1e-9
        assert np.max(np.abs(adjoint(v) @ v - np.eye(dim))) < 1e-10


def test_unitary_exp_zero_angle_is_identity():
    assert np.allclose(UnitaryFamily(PAULI_Z).propagator(0.0), np.eye(2), atol=1e-15)


def test_unitary_exp_half_turn_of_pauli_z():
    assert np.max(np.abs(UnitaryFamily(PAULI_Z).propagator(np.pi) + np.eye(2))) < 1e-12


def test_unitary_exp_quarter_x_turn_is_unitary():
    u = UnitaryFamily(PAULI_X).propagator(np.pi / 4.0)
    assert np.max(np.abs(adjoint(u) @ u - np.eye(2))) < 1e-10
    assert u[0, 0] == pytest.approx(np.cos(np.pi / 4.0))


def test_unitary_exp_group_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        g = (g + g.conj().T) / 2.0
        s, t = rng.normal(size=2)
        family = UnitaryFamily(g)
        lhs = family.propagator(s) @ family.propagator(t)
        assert np.max(np.abs(lhs - family.propagator(s + t))) < 1e-9


def test_unitary_exp_rejects_non_hermitian():
    # a generator within HERMITIAN_ATOL is exponentiated as its Hermitian
    # part, so its propagator is unitary; one at twice the bound is refused
    skew = np.array([[0.0, HERMITIAN_ATOL], [0.0, 0.0]])
    u = UnitaryFamily(PAULI_X + 0.5 * skew).propagator(1.0)
    assert np.max(np.abs(adjoint(u) @ u - np.eye(2))) < 1e-15
    with pytest.raises(NotHermitian):
        UnitaryFamily(PAULI_X + 2.0 * skew)
