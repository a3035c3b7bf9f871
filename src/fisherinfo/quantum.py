"""Validated quantum objects: states, measurements, channels, and the dense
matrix helpers they are built from.

Everything works on square complex matrices of dimension at most MAX_DIM,
stored as numpy complex128 arrays.  Density matrices, POVMs and Kraus
channels check their defining invariants at construction, so downstream
numerics can assume well-formed inputs.  Channels are represented by Kraus
operators only.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidChannel,
    InvalidPovm,
    InvalidState,
    NotHermitian,
    NotNormalized,
    NotUnitary,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# An eigenvalue of a state or an effect at or below FACTOR_CUT times its
# dimension is zero when the matrix is factored (``psd_factors``): eigh's
# rounding on a matrix of norm at most 1 stays below it, and a factor row of
# rounding weight would otherwise swamp a vanishing Born amplitude.
FACTOR_CUT = 4 * np.finfo(float).eps

# Compute-time checks, of every state a computation forms and of every row
# of Born probabilities
STATE_TRACE_ATOL = 1e-10
STATE_EIG_FLOOR = -1e-10          # eigenvalues above this are clamped to zero
BORN_CLAMP = -1e-12               # probabilities above this are clamped to zero
BORN_SUM_ATOL = 1e-10

# Load-time bounds.  A defect D is measured in the Frobenius norm, which is at
# least the operator norm, so |tr(rho D)| <= tr(rho) ||D|| for every state rho.
#   MAX_DIM             the largest dimension of a matrix, and the largest
#                       row count dim * kraus_count of a sampled channel's
#                       isometry (``sampling.check_channel_size``).
#   HERMITIAN_ATOL      max |A - A^dag| entry of a generator, diagonalized as
#                       (G + G^dag) / 2, and of every density matrix, loaded
#                       or formed; a loaded state is kept as its Hermitian
#                       part, and a channel's output of it is Hermitian to
#                       rounding.
#   NORMALIZATION_ATOL  |tr rho - 1| of a pure input state.
#   CHANNEL_ATOL        ||sum_j K_j^dag K_j - I|| of a channel, and the sum of
#                       these over a model's channels, which also bounds every
#                       partial chain of pre channels.
#   POVM_ATOL           ||sum_x E_x - I|| of a POVM plus the sum over its
#                       effects of -min(lowest eigenvalue, 0), which a Born
#                       row's clamp to 0 can add back; also each effect's
#                       Hermiticity defect.  Every effect eigenvalue stays
#                       above BORN_CLAMP / 2.
#   UNITARY_ATOL        ||U^dag U - I|| of a unitary or a measurement basis U:
#                       its channel's completeness defect and, U square, its
#                       projective POVM's ||sum_x E_x - I|| = ||U U^dag - I||.
# So an input that loads never fails a compute-time check: a pre channel's
# output trace is within (1 + NORMALIZATION_ATOL)(1 + CHANNEL_ATOL) - 1 <
# STATE_TRACE_ATOL of 1, a Born row sums to within (1 + NORMALIZATION_ATOL)
# (1 + CHANNEL_ATOL)(1 + POVM_ATOL) - 1 < BORN_SUM_ATOL of 1, and every
# probability is at least BORN_CLAMP / 2 (1 + BORN_SUM_ATOL) > BORN_CLAMP.
MAX_DIM = 64
HERMITIAN_ATOL = 1e-12
NORMALIZATION_ATOL = 5e-11
CHANNEL_ATOL = 2e-11
POVM_ATOL = 2e-11
UNITARY_ATOL = min(CHANNEL_ATOL, POVM_ATOL)


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex128 array of dimension <= MAX_DIM."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise DimensionMismatch(
            f"{name} dimension {m.shape[0]} outside supported range 1..{MAX_DIM}"
        )
    return m


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermiticity_defect(a: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation from its adjoint of a matrix, or of each
    matrix of a stack (..., d, d)."""
    return np.max(np.abs(a - adjoint(a)), axis=(-2, -1))


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Tiny negative eigenvalues (roundoff from channel composition) are
    clamped to zero at construction; anything below STATE_EIG_FLOOR is an
    error.  ``validate=False`` skips the checks for internal callers that
    construct states from operations which provably preserve validity.
    ``vectors``, if given, are columns V with mat = V V^dag.
    """

    __slots__ = ("mat", "_vectors")

    def __init__(self, mat, *, validate: bool = True, vectors=None):
        m = as_complex_matrix(mat, "density matrix")
        self.mat = checked_states(m) if validate else m
        self._vectors = vectors

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        """Columns V with mat = V V^dag: a pure state's amplitude, else the
        eigenvectors scaled by the square roots of their nonzero eigenvalues."""
        if self._vectors is None:
            rows = psd_factors(self.mat)
            self._vectors = adjoint(rows[np.any(rows != 0, axis=-1)])
        return self._vectors


def psd_factors(mats) -> np.ndarray:
    """Rows F with F^dag F = M for a positive semidefinite matrix M or each of
    a stack (..., d, d): sqrt(l) v^dag for each eigenpair (l, v), a zero row
    where l is at most FACTOR_CUT * d."""
    w, v = np.linalg.eigh(mats)
    w = np.where(w > FACTOR_CUT * w.shape[-1], w, 0.0)
    return np.sqrt(w)[..., :, None] * adjoint(v)


def checked_states(mats) -> np.ndarray:
    """Validate a density matrix or a stack of them (..., d, d).

    Each must be Hermitian, of unit trace and without eigenvalues below
    STATE_EIG_FLOOR, else InvalidState names the first offender.  Returns
    the Hermitian parts, with tiny negative eigenvalues clamped to zero and
    the trace restored.
    """
    m = np.asarray(mats, dtype=complex)
    defect = hermiticity_defect(m)
    if np.any(defect > HERMITIAN_ATOL):
        worst = float(defect[defect > HERMITIAN_ATOL][0])
        raise InvalidState(f"density matrix is non-Hermitian by {worst:.3e}")
    m = (m + adjoint(m)) / 2.0
    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > STATE_TRACE_ATOL
    if np.any(bad):
        raise InvalidState(f"density matrix trace {float(tr[bad][0])!r} is not 1")
    low = np.linalg.eigvalsh(m)[..., 0]
    if np.any(low < STATE_EIG_FLOOR):
        raise InvalidState(f"density matrix has eigenvalue "
                           f"{float(low[low < STATE_EIG_FLOOR][0]):.3e} < {STATE_EIG_FLOOR}")
    if np.any(low < 0.0):
        w, v = np.linalg.eigh(m)
        clamped = (v * np.clip(w, 0.0, None)[..., None, :]) @ adjoint(v)
        clamped = clamped / np.trace(clamped, axis1=-2, axis2=-1).real[..., None, None]
        m = np.where((low < 0.0)[..., None, None], clamped, m)
    return m


def _operator_stack(operators, name: str, empty: Exception) -> np.ndarray:
    """Square matrices named ``name``, at least one (else ``empty`` is
    raised) and of one dimension, as one (n, d, d) array."""
    mats = [as_complex_matrix(op, name) for op in operators]
    if not mats:
        raise empty
    if any(m.shape[0] != mats[0].shape[0] for m in mats):
        raise DimensionMismatch(f"{name}s have mixed dimensions")
    return np.stack(mats)


class Povm:
    """A measurement: positive effects that sum to the identity.

    ``effects`` holds the effects as one (n, d, d) array, in their given
    order, and every computation refers to an outcome by its position there,
    a post-processing map's columns included.  ``labels`` are distinct
    integers, the positions unless a POVM document sets them; they are only
    validated and written back when the POVM is reported.  ``factors``, if
    given, rows (n, r, d) whose products F^dag F are the effects.
    """

    __slots__ = ("effects", "labels", "_factors")

    def __init__(self, effects, labels=None, *, validate: bool = True, factors=None):
        stack = _operator_stack(effects, "POVM effect",
                                InvalidPovm("a POVM needs at least one effect"))
        if labels is None:
            labels = tuple(range(len(stack)))
        else:
            labels = tuple(int(x) for x in labels)
            if len(labels) != len(stack) or len(set(labels)) != len(labels):
                raise InvalidPovm("labels must be distinct and match the effect count")
        if validate:
            defects = hermiticity_defect(stack)
            lows = np.linalg.eigvalsh((stack + adjoint(stack)) / 2.0)[:, 0]
            bad = np.flatnonzero((defects > POVM_ATOL) | (lows < BORN_CLAMP / 2))
            if bad.size:
                k = int(bad[0])
                if defects[k] > POVM_ATOL:
                    raise InvalidPovm(f"effect {k} is non-Hermitian by {defects[k]:.3e}")
                raise InvalidPovm(f"effect {k} has negative eigenvalue {lows[k]:.3e}")
            defect = float(np.linalg.norm(stack.sum(axis=0) - identity(stack.shape[-1]))
                           - np.minimum(lows, 0.0).sum())
            if defect > POVM_ATOL:
                raise InvalidPovm(f"effects sum deviates from identity by {defect:.3e}")
        self.effects = stack
        self.labels = labels
        self._factors = factors

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    def __len__(self) -> int:
        return len(self.effects)

    @property
    def factors(self) -> np.ndarray:
        """Rows (n, r, d) with F_x^dag F_x = E_x: the basis rows of a
        projective measurement, else ``psd_factors`` of the effects."""
        if self._factors is None:
            self._factors = psd_factors((self.effects + adjoint(self.effects)) / 2.0)
        return self._factors


class KrausChannel:
    """A completely positive trace-preserving map; ``kraus`` holds its Kraus
    operators as one (k, d, d) array, in their given order."""

    __slots__ = ("kraus",)

    def __init__(self, kraus):
        self.kraus = _operator_stack(kraus, "Kraus operator",
                                     InvalidChannel("a channel needs at least one Kraus operator"))
        defect = _completeness_defect(self)
        if defect > CHANNEL_ATOL:
            raise InvalidChannel(f"Kraus completeness violated by {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]


def _completeness_defect(channel: KrausChannel) -> float:
    """||sum_j K_j^dag K_j - I||, the Frobenius norm: the channel changes the
    trace of a state rho by at most this times tr(rho)."""
    k = channel.kraus.reshape(-1, channel.dim)  # the operators stacked as one column
    return float(np.linalg.norm(adjoint(k) @ k - identity(channel.dim)))


def apply_channel_matrix(channel: KrausChannel, a: np.ndarray) -> np.ndarray:
    """Linear action sum_j K_j A K_j^dag on a matrix or a stack (..., d, d).

    Used for states and for state derivatives alike, since the map is the
    same linear map in both cases.  The operators are applied one at a time
    so a stack never grows by the Kraus count.
    """
    m = _channel_operand(channel, a)
    return sum(k @ m @ adjoint(k) for k in channel.kraus)


def apply_dual_matrix(channel: KrausChannel, a: np.ndarray) -> np.ndarray:
    """The Heisenberg dual sum_j K_j^dag A K_j on a matrix or a stack (..., d, d).

    tr(E(rho) X) = tr(rho E^dag(X)), and E^dag is unital because the
    channel's Kraus operators are complete; a POVM pulled back through it,
    ``Povm(apply_dual_matrix(channel, povm.effects), povm.labels)``, is again
    a POVM.
    """
    m = _channel_operand(channel, a)
    return sum(adjoint(k) @ m @ k for k in channel.kraus)


def _channel_operand(channel: KrausChannel, a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.shape[-2:] != (channel.dim, channel.dim):
        raise DimensionMismatch("operator dimension does not match the channel")
    return m


def _effect_stack(povm: Povm, dim: int) -> np.ndarray:
    if povm.dim != dim:
        raise DimensionMismatch("state and POVM dimensions differ")
    return povm.effects


def outcome_traces(a: np.ndarray, povm: Povm) -> np.ndarray:
    """tr(A E_x) for a matrix or a stack (..., d, d); the outcome index goes last."""
    return np.einsum("...ij,xji->...x", a, _effect_stack(povm, a.shape[-1])).real


def born_probabilities(rho: DensityMatrix | np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome probabilities tr(rho E_x), clamped against tiny negatives.

    ``rho`` is a DensityMatrix or a stack of state matrices (..., d, d);
    every row of the result must sum to 1.
    """
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return checked_probabilities(outcome_traces(mat, povm))


def checked_probabilities(p: np.ndarray) -> np.ndarray:
    """Born probability rows (..., outcomes) clamped at 0; a probability below
    BORN_CLAMP or a row sum off 1 by more than BORN_SUM_ATOL raises InvalidPovm."""
    if np.min(p) < BORN_CLAMP:
        raise InvalidPovm(f"probability {np.min(p):.3e} below clamp floor")
    p = np.clip(p, 0.0, None)
    totals = np.sum(p, axis=-1)
    worst = float(totals.flat[np.argmax(np.abs(totals - 1.0))])
    if abs(worst - 1.0) > BORN_SUM_ATOL:
        raise InvalidPovm(f"probabilities sum to {worst!r}, not 1")
    return p


def projectors(vectors) -> np.ndarray:
    """|v><v| for each vector of a stack (..., d)."""
    return vectors[..., :, None] * np.conj(vectors)[..., None, :]


def pure_state(amplitudes) -> DensityMatrix:
    """|psi><psi| from an amplitude vector, which must be normalized: its
    squared norm, the trace, within NORMALIZATION_ATOL of 1."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(psi, axis=-1))
    if abs(norm * norm - 1.0) > NORMALIZATION_ATOL:
        raise NotNormalized(f"state vector has norm {norm!r}")
    return DensityMatrix(projectors(psi), validate=False, vectors=psi[:, None])


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(a, name)
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_ATOL:
        raise NotHermitian(f"{name} deviates from Hermiticity by {defect:.3e}")
    return m


def require_unitary(u, name: str = "matrix") -> np.ndarray:
    """A matrix or a stack of them (..., d, d) as a complex array; NotUnitary,
    naming ``name``, if any ||U^dag U - I|| exceeds UNITARY_ATOL."""
    m = np.asarray(u, dtype=complex)
    defect = np.linalg.norm(adjoint(m) @ m - identity(m.shape[-1]), axis=(-2, -1))
    if np.any(defect > UNITARY_ATOL):
        raise NotUnitary(f"{name} deviates from unitarity by {float(np.max(defect)):.3e}")
    return m


def projective_povm(basis) -> Povm:
    """Rank-one projectors onto the columns of a unitary basis matrix."""
    u = require_unitary(as_complex_matrix(basis, "measurement basis"), "measurement basis")
    return Povm(projectors(u.T), validate=False, factors=adjoint(u)[:, None, :])


def unitary_channel(u) -> KrausChannel:
    return KrausChannel([require_unitary(as_complex_matrix(u, "unitary"), "unitary")])


def depolarizing_channel(strength: float) -> KrausChannel:
    """Qubit depolarizing channel; strength 1 sends every state to I/2."""
    if not 0.0 <= strength <= 1.0:
        raise InvalidChannel(f"depolarizing strength {strength!r} outside [0, 1]")
    p = float(strength)
    return KrausChannel([
        np.sqrt(1.0 - 3.0 * p / 4.0) * identity(2),
        np.sqrt(p / 4.0) * PAULI_X,
        np.sqrt(p / 4.0) * PAULI_Y,
        np.sqrt(p / 4.0) * PAULI_Z,
    ])
