"""Fisher information functionals: classical and quantum (SLD).

The classical score sums (dp_x)^2 / p_x over measurement outcomes.  A
package model is analytic in theta, so a vanishing p_x vanishes to even
order and the ratio stays bounded; near it the ratio computed from p_x and
dp_x loses its digits.  An outcome whose probability is below NEAR_NULL is
therefore scored from its Born amplitudes a = F_x A, with F_x^dag F_x = E_x
and A the model's Kraus vectors: dp^2 / p = 4 (Re <a, a'>)^2 / |a|^2, where
p = |a|^2 is a sum of squares, and the limit 4 |a'|^2 where a = 0.  The
switch only picks the path; every other outcome keeps dp^2 / p.  Every
functional reads first derivatives only: p and dp, or rho and d rho.

The SLD quantum Fisher information is read from the Kraus vectors too
(``qfi_from_vectors``): exact, with no eigendecomposition of rho, and
continuous where the rank of rho drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import UnitaryFamily
from .quantum import Povm, adjoint, born_probabilities, outcome_traces, projective_povm

NEAR_NULL = 1e-8      # a model's outcome with p below this is scored from its amplitudes

# A Born probability from amplitudes, a qubit's determinant or a squared
# singular value at most ROUNDED_ZERO is 0 and takes its limit; the vectors
# are those of a unit-trace state and an effect of norm at most 1.  Rounding
# of about eps leaves so small an amplitude a no direction: a ratio it
# enters errs by about (eps / |a|)^2, the limit by O(|a|), and the two
# errors meet near |a| = 1e-11.
ROUNDED_ZERO = 1e-22


@dataclass
class SldResult:
    """Symmetric logarithmic derivative and the quantum Fisher information;
    ``basis``, if set, a measurement basis that attains the QFI where the
    SLD's eigenbasis does not (``sld_solve``)."""

    sld: np.ndarray
    qfi: float
    support_rank: int
    basis: np.ndarray | None = None


def _summed(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added in outcome order as a loop adds them."""
    total = np.zeros(terms.shape[:-1])
    for x in range(terms.shape[-1]):
        total = total + terms[..., x]
    return total


def model_scores(p, dp, near_terms) -> np.ndarray:
    """Scores of a package model's outcome rows (..., outcomes): the sums of
    dp^2 / p in outcome order, where the cells whose p is below NEAR_NULL
    take ``near_terms(near)``, their amplitude scores in row-major order."""
    near = p < NEAR_NULL
    terms = dp * dp / np.where(near, 1.0, p)
    if near.any():
        terms[near] = near_terms(near)
    return _summed(terms)


def amplitude_scores(f, a, da) -> np.ndarray:
    """dp^2 / p = 4 (Re <b, b'>)^2 / |b|^2 of the Born amplitudes b = F A and
    their derivatives b' = F dA, for effect factor rows F (..., k, d) and
    Kraus vectors A, dA (..., d, r); the limit 4 |b'|^2 where b is 0
    (ROUNDED_ZERO)."""
    b, db = _real_rows(f @ a), _real_rows(f @ da)
    p = _dots(b, b)
    zero = p <= ROUNDED_ZERO
    slope = _dots(b, db)
    return 4.0 * np.where(zero, _dots(db, db), slope * slope / np.where(zero, 1.0, p))


def _real_rows(z) -> np.ndarray:
    """A complex stack (m, ...) as m rows of its real and imaginary parts."""
    return np.ascontiguousarray(z).reshape(len(z), -1).view(float)


def _dots(u, v) -> np.ndarray:
    """Row-wise dot products of two real (m, n) arrays."""
    return np.einsum("ij,ij->i", u, v)


def outcome_information(model: UnitaryFamily, thetas, p, dp, factors) -> np.ndarray:
    """Scores (``model_scores``) of the model's outcome rows p, dp at each
    theta; ``factors()`` gives the effects' factor rows (outcomes, r, d),
    and is called only if an outcome is near null."""
    def near_terms(near):
        nodes, outcomes = np.nonzero(near)
        a, da = model.kraus_vectors(np.asarray(thetas, dtype=float).reshape(-1)[nodes])
        return amplitude_scores(factors()[outcomes], a, da)

    return model_scores(p, dp, near_terms)


def outcome_trajectory(model: UnitaryFamily, povm: Povm, thetas):
    """Born probabilities p and their theta-derivatives.

    Returns (p, dp), each shaped (len(thetas), len(povm)).  Derivatives
    are analytic; they are never re-differenced from probabilities.  With
    fewer effects than nodes the effects are pulled back
    (``pulled_back_outcomes``); otherwise the states are pushed forward
    (``trajectory``) and traced against the effects.
    """
    if len(povm) < len(thetas):
        return model.pulled_back_outcomes(povm, thetas)
    return outcome_blocks(povm, *model.trajectory(thetas))


def outcome_blocks(povm: Povm, rho, drho):
    """(p, dp) of states and their derivatives, each a stack (..., d, d)."""
    # einsum rounds a stack by its size, so dp is traced in a stack of two
    return born_probabilities(rho, povm), outcome_traces(np.stack((rho, drho)), povm)[1]


def classical_fisher(model: UnitaryFamily, povm: Povm, theta: float) -> float:
    """Fisher information of the Born distribution at ``theta``."""
    p, dp = outcome_trajectory(model, povm, [theta])
    return float(outcome_information(model, [theta], p, dp, lambda: povm.factors)[0])


def sld_solve(model: UnitaryFamily, theta: float) -> SldResult:
    """The SLD L, with rho' = (rho L + L rho) / 2, and the QFI, from the
    model's Kraus vectors, both from their singular-value form at every
    dimension; the support rank counts the nonzero singular values.  Where
    one is 0, the rank of rho drops at theta, and the QFI's limit counts how
    fast the null space fills.  The SLD's eigenbasis mixes that space with
    the support and misses the term, so ``basis`` is then the eigenbasis of
    the SLD's block on the support and a basis of the null space."""
    a, da = model.kraus_vectors([theta])
    qfi, sld, s = _singular_form(a, da)
    sld, rank = sld[0], int(np.count_nonzero(s[0]))
    result = SldResult(sld, float(qfi[0]), rank)
    if rank < s.shape[-1]:
        result.basis = u = np.linalg.svd(a[0])[0]
        u[:, :rank] = u[:, :rank] @ np.linalg.eigh(adjoint(u[:, :rank]) @ sld @ u[:, :rank])[1]
    return result


def _singular_form(a, da):
    """(values, SLDs, s) of Kraus vectors (m, d, r) from the thin SVD
    A = V S W^dag, its singular values s with those that are 0 (ROUNDED_ZERO)
    set to 0, B = V^dag dA W, N = dA W - V B, the part of dA W off the span
    of V, and R_ij = B_ij s_j + s_i B*_ji.

    The value is sum_ij 2 |R_ij|^2 / (s_i^2 + s_j^2) over the pairs with a
    nonzero singular value, each term at most 2 (|B_ij|^2 + |B_ji|^2), plus
    4 |N|^2, the pairs of a nonzero singular value with the null space of
    rho.  A singular value s_z that is 0 adds the limit 4 sum_t |B_tz|^2 over
    the s_t that are 0 and 4 |N_z|^2: A w_z vanishes, and the rate at which
    it leaves 0 is the part of dA w_z off the support of rho.  The SLD is
    (L + L^dag) / 2, exactly Hermitian, with L = V L_B V^dag + X + X^dag,
    (L_B)_ij = 2 R_ij / (s_i^2 + s_j^2), 0 where both singular values are 0,
    and X = N diag(2 / s) V^dag over the nonzero s."""
    v, s, wh = np.linalg.svd(a, full_matrices=False)
    y = da @ adjoint(wh)
    b = adjoint(v) @ y
    n = y - v @ b
    s = np.where(s * s > ROUNDED_ZERO, s, 0.0)
    s2 = s * s
    pair_sums = s2[..., :, None] + s2[..., None, :]
    r = b * s[..., None, :] + s[..., :, None] * np.conj(np.swapaxes(b, -1, -2))
    paired = pair_sums > 0.0
    pair_sums = np.where(paired, pair_sums, 1.0)
    terms = np.where(paired, 2.0 * (r.real * r.real + r.imag * r.imag) / pair_sums,
                     4.0 * (b.real * b.real + b.imag * b.imag))
    x = (n * np.where(s > 0.0, 2.0 / np.where(s > 0.0, s, 1.0), 0.0)[..., None, :]) @ adjoint(v)
    sld = v @ np.where(paired, 2.0 * r / pair_sums, 0.0) @ adjoint(v) + x + adjoint(x)
    rows = _real_rows(n)
    return np.sum(terms, axis=(-2, -1)) + 4.0 * _dots(rows, rows), (sld + adjoint(sld)) / 2.0, s


def qfi_from_vectors(a, da):
    """SLD quantum Fisher information of rho = A A^dag with rho' = dA A^dag
    + A dA^dag, for the Kraus vectors A and dA (m, d, r) of m unit-trace
    states, and the SLDs, as (values, SLDs); at a drop in rank the value is
    its limit (Safranek, PRA 95, 052320, 2017).

    A qubit takes the closed form 2 tr(rho'^2) + 4 (sum Re m* m')^2 / sum |m|^2
    over the 2x2 minors m of A (det rho = sum |m|^2, Cauchy-Binet), and the
    limit 4 sum |m'|^2 where the determinant is 0 (ROUNDED_ZERO), with the
    SLD 2 rho' + (det' / det)(I - rho), as rho^2 = rho - det I (2 rho' where
    det is 0).  A larger dimension takes the singular-value form.
    """
    if a.shape[-2] == 2:
        return _qubit_qfi(a, da)
    return _singular_form(a, da)[:2]


def _qubit_qfi(a, da):
    # the minors m_ij = a0_i a1_j - a0_j a1_i as an antisymmetric matrix, so
    # each sum over i < j is half the sum over all i, j
    a0, a1 = a[:, 0, :, None], a[:, 1, None, :]
    m = a0 * a1
    m = _real_rows(m - np.swapaxes(m, 1, 2))
    dm = da[:, 0, :, None] * a1 + a0 * da[:, 1, None, :]
    dm = _real_rows(dm - np.swapaxes(dm, 1, 2))
    det, slope = _dots(m, m), _dots(m, dm)
    drho = da @ adjoint(a)
    drho = drho + adjoint(drho)
    rows = _real_rows(drho)
    zero = det <= 2.0 * ROUNDED_ZERO
    det = np.where(zero, 1.0, det)
    qfi = 2.0 * (_dots(rows, rows) + np.where(zero, _dots(dm, dm), slope * slope / det))
    # det' / det is 2 slope / det, each sum taken over all i, j
    ratio = np.where(zero, 0.0, 2.0 * slope / det)[:, None, None]
    return qfi, 2.0 * drho + ratio * (np.eye(2) - a @ adjoint(a))


def sld_optimal_povm(result: SldResult) -> Povm:
    """Projective measurement in the SLD eigenbasis, or in the result's
    ``basis`` where the rank of rho drops.

    For a scalar parameter this measurement's classical Fisher information
    equals the QFI.
    """
    if result.basis is not None:
        return projective_povm(result.basis)
    return projective_povm(np.linalg.eigh(result.sld)[1])
