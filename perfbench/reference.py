"""A small numpy reference and the check of every op's output.

Semantics are the README's: rho(theta) = U rho0 U^dag with
U = exp(-i theta k G) for k passes; "pre" channels act on the initial
state and "post" channels after the dynamics, each group in list order.
Outputs are checked against this reference and against invariants, never
against stored outputs, because optimizer values may legitimately change.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import Op

# the documented scoring rule: probabilities at or below P_FLOOR count as
# zero; there a derivative above D_FLOOR diverges and a smaller one takes
# the curvature limit 2 d2p
P_FLOOR = 1e-12
D_FLOOR = 1e-9
EPS_SLD = 1e-10     # eigenvalue pair sums at or below this are off support

# absolute roundoff of p, dp, d2p and of eigenvalues for unit-trace states of
# dimension <= 8, and the error of the package's finite-difference curvature
ROUNDOFF = 1e-14
CURVATURE_ERR = 1e-6

MATCH_RTOL = 1e-8   # fisher, qfi and bayes against the reference


class Singular(Exception):
    """The reference score diverges at this point."""


def _dag(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def _apply(kraus: np.ndarray, a: np.ndarray) -> np.ndarray:
    return sum(k @ a @ k.conj().T for k in kraus)


def trajectory(model, thetas):
    """rho, d rho and d2 rho at each theta, stacked along the first axis."""
    rho0 = model.rho0
    for kraus, placement in model.channels:
        if placement == "pre":
            rho0 = _apply(kraus, rho0)
    g, k = model.generator, model.passes
    w, v = np.linalg.eigh(g)
    u = (v * np.exp(-1j * k * np.asarray(thetas, dtype=float)[:, None, None] * w)) @ v.conj().T
    rho = u @ rho0 @ _dag(u)
    comm = g @ rho - rho @ g
    out = [rho, -1j * k * comm, -k * k * (g @ comm - comm @ g)]
    for kraus, placement in model.channels:
        if placement == "post":
            out = [_apply(kraus, a) for a in out]
    return out


def fisher_values(model, effects, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Classical Fisher information at each theta under the documented rule,
    with a bound on how far roundoff in p, dp and d2p can move it."""
    rho, drho, d2rho = trajectory(model, thetas)
    p, dp, d2p = (np.einsum("nij,xji->nx", a, effects).real for a in (rho, drho, d2rho))
    p = np.clip(p, 0.0, None)
    on = p > P_FLOOR
    if np.any((p < P_FLOOR - ROUNDOFF) & (np.abs(dp) > D_FLOOR + ROUNDOFF)):
        raise Singular("an outcome with vanishing probability has a nonzero derivative")
    safe_p = np.where(p > 0.0, p, 1.0)
    regular = dp * dp / safe_p
    curvature = 2.0 * np.maximum(d2p, 0.0)
    # dp^2/p near a vanishing p is ill-conditioned; a p within roundoff of
    # P_FLOOR may be classified either way
    err = np.where(on, ROUNDOFF * (regular / safe_p + 2.0 * np.abs(dp) / safe_p), CURVATURE_ERR)
    err += np.where(np.abs(p - P_FLOOR) <= ROUNDOFF, np.abs(regular - curvature), 0.0)
    return np.sum(np.where(on, regular, curvature), axis=1), np.sum(err, axis=1)


def qfi_value(model, theta: float) -> tuple[float, float]:
    """SLD quantum Fisher information, with a bound on its roundoff."""
    rho, drho, _ = trajectory(model, [theta])
    w, v = np.linalg.eigh(rho[0])
    d = np.abs(v.conj().T @ drho[0] @ v)
    sums = w[:, None] + w[None, :]
    on = sums > EPS_SLD
    safe = np.where(on, sums, 1.0)
    terms = np.where(on, 2.0 * d * d / safe, 0.0)
    err = np.where(on, ROUNDOFF * (terms / safe + 4.0 * d / safe), 0.0)
    err += np.where(np.abs(sums - EPS_SLD) <= ROUNDOFF, 2.0 * d * d / EPS_SLD, 0.0)
    return float(np.sum(terms)), float(np.sum(err))


def prior_grid(prior: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = prior[-2], prior[-1]
    nodes = np.linspace(a, b, n)
    if prior[0] == "uniform":
        density = np.ones(n)
    else:
        mu, sigma = prior[1], prior[2]
        density = np.exp(-0.5 * ((nodes - mu) / sigma) ** 2)
    h = np.diff(nodes)
    trap = np.zeros(n)
    trap[:-1] += h / 2.0
    trap[1:] += h / 2.0
    raw = trap * density
    return nodes, raw / raw.sum()


def bayes_values(model, effects, prior: tuple, n: int) -> tuple[float, float, float]:
    """Bayes risk of the posterior mean, the prior-averaged information and
    the roundoff bound of the latter."""
    nodes, weights = prior_grid(prior, n)
    values, err = fisher_values(model, effects, nodes)
    rho, _, _ = trajectory(model, nodes)
    like = np.clip(np.einsum("nij,xji->nx", rho, effects).real, 0.0, None)
    joint = weights[:, None] * like
    evidence = joint.sum(axis=0)
    risk = 0.0
    for x in np.flatnonzero(evidence > 1e-300):
        post = joint[:, x] / evidence[x]
        mean = float(np.dot(nodes, post))
        risk += evidence[x] * float(np.dot(post, (nodes - mean) ** 2))
    return risk, float(np.dot(weights, values)), float(np.dot(weights, err))


def _close(got, want: float, rtol: float, err: float = 0.0) -> bool:
    return (isinstance(got, (int, float))
            and abs(got - want) <= rtol * max(1.0, abs(want)) + err)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in the output")


def _loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _check_dpi(out: str) -> str | None:
    """The workload runs one trial per op: one trial line, then the summary."""
    first, _, rest = out.partition("\n")
    trial, summary = _loads(first), _loads(rest)
    if "trial" not in trial or trial.get("violated") is not False:
        return f"trial line reports {trial!r}"
    if summary.get("violations") != 0:
        return f"summary reports {summary.get('violations')!r} violations"
    return None


def known_failure(op: Op, code: int, exc_name: str | None) -> bool:
    """The one failure class the defect probe may show and still be correct.

    A model document whose "pre" channel follows another channel exits 1
    with AttributeError ('ComposedModel' object has no attribute 'rho0').
    """
    if op.model is None or code != 1 or exc_name != "AttributeError":
        return False
    return "pre" in [placement for _, placement in op.model.channels][1:]


def check(op: Op, out: str) -> str | None:
    """None when the output of a successful op is right, else the reason."""
    try:
        if op.kind == "dpi":
            return _check_dpi(out)
        report = _loads(out)
        if op.kind == "fisher":
            values, err = fisher_values(op.model, op.effects, [op.theta])
            want, err, got = float(values[0]), float(err[0]), report.get("value")
        elif op.kind == "qfi":
            (want, err), got = qfi_value(op.model, op.theta), report.get("value")
        elif op.kind == "bayes":
            risk, want, err = bayes_values(op.model, op.effects, op.prior, op.grid)
            values = report.get("values", {})
            if not _close(values.get("risk"), risk, MATCH_RTOL):
                return f"risk {values.get('risk')!r}, reference {risk!r}"
            got = values.get("bayesian_information")
        else:
            return f"no check for {op.kind!r}"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, Singular) as exc:
        return f"{type(exc).__name__}: {exc}"
    if not _close(got, want, MATCH_RTOL, err):
        return f"value {got!r}, reference {want!r} (roundoff bound {err:.3g})"
    return None
