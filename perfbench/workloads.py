"""Seeded inputs for the benchmark workloads.

Inputs come from numpy alone, never from ``fisherinfo.sampling``, so the
package under test sees nothing but the generated documents and command
lines.  Each workload is a list of ops; an op is one ``fisherinfo`` command
line plus what the reference check needs to know about its inputs.

Workloads are built in rounds.  A round covers every combination of the
properties that set an op's cost or outcome (command, dimension, channel
order, ...) once, in a seeded order, so the cost mix and the share of
failing documents do not drift with the seed while every number inside the
documents still does.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cli-light", "dpi")

# Channel lists of a cli-light model document: 0-2 fixed channels, either
# placement, in any order that the package runs, as the README schema allows.
CHANNEL_ORDERS = ((), ("pre",), ("post",), ("pre", "post"), ("post", "post"))
# Orders that put a "pre" channel after another channel.  Documents with
# them exit 1 with AttributeError at this commit, so they are kept out of
# the timed ops, whose failures would make runs disagree, and are run once
# per run, untimed, as the known-defect probe.
DEFECT_ORDERS = (("post", "pre"), ("pre", "pre"))
CLI_DIMS = tuple(range(2, 9))
CLI_KINDS = ("fisher", "qfi", "bayes")
CLI_ROUNDS = 10  # twice through the order cycle and the grid-size strata
GRID_RANGE = (101, 401)

# A dpi round: DPI_CLASSICAL_PER_ROUND classical trials and one quantum
# trial of each case, so a sixth of the ops are quantum.  The classical
# trials (about 7-12 ms) hold the p50 and the quantum ones (about 70-130 ms)
# the p90.  Quantum trials are on qubits only: dimension-3 and -4 trials
# cost about 140 ms against 85 ms, and a percentile falling between the two
# groups swung with host speed.
DPI_QUANTUM_CASES = tuple((2, k) for k in (1, 2, 3))
DPI_CLASSICAL_PER_ROUND = 5 * len(DPI_QUANTUM_CASES)
DPI_ROUNDS = 200


@dataclass
class ModelSpec:
    """A unitary family with its fixed channels, as the reference reads it."""

    generator: np.ndarray
    rho0: np.ndarray
    passes: int
    channels: list = field(default_factory=list)  # (kraus stack, placement)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]


@dataclass
class Op:
    kind: str
    argv: list
    model: ModelSpec | None = None
    effects: np.ndarray | None = None
    theta: float | None = None
    prior: tuple | None = None  # ("uniform", a, b) or ("gauss", mu, sigma, a, b)
    grid: int | None = None


def _pairs(a: np.ndarray) -> list:
    """Complex array to nested lists of [re, im] pairs."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _ginibre(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(rng, d: int) -> np.ndarray:
    g = _ginibre(rng, d, d)
    return (g + g.conj().T) / 2.0


def _unit_vector(rng, d: int) -> np.ndarray:
    psi = _ginibre(rng, d)
    return psi / np.linalg.norm(psi)


def _haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _kraus(rng, d: int, count: int) -> np.ndarray:
    """Kraus operators sliced from a random Stinespring isometry."""
    q, _ = np.linalg.qr(_ginibre(rng, d * count, d))
    return q.reshape(count, d, d)


def _povm(rng, d: int, projective: bool) -> np.ndarray:
    """Haar-random projective measurement, or a random general POVM with 2d effects."""
    if projective:
        u = _haar_unitary(rng, d)
        return np.einsum("ik,jk->kij", u, u.conj())
    a = _ginibre(rng, 2 * d, d, d)
    raw = a @ np.swapaxes(a.conj(), 1, 2)
    w, v = np.linalg.eigh(raw.sum(axis=0))
    root = (v / np.sqrt(w)) @ v.conj().T
    effects = root @ raw @ root
    return (effects + np.swapaxes(effects.conj(), 1, 2)) / 2.0


class DocumentWriter:
    """Writes model and POVM documents into one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0
        os.makedirs(directory, exist_ok=True)

    def write(self, doc: dict) -> str:
        path = os.path.join(self.directory, f"doc{self.count}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        return path

    def model(self, spec: ModelSpec, amplitudes: np.ndarray) -> str:
        doc = {
            "dim": spec.dim,
            "kind": "unitary",
            "generator": _pairs(spec.generator),
            "initial_state": _pairs(amplitudes),
            "passes": spec.passes,
        }
        if spec.channels:
            doc["compose"] = [{"kraus": _pairs(k), "placement": placement}
                              for k, placement in spec.channels]
        return self.write(doc)

    def povm(self, effects: np.ndarray) -> str:
        return self.write({"dim": effects.shape[1], "effects": _pairs(effects)})


def _model(rng, d: int, placements, passes: int, kraus_count: int) -> tuple[ModelSpec, np.ndarray]:
    generator = _hermitian(rng, d)
    psi = _unit_vector(rng, d)
    channels = [(_kraus(rng, d, kraus_count), p) for p in placements]
    return ModelSpec(generator, np.outer(psi, psi.conj()), passes, channels), psi


def _prior(rng) -> tuple:
    a = float(rng.uniform(-1.0, 0.5))
    b = a + float(rng.uniform(0.5, 2.0))
    if rng.random() < 0.5:
        return ("uniform", a, b)
    return ("gauss", float(rng.uniform(a, b)), float(rng.uniform(0.2, 1.0)), a, b)


def _prior_spec(prior: tuple) -> str:
    return f"{prior[0]}:" + ",".join(repr(x) for x in prior[1:])


def _cli_op(rng, out: DocumentWriter, kind: str, d: int, placements, kraus_count: int,
            projective: bool, stratum: int) -> Op:
    """One fisher, qfi or bayes op on freshly written documents; a bayes grid
    is drawn from grid-size stratum ``stratum`` of ``len(CHANNEL_ORDERS)``."""
    # "--theta=VALUE": argparse reads a separate "-5e-05" as an option
    spec, psi = _model(rng, d, placements, int(rng.integers(1, 4)), kraus_count)
    model_path = out.model(spec, psi)
    theta = float(rng.uniform(-np.pi, np.pi))
    if kind == "qfi":
        return Op(kind, ["qfi", "--model", model_path, f"--theta={theta!r}"], spec, theta=theta)
    effects = _povm(rng, d, projective)
    povm_path = out.povm(effects)
    if kind == "fisher":
        return Op(kind, ["fisher", "--model", model_path, "--povm", povm_path,
                         f"--theta={theta!r}"], spec, effects, theta=theta)
    prior = _prior(rng)
    lo, hi = GRID_RANGE
    n_strata = len(CHANNEL_ORDERS)
    grid = lo + int((stratum + rng.random()) * (hi - lo) / n_strata)
    return Op(kind, ["bayes", "--model", model_path, "--povm", povm_path,
                     "--prior", _prior_spec(prior), "--grid", str(grid)],
              spec, effects, prior=prior, grid=grid)


def _cli_light(rng, out: DocumentWriter) -> list[Op]:
    ops = []
    n_orders = len(CHANNEL_ORDERS)
    shift = rng.integers(n_orders, size=len(CLI_DIMS))
    grid_offset = int(rng.integers(n_orders))
    for r in range(CLI_ROUNDS):
        # in every n_orders rounds each (command, dimension) pair meets each
        # channel order once, and each dimension each grid-size stratum
        # once, so the cost mix is the same for every seed.  Orders are
        # relabelled at random in each such cycle; Kraus counts 1-3 and the
        # two POVM kinds take turns.
        if r % n_orders == 0:
            relabel = rng.permutation(n_orders)
        round_ops = []
        for c, kind in enumerate(CLI_KINDS):
            for j, d in enumerate(CLI_DIMS):
                placements = CHANNEL_ORDERS[relabel[(shift[j] + c + r) % n_orders]]
                round_ops.append(_cli_op(rng, out, kind, d, placements,
                                         kraus_count=1 + (j + r + c) % 3,
                                         projective=(j + r + c) % 2 == 0,
                                         stratum=(j + r + grid_offset) % n_orders))
        ops.extend(round_ops[i] for i in rng.permutation(len(round_ops)))
    return ops


def defect_probe(seed: int, directory: str) -> list[Op]:
    """One qubit op of each command on each of the DEFECT_ORDERS."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    out = DocumentWriter(directory)
    return [_cli_op(rng, out, kind, 2, placements, kraus_count=2, projective=True, stratum=0)
            for placements in DEFECT_ORDERS for kind in CLI_KINDS]


def _dpi(rng) -> list[Op]:
    ops = []
    for _ in range(DPI_ROUNDS):
        round_ops = [["dpi", "--mode", "classical", "--trials", "1"]
                     for _ in range(DPI_CLASSICAL_PER_ROUND)]
        round_ops += [["dpi", "--mode", "quantum", "--trials", "1",
                       "--dim", str(d), "--kraus", str(k)] for d, k in DPI_QUANTUM_CASES]
        for i in rng.permutation(len(round_ops)):
            ops.append(Op("dpi", round_ops[i] + ["--seed", str(int(rng.integers(0, 2 ** 31)))]))
    return ops


def build(workload: str, seed: int, directory: str) -> list[Op]:
    """The op sequence of one workload, with its documents written to ``directory``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli-light":
        return _cli_light(rng, DocumentWriter(directory))
    return _dpi(rng)
