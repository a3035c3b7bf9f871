"""JSON document schemas for models, POVMs and channels.

Complex numbers are encoded as [re, im] pairs; matrices as row-major
nested lists of pairs.  A model document declares a unitary family
(generator, initial state, pass count) and optionally a list of fixed
channels to compose: "pre" channels act on the initial state and "post"
channels after the dynamics, each kind in list order.

Each matrix field (the generator, the initial state, a channel's Kraus
list, a POVM's effect list) is read as one numpy array.  A field numpy
cannot read whole goes to the per-entry walk (``matrix_from_pairs``,
``vector_from_pairs``), which names the first bad entry.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import DocumentError, FisherinfoError, _cut, _shown
from .models import UnitaryFamily
from .quantum import DensityMatrix, KrausChannel, Povm, pure_state


def _complex_from_pair(v, where: str) -> complex:
    # JSON true and false are Python ints, but not numbers to the schema
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
        raise DocumentError(f"{where}: expected an [re, im] pair, got {_shown(v)}")
    try:
        re, im = float(v[0]), float(v[1])
    except OverflowError:
        raise DocumentError(f"{where}: an integer entry is too large for a float") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise DocumentError(f"{where}: non-finite number in {_shown(v)}")
    return complex(re, im)


def matrix_from_pairs(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise DocumentError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"{where}: row {i} must have {dim} entries")
        for j, v in enumerate(row):
            out[i, j] = _complex_from_pair(v, f"{where}[{i}][{j}]")
    return out


def vector_from_pairs(entries, dim: int, where: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim:
        raise DocumentError(f"{where}: expected {dim} entries")
    return np.array([_complex_from_pair(v, f"{where}[{k}]") for k, v in enumerate(entries)])


def walk_pairs(value, shape: tuple, where: str) -> np.ndarray:
    """Read ``value`` entry by entry: the reference that names the first bad entry."""
    if len(shape) == 1:
        return vector_from_pairs(value, shape[0], where)
    if len(shape) == 2:
        return matrix_from_pairs(value, shape[0], where)
    return np.array([matrix_from_pairs(m, shape[1], f"{where}[{k}]")
                     for k, m in enumerate(value)])


def _pair_level(value, depth: int):
    """The elements ``depth`` levels below ``value``, or None where ``value``
    or an element above them is not a list."""
    level = [value]
    for _ in range(depth):
        if not all(isinstance(x, list) for x in level):
            return None
        level = list(chain.from_iterable(level))
    return level


def array_from_pairs(value, shape: tuple):
    """``value`` as one complex array of ``shape``, or None for the walk to decide.

    numpy must read the nested lists as finite real numbers of shape
    ``shape + (2,)``, none of them a JSON boolean.  The result is then
    bitwise the walk's ``complex(float(re), float(im))`` for each pair.
    """
    pairs = _pair_level(value, len(shape))
    if pairs is None:
        return None
    try:
        a = np.array(value)
    except ValueError:  # ragged or deeper than numpy's 64 dimensions
        return None
    if a.dtype.kind not in "iuf" or a.shape != shape + (2,):
        return None
    # numpy reads true and false next to a float as 1.0 and 0.0
    if bool in set(map(type, chain.from_iterable(pairs))):
        return None
    a = np.ascontiguousarray(a, dtype=float)
    if not np.isfinite(a).all():
        return None
    return a.view(complex)[..., 0]


def read_pairs(value, shape: tuple, where: str) -> np.ndarray:
    """Read a vector (d,), matrix (d, d) or matrix list (n, d, d) of pairs."""
    a = array_from_pairs(value, shape)
    return walk_pairs(value, shape, where) if a is None else a


def pairs_from_matrix(a: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(a, dtype=complex)]


def _reject_constant(text: str):
    raise ValueError(f"non-finite number {text}")


def _read_json(path: str) -> dict:
    where = _cut(path)  # the path as each message below shows it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        exc.filename = where  # the error's own echo of the path
        raise DocumentError(f"cannot read {where}: {exc}") from None
    except ValueError as exc:
        raise DocumentError(f"{where} is not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError(f"{where} is nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: top level must be an object")
    return doc


def _dim_of(doc: dict, path: str) -> int:
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:  # JSON true and false are Python ints
        raise DocumentError(f"{path}: 'dim' must be a positive integer")
    return dim


def model_from_document(doc: dict, where: str = "model") -> UnitaryFamily:
    """Build the model with its declared initial state and channels."""
    dim = _dim_of(doc, where)
    if doc.get("kind") != "unitary":
        raise DocumentError(f"{where}: unsupported kind {_shown(doc.get('kind'))}")
    passes = doc.get("passes", 1)
    if type(passes) is not int or passes < 1:
        raise DocumentError(f"{where}: 'passes' must be a positive integer")
    try:
        float(passes) ** 2  # the information scales with passes squared
    except OverflowError:
        raise DocumentError(f"{where}: 'passes' is too large") from None
    try:
        generator = read_pairs(doc.get("generator"), (dim, dim), f"{where}.generator")
        amplitudes = read_pairs(doc.get("initial_state"), (dim,), f"{where}.initial_state")
        compose = doc.get("compose", [])
        if not isinstance(compose, list):
            raise DocumentError(f"{where}: 'compose' must be a list")
        channels = []
        for k, entry in enumerate(compose):
            if not isinstance(entry, dict):
                raise DocumentError(f"{where}.compose[{k}] must be an object")
            kraus_rows = entry.get("kraus")
            if not isinstance(kraus_rows, list) or not kraus_rows:
                raise DocumentError(f"{where}.compose[{k}]: 'kraus' must be a nonempty list")
            kraus = read_pairs(kraus_rows, (len(kraus_rows), dim, dim),
                               f"{where}.compose[{k}].kraus")
            channels.append((KrausChannel(kraus), entry.get("placement", "post")))
        return UnitaryFamily(generator, pure_state(amplitudes), passes, tuple(channels))
    except DocumentError:
        raise
    except (FisherinfoError, ValueError) as exc:
        raise DocumentError(f"{where}: {exc}") from None


def povm_from_document(doc: dict, where: str = "povm") -> Povm:
    dim = _dim_of(doc, where)
    effects_rows = doc.get("effects")
    if not isinstance(effects_rows, list) or not effects_rows:
        raise DocumentError(f"{where}: 'effects' must be a nonempty list")
    effects = read_pairs(effects_rows, (len(effects_rows), dim, dim), f"{where}.effects")
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(type(x) is int for x in labels)):
        raise DocumentError(f"{where}: 'labels' must be a list of integers")
    try:
        return Povm(effects, labels)
    except FisherinfoError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def load_model_document(path: str) -> UnitaryFamily:
    return model_from_document(_read_json(path), _cut(path))


def load_povm_document(path: str) -> Povm:
    return povm_from_document(_read_json(path), _cut(path))


def state_to_pairs(rho: DensityMatrix) -> list:
    return pairs_from_matrix(rho.mat)


def povm_to_document(povm: Povm) -> dict:
    return {
        "dim": povm.dim,
        "effects": [pairs_from_matrix(e) for e in povm.effects],
        "labels": list(povm.labels),
    }
