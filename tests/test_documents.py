import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisherinfo import documents
from fisherinfo.documents import (
    array_from_pairs,
    load_model_document,
    load_povm_document,
    matrix_from_pairs,
    model_from_document,
    pairs_from_matrix,
    povm_from_document,
    povm_to_document,
    read_pairs,
    state_to_pairs,
    walk_pairs,
)
from fisherinfo.cli import main
from fisherinfo.errors import DocumentError, _cut
from fisherinfo.fisher import classical_fisher, sld_solve
from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import PAULI_X, PAULI_Z, KrausChannel, Povm, projective_povm, pure_state
from fisherinfo.sampling import random_channel, random_hermitian, random_unitary

from mixed_states import apply_channel


def model_doc(**overrides):
    doc = {
        "dim": 2,
        "kind": "unitary",
        "generator": pairs_from_matrix(PAULI_Z),
        "initial_state": [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]],
    }
    doc.update(overrides)
    return doc


def test_pair_encoding_round_trips_exactly():
    rng = np.random.default_rng(103)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(matrix_from_pairs(pairs_from_matrix(a), 3, "m"), a)


def test_model_document_round_trip():
    model = model_from_document(model_doc(passes=2))
    assert np.array_equal(model.generator, PAULI_Z)
    assert model.passes == 2
    expected = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert np.max(np.abs(model.rho0.mat - expected.mat)) < 1e-15


def test_model_document_defaults_to_one_pass():
    model = model_from_document(model_doc())
    assert model.passes == 1
    assert model.channels == ()


def test_model_document_with_composed_channels():
    u = UnitaryFamily(PAULI_X).propagator(np.pi / 4.0)
    doc = model_doc(compose=[
        {"kraus": [pairs_from_matrix(u)]},
        {"kraus": [pairs_from_matrix(np.eye(2))], "placement": "pre"},
    ])
    model = model_from_document(doc)
    assert len(model.channels) == 2
    assert model.channels[0][1] == "post"
    assert model.channels[1][1] == "pre"
    assert np.max(np.abs(model.channels[0][0].kraus[0] - u)) < 1e-15


@pytest.mark.parametrize("order", [("post", "pre"), ("pre", "pre")])
def test_fisher_and_qfi_apply_pre_channels_in_list_order(capsys, tmp_path, order):
    rotation = KrausChannel([UnitaryFamily(PAULI_X).propagator(0.3)])
    damping = KrausChannel([np.diag([1.0, np.sqrt(0.6)]), np.array([[0.0, np.sqrt(0.4)], [0.0, 0.0]])])
    plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    if order == ("post", "pre"):
        channels = [damping, rotation]
        direct = UnitaryFamily(PAULI_Z, apply_channel(rotation, plus)).with_channel(damping, "post")
    else:
        channels = [rotation, damping]
        direct = UnitaryFamily(PAULI_Z, apply_channel(damping, apply_channel(rotation, plus)))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_doc(compose=[
        {"kraus": [pairs_from_matrix(k) for k in channel.kraus], "placement": placement}
        for channel, placement in zip(channels, order)
    ])))
    x_basis = projective_povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    povm_path = tmp_path / "povm.json"
    povm_path.write_text(json.dumps(povm_to_document(x_basis)))

    theta = 0.4
    assert main(["fisher", "--model", str(model_path), "--povm", str(povm_path),
                 "--theta", str(theta)]) == 0
    fisher_value = json.loads(capsys.readouterr().out)["value"]
    assert main(["qfi", "--model", str(model_path), "--theta", str(theta)]) == 0
    qfi_value = json.loads(capsys.readouterr().out)["value"]
    assert fisher_value == pytest.approx(classical_fisher(direct, x_basis, theta), abs=1e-12)
    assert qfi_value == pytest.approx(sld_solve(direct, theta).qfi, abs=1e-12)
    assert fisher_value > 0.1


@pytest.mark.parametrize("corruption", [
    {"dim": 0},
    {"dim": "2"},
    {"dim": True},
    {"kind": "kraus"},
    {"kind": None},
    {"passes": 0},
    {"passes": 1.5},
    {"passes": True},
    {"passes": False},
    {"generator": None},
    {"generator": [[[1.0, 0.0]]]},
    {"generator": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
    {"generator": [[[1.0, 0.0], "x"], [[0.0, 0.0], [0.0, 0.0]]]},
    {"generator": [[[1.0, 0.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]]]},
    {"initial_state": [[1.0, 0.0]]},
    {"initial_state": [[0.7, 0.0], [0.7, 0.0]]},
    {"compose": ["not-an-object"]},
    {"compose": [{"kraus": []}]},
    {"compose": [{"kraus": [pairs_from_matrix(np.eye(2))], "placement": "sideways"}]},
    {"compose": [{"kraus": [pairs_from_matrix(0.5 * np.eye(2))]}]},
    {"compose": 5},
    {"compose": None},
    {"compose": {}},
])
def test_model_document_rejects_corruptions(corruption):
    with pytest.raises(DocumentError):
        model_from_document(model_doc(**corruption))


def test_non_hermitian_generator_is_a_document_error():
    bad = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(DocumentError):
        model_from_document(model_doc(generator=bad))


def test_povm_document_round_trip():
    povm = projective_povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    doc = povm_to_document(povm)
    back = povm_from_document(doc)
    assert back.labels == povm.labels
    for a, b in zip(back.effects, povm.effects):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("corruption", [
    {"dim": -1},
    {"effects": None},
    {"effects": []},
    {"labels": [0, 0]},
])
def test_povm_document_rejects_corruptions(corruption):
    povm = projective_povm(np.eye(2))
    doc = povm_to_document(povm)
    doc.update(corruption)
    with pytest.raises(DocumentError):
        povm_from_document(doc)


def test_povm_document_rejects_incomplete_effects():
    doc = {"dim": 2, "effects": [pairs_from_matrix(0.5 * np.eye(2))]}
    with pytest.raises(DocumentError):
        povm_from_document(doc)


def test_state_to_pairs_encodes_the_density_matrix():
    rho = pure_state(np.array([1.0, 0.0]))
    assert state_to_pairs(rho) == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def test_document_loading_from_files(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_doc()))
    assert load_model_document(str(model_path)).dim == 2

    povm_path = tmp_path / "povm.json"
    povm_path.write_text(json.dumps(povm_to_document(projective_povm(np.eye(2)))))
    assert load_povm_document(str(povm_path)).dim == 2


def test_document_loading_failure_modes(tmp_path, capsys):
    with pytest.raises(DocumentError):
        load_model_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DocumentError):
        load_model_document(str(bad))
    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2, 3]")
    with pytest.raises(DocumentError):
        load_povm_document(str(toplevel))
    # nesting deeper than the JSON parser's recursion limit
    deep = "[" * 100_000 + "]" * 100_000
    deep_model = tmp_path / "deep_model.json"
    deep_model.write_text(json.dumps(model_doc(generator=None)).replace("null", deep))
    with pytest.raises(DocumentError, match="nested too deeply"):
        load_model_document(str(deep_model))
    deep_povm = tmp_path / "deep_povm.json"
    deep_povm.write_text('{"dim": 2, "effects": ' + deep + "}")
    with pytest.raises(DocumentError, match="nested too deeply"):
        load_povm_document(str(deep_povm))
    # a JSON boolean is not a number, even where numpy would read it as one
    flagged = tmp_path / "bool.json"
    flagged.write_text(json.dumps(model_doc()).replace("[1.0, 0.0]", "[true, 0.0]", 1))
    with pytest.raises(DocumentError, match=r"generator\[0\]\[0\].*\[True, 0.0\]"):
        load_model_document(str(flagged))
    # a bad entry is shown cut short, and so is the path: one stderr line of at most 200 bytes
    zeros = [[[0.0, 0.0]] * 64] * 64
    big_model = tmp_path / "big_model.json"
    big_model.write_text(json.dumps(model_doc()).replace("[1.0, 0.0]", json.dumps(zeros), 1))
    nested = tmp_path / "nested_model.json"
    nested.write_text(json.dumps(model_doc()).replace("[1.0, 0.0]", "[" * 900 + "]" * 900, 1))
    big_povm = tmp_path / "big_povm.json"
    big_povm.write_text(json.dumps(povm_to_document(projective_povm(np.eye(2))))
                        .replace("[1.0, 0.0]", json.dumps(zeros), 1))
    good_model = tmp_path / "good_model.json"
    good_model.write_text(json.dumps(model_doc()))
    # and so are a bad kind and a bad channel placement
    long_kind = tmp_path / "long_kind.json"
    long_kind.write_text(json.dumps(model_doc(kind=["x"] * 20_000)))
    long_placement = tmp_path / "long_placement.json"
    long_placement.write_text(json.dumps(model_doc(compose=[
        {"kraus": [pairs_from_matrix(np.eye(2))], "placement": "p" * 50_000}])))
    for argv, path, shown in [
            (["qfi", "--model", str(big_model)], big_model, "[0][0]"),
            (["qfi", "--model", str(nested)], nested, "[0][0]"),
            (["fisher", "--model", str(good_model), "--povm", str(big_povm)], big_povm, "[0][0]"),
            (["qfi", "--model", str(long_kind)], long_kind, "unsupported kind ['x',"),
            (["qfi", "--model", str(long_placement)], long_placement, "got 'ppp")]:
        capsys.readouterr()
        assert main(argv + ["--theta", "0.3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and _cut(str(path)) in err and shown in err
        assert len(err.encode()) <= 200


INT64 = (-2 ** 63, 2 ** 63 - 1)
NUMBER_KINDS = {
    "floats": st.floats(allow_nan=False, allow_infinity=False),  # -0.0 included
    "ints": st.integers(-2 ** 70, 2 ** 70),  # beyond 2**53 and beyond int64
}


@st.composite
def pair_fields(draw):
    """A valid field: its shape (d,), (d, d) or (n, d, d) and its nested lists."""
    d = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(d,), (d, d), (draw(st.integers(1, 3)), d, d)]))
    kinds = draw(st.lists(st.sampled_from(sorted(NUMBER_KINDS)), min_size=1, max_size=3,
                          unique=True))
    numbers = st.one_of(*(NUMBER_KINDS[k] for k in kinds))

    def build(rest):
        if not rest:
            return [draw(numbers), draw(numbers)]
        return [build(rest[1:]) for _ in range(rest[0])]

    return shape, build(shape)


def _numbers(value):
    if isinstance(value, list):
        for x in value:
            yield from _numbers(x)
    else:
        yield value


@settings(max_examples=300)
@given(pair_fields())
def test_array_path_equals_the_walk_bitwise(field):
    shape, value = field
    walked = walk_pairs(value, shape, "field")
    read = read_pairs(value, shape, "field")
    assert read.dtype == walked.dtype == np.complex128
    assert read.shape == walked.shape == shape
    assert read.tobytes() == walked.tobytes()
    if all(type(x) is not int or INT64[0] <= x <= INT64[1] for x in _numbers(value)):
        assert array_from_pairs(value, shape) is not None


PAIR_CORRUPTIONS = ["x", None, {}, 1.0, [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]],
                    [float("inf"), 0.0], [0.0, float("-inf")], [10 ** 400, 0],
                    ["1", 0.0], [None, 0.0], [{}, 1.0], [True, 0.0], [0.0, False],
                    [False, True]]


@settings(max_examples=300)
@given(pair_fields(), st.data())
def test_corrupted_field_raises_the_walks_error(field, data):
    shape, value = field
    path = [data.draw(st.integers(0, shape[0] - 1))]
    for size in shape[1:]:
        if data.draw(st.booleans()):
            break
        path.append(data.draw(st.integers(0, size - 1)))
    parent = value
    for k in path[:-1]:
        parent = parent[k]
    old = parent[path[-1]]
    if len(path) == len(shape):
        bad = data.draw(st.sampled_from(PAIR_CORRUPTIONS))
    else:  # a level above the pairs: ragged, too shallow, not a list
        bad = data.draw(st.sampled_from([old[:-1], old + old[:1], old[0], tuple(old), "x", None,
                                         {}, float("inf")]))
    parent[path[-1]] = bad
    with pytest.raises(DocumentError) as walked:
        walk_pairs(value, shape, "field")
    with pytest.raises(DocumentError) as read:
        read_pairs(value, shape, "field")
    assert str(read.value) == str(walked.value)


def test_loading_valid_documents_converts_no_pair_on_its_own(monkeypatch, tmp_path):
    calls = []
    per_pair = documents._complex_from_pair
    monkeypatch.setattr(documents, "_complex_from_pair",
                        lambda v, where: calls.append(where) or per_pair(v, where))
    rng = np.random.default_rng(7)
    amplitudes = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    model = {
        "dim": 8,
        "kind": "unitary",
        "generator": pairs_from_matrix(random_hermitian(rng, 8)),
        "initial_state": pairs_from_matrix([amplitudes / np.linalg.norm(amplitudes)])[0],
        "compose": [{"kraus": [pairs_from_matrix(k) for k in random_channel(rng, 8, 2).kraus],
                     "placement": "pre"}],
    }
    halves = [e / 2.0 for _ in range(2) for e in projective_povm(random_unitary(rng, 8)).effects]
    model_path, povm_path = tmp_path / "model.json", tmp_path / "povm.json"
    model_path.write_text(json.dumps(model))
    povm_path.write_text(json.dumps(povm_to_document(Povm(halves))))
    assert load_model_document(str(model_path)).dim == 8
    assert len(load_povm_document(str(povm_path))) == 16
    assert calls == []
    matrix_from_pairs(pairs_from_matrix(np.eye(2)), 2, "m")  # the walk still counts
    assert len(calls) == 4
