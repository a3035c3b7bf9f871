import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherinfo.bayes import uniform_prior
from fisherinfo.errors import (
    DimensionMismatch,
    FisherinfoError,
    InvalidChannel,
    InvalidPovm,
    InvalidState,
    NotNormalized,
    NotUnitary,
)
from fisherinfo.fisher import bayesian_information, classical_fisher
from fisherinfo.linalg import MAX_DIM, PAULI_Z, adjoint
from fisherinfo.models import UnitaryFamily
from fisherinfo.optimize import maximize_fisher
from fisherinfo.quantum import (
    BORN_CLAMP,
    BORN_SUM_ATOL,
    CHANNEL_ATOL,
    NORMALIZATION_ATOL,
    POVM_ATOL,
    STATE_TRACE_ATOL,
    UNITARY_ATOL,
    DensityMatrix,
    KrausChannel,
    Povm,
    apply_dual_matrix,
    born_probabilities,
    depolarizing_channel,
    projective_povm,
    pure_state,
    unitary_channel,
)
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
    random_pure_state,
    random_unitary,
)

from mixed_states import apply_channel, maximally_mixed, random_full_rank_state


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(InvalidState):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(InvalidState):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_clamps_roundoff_negatives():
    rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
    w, _ = np.linalg.eigh(rho.mat)
    assert w[0] >= 0.0
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)


def test_pure_state_requires_normalization():
    with pytest.raises(NotNormalized):
        pure_state(np.array([1.0, 1.0]))


def test_maximally_mixed_is_uniform():
    assert np.allclose(maximally_mixed(4).mat, np.eye(4) / 4.0)


def test_povm_rejects_incomplete_effects():
    with pytest.raises(InvalidPovm):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])
    with pytest.raises(InvalidPovm, match=r"^effects sum deviates from identity by 2\.500e-01$"):
        Povm([np.diag([0.5, 0.0]), np.diag([0.5, 0.0]), np.diag([0.0, 0.75])])


def test_povm_rejects_negative_effect():
    with pytest.raises(InvalidPovm):
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])
    with pytest.raises(InvalidPovm, match=r"^effect 2 has negative eigenvalue -2\.500e-01$"):
        Povm([np.diag([0.5, 0.0]), np.diag([0.5, 0.5]), np.diag([0.0, -0.25]),
              np.diag([0.0, 0.75])])


def test_povm_names_the_first_failing_effect_hermiticity_first():
    skew = np.array([[0.0, 1e-3], [0.0, 0.0]])
    # effect 1 is non-Hermitian, effect 2 negative: effect 1 is named
    with pytest.raises(InvalidPovm, match=r"^effect 1 is non-Hermitian by 1\.000e-03$"):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) + skew, np.diag([0.0, -0.5])])
    # effect 1 is negative, effect 2 non-Hermitian: effect 1 is named
    with pytest.raises(InvalidPovm, match=r"^effect 1 has negative eigenvalue -5\.000e-01$"):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, -0.5]), np.diag([0.0, 1.5]) + skew])
    # effect 2 is both: Hermiticity is named first
    with pytest.raises(InvalidPovm, match=r"^effect 2 is non-Hermitian by 1\.000e-03$"):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.5]), np.diag([0.0, -0.5]) + skew])


def test_a_marginal_fixed_povm_is_refused_at_construction():
    # effects that sum to I + 6e-11 J (J all ones) would let a Born row sum
    # miss 1 by up to 1.2e-10, more than its tolerance
    rng = np.random.default_rng(0)
    basis = np.linalg.eigh(random_hermitian(rng, 2))[1]
    with pytest.raises(InvalidPovm, match=r"^effects sum deviates from identity by 1\.200e-10$"):
        Povm([e + 3e-11 * np.ones((2, 2)) for e in projective_povm(basis).effects])


def test_povm_rejects_duplicate_labels():
    with pytest.raises(InvalidPovm):
        Povm([np.eye(2) / 2, np.eye(2) / 2], labels=[0, 0])


def test_povm_default_labels_are_positions():
    povm = projective_povm(np.eye(3))
    assert povm.labels == (0, 1, 2)
    assert len(povm) == 3


def test_projective_povm_requires_unitary_basis():
    with pytest.raises(NotUnitary):
        projective_povm(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # a basis and a unitary a little off unitarity: the POVM's effects, or
    # the channel's Kraus operator, would miss completeness by as much
    state = pure_state(np.array([0.0, 1.0]) * np.sqrt(1.0 + 4.9e-11))
    with pytest.raises(NotUnitary,
                       match=r"^measurement basis deviates from unitarity by 9\.000e-11$"):
        classical_fisher(UnitaryFamily(PAULI_Z, state),
                         projective_povm(np.diag([1.0, np.sqrt(1.0 + 9e-11)])), 0.3)
    with pytest.raises(NotUnitary, match=r"^unitary deviates from unitarity by 8\.000e-11$"):
        UnitaryFamily(PAULI_Z, channels=(
            (unitary_channel(np.diag([1.0, np.sqrt(1.0 + 8e-11)])), "post"),))


def test_kraus_channel_rejects_incomplete_operators():
    with pytest.raises(InvalidChannel):
        KrausChannel([np.eye(2) * 0.5])


def test_unitary_channel_conjugates():
    u = random_unitary(np.random.default_rng(3), 2)
    rho = random_full_rank_state(np.random.default_rng(4), 2)
    out = apply_channel(unitary_channel(u), rho)
    assert np.max(np.abs(out.mat - u @ rho.mat @ adjoint(u))) < 1e-12


def test_full_depolarizing_outputs_maximally_mixed():
    rho = random_pure_state(np.random.default_rng(5), 2)
    out = apply_channel(depolarizing_channel(1.0), rho)
    assert np.max(np.abs(out.mat - np.eye(2) / 2.0)) < 1e-12


def test_depolarizing_strength_outside_unit_interval():
    with pytest.raises(InvalidChannel):
        depolarizing_channel(1.5)


def test_channels_preserve_valid_states():
    rng = np.random.default_rng(6)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        channel = random_channel(rng, dim, k)
        rho = random_full_rank_state(rng, dim)
        out = apply_channel(channel, rho)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-10)
        w, _ = np.linalg.eigh(out.mat)
        assert w[0] >= -1e-10


def test_dual_channel_is_unital():
    rng = np.random.default_rng(8)
    for _ in range(50):
        dual = apply_dual_matrix(random_channel(rng, 3, 2), np.eye(3))
        assert np.max(np.abs(dual - np.eye(3))) < 1e-10


def test_dual_channel_pairing_identity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        channel = random_channel(rng, dim, 2)
        rho = random_full_rank_state(rng, dim)
        povm = random_projective_povm(rng, dim)
        pushed = apply_channel(channel, rho)
        for e in povm.effects:
            lhs = np.trace(pushed.mat @ e).real
            rhs = np.trace(rho.mat @ apply_dual_matrix(channel, e)).real
            assert abs(lhs - rhs) < 1e-12


def test_dual_povm_is_a_valid_povm():
    rng = np.random.default_rng(10)
    channel = random_channel(rng, 2, 3)
    povm = random_projective_povm(rng, 2)
    back = Povm(apply_dual_matrix(channel, povm.effects), povm.labels)
    assert isinstance(back, Povm)
    assert back.labels == povm.labels


def test_born_probabilities_normalize():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        rho = random_pure_state(rng, dim)
        povm = random_projective_povm(rng, dim)
        p = born_probabilities(rho, povm)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)


def test_born_probabilities_dimension_check():
    with pytest.raises(DimensionMismatch):
        born_probabilities(maximally_mixed(2), projective_povm(np.eye(3)))


# a POVM or a channel takes its operators as one (n, d, d) array, a list of
# matrices or a tuple of them
OPERATOR_FORMS = {"array": lambda ops: ops, "list": list, "tuple": tuple}


def _built(build, ops):
    """The object, or the type and text of the error, that ``build(ops)`` gives."""
    try:
        return build(ops)
    except FisherinfoError as exc:
        return type(exc), str(exc)


def _defective(effects, kraus, defect):
    """The operators with one defect: the POVM's first effect non-Hermitian
    or negative, or every operator scaled off completeness."""
    effects, kraus = effects.copy(), kraus.copy()
    if defect == "non-Hermitian":
        effects[0, 0, -1] += 1e-6j
    elif defect == "negative":
        low = np.linalg.eigvalsh(effects[0])[0]
        effects[0] -= (low + 1e-6) * np.eye(len(effects[0]))
    elif defect == "incomplete":
        effects *= 1 + 1e-6
        kraus *= 1 + 1e-6
    return effects, kraus


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), count=st.integers(1, 4),
       defect=st.sampled_from([None, "non-Hermitian", "negative", "incomplete"]))
def test_operators_are_held_as_one_array_in_their_order(seed, dim, count, defect):
    rng = np.random.default_rng(seed)
    kraus = random_channel(rng, dim, count).kraus
    effects = adjoint(kraus) @ kraus
    effects, kraus = _defective(effects, kraus, defect)
    povms = {name: _built(lambda ops: Povm(form(ops)), effects)
             for name, form in OPERATOR_FORMS.items()}
    channels = {name: _built(lambda ops: KrausChannel(form(ops)), kraus)
                for name, form in OPERATOR_FORMS.items()}
    for built, ops, field in ((povms, effects, "effects"), (channels, kraus, "kraus")):
        if isinstance(built["array"], tuple):  # an error: the same for every form
            assert built["list"] == built["tuple"] == built["array"]
            continue
        for obj in built.values():
            held = getattr(obj, field)
            assert type(held) is np.ndarray and held.shape == ops.shape
            assert held.tobytes() == ops.tobytes()
    if defect is not None:
        return
    family = UnitaryFamily(random_hermitian(rng, dim), random_pure_state(rng, dim))
    theta, prior = float(rng.uniform(-1.0, 1.0)), uniform_prior(-0.5, 0.5, 21)
    values = set()
    for name in OPERATOR_FORMS:
        noisy = family.with_channel(channels[name], "post")
        values.add((classical_fisher(noisy, povms[name], theta),
                    bayesian_information(noisy, povms[name], prior)))
    assert len(values) == 1


@pytest.mark.parametrize("form", sorted(OPERATOR_FORMS))
def test_operator_forms_reject_the_same_shapes(form):
    too_big = np.eye(MAX_DIM + 1, dtype=complex)[None]
    mixed = [np.eye(2, dtype=complex), np.eye(3, dtype=complex)]
    cases = [(too_big, DimensionMismatch, "outside supported range")]
    if form != "array":  # an array cannot hold matrices of two sizes
        cases.append((mixed, DimensionMismatch, "mixed dimensions"))
    for ops, error, text in cases:
        for build in (Povm, KrausChannel):
            with pytest.raises(error, match=text) as raised:
                build(OPERATOR_FORMS[form](ops))
            assert _built(build, list(ops)) == (error, str(raised.value))


def test_the_load_bounds_add_up_to_less_than_the_compute_bounds():
    prepared = (1 + NORMALIZATION_ATOL) * (1 + CHANNEL_ATOL)
    assert prepared - 1 < STATE_TRACE_ATOL
    assert prepared * (1 + POVM_ATOL) - 1 < BORN_SUM_ATOL
    assert BORN_CLAMP / 2 * (1 + BORN_SUM_ATOL) > BORN_CLAMP
    # a unitary's defect is its channel's, and its basis's POVM's
    assert UNITARY_ATOL <= min(CHANNEL_ATOL, POVM_ATOL)
    # an effect eigenvalue may go down to BORN_CLAMP / 2
    low = BORN_CLAMP / 2
    Povm([np.diag([1.0, 0.999 * low]), np.diag([0.0, 1.0 - 0.999 * low])])
    with pytest.raises(InvalidPovm, match="^effect 0 has negative eigenvalue"):
        Povm([np.diag([1.0, 1.001 * low]), np.diag([0.0, 1.0 - 1.001 * low])])


def test_a_povms_budget_counts_what_the_born_clamp_adds_back():
    # 79 effects with eigenvalue -4.9e-13 on |1>, each above the floor, and
    # a sum of I + 1.9e-11 |1><1|: at |1> the clamped Born row would sum to
    # 1 + 5.8e-11 from the POVM alone
    low = -4.9e-13
    effects = [np.diag([1.0 / 79, low])] * 79 + [np.diag([0.0, 1.0 - 79 * low + 1.9e-11])]
    with pytest.raises(InvalidPovm, match=r"^effects sum deviates from identity by 5\.771e-11$"):
        Povm(effects)


def _unit_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _bumped(kraus, eps, v):
    """Kraus operators times sqrt(I + eps |v><v|): they sum to I + eps |v><v|,
    a completeness defect of Frobenius norm |eps|."""
    w, u = np.linalg.eigh(np.eye(len(v)) + eps * np.outer(v, np.conj(v)))
    return kraus @ ((u * np.sqrt(w)) @ adjoint(u))


def test_a_models_channels_share_one_completeness_budget():
    # six pre channels that raise the trace of |0> and six that lower it:
    # each is within CHANNEL_ATOL and their composition is complete, but the
    # sixth output's trace would be off 1 by 1.2e-10
    v = np.array([1.0, 0.0])
    up, down = (KrausChannel(_bumped(np.eye(2)[None], sign * 0.995 * CHANNEL_ATOL, v))
                for sign in (1.0, -1.0))
    UnitaryFamily(PAULI_Z, channels=((up, "pre"),))
    with pytest.raises(InvalidChannel,
                       match=r"^the channels' Kraus completeness defects sum to 2\.388e-10$"):
        UnitaryFamily(PAULI_Z, channels=tuple((c, "pre") for c in [up] * 6 + [down] * 6))


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 3),
       signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3), split=st.floats(0.0, 1.0),
       state=st.sampled_from(["pure", "document", "aligned"]), unitary=st.booleans())
def test_inputs_within_the_load_bounds_pass_every_later_check(seed, dim, signs, split, state,
                                                              unitary):
    # every defect at 0.999 of its load-time bound, along one direction v;
    # with ``unitary`` the POVM is a basis's and the post channel a unitary's,
    # each off unitarity by up to 0.999 UNITARY_ATOL
    rng = np.random.default_rng(seed)
    v, margin = _unit_vector(rng, dim), 0.999
    if unitary:  # a basis B = sqrt(I + eps |v><v|) U^dag, so sum_x E_x = B B^dag = I + eps |v><v|
        povm = projective_povm(adjoint(_bumped(random_unitary(rng, dim), margin * UNITARY_ATOL, v)))
    else:
        weights = rng.dirichlet(np.ones(dim))[:, None, None]
        povm = Povm(random_projective_povm(rng, dim).effects
                    + weights * margin * POVM_ATOL * np.outer(v, np.conj(v)))
    budget = margin * CHANNEL_ATOL  # shared by the model's channels
    pre = KrausChannel(_bumped(random_channel(rng, dim, 2).kraus, signs[0] * split * budget, v))
    if unitary:
        post = unitary_channel(_bumped(random_unitary(rng, dim),
                                       signs[1] * (1.0 - split) * margin * UNITARY_ATOL, v))
    else:
        post = KrausChannel(_bumped(random_channel(rng, dim, 2).kraus,
                                    signs[1] * (1.0 - split) * budget, v))
    psi = v if state == "aligned" else _unit_vector(rng, dim)
    if state != "pure":  # normalized as a document may be
        psi = psi * np.sqrt(1.0 + signs[2] * margin * NORMALIZATION_ATOL)
    family = UnitaryFamily(random_hermitian(rng, dim), pure_state(psi),
                           channels=((pre, "pre"), (post, "post")))
    theta = float(rng.uniform(-1.0, 1.0))
    classical_fisher(family, povm, theta)
    bayesian_information(family, povm, uniform_prior(-0.5, 0.5, 21))
    maximize_fisher(family, theta, povm=povm, restarts=2)
