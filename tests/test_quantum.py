"""Born-rule front end: input validation, exact tables, built-in scenarios."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctxcheck import (
    BUILTIN_NAMES,
    QuantumInputError,
    QuantumLabel,
    QuantumScenario,
    as_density,
    binary_projective_label,
    born_scenario,
    builtin_example,
    dump_document,
    projector_onto,
    theory_to_document,
    validate_theory,
    without_declarations,
)
from ctxcheck.quantum import (
    TOLERANCE,
    TRINE_VECTORS,
    _is_positive,
    born_weight,
    validate_povm,
    validate_projector,
)


def test_as_density_accepts_vectors_and_matrices():
    rho = as_density([1, 0])
    assert np.allclose(rho, [[1, 0], [0, 0]])
    same = as_density(rho)
    assert np.allclose(same, rho)
    plus = as_density(np.array([1, 1]) / math.sqrt(2))
    assert np.allclose(plus, np.full((2, 2), 0.5))


def test_as_density_rejects_bad_input():
    with pytest.raises(QuantumInputError):
        as_density([1, 1])  # unnormalized vector
    with pytest.raises(QuantumInputError):
        as_density(np.eye(3)[:2])  # non-square
    with pytest.raises(QuantumInputError):
        as_density(np.array([[0.5, 1j], [2j, 0.5]]))  # not hermitian
    with pytest.raises(QuantumInputError):
        as_density(np.eye(2))  # trace 2
    with pytest.raises(QuantumInputError):
        as_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_projector_and_povm_validation():
    p = projector_onto([3, 4])
    validate_projector(p)
    assert np.allclose(np.asarray(p) @ np.asarray(p), p)
    with pytest.raises(QuantumInputError):
        validate_projector(np.diag([1.0, 0.5]))
    validate_povm((p, np.eye(2) - p))
    with pytest.raises(QuantumInputError):
        validate_povm(())
    with pytest.raises(QuantumInputError):
        validate_povm((p,))  # does not sum to the identity
    with pytest.raises(QuantumInputError):
        validate_povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))


def test_binary_projective_label_orientation():
    lab = binary_projective_label("t", [0, 1])
    assert lab.outcomes == ("0", "1")
    # outcome "1" fires on the given vector, "0" on its complement
    assert np.allclose(lab.effects[1], [[0, 0], [0, 1]])
    assert np.allclose(np.asarray(lab.effects[0]) + lab.effects[1], np.eye(2))
    with pytest.raises(QuantumInputError):
        QuantumLabel(name="bad", outcomes=("0",), effects=lab.effects)


def test_born_scenario_exact_single_qubit():
    z = QuantumLabel(
        name="z",
        outcomes=("0", "1"),
        effects=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )
    scenario = QuantumScenario(
        states={"plus": np.array([1, 1]) / math.sqrt(2)},
        labels={"z": z},
        cover=(("z",),),
    )
    theory, bound = born_scenario(scenario, 100)
    table = theory.states["plus"].table[("z",)]
    assert table.weights == {("0",): Fraction(1, 2), ("1",): Fraction(1, 2)}
    assert bound <= Fraction(1, 100)
    with pytest.raises(QuantumInputError):
        born_scenario(scenario, 0)


def test_born_scenario_rejects_noncommuting_context():
    z = binary_projective_label("z", [0, 1])
    x = binary_projective_label("x", np.array([1, 1]) / math.sqrt(2))
    scenario = QuantumScenario(
        states={"zero": np.array([1, 0])},
        labels={"z": z, "x": x},
        cover=(("x", "z"),),
    )
    with pytest.raises(QuantumInputError):
        born_scenario(scenario, 10)


def test_bell_tables_are_bit_exact():
    ex = builtin_example("bell")
    ghz = ex.theory.states["ghz"]
    h = Fraction(1, 2)
    e, t = Fraction(1, 8), Fraction(3, 8)
    assert ghz.table[("a", "b")].weights == {("0", "0"): h, ("1", "1"): h}
    mixed = {("0", "0"): t, ("0", "1"): e, ("1", "0"): e, ("1", "1"): t}
    assert ghz.table[("a", "b'")].weights == mixed
    assert ghz.table[("a'", "b")].weights == mixed
    assert ghz.table[("a'", "b'")].weights == {
        ("0", "0"): e,
        ("0", "1"): t,
        ("1", "0"): t,
        ("1", "1"): e,
    }
    assert ex.perturbation_bound <= Fraction(1, 10**6)


def test_trine_state_against_neighbor_test():
    # the state b assigns weight 1/4 to outcome 0 of the test for vector a
    lab = binary_projective_label("Pa", TRINE_VECTORS["a"])
    rho = projector_onto(TRINE_VECTORS["b"])
    assert abs(born_weight(rho, [lab.effects[0]]) - 0.25) < 1e-12
    ex = builtin_example("spekkens-preparation")
    ctx = ex.theory.system.sort_context(("Pa", "PA"))
    weights = ex.theory.states["b"].table[ctx].weights
    assert weights == {("0", "1"): Fraction(1, 4), ("1", "0"): Fraction(3, 4)}


def test_builtin_examples_validate_and_carry_metadata():
    for name in BUILTIN_NAMES:
        ex = builtin_example(name)
        assert ex.name == name
        assert validate_theory(ex.theory) == []
        assert ex.expected["probabilistic_contextual"] is True
        assert ex.perturbation_bound >= 0
    assert builtin_example("specker-triangle").perturbation_bound == 0
    with pytest.raises(Exception):
        builtin_example("nonesuch")


def test_builtin_scenarios_present_only_when_fully_quantum():
    for name in ("bell", "mermin", "spekkens-preparation"):
        ex = builtin_example(name)
        assert ex.scenario is not None
        assert set(ex.scenario.states) == set(ex.theory.states)
    # the unsharp example injects a joint context by declaration and the
    # triangle is purely rational, so neither carries Born-rule input
    assert builtin_example("spekkens-unsharp").scenario is None
    assert builtin_example("specker-triangle").scenario is None


def test_builtin_documents_match_golden_digest():
    # sha256 over the documents of the five builtins and of spekkens-unsharp
    # at three more denominator caps; pins every rationalized Born weight
    digest = hashlib.sha256()
    cases = [(name, None) for name in BUILTIN_NAMES]
    cases += [("spekkens-unsharp", cap) for cap in (8, 100, 12345)]
    for name, cap in cases:
        ex = builtin_example(name, cap)
        digest.update(dump_document(theory_to_document(ex.theory)).encode())
        # rounding of the float arithmetic, not of the denominator cap
        assert ex.perturbation_bound <= 1e-15
    assert digest.hexdigest() == (
        "6aed12a0768747146c957bc9c56b117697577c9c4a30e6fd41ff677037da6099"
    )


def test_unsharp_denominator_cap_controls_rounding():
    ex = builtin_example("spekkens-unsharp")
    assert ex.perturbation_bound <= Fraction(1, 10**6)
    coarse = builtin_example("spekkens-unsharp", 10**3)
    assert coarse.perturbation_bound <= Fraction(1, 500)
    assert validate_theory(coarse.theory) == []


def test_without_declarations_strips_only_convex_data():
    ex = builtin_example("spekkens-preparation")
    assert ex.theory.convex
    bare = without_declarations(ex.theory)
    assert bare.convex == ()
    assert bare.system is ex.theory.system
    assert bare.states is ex.theory.states


# Differential checks of the plain-Python arithmetic against numpy.


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def _with_spectrum(u, spectrum):
    """U diag(spectrum) U^H."""
    return (u * spectrum) @ u.conj().T


@given(
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    gap=st.floats(1e-13, 1.0),
    below=st.booleans(),
)
def test_positivity_matches_least_eigenvalue(dim, seed, gap, below):
    # the least eigenvalue sits at least 1e-13 from the -1e-12 threshold
    rng = np.random.default_rng(seed)
    least = -TOLERANCE - gap if below else -TOLERANCE + gap
    spectrum = np.concatenate([[least], rng.uniform(least, 1.0, dim - 1)])
    h = _with_spectrum(_random_unitary(rng, dim), spectrum)
    negative = bool(np.linalg.eigvalsh(h).min() < -TOLERANCE)
    assert negative == below
    assert _is_positive(h.tolist()) == (not negative)


@given(
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
)
def test_born_weight_matches_numpy_trace(dim, seed, count):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    # commuting effects: one eigenbasis, spectra in [0, 1]
    u = _random_unitary(rng, dim)
    effects = [_with_spectrum(u, rng.uniform(0, 1, dim)) for _ in range(count)]
    product = np.eye(dim)
    for e in effects:
        product = product @ e
    want = np.trace(rho @ product).real
    got = born_weight(rho.tolist(), [e.tolist() for e in effects])
    assert abs(got - want) <= 1e-12
