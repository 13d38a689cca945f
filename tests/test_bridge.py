"""Translations between the empirical and operational forms, and morphisms."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from ctxcheck.bridge import (
    EmpiricalMorphism,
    apply_operational_morphism,
    compose_empirical,
    compose_operational,
    empirical_theories_statistically_equal,
    identity_morphism,
    operational_theories_statistically_equal,
    to_empirical,
    to_operational,
    validate_empirical_morphism,
    validate_operational_morphism,
)
from ctxcheck.generate import parity_bump, random_feasible_theory
from ctxcheck.model import (
    EmpiricalTheory,
    Measurement,
    ModelError,
    OperationalTheory,
    RationalDistribution,
    State,
    empirical_system,
    system_type,
    validate_operational_theory,
)
from ctxcheck.ontology import (
    canonical_representation,
    check_iso_diagram,
    forget_statistics,
)
from ctxcheck.quantum import builtin_example, without_declarations
from ctxcheck.sheaf import find_global_section


def test_to_operational_builds_the_submeasurement_lattice():
    theory = builtin_example("specker-triangle").theory
    op = to_operational(theory)
    assert sorted(op.measurements) == ["a", "a,b", "a,c", "b", "b,c", "c"]
    joint = op.measurements["a,b"]
    assert joint.labels == ("a", "b")
    assert joint.outcomes == ("0,0", "0,1", "1,0", "1,1")
    # perfectly anti-correlated: only mixed outcomes carry weight
    assert op.distribution("coin", "a,b") == {
        "0,1": Fraction(1, 2),
        "1,0": Fraction(1, 2),
    }
    assert op.distribution("coin", "a") == {
        "0": Fraction(1, 2),
        "1": Fraction(1, 2),
    }


def test_to_operational_preserves_declarations():
    example = builtin_example("spekkens-preparation")
    op = to_operational(example.theory)
    assert op.convex == example.theory.convex


def test_round_trip_on_builtins():
    for name in ("bell", "mermin", "specker-triangle", "spekkens-preparation"):
        theory = builtin_example(name).theory
        back = to_empirical(to_operational(theory))
        assert empirical_theories_statistically_equal(back, theory)


def test_round_trip_on_random_theories():
    rng = random.Random(7)
    for _ in range(25):
        theory, _ = random_feasible_theory(rng)
        op = to_operational(theory)
        back = to_empirical(op)
        assert empirical_theories_statistically_equal(back, theory)
        # and operationally again
        assert operational_theories_statistically_equal(
            to_operational(back), op
        )


def test_to_empirical_rejects_inconsistent_operational_tables():
    theory = builtin_example("specker-triangle").theory
    op = to_operational(theory)
    op.statistics[("coin", "a")] = {"0": Fraction(1)}  # clashes with a,b joint
    with pytest.raises(ModelError):
        to_empirical(op)


def test_to_empirical_rejects_a_table_with_an_unknown_outcome():
    op = to_operational(builtin_example("bell").theory)
    op.statistics[("ghz", "a,b")] = {"zz": Fraction(1)}
    with pytest.raises(ModelError, match="unknown outcomes"):
        to_empirical(op)


def test_identity_morphism_validates_and_composes():
    theory = builtin_example("specker-triangle").theory
    ident = identity_morphism(theory)
    assert validate_empirical_morphism(ident) == []
    twice = compose_empirical(ident, ident)
    assert validate_empirical_morphism(twice) == []
    assert twice.label_map == ident.label_map


def test_flip_is_an_automorphism_of_the_symmetric_triangle():
    # uniform anti-correlated tables are invariant under flipping all outcomes
    theory = builtin_example("specker-triangle").theory
    ident = identity_morphism(theory)
    flipped = EmpiricalMorphism(
        source=theory,
        target=theory,
        state_map=dict(ident.state_map),
        label_map=dict(ident.label_map),
        outcome_map={
            key: ("1" if key[1] == "0" else "0")
            for key in ident.outcome_map
        },
    )
    assert validate_empirical_morphism(flipped) == []


def test_morphism_with_broken_outcome_map_fails_validation():
    # flipping one label of a deterministic state breaks the statistics
    theory = builtin_example("spekkens-preparation").theory
    ident = identity_morphism(theory)
    broken = EmpiricalMorphism(
        source=theory,
        target=theory,
        state_map=dict(ident.state_map),
        label_map=dict(ident.label_map),
        outcome_map={
            key: (
                ("1" if key[1] == "0" else "0") if key[0] == "Pa" else key[1]
            )
            for key in ident.outcome_map
        },
    )
    assert validate_empirical_morphism(broken)


def test_operational_morphism_from_empirical_identity():
    theory = builtin_example("specker-triangle").theory
    ident = identity_morphism(theory)
    op_morph = apply_operational_morphism(ident)
    assert validate_operational_morphism(op_morph) == []


def _triangle_automorphisms():
    """Identity, the all-outcome flip, the label rotation a->b->c->a and the
    transposition a<->b of the specker triangle.  The last two do not
    commute, so the composition order is tested too."""
    theory = builtin_example("specker-triangle").theory
    ident = identity_morphism(theory)
    flip = EmpiricalMorphism(
        source=theory,
        target=theory,
        state_map=dict(ident.state_map),
        label_map=dict(ident.label_map),
        outcome_map={key: ("1" if key[1] == "0" else "0") for key in ident.outcome_map},
    )
    rotation = EmpiricalMorphism(
        source=theory,
        target=theory,
        state_map=dict(ident.state_map),
        label_map={"a": "b", "b": "c", "c": "a"},
        outcome_map=dict(ident.outcome_map),
    )
    swap = EmpiricalMorphism(
        source=theory,
        target=theory,
        state_map=dict(ident.state_map),
        label_map={"a": "b", "b": "a", "c": "c"},
        outcome_map=dict(ident.outcome_map),
    )
    return {"id": ident, "flip": flip, "rot": rotation, "swap": swap}


def test_operational_functor_preserves_composition():
    morphisms = _triangle_automorphisms()
    for f in morphisms.values():
        assert validate_empirical_morphism(f) == []
    image = {name: apply_operational_morphism(f) for name, f in morphisms.items()}
    for (g_name, g), (f_name, f) in itertools.product(morphisms.items(), repeat=2):
        composite = compose_operational(image[g_name], image[f_name])
        assert validate_operational_morphism(composite) == []
        transported = apply_operational_morphism(compose_empirical(g, f))
        assert transported == composite, (g_name, f_name)
    # the law is not vacuous: distinct morphisms have distinct images
    assert image["flip"] != image["id"]
    assert compose_operational(image["rot"], image["rot"]) != image["rot"]
    assert compose_operational(image["rot"], image["swap"]) != compose_operational(
        image["swap"], image["rot"]
    )
    assert image["rot"].meas_map["a,b"] == "b,c"


def test_forget_statistics_returns_realized_tables():
    theory = without_declarations(builtin_example("spekkens-preparation").theory)
    sections = find_global_section(theory)
    rep = canonical_representation(theory, sections)
    realized = forget_statistics(rep)
    assert operational_theories_statistically_equal(
        realized, to_operational(theory)
    )


def test_iso_diagram_on_noncontextual_builtins():
    for name in ("spekkens-preparation", "spekkens-unsharp"):
        theory = without_declarations(builtin_example(name).theory)
        sections = find_global_section(theory)
        assert sections is not None
        assert check_iso_diagram(theory, sections)


def _binary(name, labels):
    """A measurement of binary ``labels``; outcome "0,1" sets the first to 0
    and the second to 1."""
    values = tuple(itertools.product("01", repeat=len(labels)))
    outcomes = tuple(",".join(v) for v in values)
    return Measurement(
        name=name,
        labels=labels,
        outcomes=outcomes,
        outcome_values=tuple(zip(outcomes, values)),
    )


def _unpartitioned_target():
    """Label 'a' has two single measurements, so 'a' and 'a2' overlap inside
    the maximal measurement 'a,b' and do not partition it."""
    measurements = {
        "a": _binary("a", ("a",)),
        "a2": _binary("a2", ("a",)),
        "b": _binary("b", ("b",)),
        "a,b": _binary("a,b", ("a", "b")),
    }
    statistics = {
        ("p", "a"): {"0": Fraction(1)},
        ("p", "a2"): {"0": Fraction(1)},
        ("p", "b"): {"1": Fraction(1)},
        ("p", "a,b"): {"0,1": Fraction(1)},
    }
    return OperationalTheory(
        preparations=("p",), measurements=measurements, statistics=statistics
    )


def test_to_empirical_rejects_unpartitioned_maximal_measurement():
    with pytest.raises(ModelError) as caught:
        to_empirical(_unpartitioned_target())
    assert type(caught.value) is ModelError
    assert str(caught.value) == (
        "maximal measurement 'a,b' is not partitioned by minimal ones"
    )


def test_identity_morphism_with_an_outcome_named_missing_validates():
    system = system_type({"a": ("missing", "x"), "b": ("0", "1")}, [("a", "b")])
    table = RationalDistribution(
        domain=("a", "b"),
        weights={("missing", "0"): Fraction(1, 3), ("x", "1"): Fraction(2, 3)},
    )
    theory = EmpiricalTheory(
        system=system, states={"s": State(name="s", table={("a", "b"): table})}
    )
    morphism = apply_operational_morphism(identity_morphism(theory))
    assert morphism.outcome_map[("a", "missing")] == "missing"
    assert validate_operational_morphism(morphism) == []


def test_empirical_system_reads_back_the_operational_form():
    theory = builtin_example("specker-triangle").theory
    system, context_of = empirical_system(to_operational(theory))
    assert system == theory.system
    assert context_of == {",".join(ctx): ctx for ctx in theory.system.cover}


def _two_joints_over_a_b():
    """Elementary 'a' and 'b' with uniform marginals, and two joint
    measurements over (a, b): 'ab' correlated, 'ab2' anti-correlated."""
    half = Fraction(1, 2)
    statistics = {
        ("p", "a"): {"0": half, "1": half},
        ("p", "b"): {"0": half, "1": half},
        ("p", "ab"): {"0,0": half, "1,1": half},
        ("p", "ab2"): {"0,1": half, "1,0": half},
    }
    measurements = {m: _binary(m, (m,)) for m in "ab"}
    measurements.update({m: _binary(m, ("a", "b")) for m in ("ab", "ab2")})
    return OperationalTheory(
        preparations=("p",), measurements=measurements, statistics=statistics
    )


def test_validation_compares_every_measurement_over_a_shared_label_set():
    op = to_operational(builtin_example("specker-triangle").theory)
    measurements = {}
    for name, meas in op.measurements.items():
        measurements[name] = meas
        if name == "a":
            measurements["a2"] = dataclasses.replace(meas, name="a2")
    statistics = dict(op.statistics)
    for p in op.preparations:
        statistics[(p, "a2")] = statistics[(p, "a")]
        statistics[(p, "a")] = {"0": Fraction(1)}
    clash = dataclasses.replace(
        op, measurements=measurements, statistics=statistics
    )
    violations = validate_operational_theory(clash)
    assert (
        "('coin'): 'a' inconsistent with marginal of 'a,b' at outcome '0' (1 != 1/2)"
        in violations
    )
    assert all("'a' inconsistent with marginal of" in v for v in violations)


def test_to_empirical_rejects_a_joint_that_the_reconstructed_joint_contradicts():
    op = _two_joints_over_a_b()
    assert validate_operational_theory(op) == []
    with pytest.raises(ModelError, match="inconsistent with reconstructed joints") as caught:
        to_empirical(op)
    for k in ("0,0", "0,1", "1,0", "1,1"):
        assert repr(("p", "ab2", k)) in str(caught.value)
    assert "'ab'," not in str(caught.value)


def _uniform_binary(labels, cover, outcomes=("0", "1"), states=("s",)):
    system = system_type({m: outcomes for m in labels}, cover)
    table = {}
    for ctx in cover:
        values = list(itertools.product(outcomes, repeat=len(ctx)))
        weights = {v: Fraction(1, len(values)) for v in values}
        table[ctx] = RationalDistribution(domain=ctx, weights=weights)
    return EmpiricalTheory(
        system=system, states={s: State(name=s, table=table) for s in states}
    )


def test_statistical_equality_fails_on_each_single_change():
    path = [("a", "b"), ("b", "c")]
    base = _uniform_binary("abc", path)
    reordered = _uniform_binary("abc", path[::-1])
    bumped = parity_bump(random.Random(0), base)
    assert bumped is not None
    assert empirical_theories_statistically_equal(base, reordered)
    for other in (
        _uniform_binary("abd", [("a", "b"), ("b", "d")]),  # labels
        _uniform_binary("abc", path, outcomes=("0", "1", "2")),  # outcomes
        _uniform_binary("abc", [("a", "b"), ("a", "c")]),  # cover
        _uniform_binary("abc", path, states=("t",)),  # states
        bumped,  # one table
    ):
        assert not empirical_theories_statistically_equal(base, other)

    op = to_operational(base)
    assert operational_theories_statistically_equal(op, to_operational(reordered))
    for other in (
        _uniform_binary("abc", path, states=("t",)),  # preparations
        _uniform_binary("abc", [("a", "b"), ("a", "c")]),  # measurement labels
        bumped,  # one table
    ):
        assert not operational_theories_statistically_equal(op, to_operational(other))
    shared = _two_joints_over_a_b()
    with pytest.raises(ModelError, match="two measurements share the labels"):
        operational_theories_statistically_equal(shared, shared)
