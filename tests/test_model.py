"""Core data model: scenarios, distributions, theories, declarations."""

from fractions import Fraction

import pytest

from ctxcheck.bridge import to_operational
from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    Measurement,
    ModelError,
    OperationalTheory,
    OutcomeSet,
    RationalDistribution,
    State,
    SystemType,
    elementary_measurement,
    format_rational,
    parse_rational,
    system_type,
    validate_operational_theory,
    validate_system_type,
    validate_theory,
)
from ctxcheck.quantum import builtin_example, without_declarations
from ctxcheck.sheaf import check_contextuality


def test_parse_and_format_rational_round_trip():
    for text in ("0", "1", "3/8", "-5/12", "73/168"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(2) == Fraction(2)


def test_parse_rational_rejects_garbage():
    for bad in ("", "1/0", "a/b", "1/2/3", None):
        with pytest.raises(ModelError):
            parse_rational(bad)


def test_outcome_set_rejects_duplicates_and_empty():
    with pytest.raises(ModelError):
        OutcomeSet(())
    with pytest.raises(ModelError):
        OutcomeSet(("0", "0"))


def test_system_type_orders_contexts_globally():
    system = system_type({"a": ("0", "1"), "b": ("0", "1")}, [("b", "a")])
    assert system.cover == (("a", "b"),)
    assert system.outcomes_of("b").labels == ("0", "1")


def test_validate_system_type_flags_cover_problems():
    nested = system_type(
        {"a": ("0", "1"), "b": ("0", "1")}, [("a", "b"), ("a",)]
    )
    assert any("antichain" in v for v in validate_system_type(nested))
    uncovered = system_type({"a": ("0", "1"), "b": ("0", "1")}, [("a",)])
    assert any("not covered" in v for v in validate_system_type(uncovered))


def test_validate_system_type_names_a_repeated_label():
    # a repeat is reported as such, and the order check runs only on
    # contexts without one
    outcomes = (OutcomeSet(("0", "1")),) * 3
    repeated = SystemType(
        labels=("a", "b", "c"), outcomes=outcomes, cover=(("a", "a"), ("c", "b", "b"))
    )
    assert validate_system_type(repeated) == [
        "context ('a', 'a') repeats label 'a'",
        "context ('c', 'b', 'b') repeats label 'b'",
    ]
    unordered = SystemType(
        labels=("a", "b", "c"), outcomes=outcomes, cover=(("a",), ("c", "b"))
    )
    assert validate_system_type(unordered) == [
        "context ('c', 'b') not in global label order"
    ]


def test_distribution_normalization_and_zero_cleanup():
    dist = RationalDistribution(
        domain=("a",),
        weights={("0",): Fraction(1), ("1",): Fraction(0)},
    )
    assert ("1",) not in dist.weights
    assert dist.weight(("1",)) == 0
    with pytest.raises(ModelError):
        RationalDistribution(domain=("a",), weights={("0",): Fraction(1, 2)})
    with pytest.raises(ModelError):
        RationalDistribution(domain=("a",), weights={("0", "1"): Fraction(1)})


def _uniform_theory():
    system = system_type({"a": ("0", "1"), "b": ("0", "1")}, [("a", "b")])
    q = Fraction(1, 4)
    table = {
        ("a", "b"): RationalDistribution(
            domain=("a", "b"),
            weights={(x, y): q for x in "01" for y in "01"},
        )
    }
    return EmpiricalTheory(
        system=system, states={"s": State(name="s", table=table)}
    )


def test_validate_theory_accepts_uniform():
    assert validate_theory(_uniform_theory()) == []


def test_validate_theory_reports_stray_outcomes_in_sorted_table_order():
    theory = _uniform_theory()
    q = Fraction(1, 4)
    weights = {("z", "1"): q, ("0", "0"): q, ("1", "y"): q, ("x", "w"): q}
    theory.states["s"].table[("a", "b")] = RationalDistribution(
        domain=("a", "b"), weights=weights
    )
    assert validate_theory(theory) == [
        f"state 's': outcome {v!r} not allowed in context ('a', 'b')"
        for v in ("y", "x", "w", "z")
    ]


def test_validate_theory_catches_missing_context_table():
    theory = _uniform_theory()
    theory.states["s"].table.clear()
    assert validate_theory(theory)


def test_validate_theory_reports_a_cover_label_the_system_lacks():
    system = system_type({"x": ("0", "1")}, [("x", "z")])
    ctx = system.cover[0]
    dist = RationalDistribution(domain=ctx, weights={("0", "0"): Fraction(1)})
    state = State(name="s", table={ctx: dist})
    theory = EmpiricalTheory(system=system, states={"s": state})
    problem = "context ('x', 'z') uses unknown label 'z'"
    assert validate_system_type(system) == [problem]
    assert problem in validate_theory(theory)
    with pytest.raises(ModelError, match=r"^invalid theory: context \('x', 'z'\)"):
        check_contextuality(theory)


def test_convex_declaration_coefficients_must_sum_to_one():
    with pytest.raises(ModelError):
        ConvexDeclaration(
            kind="state",
            target="t",
            components=(
                ConvexComponent(coefficient=Fraction(1, 2), name="u"),
            ),
        )
    with pytest.raises(ModelError):
        ConvexDeclaration(kind="nonsense", target="t", components=())


def test_measurement_project_and_values():
    meas = Measurement(
        name="a,b",
        labels=("a", "b"),
        outcomes=("0,0", "0,1", "1,0", "1,1"),
        outcome_values=(
            ("0,0", ("0", "0")),
            ("0,1", ("0", "1")),
            ("1,0", ("1", "0")),
            ("1,1", ("1", "1")),
        ),
    )
    assert meas.values_of("1,0") == ("1", "0")
    assert meas.project(("b",), "1,0") == ("0",)
    single = elementary_measurement("a", ("0", "1"))
    assert single.values_of("1") == ("1",)


def _coarse_measurement():
    # outcomes "lo" and "also-lo" share their values; "hi" comes last
    return Measurement(
        name="a,b",
        labels=("a", "b"),
        outcomes=("lo", "also-lo", "hi"),
        outcome_values=(
            ("lo", ("0", "0")),
            ("also-lo", ("0", "0")),
            ("hi", ("1", "0")),
        ),
    )


def test_measurement_outcome_of_returns_the_first_match():
    meas = _coarse_measurement()
    assert meas.outcome_of(("0", "0")) == "lo"
    assert meas.outcome_of(("1", "0")) == "hi"


def test_measurement_outcome_of_rejects_unknown_values():
    with pytest.raises(ModelError, match="no outcome with values"):
        _coarse_measurement().outcome_of(("1", "1"))


def test_measurement_marginal_sums_and_skips_zero_weights():
    meas = _coarse_measurement()
    dist = {"lo": Fraction(1, 4), "also-lo": Fraction(1, 4), "hi": Fraction(1, 2)}
    assert meas.marginal(dist, ("b",)) == {("0",): Fraction(1)}
    assert meas.marginal(dist, ("a",)) == {
        ("0",): Fraction(1, 2),
        ("1",): Fraction(1, 2),
    }
    assert meas.marginal({"lo": Fraction(0), "hi": Fraction(1)}, ("a",)) == {
        ("1",): Fraction(1)
    }


def test_unknown_outcome_in_a_joint_table_is_a_violation_not_a_crash():
    op = to_operational(builtin_example("bell").theory)
    op.statistics[("ghz", "a,b")] = {"zz": Fraction(1)}
    violations = validate_operational_theory(op)
    assert any("unknown outcomes {'zz'}" in v for v in violations)


def test_validate_operational_theory_reports_unknown_mixture_members():
    theory = without_declarations(builtin_example("spekkens-preparation").theory)
    op = to_operational(theory)
    prep, meas = op.preparations[0], sorted(op.measurements)[0]
    op.convex = (
        ConvexDeclaration("state", prep, (ConvexComponent(Fraction(1), "ghost"),)),
        ConvexDeclaration(
            "measurement", "nowhere", (ConvexComponent(Fraction(1), meas),)
        ),
    )
    assert validate_operational_theory(op) == [
        "state mixture references unknown preparation 'ghost'",
        "measurement mixture references unknown measurement 'nowhere'",
    ]


def test_operational_violations_render_exact_weights():
    # the sub-measurements' tables have other denominators than the joint's,
    # and "lo" and "also-lo" share their values, so each sub-measurement
    # outcome is compared with the joint's whole mass on its values
    third = Fraction(1, 3)
    op = OperationalTheory(
        preparations=("p",),
        measurements={
            "a,b": _coarse_measurement(),
            "a": elementary_measurement("a", "01"),
            "b": elementary_measurement("b", "01"),
        },
        statistics={
            ("p", "a,b"): {"lo": third, "also-lo": third, "hi": third},
            ("p", "a"): {"0": Fraction(1, 2), "1": Fraction(3, 5)},
            ("p", "b"): {"0": Fraction(5, 4), "1": Fraction(-1, 4)},
        },
    )
    assert validate_operational_theory(op) == [
        "('p','a'): outcome weights sum to 11/10",
        "('p','b'): negative weight",
        "('p'): 'a' inconsistent with marginal of 'a,b' at outcome '0' (1/2 != 2/3)",
        "('p'): 'a' inconsistent with marginal of 'a,b' at outcome '1' (3/5 != 1/3)",
        "('p'): 'b' inconsistent with marginal of 'a,b' at outcome '0' (5/4 != 1)",
        "('p'): 'b' inconsistent with marginal of 'a,b' at outcome '1' (-1/4 != 0)",
    ]


def test_validate_system_type_returns_a_fresh_list_per_call():
    nested = system_type({m: ("0", "1") for m in "abc"}, [("a", "b"), ("a",), ("c",)])
    first = validate_system_type(nested)
    assert first and any("antichain" in v for v in first)
    first.append("edited by the caller")
    first.clear()
    again = validate_system_type(nested)
    assert again and "edited by the caller" not in again
    assert again is not validate_system_type(nested)
    # an equal system type, built apart, gives an equal result
    twin = system_type({m: ("0", "1") for m in "abc"}, [("a", "b"), ("a",), ("c",)])
    assert twin is not nested and twin == nested
    assert validate_system_type(twin) == again
    valid = system_type({m: ("0", "1") for m in "ab"}, [("a", "b")])
    listed = validate_system_type(valid)
    listed.append("edited by the caller")
    assert validate_system_type(valid) == []


def _listed_system_theory(**fields):
    """One context (a, b) over binary labels, one uniform state, with the
    given ``SystemType`` fields in place of their tuple forms."""
    binary = OutcomeSet(("0", "1"))
    system = SystemType(
        **{"labels": ("a", "b"), "outcomes": (binary, binary), "cover": (("a", "b"),)}
        | fields
    )
    half = Fraction(1, 2)
    dist = RationalDistribution(("a", "b"), {("0", "0"): half, ("1", "1"): half})
    state = State(name="s", table={("a", "b"): dist})
    return EmpiricalTheory(system=system, states={"s": state})


@pytest.mark.parametrize("mode", ["probabilistic", "possibilistic"])
@pytest.mark.parametrize(
    "fields, problem",
    [
        ({"labels": ["a", "b"]}, "labels is a list, not a tuple"),
        ({"cover": [("a", "b")]}, "cover is a list, not a tuple"),
        ({"cover": (["a", "b"],)}, "context ['a', 'b'] is a list, not a tuple"),
        # a string context is reported, not read as its characters
        ({"cover": ("ab",)}, "context 'ab' is a str, not a tuple"),
        (
            {"outcomes": (OutcomeSet(["0", "1"]), OutcomeSet(("0", "1")))},
            "outcome set of 'a' is a list, not a tuple",
        ),
    ],
)
def test_system_type_fields_that_are_not_tuples_are_invalid(fields, problem, mode):
    theory = _listed_system_theory(**fields)
    assert validate_system_type(theory.system) == [problem]
    assert validate_theory(theory)[0] == problem
    with pytest.raises(ModelError) as raised:
        check_contextuality(theory, mode=mode)
    assert str(raised.value) == f"invalid theory: {problem}"


@pytest.mark.parametrize("labels", [("0", ["1"]), (["0"], ["0"]), ("0", 1), ("0", "")])
def test_outcome_labels_are_checked_for_strings_before_they_are_hashed(labels):
    with pytest.raises(ModelError, match="^outcome labels must be nonempty strings$"):
        OutcomeSet(labels)
