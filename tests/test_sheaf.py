"""Global-section feasibility: marginals, signalling, both decision modes."""

import itertools
from fractions import Fraction

import pytest

from ctxcheck.equivalence import minimalize, quotient_theory
from ctxcheck.linprog import verify_certificate
from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    ModelError,
    RationalDistribution,
    State,
    system_type,
)
from ctxcheck.quantum import builtin_example, without_declarations
from ctxcheck.sheaf import (
    SignallingError,
    check_contextuality,
    find_global_section,
    global_section_system,
    marginal_weights,
    require_no_signalling,
    signalling_violations,
    verify_global_section,
)
from test_linprog import _golden_theories

H = Fraction(1, 2)


def _pair_state(name, cover, tables):
    return State(
        name=name,
        table={
            ctx: RationalDistribution(domain=ctx, weights=tables[ctx])
            for ctx in cover
        },
    )


def _triangle(anti=True):
    """Three binary labels, pairwise contexts, one perfectly (anti)correlated state."""
    cover = (("a", "b"), ("a", "c"), ("b", "c"))
    system = system_type({m: ("0", "1") for m in "abc"}, cover)
    pair = (
        {("0", "1"): H, ("1", "0"): H}
        if anti
        else {("0", "0"): H, ("1", "1"): H}
    )
    tables = {ctx: dict(pair) for ctx in cover}
    return EmpiricalTheory(
        system=system, states={"s": _pair_state("s", cover, tables)}
    )


def test_marginal_weights():
    dist = RationalDistribution(
        domain=("a", "b"),
        weights={("0", "1"): H, ("1", "0"): H},
    )
    assert marginal_weights(dist, ("a",)) == {("0",): H, ("1",): H}
    assert marginal_weights(dist, ("b", "a")) == {
        ("1", "0"): H,
        ("0", "1"): H,
    }


def test_signalling_detection():
    cover = (("a", "b"), ("a", "c"))
    system = system_type({m: ("0", "1") for m in "abc"}, cover)
    tables = {
        ("a", "b"): {("0", "0"): Fraction(1)},
        ("a", "c"): {("1", "0"): Fraction(1)},  # a-marginal disagrees
    }
    theory = EmpiricalTheory(
        system=system, states={"s": _pair_state("s", cover, tables)}
    )
    assert signalling_violations(theory)
    with pytest.raises(SignallingError):
        require_no_signalling(theory)
    with pytest.raises(SignallingError):
        check_contextuality(theory)
    with pytest.raises(SignallingError):
        quotient_theory(theory)
    with pytest.raises(SignallingError):
        minimalize(theory)


def test_anticorrelated_triangle_contextual_both_modes():
    theory = _triangle(anti=True)
    prob = check_contextuality(theory, mode="probabilistic")
    assert prob.contextual
    assert verify_certificate(prob.system, prob.certificate)
    poss = check_contextuality(theory, mode="possibilistic")
    assert poss.contextual
    assert poss.blocked


def test_correlated_triangle_feasible_both_modes():
    theory = _triangle(anti=False)
    prob = check_contextuality(theory, mode="probabilistic")
    assert not prob.contextual
    assert verify_global_section(theory, prob.sections) == []
    poss = check_contextuality(theory, mode="possibilistic")
    assert not poss.contextual
    # the two fully supported assignments: constant 0 and constant 1
    assert poss.boolean_sections["s"] == (("0", "0", "0"), ("1", "1", "1"))


def test_find_global_section_none_when_contextual():
    assert find_global_section(_triangle(anti=True)) is None
    sections = find_global_section(_triangle(anti=False))
    assert sections is not None
    assert verify_global_section(_triangle(anti=False), sections) == []


def test_verify_global_section_rejects_wrong_marginals():
    theory = _triangle(anti=False)
    wrong = {
        "s": RationalDistribution(
            domain=("a", "b", "c"),
            weights={("0", "0", "1"): Fraction(1)},
        )
    }
    assert verify_global_section(theory, wrong)
    assert verify_global_section(theory, {}) == [
        "missing section for state 's'"
    ]


def test_verify_global_section_checks_measurement_mixtures(mixture_variant):
    theory, sections, contextual = mixture_variant
    verdict = check_contextuality(theory)
    assert verdict.contextual == contextual
    if contextual:
        assert verify_global_section(theory, sections) == [
            f"measurement mixture 'c' violated for state 's' at outcome {k!r}"
            for k in ("0", "1", "2")
        ]
    else:
        assert verify_global_section(theory, verdict.sections) == []
        assert verify_global_section(theory, sections) == []


def test_verify_global_section_checks_state_mixtures(mixture_theory):
    labels = ("a", "b", "c")
    ends = {"s": ("0", "0", "0"), "t": ("1", "1", "1")}
    sections = {
        name: RationalDistribution(domain=labels, weights={g: Fraction(1)})
        for name, g in ends.items()
    }
    sections["u"] = RationalDistribution(
        domain=labels, weights={g: H for g in ends.values()}
    )
    u_mix = ConvexDeclaration(
        kind="state",
        target="u",
        components=(ConvexComponent(H, "s"), ConvexComponent(H, "t")),
    )
    theory = mixture_theory(sections, u_mix)
    verdict = check_contextuality(theory)
    assert not verdict.contextual
    assert verify_global_section(theory, verdict.sections) == []
    assert verify_global_section(theory, sections) == []
    # the same marginals, coupled differently: only the state mixture breaks
    recoupled = dict(
        sections,
        u=RationalDistribution(
            domain=labels,
            weights={("0", "0", "1"): H, ("1", "1", "0"): H},
        ),
    )
    assert verify_global_section(theory, recoupled) == [
        "state mixture 'u' violated at ('0', '0', '0')"
    ]
    del recoupled["u"]
    assert verify_global_section(theory, recoupled) == [
        "missing section for state 'u'",
        "state mixture 'u': section missing",
    ]


def test_declarations_enter_the_system():
    example = builtin_example("spekkens-preparation")
    with_rows = global_section_system(example.theory)
    without_rows = global_section_system(without_declarations(example.theory))
    assert len(with_rows.constraints) > len(without_rows.constraints)
    names = {c.name for c in with_rows.constraints}
    assert any(name.startswith("mix:state[") for name in names)


def test_measurement_declarations_enter_the_system():
    example = builtin_example("spekkens-unsharp")
    lp = global_section_system(example.theory)
    names = {c.name for c in lp.constraints}
    assert any(name.startswith("mix:meas[") for name in names)


@pytest.mark.parametrize("name", ["bell", "spekkens-preparation"])
def test_verdict_system_is_the_named_lp_without_its_integer_rows(name):
    # the build's integer rows serve the solve only; the verdict keeps the
    # named system, equal to a fresh build, and not the rows
    declared = builtin_example(name).theory
    for theory in (declared, without_declarations(declared)):
        verdict = check_contextuality(theory)
        assert verdict.system == global_section_system(theory)
        assert verdict.system._integer is None


def test_variable_count_matches_assignment_space():
    bell = builtin_example("bell").theory
    lp = global_section_system(bell)
    # one state, four binary labels
    assert len(lp.variables) == 16
    mermin = builtin_example("mermin").theory
    assert len(global_section_system(mermin).variables) == 64


def test_state_mixture_naming_an_unknown_state_is_rejected():
    theory = builtin_example("spekkens-preparation").theory
    decl = ConvexDeclaration(
        kind="state",
        target=next(iter(theory.states)),
        components=(
            ConvexComponent(coefficient=H, name=next(iter(theory.states))),
            ConvexComponent(coefficient=H, name="nonesuch"),
        ),
    )
    bad = EmpiricalTheory(
        system=theory.system, states=theory.states, convex=(decl,)
    )
    with pytest.raises(ModelError, match="references states outside the system"):
        global_section_system(bad)


def test_possibilistic_blocks_a_supported_outcome_outside_its_outcome_set():
    # ('0', 'z') is the restriction of no assignment, so none reaches it
    cover = (("a", "b"),)
    system = system_type({"a": ("0", "1"), "b": ("0", "1")}, cover)
    tables = {("a", "b"): {("0", "0"): H, ("0", "z"): H}}
    theory = EmpiricalTheory(
        system=system, states={"p": _pair_state("p", cover, tables)}
    )
    verdict = check_contextuality(theory, mode="possibilistic")
    assert verdict.contextual
    assert verdict.boolean_sections == {"p": (("0", "0"),)}
    assert verdict.blocked == (("p", ("a", "b"), ("0", "z")),)


def test_possibilistic_matches_a_per_assignment_filter():
    contextual = 0
    for theory in _golden_theories():
        system = theory.system
        labels = system.labels

        def restrict(g, ctx):
            return tuple(g[labels.index(m)] for m in ctx)

        assignments = list(
            itertools.product(*(system.outcomes_of(m).labels for m in labels))
        )
        verdict = check_contextuality(theory, mode="possibilistic")
        blocked = []
        for name, state in theory.states.items():
            supports = {
                ctx: set(state.distribution(ctx).weights) for ctx in system.cover
            }
            kept = tuple(
                g
                for g in assignments
                if all(restrict(g, ctx) in supports[ctx] for ctx in system.cover)
            )
            assert verdict.boolean_sections[name] == kept
            for ctx in system.cover:
                reached = {restrict(g, ctx) for g in kept}
                blocked.extend(
                    (name, ctx, t) for t in sorted(supports[ctx]) if t not in reached
                )
        assert verdict.blocked == tuple(blocked)
        assert verdict.contextual == bool(blocked)
        contextual += verdict.contextual
    assert contextual > 0


@pytest.mark.parametrize(
    "target, component, outcome_map",
    [
        ("zz", "b", None),
        ("c", "zz", None),
        ("c", "zz", (("0", "0"), ("1", "1"))),
    ],
)
def test_verify_global_section_rejects_a_declaration_naming_an_unknown_label(
    target, component, outcome_map
):
    theory = _triangle(anti=False)
    sections = find_global_section(theory)
    decl = ConvexDeclaration(
        kind="measurement",
        target=target,
        components=(
            ConvexComponent(H, "a"),
            ConvexComponent(H, component, outcome_map),
        ),
    )
    bad = EmpiricalTheory(system=theory.system, states=theory.states, convex=(decl,))
    with pytest.raises(ModelError, match="^unknown measurement label 'zz'$"):
        verify_global_section(bad, sections)
