"""Global-section feasibility: marginals, signalling, both decision modes."""

import itertools
import random
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ctxcheck import sheaf
from ctxcheck.equivalence import minimalize, quotient_theory
from ctxcheck.generate import random_instance, random_sections, theory_from_sections
from ctxcheck.linprog import (
    Feasible,
    LinearSystem,
    solve_feasibility,
    verify_certificate,
)
from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    ModelError,
    ONE,
    OutcomeSet,
    RationalDistribution,
    State,
    SystemType,
    system_type,
)
from ctxcheck.quantum import BUILTIN_NAMES, builtin_example, without_declarations
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
from test_linprog import (
    _UNSHRUNK,
    _feasible_ring,
    _frustrated_ring,
    _golden_theories,
    _ring_system,
)

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


def _state_mixture():
    """Sections of states s, t and u = 1/2 s + 1/2 t, and that declaration."""
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
    return sections, u_mix


def test_verify_global_section_checks_state_mixtures(mixture_theory):
    sections, u_mix = _state_mixture()
    labels = ("a", "b", "c")
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
    # the verdict keeps the system that decided it, equal to a fresh build
    declared = builtin_example(name).theory
    for theory in (declared, without_declarations(declared)):
        verdict = check_contextuality(theory)
        built = global_section_system(theory)
        if theory.convex or name == "bell":
            assert verdict.system == built
        else:
            # undeclared on a disjoint cover: the product path builds no LP,
            # but reports the sizes it would have
            assert verdict.system is None
            assert verdict.variable_count == len(built.variables)
            assert verdict.constraint_count == len(built.constraints)
            assert verify_global_section(theory, verdict.sections) == []


def test_check_renders_no_named_view(monkeypatch):
    # the check reads the integer rows only; counting rows by the view would
    # render every named row of every LP it decides
    rendered = []
    view = LinearSystem.constraints
    monkeypatch.setattr(
        LinearSystem,
        "constraints",
        property(lambda lp: rendered.append(lp) or view.func(lp)),
    )
    for name in BUILTIN_NAMES:
        theory = builtin_example(name).theory
        for mode in ("probabilistic", "possibilistic"):
            check_contextuality(theory, mode)
    assert rendered == []


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


def _assert_possibilistic_matches_a_per_assignment_filter(theory):
    """Checks the possibilistic verdict against a filter of every full
    assignment by its restrictions' support; returns the verdict."""
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
        supports = {ctx: set(state.distribution(ctx).weights) for ctx in system.cover}
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
    return verdict


def test_possibilistic_matches_a_per_assignment_filter():
    contextual = 0
    for theory in _golden_theories():
        verdict = _assert_possibilistic_matches_a_per_assignment_filter(theory)
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


# ---------------------------------------------------------------------------
# The join-tree product path: acyclic covers without declarations
# ---------------------------------------------------------------------------


@st.composite
def _acyclic_covers(draw):
    """Covers built along a join tree, listed in a shuffled order.

    Each new context either starts a new component or hangs off an earlier
    one, sharing a proper subset of its labels (possibly none), and adds one
    or two fresh labels, so the cover is an acyclic antichain.  Always
    hanging off the last context gives a chain, off the first a star.
    """
    shape = draw(st.sampled_from(["disjoint", "chain", "star", "tree"]))
    # at most five labels, so at most 3^5 assignments per state
    labels = [f"m{i}" for i in range(5)]
    cover = [tuple(labels[: draw(st.integers(1, 2))])]
    used = len(cover[0])
    for _ in range(draw(st.integers(1, 4))):
        if used == len(labels):
            break
        shared: tuple[str, ...] = ()
        if shape != "disjoint":
            parent = {"chain": cover[-1], "star": cover[0]}.get(shape)
            if parent is None:
                parent = draw(st.sampled_from(cover))
            low = 0 if shape == "tree" else min(1, len(parent) - 1)
            size = draw(st.integers(low, len(parent) - 1))
            shared = tuple(draw(st.permutations(parent))[:size])
        added = min(draw(st.integers(1, 2)), len(labels) - used)
        cover.append(shared + tuple(labels[used : used + added]))
        used += added
    return draw(st.permutations(labels[:used])), draw(st.permutations(cover))


@settings(max_examples=60)
@given(
    _acyclic_covers(),
    st.integers(1, 3),
    st.integers(2, 3),
    st.integers(0, 2**16),
)
def test_acyclic_undeclared_theories_take_the_product_path(
    labels_and_cover, state_count, outcome_count, seed
):
    labels, cover = labels_and_cover
    outcomes = tuple(str(k) for k in range(outcome_count))
    system = system_type({m: outcomes for m in labels}, cover)
    states = tuple(f"s{k}" for k in range(state_count))
    theory = theory_from_sections(
        system, random_sections(random.Random(seed), system, states)
    )
    verdict = check_contextuality(theory)
    lp = global_section_system(theory)
    assert not verdict.contextual
    assert verdict.system is None
    assert verify_global_section(theory, verdict.sections) == []
    assert verdict.variable_count == len(lp.variables)
    assert verdict.constraint_count == len(lp.constraints)
    assert isinstance(solve_feasibility(lp), Feasible)


def test_cover_listed_out_of_join_order_takes_the_product_path():
    # (c, d) meets neither earlier context, and (b, c) then meets both: a
    # first-fit order finds no single earlier context holding {b, c}
    cover = (("a", "b"), ("c", "d"), ("b", "c"))
    system = system_type({m: ("0", "1", "2") for m in "abcd"}, cover)
    theory = theory_from_sections(
        system, random_sections(random.Random(3), system, ("s", "t"))
    )
    verdict = check_contextuality(theory)
    assert not verdict.contextual
    assert verdict.system is None
    assert verify_global_section(theory, verdict.sections) == []


def _cyclic_or_declared_theories():
    for n in range(3, 7):
        system = _ring_system(n)
        feasible = theory_from_sections(
            system, random_sections(random.Random(n), system, ("s0",))
        )
        yield pytest.param(feasible, id=f"ring{n}")
        yield pytest.param(_frustrated_ring(random.Random(n), n), id=f"frustrated{n}")
    # bell, mermin and specker-triangle are undeclared on cyclic covers; both
    # spekkens scenarios are declared on disjoint ones
    for name in BUILTIN_NAMES:
        yield pytest.param(builtin_example(name).theory, id=name)


@pytest.mark.parametrize("theory", _cyclic_or_declared_theories())
def test_cyclic_or_declared_theories_keep_the_lp(theory):
    verdict = check_contextuality(theory)
    assert verdict.system == global_section_system(theory)


@pytest.mark.parametrize(
    "cover", [(("a", "b"), ("a", "c")), (("a", "b"), ("b", "c"), ("a", "c"))]
)
def test_signalling_is_rejected_before_either_path(cover, monkeypatch):
    system = system_type({m: ("0", "1") for m in "abc"}, cover)
    one = Fraction(1)
    tables = {ctx: {("0", "0"): one} for ctx in cover}
    tables[cover[-1]] = {("1", "1"): one}  # disagrees with the others on a
    theory = EmpiricalTheory(
        system=system, states={"s": _pair_state("s", cover, tables)}
    )

    def unreachable(*args):
        raise AssertionError("a decision path ran on a signalling theory")

    monkeypatch.setattr(sheaf, "_product_sections", unreachable)
    monkeypatch.setattr(sheaf, "global_section_system", unreachable)
    with pytest.raises(SignallingError):
        check_contextuality(theory)


def _one_context(table, convex=()):
    """One context (a, b) over binary labels, one state 'p' with ``table``."""
    cover = (("a", "b"),)
    system = system_type({"a": ("0", "1"), "b": ("0", "1")}, cover)
    return EmpiricalTheory(
        system=system,
        states={"p": _pair_state("p", cover, {("a", "b"): table})},
        convex=convex,
    )


def _malformed_theories():
    binary = {m: ("0", "1") for m in "abc"}
    chain = system_type(binary, [("a", "b"), ("b", "c")])
    repeated = SystemType(
        labels=("a", "b"),
        outcomes=(OutcomeSet(("0", "1")),) * 2,
        cover=(("a", "a"), ("b",)),
    )
    uncovered = system_type({"a": ("0", "1"), "b": ("0", "1")}, [("a",)])
    return [
        pytest.param(
            _one_context({("0", "0"): H, ("0", "z"): H}),
            "outcome 'z' not allowed",
            id="outcome-outside-its-set",
        ),
        pytest.param(
            EmpiricalTheory(
                system=repeated,
                states={
                    "s": _pair_state(
                        "s",
                        repeated.cover,
                        {
                            ("a", "a"): {("0", "0"): H, ("0", "1"): H},
                            ("b",): {("0",): ONE},
                        },
                    )
                },
            ),
            r"context \('a', 'a'\) repeats label 'a'$",
            id="repeated-label",
        ),
        pytest.param(
            EmpiricalTheory(
                system=uncovered,
                states={"s": _pair_state("s", [("a",)], {("a",): {("0",): ONE}})},
            ),
            "label 'b' not covered",
            id="uncovered-label",
        ),
        pytest.param(
            EmpiricalTheory(
                system=chain,
                states={
                    "s": _pair_state("s", [("a", "b")], {("a", "b"): {("0", "0"): ONE}})
                },
            ),
            r"missing table for context \('b', 'c'\)",
            id="missing-table",
        ),
        pytest.param(
            _one_context(
                {("0", "0"): ONE},
                (
                    ConvexDeclaration(
                        kind="state",
                        target="p",
                        components=(
                            ConvexComponent(H, "p"),
                            ConvexComponent(H, "nonesuch"),
                        ),
                    ),
                ),
            ),
            "unknown state 'nonesuch'",
            id="unknown-state",
        ),
        pytest.param(
            _one_context(
                {("0", "0"): ONE},
                (
                    ConvexDeclaration(
                        kind="measurement",
                        target="a",
                        components=(
                            ConvexComponent(H, "a"),
                            ConvexComponent(H, "b", (("0", "x"), ("1", "1"))),
                        ),
                    ),
                ),
            ),
            "outcome identification for 'b' is not a bijection",
            id="non-bijective-outcome-map",
        ),
    ]


@pytest.mark.parametrize("mode", ["probabilistic", "possibilistic"])
@pytest.mark.parametrize("theory, problem", _malformed_theories())
def test_malformed_theory_is_rejected_first(
    theory, problem, mode, monkeypatch
):
    def unreachable(*args):
        raise AssertionError("a decision path ran on a malformed theory")

    for name in (
        "require_no_signalling",
        "_product_sections",
        "global_section_system",
        "_check_possibilistic",
    ):
        monkeypatch.setattr(sheaf, name, unreachable)
    with pytest.raises(ModelError, match=f"^invalid theory: .*{problem}"):
        check_contextuality(theory, mode=mode)


def test_verify_global_section_rejects_mass_outside_an_outcome_set():
    # every marginal agrees at the outcome tuples of the label outcome sets,
    # so only the outcome-set check can see the stray mass on 'z'
    table = {("0", "0"): H, ("0", "z"): H}
    theory = _one_context(table)
    section = RationalDistribution(domain=("a", "b"), weights=table)
    assert verify_global_section(theory, {"p": section}) == [
        "section for 'p' puts mass on outcome 'z' outside the outcome set of 'b'"
    ]


def _gyo_acyclic(cover):
    """Graham's reduction: drop labels in one context only and contexts
    inside another until nothing changes; acyclic iff at most one is left."""
    edges = [set(ctx) for ctx in cover]
    changed = True
    while changed:
        changed = False
        for e in edges:
            lonely = {m for m in e if sum(m in f for f in edges) == 1}
            if lonely:
                e -= lonely
                changed = True
        for i, e in enumerate(edges):
            if any(j != i and e <= f for j, f in enumerate(edges)):
                del edges[i]
                changed = True
                break
    return len(edges) <= 1


@settings(max_examples=300)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=6,
    )
)
def test_join_order_matches_graham_reduction(cover):
    labels = sorted({m for ctx in cover for m in ctx})
    system = system_type({m: ("0", "1") for m in labels}, cover)
    steps, _, acyclic = sheaf._scenario(system).join
    assert acyclic == _gyo_acyclic(system.cover)
    order = [(ctx, shared) for ctx, shared, *_ in steps]
    assert sorted(ctx for ctx, _ in order) == sorted(system.cover)
    for k, (ctx, shared) in enumerate(order):
        earlier = [c for c, _ in order[:k]]
        assert set(shared) == set(ctx) & {m for c in earlier for m in c}
        if acyclic:
            assert not shared or any(set(shared) <= set(c) for c in earlier)


# --- the memoized LP skeleton ----------------------------------------------


def _lp_content(lp):
    """Everything a build makes, dict order included: variables, row names
    and the integer rows."""
    return (
        lp.variables,
        lp.names,
        [list(row.items()) for row in lp.coeffs],
        lp.rhs,
        lp.scales,
    )


def _cold_build(theory):
    sheaf._skeleton.cache_clear()
    sheaf._scenario.cache_clear()
    return global_section_system(theory)


def _skeleton_theories():
    for name in ("bell", "spekkens-preparation", "spekkens-unsharp"):
        yield pytest.param(builtin_example(name).theory, id=name)
    yield pytest.param(_frustrated_ring(random.Random(6), 6), id="frustrated6")


@pytest.mark.parametrize("theory", _skeleton_theories())
def test_build_after_edits_in_place_matches_a_cold_build(theory):
    expected = _lp_content(_cold_build(theory))
    lp = global_section_system(theory)
    assert _lp_content(lp) == expected
    # every edit in place of the LP or of its named view raises
    for c in lp.constraints:
        v = next(iter(c.coeffs))
        with pytest.raises(TypeError):
            c.coeffs[v] = Fraction(7)
        with pytest.raises(TypeError):
            del c.coeffs[v]
        with pytest.raises(TypeError):
            c.coeffs["ghost"] = ONE
        with pytest.raises(AttributeError):
            c.rhs = ONE
    with pytest.raises(AttributeError):
        lp.constraints = lp.constraints[1:]
    with pytest.raises(AttributeError):
        lp.coeffs = ()
    assert _lp_content(lp) == expected
    assert _lp_content(global_section_system(theory)) == expected


@pytest.mark.parametrize(
    "name", ["spekkens-preparation", "spekkens-unsharp", "state-mixture"]
)
def test_builds_share_the_rows_no_solve_writes(name, mixture_theory):
    if name == "state-mixture":
        # declared and feasible, with zero-weight marginals for presolve
        theory = mixture_theory(*_state_mixture())
    else:
        theory = builtin_example(name).theory
    first, second = global_section_system(theory), global_section_system(theory)
    shared = [r for r, row in enumerate(first.names) if not row.startswith("marg[")]
    assert any(first.names[r].startswith("mix:") for r in shared)
    assert all(first.coeffs[r] is second.coeffs[r] for r in shared)
    expected = [_lp_content(lp) for lp in (first, second)]
    result = solve_feasibility(first)
    assert isinstance(result, Feasible) == (name == "state-mixture")
    assert [_lp_content(lp) for lp in (first, second)] == expected


def _marginal_columns(lp, labels, name):
    """The columns of marginal row ``name`` of ``lp``, whose scenario has
    ``labels``, read from the row and variable names."""
    state, ctx, outcomes = name[len("marg[") : -1].split(";")
    picks = [labels.index(m) for m in ctx.split(",")]
    prefix = f"d[{state};"
    return [
        j
        for j, v in enumerate(lp.variables)
        if v.startswith(prefix)
        and [v[len(prefix) : -1].split(",")[p] for p in picks] == outcomes.split(",")
    ]


def test_unit_marginal_rows_are_shared_and_no_solve_writes_them():
    # two theories of one binary 5-cycle: a perfectly frustrated ring, every
    # weight 0 or 1/2, and the marginals of two assignments, with weights 0,
    # 1/3, 2/3 and 1; a zero or one weight's row is the skeleton's unit row
    system = _ring_system(5)
    tables = {
        ctx: RationalDistribution(
            domain=ctx,
            weights={("0", "1"): H, ("1", "0"): H}
            if i == 0
            else {("0", "0"): H, ("1", "1"): H},
        )
        for i, ctx in enumerate(system.cover)
    }
    frustrated = EmpiricalTheory(
        system=system, states={"s0": State(name="s0", table=tables)}
    )
    section = RationalDistribution(
        domain=system.labels,
        weights={tuple("00000"): Fraction(1, 3), tuple("00111"): Fraction(2, 3)},
    )
    sectioned = theory_from_sections(system, {"s0": section})
    first, second, again = map(
        global_section_system, (frustrated, sectioned, frustrated)
    )
    marginal = [r for r, name in enumerate(first.names) if name.startswith("marg[")]
    shared = [r for r in marginal if first.scales[r] == second.scales[r] == 1]
    assert shared and len(shared) < len(marginal)
    assert {first.scales[r] for r in marginal} == {1, 2}
    assert {second.scales[r] for r in marginal} == {1, 3}
    for r in marginal:
        columns = _marginal_columns(first, system.labels, first.names[r])
        unit = dict.fromkeys(columns, 1)
        for lp, other in ((first, again), (second, first), (again, second)):
            if lp.scales[r] == 1:
                assert lp.coeffs[r] == unit
                assert (lp.coeffs[r] is other.coeffs[r]) == (other.scales[r] == 1)
            else:
                assert lp.coeffs[r] == dict.fromkeys(unit, lp.scales[r])
                assert lp.coeffs[r] is not other.coeffs[r]
    rows = [list(first.coeffs[r].items()) for r in shared]
    expected = [_lp_content(lp) for lp in (first, second, again)]
    assert not isinstance(solve_feasibility(first), Feasible)
    assert isinstance(solve_feasibility(second), Feasible)
    assert [list(first.coeffs[r].items()) for r in shared] == rows
    assert [_lp_content(lp) for lp in (first, second, again)] == expected


def test_equal_system_on_a_distinct_object_reads_its_own_tables():
    first = _frustrated_ring(random.Random(1), 7)
    global_section_system(first)
    system = _ring_system(7)
    assert system == first.system and system is not first.system
    other = theory_from_sections(
        system, random_sections(random.Random(2), system, ("s0",))
    )
    misses = sheaf._skeleton.cache_info().misses
    warm = global_section_system(other)
    assert sheaf._skeleton.cache_info().misses == misses  # shared by value
    assert _lp_content(warm) == _lp_content(_cold_build(other))
    assert [c.rhs for c in warm.constraints] != [
        c.rhs for c in global_section_system(first).constraints
    ]


def test_states_in_another_order_build_their_own_lp():
    theory = builtin_example("spekkens-preparation").theory
    reordered = EmpiricalTheory(
        system=theory.system,
        states=dict(reversed(theory.states.items())),
        convex=theory.convex,
    )
    global_section_system(theory)
    warm = global_section_system(reordered)
    assert _lp_content(warm) == _lp_content(_cold_build(reordered))
    assert warm.variables != global_section_system(theory).variables


def test_declared_and_undeclared_forms_each_build_their_own_lp():
    declared = builtin_example("spekkens-unsharp").theory
    undeclared = without_declarations(declared)
    expected = [_lp_content(_cold_build(t)) for t in (declared, undeclared)]
    sheaf._skeleton.cache_clear()
    for _ in range(2):
        for theory, want in zip((declared, undeclared), expected):
            assert _lp_content(global_section_system(theory)) == want


def test_convex_given_as_a_list_builds_the_tuple_forms_lp():
    theory = builtin_example("spekkens-preparation").theory
    listed = EmpiricalTheory(
        system=theory.system, states=theory.states, convex=list(theory.convex)
    )
    expected = _lp_content(_cold_build(theory))
    assert _lp_content(global_section_system(listed)) == expected
    assert _lp_content(_cold_build(listed)) == expected


def test_unknown_state_in_a_declaration_raises_on_every_build():
    theory = builtin_example("spekkens-preparation").theory
    decl = ConvexDeclaration(
        kind="state",
        target=next(iter(theory.states)),
        components=(ConvexComponent(coefficient=ONE, name="nonesuch"),),
    )
    bad = EmpiricalTheory(system=theory.system, states=theory.states, convex=(decl,))
    for _ in range(3):
        with pytest.raises(ModelError, match="references states outside the system"):
            global_section_system(bad)


def test_memo_keeps_at_most_its_bound_and_rebuilds_what_it_evicted():
    def scenario(k):
        # distinct label names make distinct system types of the same shape
        a, b, c = f"a{k}", f"b{k}", f"c{k}"
        binary = dict.fromkeys((a, b, c), ("0", "1"))
        system = system_type(binary, [(a, b), (b, c), (a, c)])
        return theory_from_sections(
            system, random_sections(random.Random(k), system, ("s", "t"))
        )

    theories = [scenario(k) for k in range(sheaf._MEMO_SIZE + 3)]
    first = [_lp_content(global_section_system(t)) for t in theories]
    for memo in (sheaf._skeleton, sheaf._scenario):
        assert memo.cache_info().currsize <= sheaf._MEMO_SIZE
    misses = [memo.cache_info().misses for memo in (sheaf._skeleton, sheaf._scenario)]
    # the first scenario was evicted: it misses, and rebuilds the same LP
    assert _lp_content(global_section_system(theories[0])) == first[0]
    assert [
        memo.cache_info().misses for memo in (sheaf._skeleton, sheaf._scenario)
    ] == [n + 1 for n in misses]
    assert _lp_content(_cold_build(theories[0])) == first[0]


def test_join_order_is_memoized_on_the_system_type():
    system = without_declarations(builtin_example("spekkens-unsharp").theory).system
    sheaf._scenario.cache_clear()
    join = sheaf._scenario(system).join
    assert isinstance(join, tuple)
    # an equal system type, built apart, reads the same entry
    twin = deepcopy(system)
    assert twin is not system and twin == system
    assert sheaf._scenario(twin).join is join
    info = sheaf._scenario.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, sheaf._MEMO_SIZE)


@pytest.mark.parametrize(
    "name, mode",
    [
        pytest.param(
            "spekkens-unsharp", "probabilistic", id="spekkens-unsharp-undeclared"
        ),
        # bell's cover is cyclic
        pytest.param("bell", "possibilistic", id="bell-possibilistic"),
        pytest.param(
            "spekkens-preparation",
            "possibilistic",
            id="spekkens-preparation-possibilistic",
        ),
    ],
)
def test_product_path_builds_no_assignment_list_and_shares_one_scenario(name, mode):
    theory = builtin_example(name).theory
    if mode == "probabilistic":  # the product path takes no declarations
        theory = without_declarations(theory)
    sheaf._scenario.cache_clear()
    verdict = check_contextuality(theory, mode=mode)
    assert verdict.system is None and not verdict.contextual
    scenario = sheaf._scenario(theory.system)
    # the gate and the join's two readers read only the fields they need
    built = vars(scenario).keys()
    assert {"overlaps", "join"} <= built
    assert ("size" in built) == (mode == "probabilistic")
    assert "assignments" not in built
    twin = deepcopy(theory.system)
    assert twin is not theory.system and sheaf._scenario(twin) is scenario


@st.composite
def _covers_with_outcomes(draw):
    """A system type on one to four labels with one to three outcomes each,
    and a cover of one to four drawn contexts, listed in any order."""
    labels = draw(st.permutations([f"m{i}" for i in range(draw(st.integers(1, 4)))]))
    outcomes = {m: tuple(str(v) for v in range(draw(st.integers(1, 3)))) for m in labels}
    context = st.lists(st.sampled_from(labels), min_size=1, unique=True)
    return system_type(outcomes, draw(st.lists(context, min_size=1, max_size=4)))


@given(_covers_with_outcomes())
def test_context_groups_hold_the_assignments_restricting_to_each_tuple(system):
    # the LP skeleton names one row per context tuple, so it rejects a cover
    # that lists a context twice
    system = replace(system, cover=tuple(dict.fromkeys(system.cover)))
    scenario = sheaf.Scenario(system)
    assignments = scenario.assignments
    assert assignments == tuple(
        itertools.product(*(system.outcomes_of(m).labels for m in system.labels))
    )
    # one state's columns are the assignment indices, so each unit row's
    # columns are the assignments restricting to its tuple
    (_, _, marginals), = sheaf._skeleton(system, ("s",), ()).states
    contexts = [
        (ctx, tuple(t for t, _ in units), tuple(tuple(unit) for _, unit in units))
        for ctx, units in marginals
    ]
    assert [ctx for ctx, _, _ in contexts] == list(system.cover)
    for ctx, tuples, groups in contexts:
        at = [system.labels.index(m) for m in ctx]
        assert tuples == tuple(
            itertools.product(*(system.outcomes_of(m).labels for m in ctx))
        )
        assert groups == tuple(
            tuple(i for i, a in enumerate(assignments) if tuple(a[p] for p in at) == t)
            for t in tuples
        )


@st.composite
def _sparse_theories(draw):
    """A valid system type from ``_covers_with_outcomes`` (its covered labels,
    each with its outcomes listed in any order, and its maximal contexts, in
    the drawn order) and one or two states, each the marginals of a section
    with random zero weights, so no table signals."""
    drawn = draw(_covers_with_outcomes())
    cover = [
        ctx
        for i, ctx in enumerate(drawn.cover)
        if ctx not in drawn.cover[:i]
        and not any(set(ctx) < set(other) for other in drawn.cover)
    ]
    covered = {m for ctx in cover for m in ctx}
    system = system_type(
        {
            m: draw(st.permutations(drawn.outcomes_of(m).labels))
            for m in drawn.labels
            if m in covered
        },
        cover,
    )
    assignments = list(sheaf.global_outcome_tuples(system))
    sections = {}
    for name in draw(st.sampled_from([("s0",), ("s0", "s1")])):
        counts = draw(
            st.lists(
                st.integers(0, 3),
                min_size=len(assignments),
                max_size=len(assignments),
            ).filter(any)
        )
        total = sum(counts)
        sections[name] = RationalDistribution(
            domain=system.labels,
            weights={g: Fraction(n, total) for g, n in zip(assignments, counts) if n},
        )
    return theory_from_sections(system, sections)


def _uniform_over(outcomes, cover, rows):
    """The theory whose one state is the marginals of the uniform section on
    ``rows``, full assignments in the labels' order."""
    system = system_type(outcomes, cover)
    weights = {tuple(g): Fraction(1, len(rows)) for g in rows}
    section = RationalDistribution(domain=system.labels, weights=weights)
    return theory_from_sections(system, {"s0": section})


# few drawn covers are cyclic once made an antichain, so two are given: a
# triangle listed out of order beside a one-outcome label of its own, and a
# four-cycle
@example(
    _uniform_over(
        {"a": "01", "b": "012", "c": "01", "d": "0"},
        [("b", "c"), ("a", "b"), ("a", "c"), ("d",)],
        ["0000", "1210", "0110"],
    )
)
@example(
    _uniform_over(
        {m: "01" for m in "abcd"},
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        ["0000", "0110", "1011"],
    )
)
@given(_sparse_theories())
def test_possibilistic_join_matches_a_per_assignment_filter_on_any_cover(theory):
    _assert_possibilistic_matches_a_per_assignment_filter(theory)


# ---------------------------------------------------------------------------
# The n-cycle inequalities as a closed-form oracle
# ---------------------------------------------------------------------------

# a share in [0, 1], its two ends drawn often so that tables on the boundary
# of their Frechet bounds occur, and correlators of +-1 with them
_SHARES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), H]),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
)
# a share within 1/3 of an end, so that every edge of a cycle can be near a
# correlator of +-1 at once, as a contextual cycle needs
_NEAR_ENDS = st.builds(
    lambda end, gap: abs(end - gap),
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=Fraction(1, 3), max_denominator=12),
)


@st.composite
def _binary_cycles(draw):
    """A binary n-cycle for n = 4..7, with the correlators of its edges.

    Each label reads 0 with a drawn probability.  Each edge reads (0, 0)
    with a drawn point ``t`` of its Frechet bounds max(0, a + b - 1) <= t <=
    min(a, b), with ``a`` and ``b`` its two labels' probabilities, and its
    other outcomes follow from ``t`` and the two marginals, so no
    signalling holds.  The correlator of outcomes read as +1 and -1 is
    1 - 2a - 2b + 4t.  Half the cycles have every marginal 1/2 and each
    ``t`` near an end of its bounds, as the contextual boxes do.
    """
    n = draw(st.integers(4, 7))
    system = _ring_system(n)
    boxed = draw(st.booleans())
    p = {m: H if boxed else draw(_SHARES) for m in system.labels}
    table, correlators = {}, []
    for ctx in system.cover:
        a, b = p[ctx[0]], p[ctx[1]]
        low, high = max(Fraction(0), a + b - 1), min(a, b)
        t = low + draw(_NEAR_ENDS if boxed else _SHARES) * (high - low)
        weights = {
            ("0", "0"): t,
            ("0", "1"): a - t,
            ("1", "0"): b - t,
            ("1", "1"): 1 - a - b + t,
        }
        table[ctx] = RationalDistribution(domain=ctx, weights=weights)
        correlators.append(1 - 2 * a - 2 * b + 4 * t)
    theory = EmpiricalTheory(system=system, states={"s0": State(name="s0", table=table)})
    return theory, correlators


@settings(_UNSHRUNK, max_examples=150)
@given(_binary_cycles())
def test_binary_cycle_is_contextual_exactly_when_a_cycle_inequality_fails(case):
    # Araujo, Quintino, Budroni, Terra Cunha and Cabello, PRA 88, 022118
    # (2013): a no-signalling binary n-cycle is noncontextual exactly when
    # sum_i g_i <X_i X_{i+1}> <= n - 2 for every sign vector g with an odd
    # number of -1 entries (Fine's theorem at n = 4)
    theory, correlators = case
    n = len(correlators)
    violated = any(
        sum(g * e for g, e in zip(signs, correlators)) > n - 2
        for signs in itertools.product((1, -1), repeat=n)
        if signs.count(-1) % 2
    )
    assert check_contextuality(theory).contextual == violated


@st.composite
def _cross_decider_theories(draw):
    """A ``random_instance``, a binary ring (marginals of a positive
    section, frustrated, or a ``_binary_cycles`` draw, whose tables may sit
    on their Frechet bounds), or a builtin with its declarations."""
    kinds = ["random", "feasible", "frustrated", "cycle", "builtin"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return random_instance(random.Random(draw(st.integers(0, 10**6))))
    if kind == "feasible":
        return _feasible_ring(draw(st.integers(4, 7)), draw(st.integers(0, 10**6)))
    if kind == "frustrated":
        seed = draw(st.integers(0, 10**6))
        return _frustrated_ring(random.Random(seed), draw(st.integers(4, 7)))
    if kind == "cycle":
        return draw(_binary_cycles())[0]
    return builtin_example(draw(st.sampled_from(BUILTIN_NAMES))).theory


# Cross-decider relations (no closed form needed).  Each draw checks LPs of
# several skeletons of one system type in one process (with and without
# declarations), so a presolve memo keyed too loosely would show here.  A
# disagreement is a finding about a decider, not a draw to leave out.


def _every_builtin(test):
    """Runs ``test`` on each builtin too: two are possibilistically
    contextual, and two hold the only declarations of these draws."""
    for name in BUILTIN_NAMES:
        test = example(builtin_example(name).theory)(test)
    return test


@settings(_UNSHRUNK, max_examples=100)
@_every_builtin
@given(_cross_decider_theories())
def test_possibilistically_contextual_theory_is_contextual(theory):
    # a supported local section that no supported assignment extends cannot
    # be a marginal of any global section, with or without declarations
    possibilistic = check_contextuality(theory, mode="possibilistic").contextual
    undeclared = check_contextuality(without_declarations(theory)).contextual
    assert undeclared or not possibilistic
    assert check_contextuality(theory).contextual or not possibilistic


@settings(_UNSHRUNK, max_examples=100)
@_every_builtin
@given(_cross_decider_theories())
def test_declarations_never_make_a_theory_less_contextual(theory):
    # a declaration only adds rows, so a global section of the declared
    # theory is one of the undeclared theory
    pair = (without_declarations(theory), theory)
    undeclared, declared = [check_contextuality(t).contextual for t in pair]
    assert declared or not undeclared
    # the same verdicts in the other order, after the memos the first left
    assert [check_contextuality(t).contextual for t in pair[::-1]] == [
        declared,
        undeclared,
    ]
