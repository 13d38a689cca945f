"""Statistical equivalence, safe quotients, outcome splits, minimalization."""

import random
from fractions import Fraction

import pytest

from ctxcheck.equivalence import (
    equivalence_classes,
    minimalize,
    observable_split,
    quotient_theory,
    transport_sections_from_minimal,
    transport_sections_to_minimal,
)
from ctxcheck.generate import (
    duplicated_label_theory,
    random_feasible_theory,
    theory_from_sections,
)
from ctxcheck.model import (
    EmpiricalTheory,
    ModelError,
    RationalDistribution,
    State,
    system_type,
    validate_theory,
)
from ctxcheck.quantum import builtin_example
from ctxcheck.sheaf import check_contextuality, verify_global_section

H = Fraction(1, 2)
Q = Fraction(1, 4)


def _twin_theory():
    """x and its never-co-occurring statistical twin y, plus a biased z."""
    cover = (("x", "z"), ("y", "z"))
    system = system_type({m: ("0", "1") for m in "xyz"}, cover)
    # first label uniform, z biased 3/4 on outcome 0, independent
    product = {
        ("0", "0"): Fraction(3, 8),
        ("0", "1"): Fraction(1, 8),
        ("1", "0"): Fraction(3, 8),
        ("1", "1"): Fraction(1, 8),
    }
    table = {ctx: RationalDistribution(domain=ctx, weights=dict(product)) for ctx in cover}
    return EmpiricalTheory(
        system=system, states={"s": State(name="s", table=table)}
    )


def test_equivalence_classes_merge_identical_labels():
    classes = equivalence_classes(_twin_theory(), "measurement")
    assert ("x", "y") in classes.classes
    assert classes.representative("y") == "x"


def test_state_classes_by_full_tables():
    theory = _twin_theory()
    theory.states["t"] = State(name="t", table=dict(theory.states["s"].table))
    classes = equivalence_classes(theory, "state")
    assert classes.classes == (("s", "t"),)


def test_outcome_pair_classes():
    classes = equivalence_classes(_twin_theory(), "outcome-pair")
    # four uniform-half pairs together; z's two outcomes at 3/4 and 1/4 apart
    assert len(classes.classes) == 3
    assert (("x", "0"), ("x", "1"), ("y", "0"), ("y", "1")) in classes.classes


def test_quotient_merges_twins_and_preserves_feasibility():
    theory = _twin_theory()
    small, qmap = quotient_theory(theory)
    assert qmap.forward["y"] == "x"
    assert small.system.labels == ("x", "z")
    assert small.system.cover == (("x", "z"),)
    v_big = check_contextuality(theory)
    v_small = check_contextuality(small)
    assert v_big.contextual == v_small.contextual == False  # noqa: E712


def test_co_contextual_labels_never_merge():
    # a and b have identical statistics but share a context
    cover = (("a", "b"),)
    system = system_type({m: ("0", "1") for m in "ab"}, cover)
    table = {
        ("a", "b"): RationalDistribution(
            domain=("a", "b"),
            weights={("0", "0"): H, ("1", "1"): H},
        )
    }
    theory = EmpiricalTheory(
        system=system, states={"s": State(name="s", table=table)}
    )
    classes = equivalence_classes(theory, "measurement")
    assert classes.classes == (("a", "b"),)  # statistically equivalent
    _, qmap = quotient_theory(theory)
    assert qmap.is_identity()  # but the merge is blocked


def test_quotient_blocks_joint_disagreement():
    """Twins whose joint tables with a shared partner disagree must not merge."""
    cover = (("x", "z"), ("y", "z"))
    system = system_type({m: ("0", "1") for m in "xyz"}, cover)
    correlated = {("0", "0"): H, ("1", "1"): H}
    anti = {("0", "1"): H, ("1", "0"): H}
    table = {
        ("x", "z"): RationalDistribution(domain=("x", "z"), weights=correlated),
        ("y", "z"): RationalDistribution(domain=("y", "z"), weights=anti),
    }
    theory = EmpiricalTheory(
        system=system, states={"s": State(name="s", table=table)}
    )
    # all three labels are statistically equivalent as single labels
    classes = equivalence_classes(theory, "measurement")
    assert classes.classes == (("x", "y", "z"),)
    # but the joint tables with z disagree, so nothing merges
    _, qmap = quotient_theory(theory)
    assert qmap.is_identity()


def test_split_is_identity_on_binary_labels():
    theory = _twin_theory()
    split, smap = observable_split(theory)
    assert smap.is_identity()
    assert split == theory


def test_split_one_hots_ternary_labels():
    system = system_type({"m": ("u", "v", "w")}, [("m",)])
    table = {
        ("m",): RationalDistribution(
            domain=("m",),
            weights={("u",): H, ("v",): Q, ("w",): Q},
        )
    }
    theory = EmpiricalTheory(
        system=system, states={"s": State(name="s", table=table)}
    )
    split, smap = observable_split(theory)
    assert not smap.is_identity()
    assert len(split.system.labels) == 3
    for label in split.system.labels:
        assert split.system.outcomes_of(label).labels == ("0", "1")
    v = check_contextuality(split)
    assert not v.contextual


def _uniform_theory(outcomes, cover):
    system = system_type(outcomes, cover)
    table = {}
    for ctx in cover:
        (label,) = ctx
        outs = outcomes[label]
        weights = {(o,): Fraction(1, len(outs)) for o in outs}
        table[ctx] = RationalDistribution(domain=ctx, weights=weights)
    return EmpiricalTheory(
        system=system, states={"s": State(name="s", table=table)}
    )


def test_split_labels_collide_with_labels_and_with_each_other():
    clash_with_label = _uniform_theory(
        {"a": ("0", "1", "2"), "a:0": ("0", "1")}, [("a",), ("a:0",)]
    )
    # both 'a' (outcome 'x:y') and 'a:x' (outcome 'y') split into 'a:x:y'
    clash_with_split = _uniform_theory(
        {"a": ("x:y", "1", "2"), "a:x": ("y", "1", "2")}, [("a",), ("a:x",)]
    )
    for theory, name in ((clash_with_label, "a:0"), (clash_with_split, "a:x:y")):
        with pytest.raises(ModelError, match=f"split label '{name}' collides"):
            observable_split(theory)


def test_transport_from_minimal_rejects_a_section_that_is_not_one_hot():
    theory = _uniform_theory({"m": ("u", "v", "w")}, [("m",)])
    small, mmap = minimalize(theory)
    assert small.system.labels == ("m:u", "m:v", "m:w")
    two_hot = {
        "s": RationalDistribution(
            domain=small.system.labels, weights={("1", "1", "0"): Fraction(1)}
        )
    }
    with pytest.raises(ModelError, match="section for 's' supports a non-one-hot"):
        transport_sections_from_minimal(mmap, two_hot)


def test_split_and_minimalize_carry_a_measurement_mixture(mixture_variant):
    theory, _, contextual = mixture_variant
    split, smap = observable_split(theory)
    assert validate_theory(split) == []
    mixtures = [d for d in split.convex if d.kind == "measurement"]
    assert [d.target for d in mixtures] == ["c:0", "c:1", "c:2"]
    for decl, k in zip(mixtures, ("0", "1", "2")):
        assert [c.name for c in decl.components] == [f"a:{k}", f"b:{k}"]
        for label in (decl.target, *(c.name for c in decl.components)):
            assert split.system.outcomes_of(label).labels == ("0", "1")
    v_split = check_contextuality(split)
    small, mmap = minimalize(theory)
    v_small = check_contextuality(small)
    assert v_split.contextual == v_small.contextual == contextual
    if not contextual:
        assert mmap.quotient_map.is_identity()
        back = transport_sections_from_minimal(mmap, v_small.sections)
        assert verify_global_section(theory, back) == []


def test_minimalize_is_identity_on_builtins():
    for name in ("bell", "mermin", "specker-triangle"):
        theory = builtin_example(name).theory
        small, mmap = minimalize(theory)
        assert mmap.is_identity()
        assert small == theory


def test_minimalize_collapses_duplicated_labels_with_exact_transport():
    rng = random.Random(42)
    for _ in range(10):
        theory, sections = random_feasible_theory(rng)
        dup = duplicated_label_theory(rng, theory)
        small, mmap = minimalize(dup)
        assert not mmap.is_identity()
        v_dup = check_contextuality(dup)
        v_small = check_contextuality(small)
        assert v_dup.contextual == v_small.contextual
        assert not v_dup.contextual
        moved = transport_sections_to_minimal(mmap, v_dup.sections)
        assert verify_global_section(small, moved) == []
        back = transport_sections_from_minimal(mmap, v_small.sections)
        assert verify_global_section(dup, back) == []


def test_transport_round_trip_preserves_verdict_weights():
    rng = random.Random(43)
    theory, sections = random_feasible_theory(rng)
    dup = duplicated_label_theory(rng, theory)
    ext_sections = {
        name: dist
        for name, dist in check_contextuality(dup).sections.items()
    }
    small, mmap = minimalize(dup)
    moved = transport_sections_to_minimal(mmap, ext_sections)
    again = transport_sections_from_minimal(mmap, moved)
    assert verify_global_section(dup, again) == []
