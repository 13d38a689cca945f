"""Random-instance generators: determinism, feasibility by construction,
frustration, duplication, and factorizable representation sampling."""

import hashlib
import random
from fractions import Fraction

import pytest

from ctxcheck import (
    GeneratorError,
    analyze_representation,
    bloch_preparation_scenario,
    check_contextuality,
    dump_document,
    duplicated_label_theory,
    equivalence_classes,
    induced_theory,
    minimalize,
    parity_bump,
    quotient_theory,
    random_factorizable_representation,
    random_feasible_theory,
    random_frustrated_cycle,
    random_instance,
    random_sections,
    random_system,
    representation_to_document,
    require_no_signalling,
    theory_from_sections,
    validate_representation,
    validate_theory,
    verify_certificate,
    verify_global_section,
    without_declarations,
)


def test_generators_are_seed_deterministic():
    a = random_instance(random.Random(7))
    b = random_instance(random.Random(7))
    assert a.system.labels == b.system.labels
    assert a.system.cover == b.system.cover
    for name in a.states:
        for ctx in a.system.cover:
            assert a.states[name].table[ctx].weights == b.states[name].table[ctx].weights


def test_random_systems_validate():
    for seed in range(30):
        system = random_system(random.Random(seed))
        assert 2 <= len(system.labels) <= 5
        for ctx in system.cover:
            assert ctx == system.sort_context(ctx)


def test_sections_are_positive_and_reproduce_marginals():
    rng = random.Random(3)
    system = random_system(rng)
    sections = random_sections(rng, system, ("p", "q"))
    for dist in sections.values():
        assert all(w > 0 for w in dist.weights.values())
        assert sum(dist.weights.values()) == 1
    theory = theory_from_sections(system, sections)
    assert validate_theory(theory) == []
    # the sections must certify feasibility exactly
    assert verify_global_section(theory, sections) == []


def test_feasible_theories_come_with_witness_sections():
    for seed in range(20):
        theory, sections = random_feasible_theory(random.Random(seed))
        assert verify_global_section(theory, sections) == []
        require_no_signalling(theory)
        verdict = check_contextuality(theory)
        assert not verdict.contextual


def test_parity_bump_keeps_no_signalling():
    bumps = 0
    for seed in range(40):
        rng = random.Random(seed)
        theory, _ = random_feasible_theory(rng)
        bumped = parity_bump(rng, theory)
        if bumped is None:
            continue
        bumps += 1
        assert validate_theory(bumped) == []
        require_no_signalling(bumped)
    assert bumps > 0


def test_frustrated_cycles_are_contextual_when_noise_free():
    found_clean = False
    for seed in range(60):
        theory = random_frustrated_cycle(random.Random(seed))
        assert validate_theory(theory) == []
        require_no_signalling(theory)
        halves = {Fraction(1, 2), Fraction(0), Fraction(1)}
        weights = {
            w
            for state in theory.states.values()
            for ctx in theory.system.cover
            for w in state.table[ctx].weights.values()
        }
        if weights <= halves:
            # zero-noise draw: pure odd frustration, necessarily contextual
            found_clean = True
            assert check_contextuality(theory).contextual
    assert found_clean


def test_random_instances_mix_verdicts():
    verdicts = [
        check_contextuality(random_instance(random.Random(2000 + i))).contextual
        for i in range(40)
    ]
    assert any(verdicts) and not all(verdicts)


def test_duplicated_label_collapses_under_minimalization():
    rng = random.Random(11)
    theory, _ = random_feasible_theory(rng)
    doubled = duplicated_label_theory(rng, theory)
    assert validate_theory(doubled) == []
    assert len(doubled.system.labels) == len(theory.system.labels) + 1
    minimal, mapping = minimalize(doubled)
    # the twin label is statistically identical and never co-occurs with its
    # original, so the quotient stage must merge it away
    assert not mapping.quotient_map.is_identity()
    assert len(minimal.system.labels) < len(mapping.split_theory.system.labels)


def test_duplicated_twin_stays_apart_when_a_guard_splits_its_class():
    # the 309th representation of a stream drawn from random.Random(1), each
    # draw followed by a 32-bit seed for the duplication
    rng = random.Random(1)
    for _ in range(309):
        rep = random_factorizable_representation(rng)
        dup_seed = rng.randrange(2**32)
    theory, _ = induced_theory(rep)
    doubled = duplicated_label_theory(random.Random(dup_seed), theory)
    assert doubled.system.cover == (("e0",), ("e1", "e2"), ("e1", "e2_dup"))
    # the twin is statistically equivalent to its label...
    classes = equivalence_classes(doubled, "measurement").classes
    assert ("e2", "e2_dup") in classes and ("e0", "e1") in classes
    # ...but merging e0 with e1 would map context (e1, e2) onto {e0, e2},
    # which embeds in no context, and guard (iii) then splits every
    # multi-member class in that context, the twin's included
    quotient, mapping = quotient_theory(doubled)
    assert mapping.forward["e2_dup"] == "e2_dup"
    assert quotient.system.labels == doubled.system.labels


def test_random_factorizable_representations_analyze_clean():
    for seed in range(15):
        rep = random_factorizable_representation(random.Random(seed))
        assert validate_representation(rep) == []
        report = analyze_representation(rep)
        assert report.realizes
        assert report.factorizable
        assert report.outcome_deterministic
        assert report.noncontextual()


def test_generated_representations_match_golden_digest():
    # sha256 over the serialized documents of the 150 representations drawn
    # from seeds 1-3; pins the draws, the resample test and the documents
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(50):
            rep = random_factorizable_representation(rng)
            digest.update(dump_document(representation_to_document(rep)).encode())
    assert digest.hexdigest() == (
        "7b85fd3aa347be6261d0a961c57a2dc353482a470c62c96f508103d0208a157b"
    )


@pytest.mark.parametrize(
    "k, size, margin",
    [
        (3, (56, 73), Fraction(7, 80)),
        (4, (144, 145), Fraction(63, 500)),
        (5, (352, 281), Fraction(737, 9775)),
    ],
)
def test_bloch_preparation_scenarios_hold_their_declarations_and_are_contextual(
    k, size, margin
):
    theory = bloch_preparation_scenario(range(k))
    assert validate_theory(theory) == []
    require_no_signalling(theory)
    assert len(theory.states) == 2 * k + 1 and len(theory.convex) == k
    # every declared mixture holds exactly on every table
    for decl in theory.convex:
        for ctx in theory.system.cover:
            target = theory.states[decl.target].table[ctx]
            for values in (("0",), ("1",)):
                mixed = sum(
                    c.coefficient * theory.states[c.name].table[ctx].weight(values)
                    for c in decl.components
                )
                assert target.weight(values) == mixed
    verdict = check_contextuality(theory)
    assert verdict.contextual
    assert verify_certificate(verdict.system, verdict.certificate)
    assert verdict.margin == margin
    assert (len(verdict.system.variables), len(verdict.system.names)) == size
    # the cover is disjoint, so without declarations the product path
    # decides, with no LP
    bare_theory = without_declarations(theory)
    bare = check_contextuality(bare_theory)
    assert not bare.contextual and bare.system is None
    assert verify_global_section(bare_theory, bare.sections) == []


def test_bloch_preparation_scenario_rejects_a_repeated_direction():
    # t and -1/t give opposite vectors, so psi of one is perp of the other
    for ts in ((0, 0), (1, -1), (Fraction(1, 2), -2)):
        with pytest.raises(GeneratorError):
            bloch_preparation_scenario(ts)
