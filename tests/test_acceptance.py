"""Acceptance suite: the headline guarantees of the package.

Every test pins one externally checkable promise: exact verdicts and
hand-checkable certificates on the bundled scenarios, seeded random
round trips between theories and ontological representations, and the
rule that no verdict is ever emitted without a machine-verifiable
witness (a Farkas certificate or an explicit global section).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ctxcheck import (
    builtin_example,
    canonical_representation,
    check_contextuality,
    check_iso_diagram,
    empirical_theories_statistically_equal,
    find_global_section,
    induced_theory,
    is_robust,
    minimalize,
    operational_theories_statistically_equal,
    random_factorizable_representation,
    random_feasible_theory,
    random_instance,
    to_empirical,
    to_operational,
    transport_sections_to_minimal,
    transport_sections_from_minimal,
    trivial_representation,
    verify_certificate,
    verify_global_section,
    without_declarations,
)
from ctxcheck.linprog import FarkasCertificate, certificate_margin
from ctxcheck.ontology import analyze_representation, verify_realization
from ctxcheck.quantum import BUILTIN_NAMES, as_density, born_weight
from ctxcheck.sheaf import global_outcome_tuples


def _checked_verdict(theory, mode="probabilistic"):
    """Run the solver and insist its own witness checks out independently."""
    verdict = check_contextuality(theory, mode=mode)
    if verdict.contextual and verdict.certificate is not None:
        assert verify_certificate(verdict.system, verdict.certificate)
    if not verdict.contextual and verdict.sections is not None:
        assert verify_global_section(theory, verdict.sections) == []
    return verdict


def test_two_party_binary_scenario_is_contextual_with_exact_gap():
    ex = builtin_example("bell")
    start = time.perf_counter()
    verdict = _checked_verdict(ex.theory)
    assert time.perf_counter() - start < 1.0
    assert verdict.contextual
    assert verdict.variable_count == 16
    assert verdict.margin > 0

    # Hand-built witness: the three mixed-table rows carry total weight 3/8
    # yet their constraint combination dominates the 1/2 entry of the
    # perfectly correlated table, an exact shortfall of 1/8.
    explicit = FarkasCertificate(
        multipliers={
            "marg[ghz;a,b;0,0]": Fraction(-1),
            "marg[ghz;a',b;1,0]": Fraction(1),
            "marg[ghz;a,b';0,1]": Fraction(1),
            "marg[ghz;a',b';0,0]": Fraction(1),
        }
    )
    assert verify_certificate(verdict.system, explicit)
    assert certificate_margin(verdict.system, explicit) == Fraction(1, 8)

    # supported-outcome reasoning alone cannot block this scenario
    assert not _checked_verdict(ex.theory, mode="possibilistic").contextual


def test_three_party_parity_scenario_fails_both_checks():
    ex = builtin_example("mermin")
    start = time.perf_counter()
    probabilistic = _checked_verdict(ex.theory)
    possibilistic = _checked_verdict(ex.theory, mode="possibilistic")
    assert time.perf_counter() - start < 1.0
    assert probabilistic.contextual
    assert probabilistic.variable_count == 64
    assert possibilistic.contextual
    assert possibilistic.blocked


def test_declared_preparation_mixture_forces_infeasibility():
    ex = builtin_example("spekkens-preparation")
    verdict = _checked_verdict(ex.theory)
    assert verdict.contextual
    assert verdict.margin >= Fraction(1, 12)

    # Hand-built witness for the clash: under the declared uniform
    # three-way mixture the first test's outcome 0 must carry weight
    # 1/3 * (0 + 1/4 + 1/4) = 1/6, but the mixed preparation assigns it 1/2.
    labels = ex.theory.system.labels
    position = labels.index("Pa")
    multipliers = {
        "marg[mix;Pa,PA;0,0]": Fraction(-1),
        "marg[mix;Pa,PA;0,1]": Fraction(-1),
    }
    for name in ("a", "b", "c"):
        multipliers[f"marg[{name};Pa,PA;0,0]"] = Fraction(1, 3)
        multipliers[f"marg[{name};Pa,PA;0,1]"] = Fraction(1, 3)
    for g in global_outcome_tuples(ex.theory.system):
        if g[position] == "0":
            multipliers[f"mix:state[mix#0;{','.join(g)}]"] = Fraction(1)
    explicit = FarkasCertificate(multipliers=multipliers)
    assert verify_certificate(verdict.system, explicit)
    assert certificate_margin(verdict.system, explicit) == Fraction(1, 3)

    # dropping the declarations restores an exactly verifiable section
    bare = without_declarations(ex.theory)
    relaxed = _checked_verdict(bare)
    assert not relaxed.contextual


def test_declared_measurement_mixture_is_robustly_infeasible():
    ex = builtin_example("spekkens-unsharp")
    verdict = _checked_verdict(ex.theory)
    assert verdict.contextual
    assert verdict.margin == Fraction(5, 12)
    # the gap survives any rounding the rational Born tables introduced
    assert is_robust(verdict.margin, verdict.constraint_count, ex.perturbation_bound)

    bare = without_declarations(ex.theory)
    assert not _checked_verdict(bare).contextual


@pytest.mark.parametrize(
    "name, margin",
    [
        ("bell", Fraction(5, 16)),
        ("mermin", Fraction(1, 4)),
        ("spekkens-preparation", Fraction(73, 168)),
        ("spekkens-unsharp", Fraction(5, 12)),
        ("specker-triangle", Fraction(1, 2)),
    ],
)
def test_bundled_scenarios_return_pinned_margins(name, margin):
    # the returned certificate is deterministic, so its margin is exact
    verdict = _checked_verdict(builtin_example(name).theory)
    assert verdict.contextual
    assert verdict.margin == margin
    assert certificate_margin(verdict.system, verdict.certificate) == margin


def test_triangle_scenario_separates_the_two_notions():
    ex = builtin_example("specker-triangle")
    assert _checked_verdict(ex.theory).contextual
    assert _checked_verdict(ex.theory, mode="possibilistic").contextual

    rep = trivial_representation(to_operational(ex.theory))
    ok, witness = verify_realization(rep)
    assert ok and witness is None
    report = analyze_representation(rep)
    assert report.realizes
    assert report.preparation_nc
    assert report.measurement_nc
    assert not report.outcome_deterministic
    assert not report.factorizable


def test_section_built_theories_round_trip_through_representations():
    start = time.perf_counter()
    for seed in range(200):
        theory, sections = random_feasible_theory(random.Random(seed))
        report = analyze_representation(canonical_representation(theory, sections))
        assert report.realizes
        assert report.preparation_nc
        assert report.measurement_nc
        assert report.factorizable
    for seed in range(200):
        rep = random_factorizable_representation(random.Random(10_000 + seed))
        induced, sections = induced_theory(rep)
        assert verify_global_section(induced, sections) == []
        assert find_global_section(induced) is not None
    assert time.perf_counter() - start < 60.0


def test_minimalization_never_changes_the_verdict():
    cases = [builtin_example(name).theory for name in BUILTIN_NAMES]
    cases += [
        without_declarations(builtin_example(name).theory)
        for name in ("spekkens-preparation", "spekkens-unsharp")
    ]
    cases += [random_instance(random.Random(3000 + i)) for i in range(100)]
    for theory in cases:
        minimal, mapping = minimalize(theory)
        original = find_global_section(theory)
        reduced = find_global_section(minimal)
        assert (original is None) == (reduced is None)
        if original is None:
            continue
        down = transport_sections_to_minimal(mapping, original)
        assert verify_global_section(minimal, down) == []
        up = transport_sections_from_minimal(mapping, reduced)
        assert verify_global_section(theory, up) == []


def test_born_front_end_matches_exact_and_float_references():
    ex = builtin_example("bell")
    ghz = ex.theory.states["ghz"]
    h, e, t = Fraction(1, 2), Fraction(1, 8), Fraction(3, 8)
    mixed = {("0", "0"): t, ("0", "1"): e, ("1", "0"): e, ("1", "1"): t}
    assert ghz.table[("a", "b")].weights == {("0", "0"): h, ("1", "1"): h}
    assert ghz.table[("a", "b'")].weights == mixed
    assert ghz.table[("a'", "b")].weights == mixed
    assert ghz.table[("a'", "b'")].weights == {
        ("0", "0"): e, ("0", "1"): t, ("1", "0"): t, ("1", "1"): e,
    }

    mermin = builtin_example("mermin")
    scenario = mermin.scenario
    rho = as_density(scenario.states["ghz"])
    for ctx in scenario.cover:
        labs = [scenario.labels[m] for m in ctx]
        odd = 0.0
        for values in itertools.product(*[lab.outcomes for lab in labs]):
            effects = [
                lab.effects[lab.outcomes.index(v)] for lab, v in zip(labs, values)
            ]
            if values.count("1") % 2:
                odd += born_weight(rho, effects)
        expected = 0.0 if ctx == ("X1", "X2", "X3") else 1.0
        assert abs(odd - expected) < 1e-9
        # and the rationalized tables carry the same parity exactly
        table = mermin.theory.states["ghz"].table[ctx]
        mass = sum(w for v, w in table.weights.items() if v.count("1") % 2)
        assert mass == Fraction(int(expected))


def test_formalism_translations_are_statistical_identities():
    for seed in range(100):
        theory = random_instance(random.Random(5000 + seed))
        operational = to_operational(theory)
        assert empirical_theories_statistically_equal(
            to_empirical(operational), theory
        )
        assert operational_theories_statistically_equal(
            to_operational(to_empirical(operational)), operational
        )
    for name in ("spekkens-preparation", "spekkens-unsharp"):
        theory = without_declarations(builtin_example(name).theory)
        assert check_iso_diagram(theory, find_global_section(theory))


def test_every_verdict_ships_with_a_verified_witness():
    theories = [builtin_example(name).theory for name in BUILTIN_NAMES]
    theories += [
        without_declarations(builtin_example(name).theory)
        for name in ("spekkens-preparation", "spekkens-unsharp")
    ]
    theories += [random_instance(random.Random(4000 + i)) for i in range(60)]
    contextual = feasible = 0
    for theory in theories:
        verdict = check_contextuality(theory)
        if verdict.contextual:
            contextual += 1
            assert verdict.certificate is not None
            assert verify_certificate(verdict.system, verdict.certificate)
        else:
            feasible += 1
            assert verify_global_section(theory, verdict.sections) == []
    assert contextual >= 5 and feasible >= 2
