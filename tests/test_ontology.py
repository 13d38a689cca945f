"""Ontological representations: validation, analysis flags, canonical form."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ctxcheck.bridge import to_empirical, to_operational
from ctxcheck.equivalence import minimalize, quotient_theory
from ctxcheck.generate import (
    duplicated_label_theory,
    random_factorizable_representation,
    random_feasible_theory,
)
from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    Measurement,
    ModelError,
    OperationalTheory,
    RationalDistribution,
    State,
    system_type,
)
from ctxcheck.ontology import (
    OntologicalRepresentation,
    RepresentationError,
    analyze_representation,
    canonical_representation,
    check_sharpness_forces_determinism,
    forget_statistics,
    induced_theory,
    sharpness_report,
    trivial_representation,
    validate_representation,
    verify_realization,
)
from ctxcheck.quantum import builtin_example, without_declarations
from ctxcheck.serialize import (
    dump_document,
    representation_to_document,
    sections_to_document,
    theory_to_document,
)
from ctxcheck.sheaf import check_contextuality, find_global_section, verify_global_section

H = Fraction(1, 2)


def _specker_one_point():
    theory = builtin_example("specker-triangle").theory
    return trivial_representation(to_operational(theory))


def test_trivial_representation_realizes_the_triangle():
    rep = _specker_one_point()
    assert rep.ontic == ("[coin]",)
    assert validate_representation(rep) == []
    ok, witness = verify_realization(rep)
    assert ok and witness is None
    realized = forget_statistics(rep).distribution("coin", "a,b")
    assert realized["0,1"] == H
    assert "0,0" not in realized


def test_realized_statistics_name_a_missing_response():
    no_family = _specker_one_point()
    del no_family.xi["a,b"]
    no_response = _specker_one_point()
    del no_response.xi["a,b"]["[coin]"]
    for rep, problem in [
        (no_family, r"no response family for 'a,b'"),
        (no_response, r"xi\['a,b'\] has no response for ontic value '\[coin\]'"),
    ]:
        for check in (verify_realization, forget_statistics):
            with pytest.raises(RepresentationError, match=problem):
                check(rep)


def test_one_point_representation_flag_profile():
    report = analyze_representation(_specker_one_point())
    assert report.realizes
    assert report.preparation_nc
    assert report.measurement_nc
    assert not report.outcome_deterministic
    assert not report.factorizable
    assert report.parameter_independent
    assert "factorizable" in report.counterexamples
    assert "outcome_deterministic" in report.counterexamples


def test_validate_representation_catches_misalignment():
    rep = _specker_one_point()
    broken = OntologicalRepresentation(
        ontic=rep.ontic,
        mu={p: {"ghost": Fraction(1)} for p in rep.mu},
        xi=rep.xi,
        target=rep.target,
    )
    assert validate_representation(broken)
    unnormalized = OntologicalRepresentation(
        ontic=rep.ontic,
        mu={p: {rep.ontic[0]: H} for p in rep.mu},
        xi=rep.xi,
        target=rep.target,
    )
    assert validate_representation(unnormalized)


def test_verify_realization_reports_first_mismatch():
    rep = _specker_one_point()
    rep.target.statistics[("coin", "a")] = {"0": Fraction(1)}
    ok, witness = verify_realization(rep)
    assert not ok
    assert witness == ("coin", "a", "0")


def test_canonical_representation_flags_on_random_theories():
    rng = random.Random(17)
    for _ in range(20):
        theory, sections = random_feasible_theory(rng)
        rep = canonical_representation(theory, sections)
        report = analyze_representation(rep)
        assert report.realizes
        assert report.preparation_nc
        assert report.measurement_nc
        assert report.factorizable
        assert report.parameter_independent


def test_canonical_representation_rejects_contextual_input():
    theory = builtin_example("specker-triangle").theory
    bogus = {
        "coin": RationalDistribution(
            domain=theory.system.labels,
            weights={("0", "1", "0"): Fraction(1)},
        )
    }
    with pytest.raises(RepresentationError):
        canonical_representation(theory, bogus)


def test_induced_theory_round_trip():
    rng = random.Random(19)
    for _ in range(20):
        rep = random_factorizable_representation(rng)
        theory, sections = induced_theory(rep)
        assert verify_global_section(theory, sections) == []
        verdict = check_contextuality(theory)
        assert not verdict.contextual


def test_induced_theory_requires_factorizability():
    rep = _specker_one_point()  # not factorizable
    with pytest.raises(RepresentationError):
        induced_theory(rep)


def test_induced_theory_does_not_require_realization():
    rep = random_factorizable_representation(random.Random(3))
    stats = rep.target.statistics
    p, q = sorted(rep.target.preparations)[:2]
    for m in rep.target.measurements:
        stats[(p, m)], stats[(q, m)] = stats[(q, m)], stats[(p, m)]
    report = analyze_representation(rep)
    assert set(report.counterexamples) == {"realizes"}
    theory, sections = induced_theory(rep)
    assert verify_global_section(theory, sections) == []


def test_induced_theory_refusal_carries_the_full_report():
    unsharp = without_declarations(builtin_example("spekkens-unsharp").theory)
    not_measurement_nc = canonical_representation(
        unsharp, find_global_section(unsharp)
    )
    for rep in (_specker_one_point(), not_measurement_nc):
        with pytest.raises(RepresentationError) as caught:
            induced_theory(rep)
        assert caught.value.report == analyze_representation(rep)


def _predictable_theory():
    """One binary label; two pure states and a declared half/half mixture."""
    system = system_type({"m": ("0", "1")}, [("m",)])

    def point(name, value):
        other = "1" if value == "0" else "0"
        return State(
            name=name,
            table={
                ("m",): RationalDistribution(
                    domain=("m",),
                    weights={(value,): Fraction(1), (other,): Fraction(0)},
                )
            },
        )

    mix = State(
        name="mix",
        table={
            ("m",): RationalDistribution(
                domain=("m",), weights={("0",): H, ("1",): H}
            )
        },
    )
    convex = (
        ConvexDeclaration(
            kind="state",
            target="mix",
            components=(
                ConvexComponent(coefficient=H, name="p0"),
                ConvexComponent(coefficient=H, name="p1"),
            ),
        ),
    )
    return EmpiricalTheory(
        system=system,
        states={"p0": point("p0", "0"), "p1": point("p1", "1"), "mix": mix},
        convex=convex,
    )


def test_sharpness_report_finds_certainty_witnesses():
    theory = _predictable_theory()
    op = to_operational(theory)
    report = sharpness_report(op)
    assert report.perfectly_predictable == {"m": {"0": "p0", "1": "p1"}}
    assert report.maximally_mixed == ("mix",)


def test_sharpness_report_rejects_a_mixture_of_an_unknown_preparation():
    op = to_operational(_predictable_theory())
    op.convex = (
        ConvexDeclaration("state", "mix", (ConvexComponent(Fraction(1), "ghost"),)),
    )
    with pytest.raises(ModelError, match="unknown preparation 'ghost'"):
        sharpness_report(op)


def test_check_sharpness_forces_determinism_on_canonical_representation():
    theory = _predictable_theory()
    sections = find_global_section(theory)
    rep = canonical_representation(theory, sections)
    report = sharpness_report(rep.target)
    ok, witness = check_sharpness_forces_determinism(rep, report)
    assert ok and witness is None


def test_check_sharpness_forces_determinism_finds_random_response():
    theory = _predictable_theory()
    rep = trivial_representation(to_operational(theory))
    assert analyze_representation(rep).preparation_nc
    report = sharpness_report(rep.target)
    ok, witness = check_sharpness_forces_determinism(rep, report)
    assert not ok
    assert witness == ("m", "[mix]", "0")


def test_check_sharpness_forces_determinism_requires_preconditions():
    rep = _specker_one_point()
    report = sharpness_report(rep.target)
    # the triangle has no perfectly predictable measurement and no mixture
    with pytest.raises(RepresentationError):
        check_sharpness_forces_determinism(rep, report)


def test_noncontextual_builtins_admit_canonical_representations():
    for name in ("spekkens-preparation", "spekkens-unsharp"):
        theory = without_declarations(builtin_example(name).theory)
        sections = find_global_section(theory)
        rep = canonical_representation(theory, sections)
        report = analyze_representation(rep)
        assert report.realizes
        assert report.preparation_nc
        assert report.factorizable
        assert report.parameter_independent
        if name == "spekkens-preparation":
            assert report.measurement_nc
            assert report.noncontextual()


def test_canonical_measurement_nc_fails_on_degenerate_equivalences():
    """The stripped unsharp scenario keeps a pair of complementary events
    with identical weight for every preparation (the uniform anti-correlated
    joint context), so delta responses cannot respect their equivalence.
    Generic theories have no such collision."""
    theory = without_declarations(builtin_example("spekkens-unsharp").theory)
    sections = find_global_section(theory)
    report = analyze_representation(canonical_representation(theory, sections))
    assert not report.measurement_nc
    pair_a, pair_b, _ = report.counterexamples["measurement_nc"]
    assert {pair_a[0], pair_b[0]} <= {"Pabc", "PABC", "Pabc,PABC"}


def test_operational_pipeline_matches_golden_digest():
    # sha256 over the outputs of 40 seeded representations through the
    # representation pipeline: analysis reports (flags and witnesses), the
    # induced theory and sections, the canonical representation and its
    # report, the minimalization and quotient of a duplicated-label theory,
    # plus the empirical form and the trivial representation's report of
    # each target
    digest = hashlib.sha256()

    def put(doc):
        text = dump_document(doc) if isinstance(doc, dict) else repr(doc)
        digest.update(text.encode())

    rng = random.Random(5)
    for _ in range(40):
        rep = random_factorizable_representation(rng)
        dup_seed = rng.randrange(2**32)
        put(analyze_representation(rep))
        theory, sections = induced_theory(rep)
        put(theory_to_document(theory))
        put(sections_to_document(theory, sections))
        canonical = canonical_representation(theory, sections)
        put(representation_to_document(canonical))
        put(analyze_representation(canonical))
        duplicated = duplicated_label_theory(random.Random(dup_seed), theory)
        minimal, mmap = minimalize(duplicated)
        put(theory_to_document(minimal))
        put(mmap.split_map)
        put(mmap.quotient_map)
        quotient, qmap = quotient_theory(duplicated)
        put(theory_to_document(quotient))
        put(qmap)
        put(theory_to_document(to_empirical(rep.target)))
        put(analyze_representation(trivial_representation(rep.target)))
    assert digest.hexdigest() == (
        "4bd5297cc3ec0ea320b517b72f9d64e59552b8ffce0d746836de3acc818b86ef"
    )


def test_induced_theory_rejects_unpartitioned_maximal_measurement():
    # single measurements 'a' and 'a2' both measure label a, so they overlap
    # inside 'a,b'; every response is deterministic and factorizes
    pairs = tuple(itertools.product("01", repeat=2))
    single = (("0", ("0",)), ("1", ("1",)))
    measurements = {
        "a": Measurement("a", ("a",), ("0", "1"), single),
        "a2": Measurement("a2", ("a",), ("0", "1"), single),
        "b": Measurement("b", ("b",), ("0", "1"), single),
        "a,b": Measurement(
            "a,b",
            ("a", "b"),
            tuple(",".join(v) for v in pairs),
            tuple((",".join(v), v) for v in pairs),
        ),
    }
    answer = {"a": "0", "a2": "0", "b": "1", "a,b": "0,1"}
    target = OperationalTheory(
        preparations=("p",),
        measurements=measurements,
        statistics={("p", m): {k: Fraction(1)} for m, k in answer.items()},
    )
    rep = OntologicalRepresentation(
        ontic=("l",),
        mu={"p": {"l": Fraction(1)}},
        xi={m: {"l": {k: Fraction(1)}} for m, k in answer.items()},
        target=target,
    )
    report = analyze_representation(rep)
    assert report.factorizable and report.noncontextual()
    with pytest.raises(RepresentationError) as caught:
        induced_theory(rep)
    assert str(caught.value) == (
        "maximal measurement 'a,b' is not partitioned by minimal ones"
    )
