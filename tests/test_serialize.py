"""Document round trips for theories, sections, representations and the
quantum scenario form, plus rejection of malformed input."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ctxcheck import (
    DocumentError,
    builtin_example,
    canonical_representation,
    dump_document,
    empirical_theories_statistically_equal,
    find_global_section,
    load_document,
    random_factorizable_representation,
    random_feasible_theory,
    representation_from_document,
    representation_to_document,
    scenario_from_document,
    sections_from_document,
    sections_to_document,
    theory_from_document,
    theory_to_document,
    without_declarations,
)
from ctxcheck.quantum import BUILTIN_NAMES


def test_theory_documents_round_trip_all_builtins():
    for name in BUILTIN_NAMES:
        theory = builtin_example(name).theory
        doc = load_document(dump_document(theory_to_document(theory)))
        back = theory_from_document(doc)
        assert back.system.labels == theory.system.labels
        assert back.system.cover == theory.system.cover
        assert empirical_theories_statistically_equal(back, theory)
        assert len(back.convex) == len(theory.convex)


def test_random_theory_documents_round_trip():
    for seed in range(10):
        theory, _ = random_feasible_theory(random.Random(seed))
        back = theory_from_document(theory_to_document(theory))
        assert empirical_theories_statistically_equal(back, theory)


def test_sections_round_trip():
    theory, sections = random_feasible_theory(random.Random(4))
    doc = load_document(dump_document(sections_to_document(theory, sections)))
    back = sections_from_document(theory, doc)
    assert back.keys() == sections.keys()
    for name in sections:
        assert back[name].weights == sections[name].weights


def test_representation_round_trip():
    theory = without_declarations(builtin_example("spekkens-preparation").theory)
    rep = canonical_representation(theory, find_global_section(theory))
    back = representation_from_document(representation_to_document(rep))
    assert back.ontic == rep.ontic
    assert back.mu == rep.mu
    assert back.xi == rep.xi


def test_representation_target_must_validate():
    rep = random_factorizable_representation(random.Random(3))
    doc = representation_to_document(rep)
    doc["target"]["statistics"]["p0"]["e0"]["zz"] = "1"  # table sums to 2
    with pytest.raises(DocumentError, match="invalid target"):
        representation_from_document(doc)


def test_scenario_dispatch_and_conflicts():
    theory = builtin_example("specker-triangle").theory
    doc = theory_to_document(theory)
    parsed, bound = scenario_from_document(doc)
    assert bound == 0
    assert empirical_theories_statistically_equal(parsed, theory)
    doc_conflict = dict(doc)
    doc_conflict["quantum"] = {}
    with pytest.raises(DocumentError):
        scenario_from_document(doc_conflict)
    with pytest.raises(DocumentError):
        scenario_from_document(["not", "an", "object"])


def test_quantum_document_reproduces_bell():
    ex = builtin_example("bell")
    scenario = ex.scenario
    doc = {
        "quantum": {
            "states": {
                name: [[z.real, z.imag] for z in np.ravel(vec)]
                for name, vec in scenario.states.items()
            },
            "labels": {
                name: {
                    "outcomes": list(lab.outcomes),
                    "effects": [
                        [[[z.real, z.imag] for z in row] for row in e]
                        for e in lab.effects
                    ],
                }
                for name, lab in scenario.labels.items()
            },
            "cover": [list(ctx) for ctx in scenario.cover],
            "max_denominator": 8,
        }
    }
    theory, bound = scenario_from_document(load_document(dump_document(doc)))
    assert empirical_theories_statistically_equal(theory, ex.theory)
    assert bound <= Fraction(1, 10**6)
    # the flag overrides the file's denominator
    coarse, _ = scenario_from_document(doc, max_denominator=2)
    assert coarse.system.labels == theory.system.labels
    doc["quantum"].pop("max_denominator")
    with pytest.raises(DocumentError):
        scenario_from_document(doc)


def test_malformed_documents_are_rejected():
    theory = builtin_example("specker-triangle").theory
    good = theory_to_document(theory)

    bad = load_document(dump_document(good))
    bad["states"]["coin"]["a,b"]["0,1"] = "1/0"
    with pytest.raises(DocumentError):
        theory_from_document(bad)

    bad = load_document(dump_document(good))
    bad["states"]["coin"]["a,b"]["0,1,0"] = bad["states"]["coin"]["a,b"].pop("0,1")
    with pytest.raises(DocumentError):
        theory_from_document(bad)

    bad = load_document(dump_document(good))
    bad["states"]["coin"]["a,x"] = bad["states"]["coin"].pop("a,b")
    with pytest.raises(DocumentError):
        theory_from_document(bad)

    bad = load_document(dump_document(good))
    del bad["cover"]
    with pytest.raises(DocumentError):
        theory_from_document(bad)

    with pytest.raises(DocumentError):
        load_document("{not json")


def test_an_empty_cover_entry_is_named_before_the_tables_are_read():
    good = theory_to_document(builtin_example("bell").theory)
    for cover in ([[]], [*good["cover"], []]):
        doc = load_document(dump_document(good))
        doc["cover"] = cover
        with pytest.raises(DocumentError) as err:
            theory_from_document(doc)
        assert str(err.value).startswith("invalid scenario: ")
        assert "empty context in cover" in str(err.value)
        assert "missing context" not in str(err.value)


def test_wrong_arity_keys_are_named_in_the_error():
    theory = builtin_example("specker-triangle").theory
    doc = theory_to_document(theory)
    doc["states"]["coin"]["a,b"]["0,1,0"] = doc["states"]["coin"]["a,b"].pop("0,1")
    with pytest.raises(DocumentError) as err:
        theory_from_document(doc)
    assert str(err.value) == (
        "state 'coin', context 'a,b': outcome key '0,1,0' has the wrong arity"
    )

    theory, sections = random_feasible_theory(random.Random(4))
    doc = sections_to_document(theory, sections)
    weights = doc["sections"]["s0"]
    key = next(iter(weights))
    weights[key + ",0"] = weights.pop(key)
    with pytest.raises(DocumentError) as err:
        sections_from_document(theory, doc)
    assert str(err.value) == (
        f"sections['s0']: assignment {key + ',0'!r} has the wrong arity"
    )


def test_sections_domain_must_match_theory():
    theory, sections = random_feasible_theory(random.Random(9))
    doc = sections_to_document(theory, sections)
    other = builtin_example("specker-triangle").theory
    with pytest.raises(DocumentError):
        sections_from_document(other, doc)
