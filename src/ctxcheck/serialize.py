"""JSON document forms for theories, sections and representations.

All probabilities travel as exact "p/q" strings.  A scenario file carries
either the empirical tables directly (labels, cover, states, convex) or a
"quantum" section (complex vectors and POVMs as [re, im] pairs) together
with a rationalization denominator bound.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    Measurement,
    ModelError,
    OperationalTheory,
    RationalDistribution,
    State,
    format_rational,
    parse_rational,
    system_type,
    validate_operational_theory,
    validate_system_type,
    validate_theory,
)
from ctxcheck.ontology import OntologicalRepresentation, validate_representation
from ctxcheck.quantum import QuantumLabel, QuantumScenario, born_scenario


class DocumentError(ModelError):
    pass


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{where}: expected an object")
    return value


def _require(doc: dict, key: str, kind, where: str):
    if key not in _object(doc, where):
        raise DocumentError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise DocumentError(f"{where}: field {key!r} has the wrong shape")
    return value


def _rational(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise DocumentError(f"{where}: rationals must be strings, got {text!r}")
    try:
        return parse_rational(text)
    except ModelError as e:
        raise DocumentError(f"{where}: {e}") from None


def _strings(value, message: str) -> tuple[str, ...]:
    """``value``, a list of strings, as a tuple; anything else, a list
    holding a list included, raises ``DocumentError(message)`` before it
    can reach a set or a dict key."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DocumentError(message)
    return tuple(value)


def _cover(doc: dict, where: str) -> list[tuple[str, ...]]:
    """The ``cover`` field: a list of contexts, each a list of label names."""
    return [
        _strings(ctx, f"{where}: cover entry {ctx!r} must be a list of label names")
        for ctx in _require(doc, "cover", list, where)
    ]


def _weights(value, arity: int, where: str, key_kind: str) -> dict:
    """An object of rationals keyed by comma-joined outcome tuples of ``arity``
    entries; ``key_kind`` opens the wrong-arity message."""
    weights = {}
    for key, text in _object(value, where).items():
        values = tuple(key.split(","))
        if len(values) != arity:
            raise DocumentError(f"{key_kind} {key!r} has the wrong arity")
        weights[values] = _rational(text, where)
    return weights


# ---------------------------------------------------------------------------
# Empirical theories
# ---------------------------------------------------------------------------


def convex_to_document(convex) -> list:
    out = []
    for decl in convex:
        components = []
        for c in decl.components:
            item = {
                "coefficient": format_rational(c.coefficient),
                "name": c.name,
            }
            if c.outcome_map is not None:
                item["outcome_map"] = {a: b for a, b in c.outcome_map}
            components.append(item)
        out.append(
            {"kind": decl.kind, "target": decl.target, "components": components}
        )
    return out


def convex_from_document(doc, where: str) -> tuple[ConvexDeclaration, ...]:
    if not isinstance(doc, list):
        raise DocumentError(f"{where}: expected a list")
    decls = []
    for i, item in enumerate(doc):
        spot = f"{where}[{i}]"
        kind = _require(item, "kind", str, spot)
        target = _require(item, "target", str, spot)
        components = []
        for j, c in enumerate(_require(item, "components", list, spot)):
            cspot = f"{spot}.components[{j}]"
            outcome_map = None
            if "outcome_map" in _object(c, cspot):
                mapping = _require(c, "outcome_map", dict, cspot)
                _strings(
                    list(mapping.values()),
                    f"{cspot}: outcome_map values must be strings",
                )
                outcome_map = tuple(sorted(mapping.items()))
            components.append(
                ConvexComponent(
                    coefficient=_rational(
                        _require(c, "coefficient", str, cspot), cspot
                    ),
                    name=_require(c, "name", str, cspot),
                    outcome_map=outcome_map,
                )
            )
        decls.append(
            ConvexDeclaration(kind=kind, target=target, components=tuple(components))
        )
    return tuple(decls)


def theory_to_document(theory: EmpiricalTheory) -> dict:
    system = theory.system
    doc = {
        "labels": {
            m: list(system.outcomes_of(m).labels) for m in system.labels
        },
        "cover": [list(ctx) for ctx in system.cover],
        "states": {
            name: {
                ",".join(ctx): {
                    ",".join(values): format_rational(w)
                    for values, w in state.table[ctx].items()
                }
                for ctx in system.cover
            }
            for name, state in theory.states.items()
        },
    }
    if theory.convex:
        doc["convex"] = convex_to_document(theory.convex)
    return doc


def theory_from_document(doc: dict) -> EmpiricalTheory:
    labels = _require(doc, "labels", dict, "scenario")
    cover = _cover(doc, "scenario")
    outcome_sets = {
        m: _strings(outs, f"scenario: outcomes of label {m!r} must be strings")
        for m, outs in labels.items()
    }
    system = system_type(outcome_sets, cover)
    # the tables are read by the cover, so a broken cover is reported first
    problems = validate_system_type(system)
    if problems:
        raise DocumentError("invalid scenario: " + "; ".join(problems))
    states = {}
    for name, tables in _require(doc, "states", dict, "scenario").items():
        if not isinstance(tables, dict):
            raise DocumentError(f"state {name!r}: tables must be an object")
        table = {}
        for ctx in system.cover:
            key = ",".join(ctx)
            if key not in tables:
                raise DocumentError(f"state {name!r}: missing context {key!r}")
            weights = _weights(
                tables[key],
                len(ctx),
                f"state {name!r}@{key!r}",
                f"state {name!r}, context {key!r}: outcome key",
            )
            table[ctx] = RationalDistribution(domain=ctx, weights=weights)
        extra = set(tables) - {",".join(ctx) for ctx in system.cover}
        if extra:
            raise DocumentError(f"state {name!r}: unknown contexts {sorted(extra)}")
        states[name] = State(name=name, table=table)
    convex = ()
    if "convex" in doc:
        convex = convex_from_document(
            _require(doc, "convex", list, "scenario"), "convex"
        )
    return _validated(EmpiricalTheory(system=system, states=states, convex=convex))


def _validated(theory: EmpiricalTheory) -> EmpiricalTheory:
    """The theory a scenario loader built, if ``validate_theory`` passes it."""
    problems = validate_theory(theory)
    if problems:
        raise DocumentError("invalid scenario: " + "; ".join(problems))
    return theory


# ---------------------------------------------------------------------------
# Quantum scenarios
# ---------------------------------------------------------------------------


def _complex_entry(value, where: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise DocumentError(f"{where}: complex entries are [re, im] pairs")
    return complex(value[0], value[1])


def _complex_array(value, where: str):
    """A vector of [re, im] pairs, or a matrix given as a list of such rows."""
    if not isinstance(value, list) or not value:
        raise DocumentError(f"{where}: expected a nonempty list")
    first = value[0]
    if isinstance(first, list) and first and isinstance(first[0], list):
        if not all(isinstance(row, list) for row in value):
            raise DocumentError(f"{where}: matrix rows must be lists")
        return tuple(tuple(_complex_entry(x, where) for x in row) for row in value)
    return tuple(_complex_entry(x, where) for x in value)


def quantum_from_document(
    doc: dict, max_denominator: int | None = None
) -> tuple[EmpiricalTheory, Fraction]:
    """Build the rationalized theory from a scenario's quantum section."""
    section = _require(doc, "quantum", dict, "scenario")
    states = {
        name: _complex_array(value, f"quantum state {name!r}")
        for name, value in _require(section, "states", dict, "quantum").items()
    }
    labels = {}
    for name, spec in _require(section, "labels", dict, "quantum").items():
        where = f"quantum label {name!r}"
        outcomes = _strings(
            _require(spec, "outcomes", list, where),
            f"{where}: outcomes must be strings",
        )
        effects = tuple(
            _complex_array(e, where) for e in _require(spec, "effects", list, where)
        )
        labels[name] = QuantumLabel(name=name, outcomes=outcomes, effects=effects)
    cover = tuple(_cover(section, "quantum"))
    convex = ()
    if "convex" in doc:
        convex = convex_from_document(doc["convex"], "convex")
    denominator = max_denominator
    if denominator is None:
        denominator = section.get("max_denominator")
    # ``True`` is an ``int`` too, so the type is compared exactly
    if type(denominator) is not int or denominator < 1:
        raise DocumentError(
            "quantum: max_denominator must be a positive integer "
            "(in the file or via --max-denominator)"
        )
    scenario = QuantumScenario(
        states=states, labels=labels, cover=cover, convex=convex
    )
    theory, bound = born_scenario(scenario, denominator)
    return _validated(theory), bound


def scenario_from_document(
    doc: dict, max_denominator: int | None = None
) -> tuple[EmpiricalTheory, Fraction]:
    """Parse either an empirical or a quantum scenario document.

    Returns the theory and the rationalization perturbation bound (zero for
    exact-rational input).
    """
    if not isinstance(doc, dict):
        raise DocumentError("scenario: top level must be an object")
    if "quantum" in doc:
        if "states" in doc or "labels" in doc:
            raise DocumentError(
                "scenario: give either direct tables or a quantum section, not both"
            )
        return quantum_from_document(doc, max_denominator)
    return theory_from_document(doc), Fraction(0)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def sections_to_document(
    theory: EmpiricalTheory, sections: dict[str, RationalDistribution]
) -> dict:
    return {
        "domain": list(theory.system.labels),
        "sections": {
            name: {
                ",".join(values): format_rational(w)
                for values, w in dist.items()
            }
            for name, dist in sections.items()
        },
    }


def sections_from_document(
    theory: EmpiricalTheory, doc: dict
) -> dict[str, RationalDistribution]:
    domain = tuple(_require(doc, "domain", list, "sections"))
    if domain != theory.system.labels:
        raise DocumentError(
            f"sections: domain {domain} does not match the scenario labels"
        )
    out = {}
    for name, weights in _require(doc, "sections", dict, "sections").items():
        where = f"sections[{name!r}]"
        parsed = _weights(weights, len(domain), where, f"{where}: assignment")
        out[name] = RationalDistribution(domain=domain, weights=parsed)
    return out


# ---------------------------------------------------------------------------
# Operational theories and representations
# ---------------------------------------------------------------------------


def operational_to_document(theory: OperationalTheory) -> dict:
    return {
        "preparations": list(theory.preparations),
        "measurements": {
            name: {
                "labels": list(meas.labels),
                "outcomes": list(meas.outcomes),
                "outcome_values": {
                    o: list(values) for o, values in meas.outcome_values
                },
            }
            for name, meas in theory.measurements.items()
        },
        "statistics": {
            p: {
                m: {
                    k: format_rational(w)
                    for k, w in theory.distribution(p, m).items()
                }
                for m in theory.measurements
            }
            for p in theory.preparations
        },
        "convex": convex_to_document(theory.convex),
    }


def operational_from_document(doc: dict) -> OperationalTheory:
    preparations = _strings(
        _require(doc, "preparations", list, "target"),
        "target: preparations must be strings",
    )
    measurements = {}
    for name, spec in _require(doc, "measurements", dict, "target").items():
        where = f"measurement {name!r}"
        values = _require(spec, "outcome_values", dict, where)
        outcomes = _strings(
            _require(spec, "outcomes", list, where),
            f"{where}: outcomes must be strings",
        )
        outcome_values = []
        for o in outcomes:
            message = f"{where}: outcome {o!r} needs a list of string values"
            outcome_values.append((o, _strings(values.get(o), message)))
        measurements[name] = Measurement(
            name=name,
            labels=_strings(
                _require(spec, "labels", list, where),
                f"{where}: labels must be strings",
            ),
            outcomes=outcomes,
            outcome_values=tuple(outcome_values),
        )
    statistics = {}
    for p, per_meas in _require(doc, "statistics", dict, "target").items():
        for m, dist in _object(per_meas, f"statistics[{p!r}]").items():
            where = f"statistics[{p!r}][{m!r}]"
            statistics[(p, m)] = {
                k: _rational(text, where) for k, text in _object(dist, where).items()
            }
    convex = convex_from_document(doc.get("convex", []), "target.convex")
    return OperationalTheory(
        preparations=preparations,
        measurements=measurements,
        statistics=statistics,
        convex=convex,
    )


def representation_to_document(rep: OntologicalRepresentation) -> dict:
    return {
        "ontic": list(rep.ontic),
        "mu": {
            p: {lam: format_rational(w) for lam, w in dist.items()}
            for p, dist in rep.mu.items()
        },
        "xi": {
            m: {
                lam: {k: format_rational(w) for k, w in dist.items()}
                for lam, dist in family.items()
            }
            for m, family in rep.xi.items()
        },
        "target": operational_to_document(rep.target),
    }


def representation_from_document(doc: dict) -> OntologicalRepresentation:
    if not isinstance(doc, dict):
        raise DocumentError("representation: top level must be an object")
    ontic = _strings(
        _require(doc, "ontic", list, "representation"),
        "representation: ontic states must be strings",
    )
    mu = {
        p: {
            lam: _rational(w, f"mu[{p!r}]")
            for lam, w in _object(dist, f"mu[{p!r}]").items()
        }
        for p, dist in _require(doc, "mu", dict, "representation").items()
    }
    xi = {
        m: {
            lam: {
                k: _rational(w, f"xi[{m!r}]")
                for k, w in _object(dist, f"xi[{m!r}][{lam!r}]").items()
            }
            for lam, dist in _object(family, f"xi[{m!r}]").items()
        }
        for m, family in _require(doc, "xi", dict, "representation").items()
    }
    target = operational_from_document(
        _require(doc, "target", dict, "representation")
    )
    problems = validate_operational_theory(target)
    if problems:
        raise DocumentError("invalid target: " + "; ".join(problems))
    rep = OntologicalRepresentation(ontic=ontic, mu=mu, xi=xi, target=target)
    problems = validate_representation(rep)
    if problems:
        raise DocumentError("invalid representation: " + "; ".join(problems))
    return rep


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def load_document(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"not valid JSON: {e}") from None
