"""Ontological representations and their (non)contextuality properties.

A representation explains an operational theory's statistics through a finite
set of ontic values: preparations become distributions over the values,
measurements become per-value response distributions, and realization means
the law of total probability reproduces every table exactly.

The analysis battery computes six exact flags: realization, preparation and
measurement non-contextuality (statistically equivalent things must get
identical distributions), outcome determinism, parameter independence, and
factorizability of joint-measurement responses into single-measurement ones.
Each flag has one witness function returning its first counterexample in a
fixed search order, or None; realization's is ``verify_realization``.
Realized statistics have one construction, ``realized_distribution`` (one
pass over a preparation's support); ``forget_statistics`` applies it to
every table, turning a representation back into an operational theory, and
``check_iso_diagram`` tests that forgetting the canonical representation's
ontology gives the theory's ``bridge.to_operational`` form exactly.
Constructions: the trivial representation (one ontic value per preparation
class), the canonical representation (ontic values are the supported full
assignments of the minimalized theory, with delta responses), and the
induced empirical theory of a factorizable non-contextual representation,
on the scenario ``model.empirical_system`` reads off its target.  The induced
theory asks only for both non-contextuality flags and factorizability, the
sharpness check only for preparation non-contextuality; either builds the
full report only when it refuses.
Preparation and outcome-event classes are ``equivalence.partition`` groups;
response projections and outcome lookups are ``Measurement`` methods.

Weights have one arithmetic path: ``model.integer_weights`` reads a weight
map, of ints or ``Fraction``s, as numerators over the lcm of its
denominators, and every sum of weights here runs on it.  That covers the
validation sums, realization (``_integer_realized``, of which
``realized_distribution`` is the ``Fraction`` view, and which
``verify_realization`` cross-multiplies against the target's tables), the
factorizability and parameter-independence witnesses (the last compares
``Measurement.integer_marginal``s with ``model.integer_weights_equal``), and
the induced product formula, which makes one ``Fraction`` per nonzero
section weight.  Partition keys are
(numerator, denominator) pairs (``equivalence.weight_key``), so grouping
hashes ints.  Tests that compare single weights, one against another or
against 0 or 1 (the preparation and measurement non-contextuality witnesses,
determinism and sharpness), sum nothing and stay plain comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

from ctxcheck.bridge import operational_theories_statistically_equal, to_operational
from ctxcheck.equivalence import (
    minimalize,
    partition,
    transport_sections_to_minimal,
    weight_key,
)
from ctxcheck.model import (
    EmpiricalTheory,
    ModelError,
    ONE,
    OperationalTheory,
    RationalDistribution,
    State,
    ZERO,
    empirical_system,
    integer_weights,
    integer_weights_equal,
    validate_operational_theory,
)
from ctxcheck.sheaf import (
    global_outcome_tuples,
    marginal_weights,
    verify_global_section,
)

Weights = dict[str, Fraction]


class RepresentationError(ModelError):
    """A representation fails a precondition; carries the analysis if known."""

    def __init__(self, message: str, report: "RepresentationReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class OntologicalRepresentation:
    """Finite ontic values with preparation and response distributions."""

    ontic: tuple[str, ...]
    mu: dict[str, Weights]  # preparation -> ontic value -> weight
    xi: dict[str, dict[str, Weights]]  # measurement -> ontic value -> outcome -> w
    target: OperationalTheory

    def mu_of(self, prep: str) -> Weights:
        try:
            return self.mu[prep]
        except KeyError:
            raise ModelError(f"no preparation distribution for {prep!r}") from None


def validate_representation(rep: OntologicalRepresentation) -> list[str]:
    """Structural checks: alignment, normalization, no unreachable value."""
    out: list[str] = []
    target = rep.target
    values = set(rep.ontic)
    if len(values) != len(rep.ontic):
        out.append("duplicate ontic values")
    if set(rep.mu) != set(target.preparations):
        out.append("preparation distributions do not match target preparations")
    if set(rep.xi) != set(target.measurements):
        out.append("response families do not match target measurements")
    reached: set[str] = set()
    for p, dist in rep.mu.items():
        if set(dist) - values:
            out.append(f"mu[{p!r}] uses unknown ontic values")
        nums, den = integer_weights(dist)
        if any(n < 0 for n in nums.values()):
            out.append(f"mu[{p!r}] has a negative weight")
        if sum(nums.values()) != den:
            out.append(f"mu[{p!r}] does not sum to 1")
        reached.update(lam for lam, n in nums.items() if n > 0)
    for m, family in rep.xi.items():
        meas = target.measurements.get(m)
        if meas is None:
            continue
        if set(family) != values:
            out.append(f"xi[{m!r}] missing some ontic values")
        for lam, dist in family.items():
            if set(dist) - set(meas.outcomes):
                out.append(f"xi[{m!r}][{lam!r}] uses unknown outcomes")
            nums, den = integer_weights(dist)
            if any(n < 0 for n in nums.values()):
                out.append(f"xi[{m!r}][{lam!r}] has a negative weight")
            if sum(nums.values()) != den:
                out.append(f"xi[{m!r}][{lam!r}] does not sum to 1")
    for lam in rep.ontic:
        if lam not in reached:
            out.append(f"ontic value {lam!r} unreachable by every preparation")
    return out


def _integer_realized(
    rep: OntologicalRepresentation, prep: str, meas: str
) -> tuple[dict[str, int], int]:
    """``realized_distribution`` in integers: (numerator by outcome, den).

    One pass over the support of the preparation's distribution; outcomes
    appear in the order the ontic values first reach them, zeros dropped.
    """
    try:
        family = rep.xi[meas]
    except KeyError:
        raise RepresentationError(f"no response family for {meas!r}") from None
    mu, mu_den = integer_weights(rep.mu_of(prep))
    terms = []  # (weight, response numerators, response den) per reached value
    for lam, n in mu.items():
        if not n:
            continue
        try:
            response = family[lam]
        except KeyError:
            raise RepresentationError(
                f"xi[{meas!r}] has no response for ontic value {lam!r}"
            ) from None
        terms.append((n, *integer_weights(response)))
    den = lcm(*[d for _, _, d in terms])
    acc: dict[str, int] = {}
    for n, response, d in terms:
        n *= den // d
        for k, x in response.items():
            acc[k] = acc.get(k, 0) + n * x
    return {k: n for k, n in acc.items() if n}, mu_den * den


def realized_distribution(
    rep: OntologicalRepresentation, prep: str, meas: str
) -> Weights:
    """Outcome weights of ``meas`` at ``prep`` by the law of total probability.

    The ``Fraction`` view of ``_integer_realized``: outcomes appear in the
    order the ontic values first reach them, zeros dropped.  Raises
    ``RepresentationError`` when ``meas`` has no response family, or when
    its family lacks an ontic value the preparation reaches.
    """
    acc, den = _integer_realized(rep, prep, meas)
    return {k: Fraction(n, den) for k, n in acc.items()}


def verify_realization(
    rep: OntologicalRepresentation,
) -> tuple[bool, tuple[str, str, str] | None]:
    """Exact check of the total-probability law; first failing (p, m, k).

    Cross-multiplies the integer realized weights with the target's."""
    target = rep.target
    for p in target.preparations:
        for m in sorted(target.measurements):
            stats, stats_den = integer_weights(target.distribution(p, m))
            realized, den = _integer_realized(rep, p, m)
            for k in target.measurements[m].outcomes:
                if realized.get(k, 0) * stats_den != stats.get(k, 0) * den:
                    return False, (p, m, k)
    return True, None


def forget_statistics(rep: OntologicalRepresentation) -> OperationalTheory:
    """Operational theory whose tables are the representation's realized
    statistics (``realized_distribution`` of every preparation and
    measurement)."""
    target = rep.target
    return OperationalTheory(
        preparations=target.preparations,
        measurements=dict(target.measurements),
        statistics={
            (p, m): realized_distribution(rep, p, m)
            for p in target.preparations
            for m in target.measurements
        },
        convex=target.convex,
    )


# ---------------------------------------------------------------------------
# Operational-side equivalences
# ---------------------------------------------------------------------------


def preparation_classes(target: OperationalTheory) -> tuple[tuple[str, ...], ...]:
    """Preparations grouped by identical statistics on every measurement."""
    names = sorted(target.measurements)

    def key(p: str):
        return tuple(
            tuple(
                sorted((k, weight_key(w)) for k, w in target.distribution(p, m).items())
            )
            for m in names
        )

    return partition(sorted(target.preparations), key)


def outcome_pair_classes(
    target: OperationalTheory,
) -> tuple[tuple[tuple[str, str], ...], ...]:
    """(measurement, outcome) pairs grouped by per-preparation weight."""
    preps = sorted(target.preparations)
    pairs = [
        (m, k)
        for m in sorted(target.measurements)
        for k in target.measurements[m].outcomes
    ]

    def key(pair: tuple[str, str]):
        m, k = pair
        return tuple(weight_key(target.distribution(p, m).get(k, 0)) for p in preps)

    return partition(pairs, key)


# ---------------------------------------------------------------------------
# Analysis battery
# ---------------------------------------------------------------------------


@dataclass
class RepresentationReport:
    """Six exact flags with a concrete witness for every False."""

    realizes: bool
    preparation_nc: bool
    measurement_nc: bool
    outcome_deterministic: bool
    parameter_independent: bool
    factorizable: bool
    counterexamples: dict[str, tuple] = field(default_factory=dict)

    def noncontextual(self) -> bool:
        return self.preparation_nc and self.measurement_nc


def _elementary_by_label(target: OperationalTheory) -> dict[str, str]:
    out: dict[str, str] = {}
    for name in sorted(target.measurements):
        meas = target.measurements[name]
        if len(meas.labels) == 1:
            out.setdefault(meas.labels[0], name)
    return out


def analyze_representation(
    rep: OntologicalRepresentation,
) -> RepresentationReport:
    """Compute all six flags exactly (see module docstring)."""
    _require_valid(rep)
    witnesses = {
        "realizes": verify_realization(rep)[1],
        "preparation_nc": preparation_nc_witness(rep),
        "measurement_nc": measurement_nc_witness(rep),
        "outcome_deterministic": _determinism_witness(
            rep, sorted(rep.target.measurements)
        ),
        "parameter_independent": _parameter_independence_witness(rep),
        "factorizable": _factorizability_witness(rep),
    }
    return RepresentationReport(
        **{flag: w is None for flag, w in witnesses.items()},
        counterexamples={flag: w for flag, w in witnesses.items() if w is not None},
    )


def _require_valid(rep: OntologicalRepresentation) -> None:
    problems = validate_representation(rep)
    if problems:
        raise RepresentationError("; ".join(problems))


def preparation_nc_witness(rep: OntologicalRepresentation):
    """First pair of equivalent preparations with different distributions."""
    for cls in preparation_classes(rep.target):
        base = rep.mu_of(cls[0])
        for other in cls[1:]:
            if _weights_differ(base, rep.mu_of(other)):
                return cls[0], other
    return None


def measurement_nc_witness(rep: OntologicalRepresentation):
    """First equivalent outcome-event pair answered differently, and where."""
    for cls in outcome_pair_classes(rep.target):
        m0, k0 = cls[0]
        for m1, k1 in cls[1:]:
            for lam in rep.ontic:
                if rep.xi[m0][lam].get(k0, ZERO) != rep.xi[m1][lam].get(k1, ZERO):
                    return (m0, k0), (m1, k1), lam
    return None


def _determinism_witness(rep: OntologicalRepresentation, names: list[str]):
    """First (m, λ, k) among measurements ``names`` with weight not 0 or 1."""
    for m in names:
        for lam in rep.ontic:
            for k, w in rep.xi[m][lam].items():
                if w != 0 and w != 1:
                    return m, lam, k
    return None


def _parameter_independence_witness(rep: OntologicalRepresentation):
    """First two measurements whose responses disagree on their shared labels,
    compared as integer pushforwards."""
    target = rep.target
    for a, b in itertools.combinations(sorted(target.measurements), 2):
        ma, mb = target.measurements[a], target.measurements[b]
        shared = tuple(sorted(set(ma.labels) & set(mb.labels)))
        if not shared:
            continue
        for lam in rep.ontic:
            if not integer_weights_equal(
                ma.integer_marginal(rep.xi[a][lam], shared),
                mb.integer_marginal(rep.xi[b][lam], shared),
            ):
                return a, b, lam, shared
    return None


def _factorizability_witness(rep: OntologicalRepresentation):
    """First joint response that is not the product of single-label ones;
    raises when a label has no single measurement to factor through."""
    target = rep.target
    elem = _elementary_by_label(target)
    for m in sorted(target.measurements):
        meas = target.measurements[m]
        if len(meas.labels) < 2:
            continue
        missing = [x for x in meas.labels if x not in elem]
        if missing:
            raise RepresentationError(
                f"cannot assess factorizability: no single measurement for {missing}"
            )
        for lam in rep.ontic:
            joint, den = integer_weights(rep.xi[m][lam])
            singles = [integer_weights(rep.xi[elem[x]][lam]) for x in meas.labels]
            singles_den = prod(d for _, d in singles)
            for k in meas.outcomes:
                product = 1
                for x, (nums, _) in zip(meas.labels, singles):
                    ex = target.measurements[elem[x]]
                    kx = ex.outcome_of(meas.project((x,), k))
                    product *= nums.get(kx, 0)
                    if not product:
                        break
                if joint.get(k, 0) * singles_den != product * den:
                    return m, lam, k
    return None


def _weights_differ(a: Weights, b: Weights) -> bool:
    keys = set(a) | set(b)
    return any(a.get(k, ZERO) != b.get(k, ZERO) for k in keys)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def trivial_representation(target: OperationalTheory) -> OntologicalRepresentation:
    """One ontic value per preparation class; responses read off the tables."""
    classes = preparation_classes(target)
    name_of_class = {cls: f"[{cls[0]}]" for cls in classes}
    class_of_prep = {p: cls for cls in classes for p in cls}
    ontic = tuple(name_of_class[cls] for cls in classes)
    mu = {
        p: {name_of_class[class_of_prep[p]]: ONE} for p in target.preparations
    }
    xi: dict[str, dict[str, Weights]] = {}
    for m in target.measurements:
        family: dict[str, Weights] = {}
        for cls in classes:
            stats = target.distribution(cls[0], m)
            family[name_of_class[cls]] = {k: w for k, w in stats.items() if w}
        xi[m] = family
    return OntologicalRepresentation(ontic=ontic, mu=mu, xi=xi, target=target)


def ontic_name(values: tuple[str, ...]) -> str:
    return f"w[{','.join(values)}]"


def canonical_representation(
    theory: EmpiricalTheory, sections: dict[str, RationalDistribution]
) -> OntologicalRepresentation:
    """Delta-response representation built on the minimalized theory.

    Ontic values are the full assignments supported by the transported
    sections; each preparation's distribution is its state class's
    transported section; responses answer each measurement by reading the
    assignment back through the minimalization maps.  Realizes the theory's
    operational form exactly and is preparation non-contextual, parameter
    independent, outcome deterministic, and factorizable by construction.
    """
    violations = verify_global_section(theory, sections)
    if violations:
        raise RepresentationError(
            "sections do not verify: " + "; ".join(violations)
        )
    _, mmap = minimalize(theory)
    m_sections = transport_sections_to_minimal(mmap, sections)
    target = to_operational(theory)

    # a distribution's weights hold no zero
    support = sorted({g for dist in m_sections.values() for g in dist.weights})
    ontic = tuple(ontic_name(g) for g in support)

    original_of: dict[tuple[str, ...], tuple[str, ...]] = {}
    for g in support:
        original = mmap.original_assignment(g)
        if original is None:
            raise RepresentationError(
                "internal error: supported assignment does not decode"
            )
        original_of[g] = original

    mu: dict[str, Weights] = {}
    for p in target.preparations:
        dist = m_sections[mmap.quotient_map.state_forward[p]]
        mu[p] = {ontic_name(g): w for g, w in dist.items()}

    xi: dict[str, dict[str, Weights]] = {}
    for name in target.measurements:
        meas = target.measurements[name]
        positions = [theory.system.label_position(x) for x in meas.labels]
        family: dict[str, Weights] = {}
        for g in support:
            orig = original_of[g]
            values = tuple(orig[i] for i in positions)
            family[ontic_name(g)] = {meas.outcome_of(values): ONE}
        xi[name] = family
    return OntologicalRepresentation(ontic=ontic, mu=mu, xi=xi, target=target)


def induced_theory(
    rep: OntologicalRepresentation,
) -> tuple[EmpiricalTheory, dict[str, RationalDistribution]]:
    """Empirical theory of a factorizable non-contextual representation.

    Labels are the minimal measurements, the cover collects the maximal
    ones, and each state's table is the factorized joint.  Also returns the
    explicit global section each preparation's distribution induces, so the
    result is non-contextual by construction.
    """
    _require_valid(rep)
    if (
        preparation_nc_witness(rep)
        or measurement_nc_witness(rep)
        or _factorizability_witness(rep)
    ):
        raise RepresentationError(
            "representation must be factorizable and non-contextual",
            analyze_representation(rep),
        )
    target = rep.target
    try:
        system, _ = empirical_system(target)
    except ModelError as exc:
        raise RepresentationError(str(exc), analyze_representation(rep)) from None
    minimal = system.labels

    # global section per preparation from the product formula, in ints: each
    # minimal measurement's responses over one denominator, keyed by
    # (ontic value, outcome), so a product is over mu's denominator times
    # theirs
    responses: list[dict[tuple[str, str], int]] = []
    den = 1
    for m in minimal:
        nums, m_den = integer_weights(
            {(lam, k): w for lam, dist in rep.xi[m].items() for k, w in dist.items()}
        )
        responses.append(nums)
        den *= m_den
    assignments = list(global_outcome_tuples(system))
    sections: dict[str, RationalDistribution] = {}
    for p in target.preparations:
        mu, mu_den = integer_weights(rep.mu_of(p))
        section_den = mu_den * den
        weights: dict[tuple[str, ...], Fraction] = {}
        for values in assignments:
            total = 0
            for lam, n in mu.items():
                for nums, k in zip(responses, values):
                    n *= nums.get((lam, k), 0)
                    if not n:
                        break
                total += n
            if total:
                weights[values] = Fraction(total, section_den)
        sections[p] = RationalDistribution(domain=minimal, weights=weights)

    states: dict[str, State] = {}
    for p in target.preparations:
        table = {}
        for ctx in system.cover:
            table[ctx] = RationalDistribution(
                domain=ctx, weights=marginal_weights(sections[p], ctx)
            )
        states[p] = State(name=p, table=table)
    theory = EmpiricalTheory(system=system, states=states, convex=())
    return theory, sections


def check_iso_diagram(
    theory: EmpiricalTheory, sections: dict[str, RationalDistribution]
) -> bool:
    """Forgetting the canonical representation's ontology must reproduce the
    operational form of the theory exactly."""
    rep = canonical_representation(theory, sections)
    return operational_theories_statistically_equal(
        forget_statistics(rep), to_operational(theory)
    )


# ---------------------------------------------------------------------------
# Sharpness: perfect predictability and maximally mixed preparations
# ---------------------------------------------------------------------------


@dataclass
class SharpnessReport:
    """Which measurements are perfectly predictable, and by which witnesses;
    which preparations pass the maximally-mixed conditions against the
    declared convex structure."""

    perfectly_predictable: dict[str, dict[str, str]]  # meas -> outcome -> prep
    maximally_mixed: tuple[str, ...]


def sharpness_report(target: OperationalTheory) -> SharpnessReport:
    """Scan statistics for certainty witnesses and mixed-preparation status.

    Maximal mixedness is decided against the target's declared convex
    combinations only: the preparation must decompose (up to statistical
    equivalence of targets) through every other preparation, and through a
    certainty family for every perfectly predictable measurement.
    """
    problems = validate_operational_theory(target)
    if problems:
        raise ModelError("invalid operational theory: " + "; ".join(problems))
    # (preparation, measurement) -> the outcome it gives with weight 1
    certain: dict[tuple[str, str], str] = {}
    for (p, m), dist in target.statistics.items():
        for k, w in dist.items():
            if w == ONE:
                certain[(p, m)] = k

    predictable: dict[str, dict[str, str]] = {}
    for m in sorted(target.measurements):
        witnesses: dict[str, str] = {}
        for p in sorted(target.preparations):
            k = certain.get((p, m))
            if k is not None and k not in witnesses:
                witnesses[k] = p
        outcomes = target.measurements[m].outcomes
        if len(witnesses) == len(outcomes):
            predictable[m] = {k: witnesses[k] for k in outcomes}

    classes = preparation_classes(target)
    class_of = {p: cls for cls in classes for p in cls}
    state_decls = [d for d in target.convex if d.kind == "state"]
    mixed: list[str] = []
    for p in sorted(target.preparations):
        decls = [d for d in state_decls if class_of[d.target] == class_of[p]]
        if not decls:
            continue
        covers_all_preps = all(
            any(
                class_of[c.name] == class_of[q]
                for d in decls
                for c in d.components
            )
            for q in target.preparations
            if class_of[q] != class_of[p]
        )
        if not covers_all_preps:
            continue
        # a certainty family: each component is certain of an outcome, and
        # together they reach every outcome (a component certain of none
        # adds None, which no outcome set holds)
        has_families = all(
            any(
                {certain.get((c.name, m)) for c in d.components}
                == set(target.measurements[m].outcomes)
                for d in decls
            )
            for m in predictable
        )
        if has_families:
            mixed.append(p)
    return SharpnessReport(
        perfectly_predictable=predictable, maximally_mixed=tuple(mixed)
    )


def check_sharpness_forces_determinism(
    rep: OntologicalRepresentation, report: SharpnessReport
) -> tuple[bool, tuple[str, str, str] | None]:
    """Consistency check: preparation-noncontextual representations must
    answer perfectly predictable measurements deterministically when a
    maximally mixed preparation exists.  Returns False with a (m, λ, k)
    witness when the claimed preconditions cannot actually hold."""
    _require_valid(rep)
    if preparation_nc_witness(rep):
        raise RepresentationError(
            "representation is not preparation non-contextual",
            analyze_representation(rep),
        )
    if not report.maximally_mixed:
        raise RepresentationError("target has no maximally mixed preparation")
    if not report.perfectly_predictable:
        raise RepresentationError("target has no perfectly predictable measurement")
    witness = _determinism_witness(rep, sorted(report.perfectly_predictable))
    return witness is None, witness
