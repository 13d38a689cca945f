"""Translations between the empirical and operational presentations.

``to_operational`` turns a no-signalling empirical theory into an
operational one whose measurements are all nonempty sub-contexts of the
cover (``subcontext_measurements``), with exact marginal statistics.
``to_empirical`` goes back: ``model.empirical_system`` makes the minimal
measurements the labels and the maximal ones the cover, and every
measurement's table is checked against ``Measurement.marginal`` of the
maximal measurement its context's joint was read from.  The statistical
equalities compare tables in a shared label order, as integer pushforwards:
``Measurement.integer_marginal`` under ``model.integer_weights_equal`` and
``sheaf.marginals_agree``.

Morphisms of empirical theories (state, label and outcome maps preserving
statistics and statistical equivalence) are transported to the operational
presentation by ``apply_operational_morphism``.  The map back from
representations, ``forget_statistics``, and the triangle identity
``check_iso_diagram`` live in the ``ontology`` module, which builds on
this one; this module does not import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ctxcheck.equivalence import equivalence_classes, label_marginal
from ctxcheck.model import (
    Context,
    EmpiricalTheory,
    Measurement,
    ModelError,
    OperationalTheory,
    RationalDistribution,
    State,
    SystemType,
    ZERO,
    empirical_system,
    integer_weights_equal,
    validate_operational_theory,
)
from ctxcheck.sheaf import (
    context_outcome_tuples,
    marginal_weights,
    marginals_agree,
    require_no_signalling,
    sub_contexts,
)


def measurement_name(labels: tuple[str, ...]) -> str:
    return ",".join(labels)


def outcome_id(values: tuple[str, ...]) -> str:
    return values[0] if len(values) == 1 else ",".join(values)


def subcontext_measurements(
    system: SystemType,
) -> tuple[dict[str, Measurement], dict[str, Context]]:
    """One measurement per nonempty sub-context of the cover, and a cover
    context hosting each.

    Measurement names join their labels with commas; joint outcomes join
    the per-label outcomes likewise, in ``context_outcome_tuples`` order.
    """
    measurements: dict[str, Measurement] = {}
    host: dict[str, Context] = {}
    for ctx in system.cover:
        for sub in sub_contexts(ctx):
            name = measurement_name(sub)
            if name in measurements:
                if measurements[name].labels != sub:
                    raise ModelError(
                        f"measurement name collision: {name!r} for "
                        f"{measurements[name].labels} and {sub}"
                    )
                continue
            ids = [
                (outcome_id(values), values)
                for values in context_outcome_tuples(system, sub)
            ]
            measurements[name] = Measurement(
                name=name,
                labels=sub,
                outcomes=tuple(o for o, _ in ids),
                outcome_values=tuple(ids),
            )
            host[name] = ctx
    return measurements, host


def to_operational(theory: EmpiricalTheory) -> OperationalTheory:
    """Operational form: one measurement per nonempty sub-context.

    Statistics are the exact marginals, well defined because signalling
    inputs are rejected.  Declared convex combinations carry over unchanged
    (labels become the equally named single measurements).
    """
    require_no_signalling(theory)
    measurements, host = subcontext_measurements(theory.system)
    statistics: dict[tuple[str, str], dict[str, Fraction]] = {}
    for p in theory.states:
        for name, meas in measurements.items():
            dist = theory.state(p).distribution(host[name])
            weights = marginal_weights(dist, meas.labels)
            statistics[(p, name)] = {
                outcome_id(values): w for values, w in weights.items() if w != 0
            }
    return OperationalTheory(
        preparations=tuple(theory.states),
        measurements=measurements,
        statistics=statistics,
        convex=theory.convex,
    )


def to_empirical(theory: OperationalTheory) -> EmpiricalTheory:
    """Empirical form: minimal measurements are the labels, maximal the cover.

    Every maximal measurement's label set must be partitioned exactly by
    minimal ones, and every intermediate measurement's statistics must agree
    with the joint reconstructed from a maximal table; any mismatch is
    reported as the failing (preparation, measurement, outcome) triple.
    Convex declarations among preparations carry over; measurement
    declarations survive only when target and components are all minimal.
    """
    problems = validate_operational_theory(theory)
    if problems:
        raise ModelError("invalid operational theory: " + "; ".join(problems))
    system, context_of = empirical_system(theory)

    # joint tables per context, reconstructed from one maximal witness each
    witness: dict[tuple[str, ...], str] = {}
    for big, ctx in context_of.items():
        witness.setdefault(ctx, big)
    states: dict[str, State] = {}
    for p in theory.preparations:
        table: dict[tuple[str, ...], RationalDistribution] = {}
        for ctx in system.cover:
            big = theory.measurements[witness[ctx]]
            weights: dict[tuple[str, ...], Fraction] = {}
            for k, w in theory.distribution(p, big.name).items():
                key = tuple(
                    theory.measurements[m].outcome_of(
                        big.project(theory.measurements[m].labels, k)
                    )
                    for m in ctx
                )
                weights[key] = weights.get(key, ZERO) + w
            table[ctx] = RationalDistribution(domain=ctx, weights=weights)
        states[p] = State(name=p, table=table)

    base_labels = {
        c: {x for m in c for x in theory.measurements[m].labels}
        for c in system.cover
    }
    mismatches: list[tuple[str, str, str]] = []
    for name in sorted(theory.measurements):
        meas = theory.measurements[name]
        meas_labels = set(meas.labels)
        ctx = next((c for c in system.cover if meas_labels <= base_labels[c]), None)
        if ctx is None:
            raise ModelError(f"measurement {name!r} fits no maximal context")
        big = theory.measurements[witness[ctx]]
        for p in theory.preparations:
            computed = big.marginal(theory.distribution(p, big.name), meas.labels)
            stated = theory.distribution(p, name)
            for k in meas.outcomes:
                if stated.get(k, ZERO) != computed.get(meas.values_of(k), ZERO):
                    mismatches.append((p, name, k))
    if mismatches:
        raise ModelError(
            "statistics inconsistent with reconstructed joints: "
            + "; ".join(f"({p!r}, {m!r}, {k!r})" for p, m, k in mismatches)
        )

    convex = []
    minimal_set = set(system.labels)
    for decl in theory.convex:
        if decl.kind == "state":
            convex.append(decl)
        elif decl.target in minimal_set and all(
            c.name in minimal_set for c in decl.components
        ):
            convex.append(decl)
    return EmpiricalTheory(system=system, states=states, convex=tuple(convex))


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalMorphism:
    """A structure map between empirical theories.

    ``outcome_map`` is keyed per source label, so outcome renamings may
    differ from label to label.
    """

    source: EmpiricalTheory
    target: EmpiricalTheory
    state_map: dict[str, str]
    label_map: dict[str, str]
    outcome_map: dict[tuple[str, str], str]


def identity_morphism(theory: EmpiricalTheory) -> EmpiricalMorphism:
    system = theory.system
    return EmpiricalMorphism(
        source=theory,
        target=theory,
        state_map={p: p for p in theory.states},
        label_map={m: m for m in system.labels},
        outcome_map={
            (m, v): v
            for m in system.labels
            for v in system.outcomes_of(m).labels
        },
    )


def compose_empirical(
    outer: EmpiricalMorphism, inner: EmpiricalMorphism
) -> EmpiricalMorphism:
    if inner.target is not outer.source and inner.target != outer.source:
        raise ModelError("morphisms do not compose: endpoints differ")
    return EmpiricalMorphism(
        source=inner.source,
        target=outer.target,
        state_map={p: outer.state_map[q] for p, q in inner.state_map.items()},
        label_map={m: outer.label_map[n] for m, n in inner.label_map.items()},
        outcome_map={
            (m, v): outer.outcome_map[(inner.label_map[m], w)]
            for (m, v), w in inner.outcome_map.items()
        },
    )


def validate_empirical_morphism(f: EmpiricalMorphism) -> list[str]:
    """Typing, cover compatibility, per-label statistics preservation, and
    preservation of all three statistical equivalences."""
    out: list[str] = []
    src, dst = f.source, f.target
    if set(f.state_map) != set(src.states):
        out.append("state map does not cover the source states")
    if set(f.label_map) != set(src.system.labels):
        out.append("label map does not cover the source labels")
    for p, q in f.state_map.items():
        if q not in dst.states:
            out.append(f"state {p!r} maps to unknown state {q!r}")
    for m, n in f.label_map.items():
        if n not in dst.system.labels:
            out.append(f"label {m!r} maps to unknown label {n!r}")
    if out:
        return out
    for m in src.system.labels:
        n = f.label_map[m]
        target_outs = set(dst.system.outcomes_of(n).labels)
        for v in src.system.outcomes_of(m).labels:
            if (m, v) not in f.outcome_map:
                out.append(f"outcome map misses ({m!r}, {v!r})")
            elif f.outcome_map[(m, v)] not in target_outs:
                out.append(
                    f"outcome ({m!r}, {v!r}) maps outside the outcomes of {n!r}"
                )
    if out:
        return out
    target_cover = [set(ctx) for ctx in dst.system.cover]
    for ctx in src.system.cover:
        image = {f.label_map[m] for m in ctx}
        if not any(image <= big for big in target_cover):
            out.append(f"image of context {ctx} fits no target context")

    for p in src.states:
        q = f.state_map[p]
        for m in src.system.labels:
            n = f.label_map[m]
            src_marg = label_marginal(src, p, m)
            dst_marg = label_marginal(dst, q, n)
            for v in src.system.outcomes_of(m).labels:
                lhs = src_marg.get(v, ZERO)
                rhs = dst_marg.get(f.outcome_map[(m, v)], ZERO)
                if lhs != rhs:
                    out.append(
                        f"statistics not preserved at state {p!r}, label {m!r}, "
                        f"outcome {v!r}: {lhs} vs {rhs}"
                    )
    if out:
        return out

    def image(kind: str, item):
        if kind == "state":
            return f.state_map[item]
        if kind == "measurement":
            return f.label_map[item]
        m, v = item
        return (f.label_map[m], f.outcome_map[(m, v)])

    for kind in ("state", "measurement", "outcome-pair"):
        src_classes = equivalence_classes(src, kind)
        dst_classes = equivalence_classes(dst, kind)
        for cls in src_classes.classes:
            targets = {dst_classes.class_of(image(kind, item)) for item in cls}
            if len(targets) > 1:
                out.append(
                    f"{kind} equivalence not preserved: class {cls} maps across "
                    f"{len(targets)} target classes"
                )
    return out


@dataclass
class OperationalMorphism:
    """Transport of an empirical morphism to the operational presentation.

    ``outcome_map`` sends an outcome to ``None`` when the underlying label
    images disagree on it; validity then requires that outcome to carry zero
    weight in every preparation.
    """

    source: OperationalTheory
    target: OperationalTheory
    prep_map: dict[str, str]
    meas_map: dict[str, str]
    outcome_map: dict[tuple[str, str], str | None]


def apply_operational_morphism(f: EmpiricalMorphism) -> OperationalMorphism:
    """Functorial image of an empirical morphism on the operational forms."""
    src_op = to_operational(f.source)
    dst_op = to_operational(f.target)
    dst_pos = {m: i for i, m in enumerate(f.target.system.labels)}
    meas_map: dict[str, str] = {}
    outcome_map: dict[tuple[str, str], str | None] = {}
    for name in src_op.measurements:
        meas = src_op.measurements[name]
        image_labels = tuple(
            sorted({f.label_map[m] for m in meas.labels}, key=dst_pos.__getitem__)
        )
        image_name = measurement_name(image_labels)
        if image_name not in dst_op.measurements:
            raise ModelError(
                f"image sub-context {image_labels} is not a target measurement"
            )
        meas_map[name] = image_name
        for k in meas.outcomes:
            values = meas.values_of(k)
            assigned: dict[str, str] = {}
            consistent = True
            for m, v in zip(meas.labels, values):
                z = f.label_map[m]
                w = f.outcome_map[(m, v)]
                if assigned.setdefault(z, w) != w:
                    consistent = False
                    break
            if consistent:
                image_values = tuple(assigned[z] for z in image_labels)
                outcome_map[(name, k)] = outcome_id(image_values)
            else:
                outcome_map[(name, k)] = None
    return OperationalMorphism(
        source=src_op,
        target=dst_op,
        prep_map=dict(f.state_map),
        meas_map=meas_map,
        outcome_map=outcome_map,
    )


def compose_operational(
    outer: OperationalMorphism, inner: OperationalMorphism
) -> OperationalMorphism:
    outcome_map: dict[tuple[str, str], str | None] = {}
    for (m, k), k1 in inner.outcome_map.items():
        if k1 is None:
            outcome_map[(m, k)] = None
        else:
            outcome_map[(m, k)] = outer.outcome_map[(inner.meas_map[m], k1)]
    return OperationalMorphism(
        source=inner.source,
        target=outer.target,
        prep_map={p: outer.prep_map[q] for p, q in inner.prep_map.items()},
        meas_map={m: outer.meas_map[n] for m, n in inner.meas_map.items()},
        outcome_map=outcome_map,
    )


def validate_operational_morphism(g: OperationalMorphism) -> list[str]:
    """Exact statistics preservation on every (preparation, measurement,
    outcome); unmapped outcomes must be unreachable."""
    out: list[str] = []
    for p in g.source.preparations:
        if g.prep_map.get(p) not in g.target.preparations:
            out.append(f"preparation {p!r} not mapped into the target")
    for m in g.source.measurements:
        if g.meas_map.get(m) not in g.target.measurements:
            out.append(f"measurement {m!r} not mapped into the target")
    if out:
        return out
    for m, meas in g.source.measurements.items():
        n = g.meas_map[m]
        target_outs = set(g.target.measurements[n].outcomes)
        for k in meas.outcomes:
            if (m, k) not in g.outcome_map:
                out.append(f"outcome map misses ({m!r}, {k!r})")
                continue
            k1 = g.outcome_map[(m, k)]
            if k1 is not None and k1 not in target_outs:
                out.append(f"outcome ({m!r}, {k!r}) maps outside {n!r}")
    if out:
        return out
    for p in g.source.preparations:
        q = g.prep_map[p]
        for m, meas in g.source.measurements.items():
            n = g.meas_map[m]
            src_stats = g.source.distribution(p, m)
            dst_stats = g.target.distribution(q, n)
            for k in meas.outcomes:
                k1 = g.outcome_map[(m, k)]
                lhs = src_stats.get(k, ZERO)
                if k1 is None:
                    if lhs != 0:
                        out.append(
                            f"unmapped outcome ({m!r}, {k!r}) has weight {lhs} "
                            f"at preparation {p!r}"
                        )
                elif lhs != dst_stats.get(k1, ZERO):
                    out.append(
                        f"statistics not preserved at ({p!r}, {m!r}, {k!r})"
                    )
    return out


# ---------------------------------------------------------------------------
# Statistical equality
# ---------------------------------------------------------------------------


def operational_theories_statistically_equal(
    a: OperationalTheory, b: OperationalTheory
) -> bool:
    """Same preparations, measurements matched by base-label sets, and all
    tables exactly equal through the outcome-value dictionaries."""
    if set(a.preparations) != set(b.preparations):
        return False

    def by_labels(t: OperationalTheory) -> dict[frozenset, str]:
        out: dict[frozenset, str] = {}
        for name, meas in t.measurements.items():
            key = frozenset(meas.labels)
            if key in out:
                raise ModelError(f"two measurements share the labels {set(key)}")
            out[key] = name
        return out

    a_by, b_by = by_labels(a), by_labels(b)
    if set(a_by) != set(b_by):
        return False
    for key, a_name in a_by.items():
        b_name = b_by[key]
        ma, mb = a.measurements[a_name], b.measurements[b_name]
        order = tuple(sorted(key))
        for p in a.preparations:
            da = a.distribution(p, a_name)
            db = b.distribution(p, b_name)
            if not integer_weights_equal(
                ma.integer_marginal(da, order), mb.integer_marginal(db, order)
            ):
                return False
    return True


def empirical_theories_statistically_equal(
    a: EmpiricalTheory, b: EmpiricalTheory
) -> bool:
    """Same labels, outcomes, cover (as sets) and state tables (compared in
    a shared label order)."""
    if set(a.system.labels) != set(b.system.labels):
        return False
    for m in a.system.labels:
        if set(a.system.outcomes_of(m).labels) != set(b.system.outcomes_of(m).labels):
            return False
    a_cover = {frozenset(ctx) for ctx in a.system.cover}
    b_cover = {frozenset(ctx) for ctx in b.system.cover}
    if a_cover != b_cover:
        return False
    if set(a.states) != set(b.states):
        return False
    b_ctx_of = {frozenset(ctx): ctx for ctx in b.system.cover}
    for key in a_cover:
        a_ctx = next(ctx for ctx in a.system.cover if frozenset(ctx) == key)
        b_ctx = b_ctx_of[key]
        order = tuple(sorted(key))
        for p in a.states:
            da = a.state(p).distribution(a_ctx)
            db = b.state(p).distribution(b_ctx)
            if not marginals_agree(da, order, db, order):
                return False
    return True
