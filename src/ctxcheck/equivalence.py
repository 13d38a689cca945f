"""Statistical equivalence, theory quotients, splitting, and minimalization.

Two labels are statistically equivalent when every state gives them the same
single-measurement distribution; likewise for states (identical tables) and
outcome pairs (equal weight in every state).  ``quotient_theory`` merges
equivalent labels and states, but only where merging provably preserves the
existence of global sections:

  (i)   labels sharing a context never merge (their joint is data, not noise);
  (ii)  any two ways of jointly measuring the same merged classes through
        cover contexts must give identical joint tables;
  (iii) each quotient context, read through class representatives, must embed
        in an original context (so quotient tables are honest marginals);
  (iv)  merging must not make a convex declaration collide with itself.

Classes failing a guard are split back to singletons, deterministically, so
the quotient is as coarse as these conditions allow.  ``observable_split``
rewrites every many-outcome label as one-hot binary labels; ``minimalize``
is the split followed by the quotient.  Transport functions move global
sections across the composite ``minimalize`` map in both directions, exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ctxcheck.model import (
    Context,
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    ModelError,
    OutcomeSet,
    RationalDistribution,
    State,
    SystemType,
    ZERO,
    component_outcome_map,
)
from ctxcheck.sheaf import (
    _pushforwards,
    _restriction,
    marginal_weights,
    marginals_agree,
    require_no_signalling,
)

EQUIVALENCE_KINDS = ("state", "measurement", "outcome-pair")


@dataclass(frozen=True)
class EquivalenceClasses:
    """A partition of items by statistical indistinguishability."""

    kind: str
    classes: tuple[tuple, ...]

    def class_of(self, item):
        for cls in self.classes:
            if item in cls:
                return cls
        raise ModelError(f"unknown item {item!r}")

    def representative(self, item):
        return self.class_of(item)[0]


def label_marginal(
    theory: EmpiricalTheory, state_name: str, label: str
) -> dict[str, Fraction]:
    """Single-label outcome distribution of a state (no-signalling assumed)."""
    system = theory.system
    for ctx in system.cover:
        if label in ctx:
            weights = marginal_weights(
                theory.state(state_name).distribution(ctx), (label,)
            )
            return {k[0]: w for k, w in weights.items()}
    raise ModelError(f"label {label!r} not covered")


def partition(items: list, key) -> tuple[tuple, ...]:
    """Group ``items`` by ``key``, members in input order, classes sorted by
    their first member."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    classes = [tuple(members) for members in groups.values()]
    classes.sort(key=lambda cls: cls[0])
    return tuple(classes)


def weight_key(w: Fraction | int) -> tuple[int, int]:
    """A weight as a partition key: (numerator, denominator) in lowest terms,
    an ``int`` read as n/1.  Equal weights give equal keys, which hash as
    ints."""
    return w.numerator, w.denominator


def equivalence_classes(theory: EmpiricalTheory, kind: str) -> EquivalenceClasses:
    """Partition states, labels, or (label, outcome) pairs by statistics,
    keyed by weights as (numerator, denominator) pairs."""
    if kind not in EQUIVALENCE_KINDS:
        raise ModelError(f"unknown equivalence kind {kind!r}")
    system = theory.system
    if kind == "state":
        def state_key(name: str):
            table = theory.state(name).table
            return tuple(
                tuple((t, weight_key(w)) for t, w in table[ctx].items())
                for ctx in system.cover
            )
        return EquivalenceClasses(
            kind=kind, classes=partition(sorted(theory.states), state_key)
        )
    require_no_signalling(theory)
    states = sorted(theory.states)
    # each label's outcome weights per state as partition keys, read as
    # ``label_marginal`` does from the first context holding the label; each
    # (state, context) table is read as ints once, for all its labels
    first: dict[Context | None, list[str]] = {}
    for m in system.labels:
        ctx = next((c for c in system.cover if m in c), None)
        first.setdefault(ctx, []).append(m)
    keys: dict[str, list[dict[str, tuple[int, int]]]] = {m: [] for m in system.labels}
    for ctx, labels in first.items():
        if ctx is None and states:
            raise ModelError(f"label {labels[0]!r} not covered")
        for s in states:
            dist = theory.state(s).distribution(ctx)
            nums, den = dist.integer
            at = [_restriction(dist.domain, (m,)) for m in labels]
            for m, acc in zip(labels, _pushforwards(nums.items(), at)):
                marg: dict[str, tuple[int, int]] = {}
                for (o,), n in acc.items():
                    g = gcd(n, den)
                    marg[o] = n // g, den // g
                keys[m].append(marg)
    if kind == "measurement":
        def label_key(label: str):
            outs = system.outcomes_of(label).labels
            stats = tuple(
                tuple(marg.get(o, (0, 1)) for o in outs) for marg in keys[label]
            )
            return (outs, stats)
        return EquivalenceClasses(
            kind=kind, classes=partition(list(system.labels), label_key)
        )
    pairs = [
        (m, o) for m in system.labels for o in system.outcomes_of(m).labels
    ]
    def pair_key(pair: tuple[str, str]):
        m, o = pair
        return tuple(marg.get(o, (0, 1)) for marg in keys[m])
    return EquivalenceClasses(kind="outcome-pair", classes=partition(pairs, pair_key))


# ---------------------------------------------------------------------------
# Quotient
# ---------------------------------------------------------------------------


@dataclass
class QuotientMap:
    """Record of a theory quotient: label/state merges and how to cross it."""

    label_classes: tuple[tuple[str, ...], ...]
    forward: dict[str, str]
    quotient_labels: tuple[str, ...]
    state_classes: tuple[tuple[str, ...], ...]
    state_forward: dict[str, str]

    def is_identity(self) -> bool:
        return all(len(cls) == 1 for cls in self.label_classes) and all(
            len(cls) == 1 for cls in self.state_classes
        )

    def lift_assignment(
        self, labels: tuple[str, ...], values: tuple[str, ...]
    ) -> tuple[str, ...]:
        """The unique class-constant original assignment inducing ``values``."""
        pos = {q: i for i, q in enumerate(self.quotient_labels)}
        return tuple(values[pos[self.forward[m]]] for m in labels)


def _conflict_split(
    system: SystemType, classes: tuple[tuple[str, ...], ...]
) -> tuple[tuple[str, ...], ...]:
    """Split classes so no group keeps two labels that share a context."""
    adjacent: dict[str, set[str]] = {m: set() for m in system.labels}
    for ctx in system.cover:
        for a, b in itertools.combinations(ctx, 2):
            adjacent[a].add(b)
            adjacent[b].add(a)
    out: list[tuple[str, ...]] = []
    for cls in classes:
        groups: list[list[str]] = []
        for m in sorted(cls):
            for g in groups:
                if not any(other in adjacent[m] for other in g):
                    g.append(m)
                    break
            else:
                groups.append([m])
        out.extend(tuple(g) for g in groups)
    out.sort(key=lambda c: c[0])
    return tuple(out)


def _refine(
    classes: tuple[tuple[str, ...], ...], bad: set[tuple[str, ...]]
) -> tuple[tuple[str, ...], ...]:
    out: list[tuple[str, ...]] = []
    for cls in classes:
        if cls in bad and len(cls) > 1:
            out.extend((m,) for m in cls)
        else:
            out.append(cls)
    out.sort(key=lambda c: c[0])
    return tuple(out)


def _joint_mismatch(
    theory: EmpiricalTheory, class_of: dict[str, tuple[str, ...]]
) -> set[tuple[str, ...]]:
    """Guard (ii): merged classes must have one well-defined joint table."""
    system = theory.system
    ctx_members: list[dict[tuple[str, ...], str]] = [
        {class_of[m]: m for m in ctx} for ctx in system.cover
    ]
    bad: set[tuple[str, ...]] = set()
    for i, j in itertools.combinations(range(len(system.cover)), 2):
        shared = sorted(
            set(ctx_members[i]) & set(ctx_members[j]), key=lambda c: c[0]
        )
        if not shared:
            continue
        sub_i = tuple(ctx_members[i][c] for c in shared)
        sub_j = tuple(ctx_members[j][c] for c in shared)
        if sub_i == sub_j:
            continue
        for state in theory.states.values():
            if not marginals_agree(
                state.distribution(system.cover[i]),
                sub_i,
                state.distribution(system.cover[j]),
                sub_j,
            ):
                bad.update(c for c in shared if len(c) > 1)
                break
    return bad


def _embedding_failures(
    theory: EmpiricalTheory, class_of: dict[str, tuple[str, ...]]
) -> set[tuple[str, ...]]:
    """Guard (iii): representatives of each context image lie in some context."""
    system = theory.system
    cover_sets = [set(ctx) for ctx in system.cover]
    bad: set[tuple[str, ...]] = set()
    for ctx in system.cover:
        reps = {class_of[m][0] for m in ctx}
        if not any(reps <= cs for cs in cover_sets):
            bad.update(class_of[m] for m in ctx if len(class_of[m]) > 1)
    return bad


def _declaration_collisions(
    theory: EmpiricalTheory, class_of: dict[str, tuple[str, ...]]
) -> set[tuple[str, ...]]:
    """Guard (iv): renaming must keep measurement declarations well formed."""
    system = theory.system
    bad: set[tuple[str, ...]] = set()
    for decl in theory.convex:
        if decl.kind != "measurement":
            continue
        target_rep = class_of[decl.target][0]
        seen: dict[str, tuple[tuple[str, str], ...]] = {}
        involved = [class_of[decl.target]]
        collide = False
        for c in decl.components:
            involved.append(class_of[c.name])
            rep = class_of[c.name][0]
            bij = tuple(sorted(component_outcome_map(system, decl, c).items()))
            if rep == target_rep:
                collide = True
            elif rep in seen and seen[rep] != bij:
                collide = True
            seen[rep] = bij
        if collide:
            bad.update(cls for cls in involved if len(cls) > 1)
    return bad


def _state_merge_classes(
    theory: EmpiricalTheory,
) -> tuple[tuple[str, ...], ...]:
    """State classes, refined so no mixture target merges into its components."""
    classes = equivalence_classes(theory, "state").classes
    while True:
        class_of = {s: cls for cls in classes for s in cls}
        bad: set[tuple[str, ...]] = set()
        for decl in theory.convex:
            if decl.kind != "state":
                continue
            tcls = class_of[decl.target]
            if len(tcls) > 1 and any(
                class_of[c.name] == tcls for c in decl.components
            ):
                bad.add(tcls)
        if not bad:
            return classes
        classes = _refine(classes, bad)


def quotient_theory(
    theory: EmpiricalTheory,
) -> tuple[EmpiricalTheory, QuotientMap]:
    """Merge statistically equivalent labels and states where safe.

    Safety means the guards in the module docstring, which together make the
    quotient preserve global-section feasibility in both directions.
    ``equivalence_classes`` raises ``SignallingError`` on a signalling theory.
    """
    system = theory.system
    classes = equivalence_classes(theory, "measurement").classes
    while True:
        classes = _conflict_split(system, classes)
        class_of = {m: cls for cls in classes for m in cls}
        # the first guard that reports classes splits them, then all rerun
        for guard in (_joint_mismatch, _embedding_failures, _declaration_collisions):
            bad = guard(theory, class_of)
            if bad:
                classes = _refine(classes, bad)
                break
        else:
            break

    forward = {m: cls[0] for cls in classes for m in cls}
    reps = sorted({cls[0] for cls in classes}, key=system.label_position)
    quotient_labels = tuple(reps)
    state_classes = _state_merge_classes(theory)
    state_forward = {s: cls[0] for cls in state_classes for s in cls}

    images = []
    for ctx in system.cover:
        image = tuple(
            sorted({forward[m] for m in ctx}, key=system.label_position)
        )
        if image not in images:
            images.append(image)
    cover = tuple(
        img
        for img in images
        if not any(set(img) < set(other) for other in images)
    )

    outcomes = tuple(system.outcomes_of(m) for m in quotient_labels)
    q_system = SystemType(labels=quotient_labels, outcomes=outcomes, cover=cover)

    cover_sets = [set(c) for c in system.cover]
    states: dict[str, State] = {}
    for cls in state_classes:
        rep = cls[0]
        table: dict[Context, RationalDistribution] = {}
        for ctx in cover:
            host = next(
                orig
                for orig, cs in zip(system.cover, cover_sets)
                if set(ctx) <= cs
            )
            weights = marginal_weights(
                theory.state(rep).distribution(host), ctx
            )
            table[ctx] = RationalDistribution(domain=ctx, weights=weights)
        states[rep] = State(name=rep, table=table)

    convex = []
    for decl in theory.convex:
        if decl.kind == "state":
            coeffs: dict[str, Fraction] = {}
            for c in decl.components:
                rep = state_forward[c.name]
                coeffs[rep] = coeffs.get(rep, ZERO) + c.coefficient
            convex.append(
                ConvexDeclaration(
                    kind="state",
                    target=state_forward[decl.target],
                    components=tuple(
                        ConvexComponent(coefficient=w, name=rep)
                        for rep, w in sorted(coeffs.items())
                    ),
                )
            )
        else:
            grouped: dict[str, tuple[Fraction, tuple[tuple[str, str], ...]]] = {}
            for c in decl.components:
                rep = forward[c.name]
                bij = tuple(
                    sorted(component_outcome_map(system, decl, c).items())
                )
                if rep in grouped:
                    w, old = grouped[rep]
                    grouped[rep] = (w + c.coefficient, old)
                else:
                    grouped[rep] = (c.coefficient, bij)
            convex.append(
                ConvexDeclaration(
                    kind="measurement",
                    target=forward[decl.target],
                    components=tuple(
                        ConvexComponent(coefficient=w, name=rep, outcome_map=bij)
                        for rep, (w, bij) in sorted(grouped.items())
                    ),
                )
            )

    q_theory = EmpiricalTheory(system=q_system, states=states, convex=tuple(convex))
    qmap = QuotientMap(
        label_classes=classes,
        forward=forward,
        quotient_labels=quotient_labels,
        state_classes=state_classes,
        state_forward=state_forward,
    )
    return q_theory, qmap


# ---------------------------------------------------------------------------
# Observable splitting
# ---------------------------------------------------------------------------


@dataclass
class SplitMap:
    """Record of the one-hot binarization of many-outcome labels."""

    original_labels: tuple[str, ...]
    split: dict[str, tuple[str, ...]]  # only labels that were split
    outcomes: dict[str, tuple[str, ...]]  # original outcome order per split label
    split_labels: tuple[str, ...]

    def is_identity(self) -> bool:
        return not self.split

    def encode(
        self, labels: tuple[str, ...], values: tuple[str, ...]
    ) -> tuple[str, ...]:
        """One-hot encode an assignment of ``values`` to original ``labels``."""
        out: list[str] = []
        for m, v in zip(labels, values):
            if m in self.split:
                out.extend("1" if v == k else "0" for k in self.outcomes[m])
            else:
                out.append(v)
        return tuple(out)

    def decode(self, values: tuple[str, ...]) -> tuple[str, ...] | None:
        """Invert ``encode``; None when some label is not one-hot."""
        by_label = dict(zip(self.split_labels, values))
        out: list[str] = []
        for m in self.original_labels:
            if m in self.split:
                hits = [
                    k
                    for name, k in zip(self.split[m], self.outcomes[m])
                    if by_label[name] == "1"
                ]
                if len(hits) != 1:
                    return None
                out.append(hits[0])
            else:
                out.append(by_label[m])
        return tuple(out)


def observable_split(
    theory: EmpiricalTheory,
) -> tuple[EmpiricalTheory, SplitMap]:
    """Rewrite labels with three or more outcomes as one-hot binary labels.

    Binary (and one-outcome) labels pass through unchanged, so an already
    binary theory is returned as-is.  Supported context sections of the new
    theory are exactly the one-hot encodings of the original ones.
    """
    system = theory.system
    split: dict[str, tuple[str, ...]] = {}
    outcomes_of: dict[str, tuple[str, ...]] = {}
    new_labels: list[str] = []
    new_outcomes: list[OutcomeSet] = []
    existing = set(system.labels)
    for m in system.labels:
        outs = system.outcomes_of(m).labels
        if len(outs) <= 2:
            new_labels.append(m)
            new_outcomes.append(system.outcomes_of(m))
            continue
        names = tuple(f"{m}:{k}" for k in outs)
        for name in names:
            if name in existing:
                raise ModelError(f"split label {name!r} collides with an existing label")
            existing.add(name)
        split[m] = names
        outcomes_of[m] = outs
        for name in names:
            new_labels.append(name)
            new_outcomes.append(OutcomeSet(("0", "1")))

    smap = SplitMap(
        original_labels=system.labels,
        split=split,
        outcomes=outcomes_of,
        split_labels=tuple(new_labels),
    )
    if not split:
        return theory, smap

    def expand_context(ctx: Context) -> Context:
        out: list[str] = []
        for m in ctx:
            out.extend(split.get(m, (m,)))
        return tuple(out)

    cover = tuple(expand_context(ctx) for ctx in system.cover)
    s_system = SystemType(
        labels=tuple(new_labels), outcomes=tuple(new_outcomes), cover=cover
    )

    states: dict[str, State] = {}
    for name, state in theory.states.items():
        table: dict[Context, RationalDistribution] = {}
        for ctx, new_ctx in zip(system.cover, cover):
            weights = {
                smap.encode(ctx, values): w
                for values, w in state.distribution(ctx).items()
            }
            table[new_ctx] = RationalDistribution(domain=new_ctx, weights=weights)
        states[name] = State(name=name, table=table)

    convex: list[ConvexDeclaration] = []
    for decl in theory.convex:
        if decl.kind == "state":
            convex.append(decl)
            continue
        if decl.target not in split:
            convex.append(decl)
            continue
        identity_map = (("0", "0"), ("1", "1"))
        for k in outcomes_of[decl.target]:
            comps = []
            for c in decl.components:
                bij = component_outcome_map(system, decl, c)
                inv = {t: o for o, t in bij.items()}
                comp_label = f"{c.name}:{inv[k]}"
                comps.append(
                    ConvexComponent(
                        coefficient=c.coefficient,
                        name=comp_label,
                        outcome_map=identity_map,
                    )
                )
            convex.append(
                ConvexDeclaration(
                    kind="measurement",
                    target=f"{decl.target}:{k}",
                    components=tuple(comps),
                )
            )

    s_theory = EmpiricalTheory(system=s_system, states=states, convex=tuple(convex))
    return s_theory, smap


# ---------------------------------------------------------------------------
# Minimalization
# ---------------------------------------------------------------------------


@dataclass
class MinimalizeMap:
    """Composite record: split first, then quotient."""

    split_map: SplitMap
    split_theory: EmpiricalTheory
    quotient_map: QuotientMap

    def is_identity(self) -> bool:
        return self.split_map.is_identity() and self.quotient_map.is_identity()

    def original_assignment(
        self, values: tuple[str, ...]
    ) -> tuple[str, ...] | None:
        """The original assignment a minimal assignment ``values`` reads back
        as: its class-constant lift, decoded; None when that is not one-hot."""
        smap = self.split_map
        return smap.decode(
            self.quotient_map.lift_assignment(smap.split_labels, values)
        )


def minimalize(theory: EmpiricalTheory) -> tuple[EmpiricalTheory, MinimalizeMap]:
    """One-hot split, then the safe quotient of the result."""
    s_theory, smap = observable_split(theory)
    q_theory, qmap = quotient_theory(s_theory)
    return q_theory, MinimalizeMap(
        split_map=smap, split_theory=s_theory, quotient_map=qmap
    )


def transport_sections_to_minimal(
    mmap: MinimalizeMap,
    sections: dict[str, RationalDistribution],
) -> dict[str, RationalDistribution]:
    """Push global sections down: one-hot encode each state class
    representative's section and marginalize it onto the quotient labels."""
    smap, qmap = mmap.split_map, mmap.quotient_map
    out: dict[str, RationalDistribution] = {}
    for cls in qmap.state_classes:
        rep = cls[0]
        split = RationalDistribution(
            domain=smap.split_labels,
            weights={
                smap.encode(smap.original_labels, values): w
                for values, w in sections[rep].items()
            },
        )
        out[rep] = RationalDistribution(
            domain=qmap.quotient_labels,
            weights=marginal_weights(split, qmap.quotient_labels),
        )
    return out


def transport_sections_from_minimal(
    mmap: MinimalizeMap,
    sections: dict[str, RationalDistribution],
) -> dict[str, RationalDistribution]:
    """Lift global sections up through ``original_assignment``; the support
    must read back one-hot throughout."""
    out: dict[str, RationalDistribution] = {}
    for name in mmap.split_theory.states:
        weights: dict[tuple[str, ...], Fraction] = {}
        for values, w in sections[mmap.quotient_map.state_forward[name]].items():
            original = mmap.original_assignment(values)
            if original is None:
                raise ModelError(
                    f"section for {name!r} supports a non-one-hot assignment"
                )
            weights[original] = weights.get(original, ZERO) + w
        out[name] = RationalDistribution(
            domain=mmap.split_map.original_labels, weights=weights
        )
    return out
