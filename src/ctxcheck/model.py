"""Core data model: measurement scenarios, exact-rational tables, theories.

All probability data is held as ``fractions.Fraction`` (arbitrary precision,
always in lowest terms with positive denominator).  Floating point is
confined to the quantum front end in ``ctxcheck.quantum``.

Instances are treated as immutable after construction; validation that
reports problems as *data* (rather than raising) lives in
``validate_system_type`` and ``validate_theory``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

ZERO = Fraction(0)
ONE = Fraction(1)

K = TypeVar("K")


class ModelError(ValueError):
    """Structural misuse of the data model (unknown label, bad arity, ...)."""


def parse_rational(text: str | int) -> Fraction:
    """Parse ``"3/8"``, ``"1"`` or an int into an exact ``Fraction``."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ModelError(f"rational must be a 'p/q' string or int, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"cannot parse rational {text!r}: {exc}") from exc


def integer_weights(
    weights: Mapping[K, Fraction | int],
) -> tuple[dict[K, int], int]:
    """Weights as integers over one denominator: (numerator by key, den).

    ``den`` is the lcm of the weights' denominators, an ``int`` weight read
    as n/1, so each weight is its numerator over ``den``; the keys keep
    their order.  Sums and comparisons of weights then run on ints.
    """
    den = lcm(*[w.denominator for w in weights.values()])
    return {k: w.numerator * (den // w.denominator) for k, w in weights.items()}, den


def integer_weights_equal(
    a: tuple[Mapping[K, int], int], b: tuple[Mapping[K, int], int]
) -> bool:
    """Whether two (numerator by key, den) maps, as ``integer_weights``
    gives, are equal as ``Fraction`` maps: the same keys, and the numerators
    equal over their dens, compared by cross-multiplying (or directly,
    over one den)."""
    (a_nums, a_den), (b_nums, b_den) = a, b
    if a_den == b_den:
        return a_nums == b_nums
    return a_nums.keys() == b_nums.keys() and all(
        n * b_den == b_nums[k] * a_den for k, n in a_nums.items()
    )


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"`` (or ``"p"`` for integers)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class OutcomeSet:
    """Finite, nonempty, ordered set of distinct outcome labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ModelError("outcome set must be nonempty")
        # checked before the labels are hashed, which a list label cannot be
        if not all(isinstance(o, str) and o for o in self.labels):
            raise ModelError("outcome labels must be nonempty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ModelError(f"duplicate outcome labels in {self.labels}")

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, item: object) -> bool:
        return item in self.labels

    def index(self, outcome: str) -> int:
        return self.labels.index(outcome)


Context = tuple[str, ...]


@dataclass(frozen=True)
class SystemType:
    """A measurement scenario: labels, their outcome sets, and a cover.

    ``labels`` fixes a global order used everywhere for determinism.
    Contexts are stored as tuples of labels in that global order.
    """

    labels: tuple[str, ...]
    outcomes: tuple[OutcomeSet, ...]
    cover: tuple[Context, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.outcomes):
            raise ModelError("labels and outcome sets must align")
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("duplicate measurement labels")
        object.__setattr__(
            self, "_index", {m: i for i, m in enumerate(self.labels)}
        )

    def outcomes_of(self, label: str) -> OutcomeSet:
        try:
            return self.outcomes[self._index[label]]  # type: ignore[attr-defined]
        except KeyError:
            raise ModelError(f"unknown measurement label {label!r}") from None

    def label_position(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise ModelError(f"unknown measurement label {label!r}") from None

    def sort_context(self, labels: Iterable[str]) -> Context:
        """Return the labels as a context tuple in global label order."""
        seen = set()
        for m in labels:
            if m in seen:
                raise ModelError(f"label {m!r} repeated in context")
            seen.add(m)
        return tuple(sorted(seen, key=self.label_position))


def system_type(
    outcomes: Mapping[str, Iterable[str]], cover: Iterable[Iterable[str]]
) -> SystemType:
    """Convenience constructor from a label->outcomes mapping and a cover."""
    labels = tuple(outcomes)
    outs = tuple(OutcomeSet(tuple(outcomes[m])) for m in labels)
    order = {m: i for i, m in enumerate(labels)}
    ctxs = tuple(
        tuple(sorted(set(ctx), key=lambda m: order.get(m, len(order))))
        for ctx in cover
    )
    return SystemType(labels=labels, outcomes=outs, cover=ctxs)


# Distinct scenarios each memo keeps: ``_system_type_violations`` here, and
# in ``sheaf`` the one ``Scenario`` per system type (``_scenario``) and
# ``_skeleton``, each keyed by value on the system type (the skeleton also
# on the state names and declarations).  Eight holds the five bundled
# scenarios, or the five ring sizes of the ``rings`` benchmark workload, with
# room to spare, while a long-running process that meets ever new scenarios
# retains at most eight of each (the five bundled skeletons, each marginal
# held as a unit row dict, take about 1.0 MB beside their scenarios, by
# tracemalloc).  No memo holds a verdict or a table entry, nor does the
# presolve memo each skeleton holds (row and column indices only).
_MEMO_SIZE = 8


def validate_system_type(system: SystemType) -> list[str]:
    """Check the scenario structure; returns a list of violations (empty = valid).

    A field or context that is not a tuple is reported, by name, before
    anything hashes the system type; it makes the type unhashable, or, for
    a string context, splits it into characters.  Nothing is coerced.  The
    other checks depend only on the system type and are memoized on it
    (``_system_type_violations``); each call returns a fresh list.
    """
    return list(_system_type_checks(system)[0])


def _system_type_checks(system: SystemType) -> tuple[Sequence[str], dict]:
    """(violations, ``_context_outcomes``): memoized for a system type whose
    fields and contexts are tuples, and built afresh for any other."""
    violations = [
        f"{field} is a {type(value).__name__}, not a tuple"
        for field, value in (
            ("labels", system.labels),
            ("outcomes", system.outcomes),
            ("cover", system.cover),
        )
        if type(value) is not tuple
    ]
    violations.extend(
        f"outcome set of {m!r} is a {type(o.labels).__name__}, not a tuple"
        for m, o in zip(system.labels, system.outcomes)
        if isinstance(o, OutcomeSet) and type(o.labels) is not tuple
    )
    violations.extend(
        f"context {ctx!r} is a {type(ctx).__name__}, not a tuple"
        for ctx in system.cover
        if type(ctx) is not tuple
    )
    if violations:
        return violations, _context_outcomes(system)
    return _system_type_violations(system)


def _context_outcomes(system: SystemType) -> dict:
    """Per cover context, its labels' outcome sets, or None if it names a
    label the system type lacks; a context that is not a tuple is left out,
    as no table key equals it."""
    sets = {m: frozenset(o.labels) for m, o in zip(system.labels, system.outcomes)}
    return {
        ctx: tuple(sets[m] for m in ctx) if all(m in sets for m in ctx) else None
        for ctx in system.cover
        if isinstance(ctx, tuple)
    }


@lru_cache(maxsize=_MEMO_SIZE)
def _system_type_violations(system: SystemType) -> tuple[tuple[str, ...], dict]:
    """``validate_system_type``'s structural checks of a system type whose
    fields and contexts are tuples, and its ``_context_outcomes``, memoized
    by value on it."""
    violations: list[str] = []
    order = {m: i for i, m in enumerate(system.labels)}
    for ctx in system.cover:
        if not ctx:
            violations.append("empty context in cover")
        for m in ctx:
            if m not in order:
                violations.append(f"context {ctx} uses unknown label {m!r}")
        if len(set(ctx)) < len(ctx):
            repeat = next(m for i, m in enumerate(ctx) if m in ctx[:i])
            violations.append(f"context {ctx} repeats label {repeat!r}")
        # an unknown label sorts after every known one, as in ``system_type``
        elif list(ctx) != sorted(ctx, key=lambda m: order.get(m, len(order))):
            violations.append(f"context {ctx} not in global label order")
    covered = {m for ctx in system.cover for m in ctx}
    for m in system.labels:
        if m not in covered:
            violations.append(f"label {m!r} not covered by any context")
    sets = [set(ctx) for ctx in system.cover]
    for i, (ctx, labels) in enumerate(zip(system.cover, sets)):
        for j, (other, other_labels) in enumerate(zip(system.cover, sets)):
            if i != j and labels <= other_labels:
                if labels == other_labels:
                    if i < j:
                        violations.append(f"duplicate context {ctx}")
                else:
                    violations.append(f"context {ctx} contained in {other} (cover must be an antichain)")
    return tuple(violations), _context_outcomes(system)


@dataclass
class RationalDistribution:
    """Exact finitely-supported probability distribution over sections.

    ``weights`` maps outcome tuples (aligned with ``domain``) to Fractions.
    A weight given as anything else (an int, a ``"p/q"`` string, a float)
    is converted with ``Fraction``; one that already is a ``Fraction`` is
    kept.  Zero entries are dropped so equality is canonical.  The weights
    must sum to exactly 1, a sum taken over their ``integer_weights``
    reading; a length mismatch, a negative weight or another sum raises
    ``ModelError``.  That reading is kept as ``integer``, (numerator by
    outcome tuple, den) in ``weights`` order, for every reader that sums or
    compares the weights; it is not a field, so ``repr`` and ``==`` ignore
    it, and nothing writes it after construction.
    """

    domain: tuple[str, ...]
    weights: dict[tuple[str, ...], Fraction]

    def __post_init__(self) -> None:
        cleaned: dict[tuple[str, ...], Fraction] = {}
        for values, w in self.weights.items():
            if len(values) != len(self.domain):
                raise ModelError(
                    f"outcome tuple {values} does not match domain {self.domain}"
                )
            if type(w) is not Fraction:
                w = Fraction(w)
            if w.numerator < 0:
                raise ModelError(f"negative probability {w} at {values}")
            if w.numerator:
                cleaned[tuple(values)] = w
        nums, den = integer_weights(cleaned)
        total = sum(nums.values())
        if total != den:
            raise ModelError(
                f"distribution weights sum to {Fraction(total, den)}, expected 1"
            )
        self.weights = cleaned
        self.integer = nums, den

    def weight(self, values: tuple[str, ...]) -> Fraction:
        return self.weights.get(tuple(values), ZERO)

    def support(self) -> Iterator[tuple[str, ...]]:
        return iter(sorted(self.weights))

    def items(self) -> Iterator[tuple[tuple[str, ...], Fraction]]:
        return iter(sorted(self.weights.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalDistribution):
            return NotImplemented
        return self.domain == other.domain and self.weights == other.weights


@dataclass
class State:
    """An empirical state: one exact distribution table per cover context."""

    name: str
    table: dict[Context, RationalDistribution]

    def distribution(self, context: Context) -> RationalDistribution:
        try:
            return self.table[tuple(context)]
        except KeyError:
            raise ModelError(
                f"state {self.name!r} has no table for context {context}"
            ) from None


@dataclass(frozen=True)
class ConvexComponent:
    """One weighted component of a declared convex combination."""

    coefficient: Fraction
    name: str
    # measurement mixtures: component outcome -> target outcome bijection
    outcome_map: tuple[tuple[str, str], ...] | None = None

    def outcome_bijection(self) -> dict[str, str]:
        if self.outcome_map is None:
            raise ModelError(f"component {self.name!r} carries no outcome identification")
        return dict(self.outcome_map)


@dataclass(frozen=True)
class ConvexDeclaration:
    """A declared convex combination of states or of measurement labels.

    These are *declarations* supplied with a theory, not consequences of the
    tables: the global-section problem imposes them as exact linear
    constraints.  The coefficients must sum to exactly 1, a sum taken over
    their ``integer_weights`` reading, which is kept as ``integer``,
    (numerator by component name, den) in component order.  Like
    ``SystemType._index`` it is set on the frozen instance and is not a
    field, so ``repr``, ``==`` and hashing ignore it.
    """

    kind: str  # "state" or "measurement"
    target: str
    components: tuple[ConvexComponent, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("state", "measurement"):
            raise ModelError(f"unknown convex declaration kind {self.kind!r}")
        if not self.components:
            raise ModelError("convex declaration needs at least one component")
        # read by position, so a repeated component is summed, not merged,
        # and is reported as such below
        nums, den = integer_weights(
            dict(enumerate(c.coefficient for c in self.components))
        )
        total = sum(nums.values())
        if total != den:
            raise ModelError(
                f"convex coefficients sum to {Fraction(total, den)}, expected 1"
            )
        for c in self.components:
            if c.coefficient <= 0:
                raise ModelError(f"coefficient {c.coefficient} must be positive")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ModelError("convex declaration components must be distinct")
        object.__setattr__(self, "integer", (dict(zip(names, nums.values())), den))


@dataclass
class EmpiricalTheory:
    """A measurement scenario together with its states and declarations."""

    system: SystemType
    states: dict[str, State]
    convex: tuple[ConvexDeclaration, ...] = ()

    def state(self, name: str) -> State:
        try:
            return self.states[name]
        except KeyError:
            raise ModelError(f"unknown state {name!r}") from None


def validate_theory(theory: EmpiricalTheory) -> list[str]:
    """Structural validation of a theory; returns a list of violations."""
    system = theory.system
    found, context_outcomes = _system_type_checks(system)
    violations = list(found)
    for name, state in theory.states.items():
        if name != state.name:
            violations.append(f"state stored under {name!r} is named {state.name!r}")
        for ctx in system.cover:
            if tuple(ctx) not in state.table:
                violations.append(f"state {name!r} missing table for context {ctx}")
        for ctx, dist in state.table.items():
            if tuple(ctx) not in context_outcomes:
                violations.append(f"state {name!r} has table for non-cover context {ctx}")
                continue
            if dist.domain != tuple(ctx):
                violations.append(
                    f"state {name!r}: table domain {dist.domain} != context {ctx}"
                )
                continue
            outcome_sets = context_outcomes[tuple(ctx)]
            if outcome_sets is None:
                continue  # ``validate_system_type`` reports the unknown label
            # each label's outcomes against its set; only a table with an
            # outcome outside it is sorted, to report them in a fixed order
            if all(map(frozenset.issuperset, outcome_sets, zip(*dist.weights))):
                continue
            for values in dist.support():
                for v, allowed in zip(values, outcome_sets):
                    if v not in allowed:
                        violations.append(
                            f"state {name!r}: outcome {v!r} not allowed in context {ctx}"
                        )
    for decl in theory.convex:
        if decl.kind == "state":
            for c in decl.components:
                if c.name not in theory.states:
                    violations.append(f"state mixture references unknown state {c.name!r}")
            if decl.target not in theory.states:
                violations.append(f"state mixture targets unknown state {decl.target!r}")
        else:
            if decl.target not in system.labels:
                violations.append(
                    f"measurement mixture targets unknown label {decl.target!r}"
                )
                continue
            target_outs = set(system.outcomes_of(decl.target).labels)
            for c in decl.components:
                if c.name not in system.labels:
                    violations.append(
                        f"measurement mixture references unknown label {c.name!r}"
                    )
                    continue
                comp_outs = set(system.outcomes_of(c.name).labels)
                if c.outcome_map is None:
                    if comp_outs != target_outs:
                        violations.append(
                            f"measurement mixture {decl.target!r}: component {c.name!r} "
                            "needs an explicit outcome identification"
                        )
                else:
                    bij = dict(c.outcome_map)
                    if set(bij) != comp_outs or set(bij.values()) != target_outs or len(
                        set(bij.values())
                    ) != len(bij):
                        violations.append(
                            f"measurement mixture {decl.target!r}: outcome identification "
                            f"for {c.name!r} is not a bijection"
                        )
    return violations


def component_outcome_map(
    system: SystemType, decl: ConvexDeclaration, component: ConvexComponent
) -> dict[str, str]:
    """Outcome identification for a measurement-mixture component.

    Defaults to the identity when the outcome sets coincide.
    """
    if component.outcome_map is not None:
        return component.outcome_bijection()
    comp = system.outcomes_of(component.name).labels
    target = system.outcomes_of(decl.target).labels
    if set(comp) != set(target):
        raise ModelError(
            f"no outcome identification between {component.name!r} and {decl.target!r}"
        )
    return {o: o for o in comp}


# ---------------------------------------------------------------------------
# Operational theories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Measurement:
    """A measurement procedure, possibly a joint one over base labels.

    ``outcome_values`` aligns each outcome id with the tuple of base-label
    outcomes it stands for, enabling projections onto sub-measurements.
    """

    name: str
    labels: tuple[str, ...]
    outcomes: tuple[str, ...]
    outcome_values: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ModelError(f"measurement {self.name!r} has duplicate outcomes")
        mapping = dict(self.outcome_values)
        if set(mapping) != set(self.outcomes):
            raise ModelError(f"measurement {self.name!r}: outcome values misaligned")
        for o, vals in mapping.items():
            if len(vals) != len(self.labels):
                raise ModelError(
                    f"measurement {self.name!r}: outcome {o!r} arity mismatch"
                )

    # Lookup tables are built on first use, not in __post_init__: generated
    # representations hold many measurements that are never looked up.
    @cached_property
    def _values(self) -> dict[str, tuple[str, ...]]:
        return dict(self.outcome_values)

    @cached_property
    def _outcome_of(self) -> dict[tuple[str, ...], str]:
        first: dict[tuple[str, ...], str] = {}
        for o, vals in self.outcome_values:
            first.setdefault(vals, o)
        return first

    @cached_property
    def _position(self) -> dict[str, int]:
        return {m: i for i, m in enumerate(self.labels)}

    def values_of(self, outcome: str) -> tuple[str, ...]:
        return self._values[outcome]

    def outcome_of(self, values: tuple[str, ...]) -> str:
        """The first outcome whose base-label values are ``values``."""
        try:
            return self._outcome_of[values]
        except KeyError:
            raise ModelError(
                f"measurement {self.name!r} has no outcome with values {values}"
            ) from None

    def project(self, sub_labels: tuple[str, ...], outcome: str) -> tuple[str, ...]:
        """Project an outcome onto a subset of the base labels."""
        vals = self._values[outcome]
        pos = self._position
        return tuple(vals[pos[m]] for m in sub_labels)

    def integer_marginal(
        self, dist: Mapping[str, Fraction | int], sub_labels: tuple[str, ...]
    ) -> tuple[dict[tuple[str, ...], int], int]:
        """Pushforward of an outcome distribution onto ``sub_labels`` values,
        in integers over ``integer_weights``' denominator: (numerator by
        value tuple, den).  Value tuples come in the order their first
        nonzero outcome does."""
        nums, den = integer_weights(dist)
        out: dict[tuple[str, ...], int] = {}
        for k, n in nums.items():
            if n:
                key = self.project(sub_labels, k)
                out[key] = out.get(key, 0) + n
        return out, den

    def marginal(
        self, dist: Mapping[str, Fraction | int], sub_labels: tuple[str, ...]
    ) -> dict[tuple[str, ...], Fraction]:
        """``integer_marginal`` as ``Fraction`` weights, same keys and order."""
        out, den = self.integer_marginal(dist, sub_labels)
        return {key: Fraction(n, den) for key, n in out.items()}


def elementary_measurement(name: str, outcomes: Iterable[str]) -> Measurement:
    outs = tuple(outcomes)
    return Measurement(
        name=name,
        labels=(name,),
        outcomes=outs,
        outcome_values=tuple((o, (o,)) for o in outs),
    )


@dataclass
class OperationalTheory:
    """Preparations, measurements and their exact outcome statistics."""

    preparations: tuple[str, ...]
    measurements: dict[str, Measurement]
    statistics: dict[tuple[str, str], dict[str, Fraction]]
    convex: tuple[ConvexDeclaration, ...] = ()

    def distribution(self, prep: str, meas: str) -> dict[str, Fraction]:
        try:
            return self.statistics[(prep, meas)]
        except KeyError:
            raise ModelError(f"no statistics for ({prep!r}, {meas!r})") from None


def validate_operational_theory(theory: OperationalTheory) -> list[str]:
    """Structural + marginal-consistency validation; returns violations.
    Sums and comparisons run on the tables' ``integer_weights`` readings; a
    ``Fraction`` is made only to render a violation."""
    violations: list[str] = []
    # tables naming outcomes their measurement lacks cannot be marginalized
    unknown_outcomes: set[tuple[str, str]] = set()
    readings: dict[tuple[str, str], tuple[dict[str, int], int]] = {}
    for (p, m), dist in theory.statistics.items():
        if p not in theory.preparations:
            violations.append(f"statistics reference unknown preparation {p!r}")
        if m not in theory.measurements:
            violations.append(f"statistics reference unknown measurement {m!r}")
            continue
        meas = theory.measurements[m]
        if set(dist) - set(meas.outcomes):
            violations.append(f"({p!r},{m!r}): unknown outcomes {set(dist) - set(meas.outcomes)}")
            unknown_outcomes.add((p, m))
        nums, den = readings[(p, m)] = integer_weights(dist)
        total = sum(nums.values())
        if total != den:
            violations.append(
                f"({p!r},{m!r}): outcome weights sum to {Fraction(total, den)}"
            )
        if any(n < 0 for n in nums.values()):
            violations.append(f"({p!r},{m!r}): negative weight")
    for p in theory.preparations:
        for m in theory.measurements:
            if (p, m) not in theory.statistics:
                violations.append(f"missing statistics for ({p!r}, {m!r})")
    for decl in theory.convex:
        if decl.kind == "state":
            known, noun = theory.preparations, "preparation"
        else:
            known, noun = theory.measurements, "measurement"
        for name in (decl.target, *(c.name for c in decl.components)):
            if name not in known:
                violations.append(
                    f"{decl.kind} mixture references unknown {noun} {name!r}"
                )
    # marginal consistency along the joint-measurability order
    label_sets = {name: frozenset(meas.labels) for name, meas in theory.measurements.items()}
    for name, meas in theory.measurements.items():
        for other_name, other_labels in label_sets.items():
            if other_labels < label_sets[name]:
                sub = theory.measurements[other_name]
                for p in theory.preparations:
                    if (p, name) not in theory.statistics or (p, other_name) not in theory.statistics:
                        continue
                    if (p, name) in unknown_outcomes:
                        continue
                    want, want_den = readings[(p, other_name)]
                    got, got_den = meas.integer_marginal(
                        theory.statistics[(p, name)], sub.labels
                    )
                    for o in sub.outcomes:
                        w, g = want.get(o, 0), got.get(sub.values_of(o), 0)
                        if w * got_den != g * want_den:
                            violations.append(
                                f"({p!r}): {other_name!r} inconsistent with marginal of "
                                f"{name!r} at outcome {o!r} "
                                f"({Fraction(w, want_den)} != {Fraction(g, got_den)})"
                            )
    return violations


def empirical_system(
    theory: OperationalTheory,
) -> tuple[SystemType, dict[str, Context]]:
    """The scenario an operational theory presents, and each maximal
    measurement's context.

    Labels are the measurements minimal in the joint-measurability order
    (by name), and the cover collects the minimal measurements inside each
    maximal one, which must partition its base labels exactly.
    """
    names = sorted(theory.measurements)
    base = {n: frozenset(theory.measurements[n].labels) for n in names}
    minimal = [n for n in names if not any(base[o] < base[n] for o in names)]
    maximal = [n for n in names if not any(base[n] < base[o] for o in names)]
    context_of: dict[str, Context] = {}
    for big in maximal:
        parts = tuple(m for m in minimal if base[m] <= base[big])
        covered = [x for m in parts for x in base[m]]
        if len(covered) != len(base[big]) or set(covered) != base[big]:
            raise ModelError(
                f"maximal measurement {big!r} is not partitioned by minimal ones"
            )
        context_of[big] = parts
    system = system_type(
        {m: theory.measurements[m].outcomes for m in minimal},
        dict.fromkeys(context_of.values()),
    )
    return system, context_of
