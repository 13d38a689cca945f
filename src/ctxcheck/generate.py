"""Seeded random instances for property tests and benchmarks.

Theories are built from explicit full-assignment distributions, so the
generated tables always admit a global section by construction; a parity
bump on a two-label context then produces maybe-contextual variants
without introducing signalling.  Generators resample (bounded attempts)
when the drawn weights collide exactly, keeping instances generic: exact
ties between unrelated statistics create spurious equivalences that no
perturbation of the construction would show.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from ctxcheck.bridge import outcome_id, subcontext_measurements, to_operational
from ctxcheck.model import (
    K,
    ZERO,
    EmpiricalTheory,
    ModelError,
    OperationalTheory,
    RationalDistribution,
    State,
    SystemType,
    system_type,
    validate_system_type,
    validate_theory,
)
from ctxcheck.ontology import (
    OntologicalRepresentation,
    forget_statistics,
    measurement_nc_witness,
    outcome_pair_classes,
    preparation_classes,
    preparation_nc_witness,
    validate_representation,
)
from ctxcheck.quantum import _uniform_mix
from ctxcheck.sheaf import global_outcome_tuples, marginal_weights

MAX_ATTEMPTS = 50


class GeneratorError(ModelError):
    pass


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _random_cover(
    rng: random.Random, labels: tuple[str, ...]
) -> tuple[tuple[str, ...], ...]:
    """A random antichain cover of the labels: a partition into blocks,
    optionally joined by one context crossing several blocks."""
    order = list(labels)
    rng.shuffle(order)
    blocks: list[tuple[str, ...]] = []
    i = 0
    while i < len(order):
        size = rng.randint(1, min(3, len(order) - i))
        blocks.append(tuple(order[i : i + size]))
        i += size
    cover = list(blocks)
    big = [b for b in blocks if len(b) >= 2]
    if len(big) >= 2 and rng.random() < 0.5:
        chosen = rng.sample(big, rng.randint(2, min(3, len(big))))
        cover.append(tuple(rng.choice(b) for b in chosen))
    return tuple(cover)


def random_system(rng: random.Random) -> SystemType:
    """A small random scenario: one third of draws are binary cycles of 3
    to 5 labels, the rest have 2 to 4 labels."""
    for _ in range(MAX_ATTEMPTS):
        if rng.random() < Fraction(1, 3):
            n = rng.randint(3, 5)
            names = tuple(f"x{i}" for i in range(n))
            outcomes = {m: ("0", "1") for m in names}
            cover = tuple(
                (names[i], names[(i + 1) % n]) for i in range(n)
            )
        else:
            n = rng.randint(2, 4)
            names = tuple(f"x{i}" for i in range(n))
            outcomes = {
                m: tuple(str(v) for v in range(rng.randint(2, 3))) for m in names
            }
            cover = _random_cover(rng, names)
        system = system_type(outcomes, cover)
        if not validate_system_type(system):
            return system
    raise GeneratorError("could not draw a valid scenario")


def _positive_distribution(rng: random.Random, keys: Sequence[K]) -> dict[K, Fraction]:
    """Weights drawn from 1 to 9 per key, in key order, over their sum."""
    raw = [rng.randint(1, 9) for _ in keys]
    total = sum(raw)
    return {k: Fraction(w, total) for k, w in zip(keys, raw)}


def random_sections(
    rng: random.Random, system: SystemType, state_names: tuple[str, ...]
) -> dict[str, RationalDistribution]:
    """Strictly positive rational weights over all full assignments."""
    assignments = list(global_outcome_tuples(system))
    return {
        name: RationalDistribution(
            domain=system.labels, weights=_positive_distribution(rng, assignments)
        )
        for name in state_names
    }


def theory_from_sections(
    system: SystemType,
    sections: dict[str, RationalDistribution],
    convex=(),
) -> EmpiricalTheory:
    """The empirical theory whose tables are the section marginals."""
    states = {}
    for name, dist in sections.items():
        table = {
            ctx: RationalDistribution(
                domain=ctx, weights=marginal_weights(dist, ctx)
            )
            for ctx in system.cover
        }
        states[name] = State(name=name, table=table)
    theory = EmpiricalTheory(system=system, states=states, convex=convex)
    problems = validate_theory(theory)
    if problems:
        raise GeneratorError("; ".join(problems))
    return theory


def _statistics_generic(theory: EmpiricalTheory) -> bool:
    """No exact collisions between unrelated statistics.

    Every preparation class and every outcome-event class of the operational
    form must be a singleton; ties would merge classes that differ
    structurally.
    """
    target = to_operational(theory)
    return all(
        len(cls) == 1
        for classes in (preparation_classes(target), outcome_pair_classes(target))
        for cls in classes
    )


def random_feasible_theory(
    rng: random.Random,
) -> tuple[EmpiricalTheory, dict[str, RationalDistribution]]:
    """A generic theory of 2 or 3 states, with the sections it was built from."""
    for _ in range(MAX_ATTEMPTS):
        system = random_system(rng)
        names = tuple(f"s{i}" for i in range(rng.randint(2, 3)))
        sections = random_sections(rng, system, names)
        theory = theory_from_sections(system, sections)
        if _statistics_generic(theory):
            return theory, sections
    raise GeneratorError("could not draw a generic theory")


# ---------------------------------------------------------------------------
# Maybe-contextual variants
# ---------------------------------------------------------------------------


def _bump_table(
    rng: random.Random, dist: RationalDistribution
) -> RationalDistribution | None:
    """Shift weight between the parity classes of a binary pair table.

    Both single-label marginals are preserved, so the bump never creates
    signalling; the pair correlation moves by up to the smallest cell.
    """
    a, b = dist.domain
    cells = {
        (va, vb): dist.weight((va, vb))
        for va in ("0", "1")
        for vb in ("0", "1")
    }
    sign = rng.choice((1, -1))
    for s in (sign, -sign):
        shrinking = [
            key for key in cells if ((key[0] != key[1]) if s > 0 else (key[0] == key[1]))
        ]
        limit = min(cells[key] for key in shrinking)
        if limit == 0:
            continue
        eps = limit * Fraction(rng.randint(1, 4), 4)
        delta = {
            key: (s * eps if key[0] == key[1] else -s * eps) for key in cells
        }
        return RationalDistribution(
            domain=dist.domain,
            weights={key: w + delta[key] for key, w in cells.items()},
        )
    return None


def parity_bump(
    rng: random.Random, theory: EmpiricalTheory
) -> EmpiricalTheory | None:
    """Perturb one two-label binary context; None when no context is eligible."""
    system = theory.system
    eligible = [
        ctx
        for ctx in system.cover
        if len(ctx) == 2
        and all(system.outcomes_of(m).labels == ("0", "1") for m in ctx)
    ]
    if not eligible:
        return None
    ctx = rng.choice(eligible)
    chosen = [s for s in theory.states if rng.random() < 0.5]
    if not chosen:
        chosen = [rng.choice(tuple(theory.states))]
    states = {}
    changed = False
    for name, state in theory.states.items():
        table = dict(state.table)
        if name in chosen:
            bumped = _bump_table(rng, table[ctx])
            if bumped is not None:
                table[ctx] = bumped
                changed = True
        states[name] = State(name=name, table=table)
    if not changed:
        return None
    return EmpiricalTheory(system=system, states=states, convex=theory.convex)


def random_frustrated_cycle(rng: random.Random) -> EmpiricalTheory:
    """A binary ring with an odd number of anti-correlated edges.

    Marginals are uniform everywhere, so the tables never signal; with
    little enough noise no assignment can satisfy every edge parity and
    the theory is contextual.
    """
    n = rng.randint(3, 5)
    names = tuple(f"x{i}" for i in range(n))
    outcomes = {m: ("0", "1") for m in names}
    cover = tuple((names[i], names[(i + 1) % n]) for i in range(n))
    system = system_type(outcomes, cover)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if signs.count(-1) % 2 == 0:
        signs[rng.randrange(n)] *= -1
    ring = {frozenset(ctx): signs[i] for i, ctx in enumerate(cover)}
    states = {}
    for name in tuple(f"s{i}" for i in range(rng.randint(1, 2))):
        table = {}
        for ctx in system.cover:
            noise = Fraction(rng.randint(0, 2), 20)
            matching = (1 - noise) / 2 if ring[frozenset(ctx)] > 0 else noise / 2
            differing = Fraction(1, 2) - matching
            table[ctx] = RationalDistribution(
                domain=ctx,
                weights={
                    ("0", "0"): matching,
                    ("1", "1"): matching,
                    ("0", "1"): differing,
                    ("1", "0"): differing,
                },
            )
        states[name] = State(name=name, table=table)
    theory = EmpiricalTheory(system=system, states=states)
    problems = validate_theory(theory)
    if problems:
        raise GeneratorError("; ".join(problems))
    return theory


def random_instance(rng: random.Random) -> EmpiricalTheory:
    """A random theory: frustrated cycles mixed with (maybe bumped) generic ones."""
    if rng.random() < Fraction(1, 3):
        return random_frustrated_cycle(rng)
    theory, _ = random_feasible_theory(rng)
    if rng.random() < 0.5:
        bumped = parity_bump(rng, theory)
        if bumped is not None:
            return bumped
    return theory


def bloch_preparation_scenario(ts: Sequence[Fraction | int]) -> EmpiricalTheory:
    """An exact preparation scenario on the Bloch circle, one pair per ``t``.

    The j-th rational ``t`` gives the rational unit vector
    r_j = ((1 - t²) / (1 + t²), 2t / (1 + t²)).  The states are ``psi{j}``
    (Bloch vector r_j), ``perp{j}`` (-r_j) and ``mix`` (0).  The binary
    measurement ``M{j}`` along r_j is its own context, with
    P(0 | r, M_j) = (1 + r·r_j) / 2, and ``mix = 1/2 psi{j} + 1/2 perp{j}``
    is declared for every j, which the tables satisfy exactly.  Two ``t``
    giving parallel vectors raise ``GeneratorError``.
    """
    directions = []
    for t in map(Fraction, ts):
        r = ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        if any(r[0] * s[1] == r[1] * s[0] for s in directions):
            raise GeneratorError(f"t = {t} repeats a direction")
        directions.append(r)
    labels = [f"M{j}" for j in range(len(directions))]
    system = system_type({m: ("0", "1") for m in labels}, [(m,) for m in labels])
    bloch = {"mix": (ZERO, ZERO)}
    for j, (x, y) in enumerate(directions):
        bloch[f"psi{j}"], bloch[f"perp{j}"] = (x, y), (-x, -y)
    states = {}
    for name, (x, y) in bloch.items():
        table = {}
        for m, (u, v) in zip(labels, directions):
            p0 = (1 + x * u + y * v) / 2
            table[(m,)] = RationalDistribution((m,), {("0",): p0, ("1",): 1 - p0})
        states[name] = State(name=name, table=table)
    convex = tuple(
        _uniform_mix((f"psi{j}", f"perp{j}"), "mix") for j in range(len(directions))
    )
    return EmpiricalTheory(system=system, states=states, convex=convex)


def duplicated_label_theory(
    rng: random.Random, theory: EmpiricalTheory
) -> EmpiricalTheory:
    """Clone one label into a statistically identical twin.

    The twin lives in a copy of one host context with the original label
    swapped out, so the two never co-occur and are statistically
    equivalent.  ``quotient_theory`` merges them unless one of its guards
    splits their class: when merging two other labels fails guard (iii) in a
    context that holds either of them, every multi-member class in that
    context is split, the twin's included, and the twin stays a label of
    the quotient.
    """
    system = theory.system
    label = rng.choice(system.labels)
    host = rng.choice([ctx for ctx in system.cover if label in ctx])
    twin = f"{label}_dup"
    outcomes = {m: system.outcomes_of(m).labels for m in system.labels}
    outcomes[twin] = system.outcomes_of(label).labels
    new_ctx = tuple(m for m in host if m != label) + (twin,)
    new_system = system_type(outcomes, system.cover + (new_ctx,))
    new_ctx = new_system.cover[-1]
    states = {}
    for name, state in theory.states.items():
        table = {ctx: state.table[ctx] for ctx in system.cover}
        weights = {}
        for values, w in state.table[host].items():
            by_label = dict(zip(host, values))
            by_label[twin] = by_label.pop(label)
            weights[tuple(by_label[m] for m in new_ctx)] = w
        table[new_ctx] = RationalDistribution(domain=new_ctx, weights=weights)
        states[name] = State(name=name, table=table)
    out = EmpiricalTheory(system=new_system, states=states, convex=theory.convex)
    problems = validate_theory(out)
    if problems:
        raise GeneratorError("; ".join(problems))
    return out


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


def random_factorizable_representation(
    rng: random.Random,
) -> OntologicalRepresentation:
    """A noncontextual factorizable representation with generic weights.

    Elementary responses are deterministic and joints are their products,
    so factorizability holds by construction; the realized statistics
    (``forget_statistics``) become the target theory.  Resamples when weight
    collisions put structurally different preparations or outcome events in
    one class, which shows as a preparation or measurement
    non-contextuality witness.
    """
    for _ in range(MAX_ATTEMPTS):
        ontic = tuple(f"l{i}" for i in range(rng.randint(1, 6)))
        preps = tuple(f"p{i}" for i in range(rng.randint(1, 3)))
        labels = tuple(f"e{i}" for i in range(rng.randint(2, 3)))
        out_sets = {
            m: tuple(str(v) for v in range(rng.randint(2, 3))) for m in labels
        }
        cover = _random_cover(rng, labels)
        system = system_type(out_sets, cover)
        if validate_system_type(system):
            continue
        mu = {p: _positive_distribution(rng, ontic) for p in preps}
        elementary = {
            m: {lam: rng.choice(out_sets[m]) for lam in ontic} for m in labels
        }
        measurements, _ = subcontext_measurements(system)
        xi: dict[str, dict[str, dict[str, Fraction]]] = {}
        for name, meas in measurements.items():
            xi[name] = {}
            for lam in ontic:
                values = tuple(elementary[m][lam] for m in meas.labels)
                xi[name][lam] = {outcome_id(values): Fraction(1)}
        rep = OntologicalRepresentation(
            ontic=ontic,
            mu=mu,
            xi=xi,
            target=OperationalTheory(preps, measurements, statistics={}),
        )
        rep.target = forget_statistics(rep)
        if preparation_nc_witness(rep) or measurement_nc_witness(rep):
            continue
        problems = validate_representation(rep)
        if problems:
            raise GeneratorError("; ".join(problems))
        return rep
    raise GeneratorError("could not draw a generic representation")
