"""Table arithmetic: pushforwards, table equality, product sections, sums.

The golden digest pins what the table layer returns, in dict order, on
bundled and seeded theories; the property tests check the same functions
against plain ``Fraction`` arithmetic on weights whose common denominator
exceeds 2^60.
"""

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, strategies as st

from ctxcheck import sheaf
from ctxcheck.generate import random_sections, theory_from_sections
from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    ModelError,
    RationalDistribution,
    State,
    integer_weights,
    integer_weights_equal,
    system_type,
    validate_system_type,
)
from ctxcheck.quantum import BUILTIN_NAMES, builtin_example, without_declarations
from ctxcheck.sheaf import (
    context_outcome_tuples,
    global_outcome_tuples,
    marginal_weights,
    signalling_violations,
    sub_contexts,
    verify_global_section,
)

ZERO = Fraction(0)


def _sparse_sections(rng, system, state_names):
    """Sections with weights 0..9 over a common total, about a third zero."""
    assignments = list(global_outcome_tuples(system))
    out = {}
    for name in state_names:
        raw = [rng.choice((0, 0, 0, 1, 2, 3, 5, 7, 9)) for _ in assignments]
        raw[rng.randrange(len(raw))] += 1
        total = sum(raw)
        out[name] = RationalDistribution(
            domain=system.labels,
            weights={g: Fraction(w, total) for g, w in zip(assignments, raw)},
        )
    return out


def _acyclic_theory(seed):
    """A seeded undeclared theory on an acyclic cover, listed shuffled.

    Each context after the first shares a proper subset (possibly empty) of
    one earlier context and adds one or two fresh labels.
    """
    rng = random.Random(seed)
    labels = [f"m{i}" for i in range(rng.randint(2, 5))]
    cover = [tuple(labels[: rng.randint(1, 2)])]
    used = len(cover[0])
    while used < len(labels):
        parent = rng.choice(cover)
        shared = tuple(rng.sample(parent, rng.randint(0, len(parent) - 1)))
        added = min(rng.randint(1, 2), len(labels) - used)
        cover.append(shared + tuple(labels[used : used + added]))
        used += added
    rng.shuffle(cover)
    outcomes = tuple(str(k) for k in range(rng.randint(2, 3)))
    system = system_type({m: outcomes for m in labels}, cover)
    states = tuple(f"s{k}" for k in range(rng.randint(1, 3)))
    make = _sparse_sections if rng.random() < 0.5 else random_sections
    return theory_from_sections(system, make(rng, system, states))


def _ring_theory(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    names = [f"x{i}" for i in range(n)]
    system = system_type(
        {m: ("0", "1") for m in names},
        [(names[i], names[(i + 1) % n]) for i in range(n)],
    )
    return theory_from_sections(system, random_sections(rng, system, ("s0",)))


def _declared_theories():
    """A measurement mixture c = 1/2 a + 1/2 b on a uniform section, and a
    state mixture u = 1/3 s + 2/3 t on seeded sections."""
    half = Fraction(1, 2)
    ternary = ("0", "1", "2")
    system = system_type({m: ternary for m in "abc"}, [("a", "b"), ("c",)])
    c_mix = ConvexDeclaration(
        kind="measurement",
        target="c",
        components=(ConvexComponent(half, "a"), ConvexComponent(half, "b")),
    )
    uniform = RationalDistribution(
        domain=("a", "b", "c"),
        weights={g: Fraction(1, 27) for g in itertools.product(ternary, repeat=3)},
    )
    yield theory_from_sections(system, {"s": uniform}, (c_mix,))
    system = system_type({m: ("0", "1") for m in "ab"}, [("a",), ("b",)])
    sections = random_sections(random.Random(7), system, ("s", "t"))
    mix = {
        g: Fraction(1, 3) * sections["s"].weight(g)
        + Fraction(2, 3) * sections["t"].weight(g)
        for g in global_outcome_tuples(system)
    }
    sections["u"] = RationalDistribution(domain=system.labels, weights=mix)
    s_mix = ConvexDeclaration(
        kind="state",
        target="u",
        components=(
            ConvexComponent(Fraction(1, 3), "s"),
            ConvexComponent(Fraction(2, 3), "t"),
        ),
    )
    yield theory_from_sections(system, sections, (s_mix,))


def _moved(rng, dist, tuples):
    """``dist`` with part of one supported weight moved to another tuple."""
    weights = dict(dist.weights)
    source = rng.choice(sorted(weights))
    target = rng.choice([t for t in tuples if t != source])
    delta = weights[source] / rng.randint(1, 3)
    weights[source] -= delta
    weights[target] = weights.get(target, ZERO) + delta
    return RationalDistribution(domain=dist.domain, weights=weights)


def _with_table(theory, name, ctx, table):
    states = dict(theory.states)
    states[name] = State(name=name, table={**theory.states[name].table, ctx: table})
    return EmpiricalTheory(system=theory.system, states=states, convex=theory.convex)


def _update_weights(digest, tag, weights):
    digest.update(tag.encode())
    for t, w in weights.items():
        digest.update(f"{','.join(t)}={w};".encode())


def test_table_layer_matches_golden_digest():
    # sha256 over the product sections of both undeclared spekkens builtins
    # and 60 seeded acyclic theories, every builtin table's marginal onto
    # every sub-context (and its reverse), the signalling messages of 40
    # theories with one table edited, and the verification messages of 70
    # sections with one weight moved; weights in dict order throughout
    digest = hashlib.sha256()
    acyclic = [_acyclic_theory(seed) for seed in range(60)]
    undeclared = [
        without_declarations(builtin_example(name).theory)
        for name in ("spekkens-unsharp", "spekkens-preparation")
    ]
    for theory in undeclared + acyclic:
        for name, dist in sheaf._product_sections(theory).items():
            _update_weights(digest, f"P{name}:", dist.weights)
    for name in BUILTIN_NAMES:
        for state in builtin_example(name).theory.states.values():
            for ctx, dist in state.table.items():
                for sub in sub_contexts(ctx):
                    for order in (sub, sub[::-1]):
                        _update_weights(
                            digest, f"M{order}:", marginal_weights(dist, order)
                        )
    rng = random.Random(2025)
    for theory in acyclic[:20] + [_ring_theory(seed) for seed in range(20)]:
        name = rng.choice(sorted(theory.states))
        ctx = rng.choice(theory.system.cover)
        tuples = list(context_outcome_tuples(theory.system, ctx))
        table = _moved(rng, theory.states[name].table[ctx], tuples)
        edited = _with_table(theory, name, ctx, table)
        digest.update(f"S{signalling_violations(edited)}".encode())
    checked = acyclic + [_ring_theory(seed) for seed in range(20, 28)]
    for theory in checked + list(_declared_theories()):
        sections = sheaf.find_global_section(theory)
        name = rng.choice(sorted(sections))
        tuples = list(global_outcome_tuples(theory.system))
        sections[name] = _moved(rng, sections[name], tuples)
        digest.update(f"V{verify_global_section(theory, sections)}".encode())
    assert digest.hexdigest() == (
        "b2ad02b9f7119c7d58a56a395e887288792e1056552e19c831e55dce118c9cbe"
    )


# ---------------------------------------------------------------------------
# Against plain Fraction arithmetic, with common denominators above 2^60
# ---------------------------------------------------------------------------

# primes near 10^6: a table with four of them in its denominators has a
# common denominator above 2^79
_PRIMES = (
    999907, 999917, 999931, 999953, 999959, 999961, 999979, 999983,
    1000003, 1000033, 1000037, 1000039,
)
_LABELS = ("a", "b", "c")
_TERNARY = ("0", "1", "2")


def _reference_marginal(dist, sub):
    pos = [dist.domain.index(m) for m in sub]
    acc = {}
    for values, w in sorted(dist.weights.items()):
        key = tuple(values[i] for i in pos)
        acc[key] = acc.get(key, ZERO) + w
    return acc


@st.composite
def _big_weights(draw, tuples):
    """Weights summing to 1 on at least three of ``tuples``; each weight but
    the last has a denominator the product of two primes near 10^6."""
    support = draw(
        st.lists(st.sampled_from(tuples), min_size=3, max_size=len(tuples), unique=True)
    )
    primes = draw(st.permutations(_PRIMES))
    weights = {}
    rest = Fraction(1)
    for i, t in enumerate(support[:-1]):
        den = primes[2 * i % len(primes)] * primes[(2 * i + 1) % len(primes)]
        weights[t] = Fraction(draw(st.integers(1, den // (2 * len(support)))), den)
        rest -= weights[t]
    weights[support[-1]] = rest
    return weights


@st.composite
def _big_distributions(draw, domain=_LABELS):
    tuples = list(itertools.product(_TERNARY, repeat=len(domain)))
    dist = RationalDistribution(domain=domain, weights=draw(_big_weights(tuples)))
    assume(lcm(*(w.denominator for w in dist.weights.values())) > 2**60)
    return dist


@st.composite
def _moved_by_a_tiny_weight(draw, dist, tuples):
    """``dist`` itself or with 1/(p*q) moved off a supported tuple."""
    if not draw(st.booleans()):
        return dist
    weights = dict(dist.weights)
    source = draw(st.sampled_from(sorted(weights)))
    target = draw(st.sampled_from([t for t in tuples if t != source]))
    p, q = draw(st.lists(st.sampled_from(_PRIMES), min_size=2, max_size=2, unique=True))
    delta = min(Fraction(1, p * q), weights[source])
    weights[source] -= delta
    weights[target] = weights.get(target, ZERO) + delta
    return RationalDistribution(domain=dist.domain, weights=weights)


_SUBS = st.lists(st.sampled_from(_LABELS), unique=True, max_size=3).map(tuple)


@given(_big_distributions(), _SUBS)
def test_marginal_weights_is_the_fraction_pushforward(dist, sub):
    got = marginal_weights(dist, sub)
    assert list(got.items()) == list(_reference_marginal(dist, sub).items())
    assert all(type(w) is Fraction for w in got.values())


@given(st.data())
def test_marginals_agree_is_fraction_equality(data):
    a = data.draw(_big_distributions())
    sub = data.draw(_SUBS.filter(len))
    # a table on fresh labels whose marginal on the first len(sub) of them
    # equals a's on sub, each weight split over one more binary label
    domain = tuple(f"y{i}" for i in range(len(sub))) + ("z",)
    p = data.draw(st.sampled_from(_PRIMES))
    weights = {}
    for key, w in _reference_marginal(a, sub).items():
        share = Fraction(data.draw(st.integers(0, p)), p)
        weights[key + ("0",)] = w * share
        weights[key + ("1",)] = w * (1 - share)
    b = RationalDistribution(domain=domain, weights=weights)
    tuples = [
        key + (z,)
        for key in itertools.product(_TERNARY, repeat=len(sub))
        for z in ("0", "1")
    ]
    b = data.draw(_moved_by_a_tiny_weight(b, tuples))
    b_sub = domain[:-1]
    want = _reference_marginal(a, sub) == _reference_marginal(b, b_sub)
    assert sheaf.marginals_agree(a, sub, b, b_sub) == want
    assert sheaf.marginals_agree(b, b_sub, a, sub) == want


_COVERS = (
    (("a", "b"), ("b", "c")),
    (("a", "b"), ("a", "c"), ("b", "c")),
    (("a",), ("b", "c")),
    (("a", "b", "c"),),
)


@given(st.data())
def test_verify_global_section_is_the_fraction_check(data):
    dist = data.draw(_big_distributions())
    cover = data.draw(st.sampled_from(_COVERS))
    system = system_type({m: _TERNARY for m in _LABELS}, cover)
    table = {
        ctx: RationalDistribution(domain=ctx, weights=_reference_marginal(dist, ctx))
        for ctx in cover
    }
    theory = EmpiricalTheory(system=system, states={"s": State(name="s", table=table)})
    tuples = list(global_outcome_tuples(system))
    section = data.draw(_moved_by_a_tiny_weight(dist, tuples))
    want = []
    for ctx in cover:
        acc = _reference_marginal(section, ctx)
        for t in context_outcome_tuples(system, ctx):
            if acc.get(t, ZERO) != table[ctx].weight(t):
                want.append(f"state 's': marginal at {ctx} differs at {t}")
                break
    assert verify_global_section(theory, {"s": section}) == want


def _reference_distribution(domain, weights):
    """The plain-Fraction check: cleaned weights, or the ModelError text."""
    cleaned = {}
    total = ZERO
    for values, w in weights.items():
        if len(values) != len(domain):
            return f"outcome tuple {values} does not match domain {domain}"
        w = Fraction(w)
        if w < 0:
            return f"negative probability {w} at {values}"
        total += w
        if w != 0:
            cleaned[tuple(values)] = w
    if total != 1:
        return f"distribution weights sum to {total}, expected 1"
    return cleaned


def _as_type(kind, w):
    if kind == "str":
        return f"{w.numerator}/{w.denominator}"
    if kind == "float":
        return float(w)
    if kind == "int":
        return int(w)
    return w


@given(st.data())
def test_distribution_errors_match_the_fraction_check(data):
    domain = ("a", "b")
    tuples = list(itertools.product(_TERNARY, repeat=2))
    if data.draw(st.booleans()):
        base = data.draw(_big_weights(tuples))
    else:
        # dyadic weights, which floats hold exactly
        base = {t: Fraction(1, 4) for t in data.draw(
            st.lists(st.sampled_from(tuples), min_size=4, max_size=4, unique=True)
        )}
    weights = {
        t: _as_type(data.draw(st.sampled_from(("fraction", "str", "float", "int"))), w)
        for t, w in base.items()
    }
    edit = data.draw(
        st.sampled_from(("none", "negate", "zero", "short", "drop", "one more"))
    )
    victim = data.draw(st.sampled_from(sorted(weights)))
    if edit == "negate":
        weights[victim] = -Fraction(weights[victim])
    elif edit == "zero":
        weights[victim] = data.draw(st.sampled_from((0, 0.0, "0", ZERO)))
    elif edit == "short":
        weights[victim[:1]] = weights.pop(victim)
    elif edit == "drop":
        del weights[victim]
    elif edit == "one more":
        weights[("3", "3")] = 1
    want = _reference_distribution(domain, weights)
    if isinstance(want, str):
        with pytest.raises(ModelError) as raised:
            RationalDistribution(domain=domain, weights=dict(weights))
        assert str(raised.value) == want
    else:
        dist = RationalDistribution(domain=domain, weights=dict(weights))
        assert list(dist.weights.items()) == list(want.items())
        assert all(type(w) is Fraction for w in dist.weights.values())


def _reference_declaration_violations(theory, sections):
    """The plain-Fraction declaration checks of ``verify_global_section``."""
    system = theory.system
    out = []
    for decl in theory.convex:
        if decl.kind == "state":
            if decl.target not in sections or any(
                c.name not in sections for c in decl.components
            ):
                out.append(f"state mixture {decl.target!r}: section missing")
                continue
            target = sections[decl.target]
            for g in global_outcome_tuples(system):
                want = sum(
                    (c.coefficient * sections[c.name].weight(g) for c in decl.components),
                    start=ZERO,
                )
                if target.weight(g) != want:
                    out.append(f"state mixture {decl.target!r} violated at {g}")
                    break
        else:
            outcomes = system.outcomes_of(decl.target).labels
            for name, dist in sections.items():
                lhs = _reference_marginal(dist, (decl.target,))
                rhs = dict.fromkeys(outcomes, ZERO)
                for c in decl.components:
                    marg = _reference_marginal(dist, (c.name,))
                    for k in outcomes:
                        rhs[k] += c.coefficient * marg.get((k,), ZERO)
                for k in outcomes:
                    if lhs.get((k,), ZERO) != rhs[k]:
                        out.append(
                            f"measurement mixture {decl.target!r} violated for "
                            f"state {name!r} at outcome {k!r}"
                        )
    return out


@st.composite
def _sections_on_ab_and_c(draw, mixed):
    """A section on a, b, c: a drawn table on (a, b) times a law of c that is
    the even mixture of a's and b's when ``mixed``, else a drawn one."""
    ab = draw(_big_distributions(("a", "b")))
    if mixed:
        half = Fraction(1, 2)
        law = {}
        for label in ("a", "b"):
            for key, w in _reference_marginal(ab, (label,)).items():
                law[key] = law.get(key, ZERO) + half * w
    else:
        law = draw(_big_weights([(k,) for k in _TERNARY]))
    weights = {
        t + key: w * v for t, w in ab.weights.items() for key, v in law.items() if v
    }
    return RationalDistribution(domain=_LABELS, weights=weights)


@given(st.data())
def test_declaration_checks_are_the_fraction_checks(data):
    # a measurement mixture c = 1/2 a + 1/2 b and a state mixture
    # u = q s + (1 - q) t, each holding or not, with one section then
    # possibly moved by a tiny weight
    system = system_type({m: _TERNARY for m in _LABELS}, [("a", "b"), ("c",)])
    mixed = data.draw(st.booleans())
    s = data.draw(_sections_on_ab_and_c(mixed))
    t = data.draw(_sections_on_ab_and_c(mixed))
    p = data.draw(st.sampled_from(_PRIMES))
    q = Fraction(data.draw(st.integers(1, p - 1)), p)
    u = {
        g: q * s.weight(g) + (1 - q) * t.weight(g)
        for g in set(s.weights) | set(t.weights)
    }
    sections = {"s": s, "t": t, "u": RationalDistribution(domain=_LABELS, weights=u)}
    half = Fraction(1, 2)
    declarations = (
        ConvexDeclaration(
            kind="measurement",
            target="c",
            components=(ConvexComponent(half, "a"), ConvexComponent(half, "b")),
        ),
        ConvexDeclaration(
            kind="state",
            target="u",
            components=(ConvexComponent(q, "s"), ConvexComponent(1 - q, "t")),
        ),
    )
    states = {
        name: State(
            name=name,
            table={
                ctx: RationalDistribution(
                    domain=ctx, weights=_reference_marginal(dist, ctx)
                )
                for ctx in system.cover
            },
        )
        for name, dist in sections.items()
    }
    theory = EmpiricalTheory(system=system, states=states, convex=declarations)
    name = data.draw(st.sampled_from(sorted(sections)))
    tuples = list(global_outcome_tuples(system))
    sections[name] = data.draw(_moved_by_a_tiny_weight(sections[name], tuples))
    want = []
    for state, dist in sections.items():
        for ctx in system.cover:
            acc = _reference_marginal(dist, ctx)
            table = theory.states[state].table[ctx]
            for t in context_outcome_tuples(system, ctx):
                if acc.get(t, ZERO) != table.weight(t):
                    want.append(f"state {state!r}: marginal at {ctx} differs at {t}")
                    break
    want += _reference_declaration_violations(theory, sections)
    assert verify_global_section(theory, sections) == want


# ---------------------------------------------------------------------------
# The no-signalling gate against its earlier pairwise form
# ---------------------------------------------------------------------------


def _reference_signalling_violations(theory):
    """The gate as it was when each overlapping pair pushed both tables
    forward on its own, each put in integers over the lcm of its sorted
    weights."""

    def integer_marginal(dist, sub):
        nums, den = integer_weights(dist.weights)
        pos = [dist.domain.index(m) for m in sub]
        acc = {}
        for values, n in sorted(nums.items()):
            key = tuple(values[i] for i in pos)
            acc[key] = acc.get(key, 0) + n
        return acc, den

    system = theory.system
    out = []
    for name, state in theory.states.items():
        for ctx, other in itertools.combinations(system.cover, 2):
            shared = tuple(m for m in ctx if m in other)
            if not shared:
                continue
            if not integer_weights_equal(
                integer_marginal(state.distribution(ctx), shared),
                integer_marginal(state.distribution(other), shared),
            ):
                out.append(
                    f"state {name!r}: contexts {ctx} and {other} disagree on {shared}"
                )
    return out


@st.composite
def _overlapping_theories(draw):
    """1-4 no-signalling states on a cover of 2-4 contexts whose contexts
    share 1-3 labels, the first two sharing 2, then up to three single-entry
    edits (part of one table weight moved to another outcome tuple).

    Each context after the first takes 1-3 labels of an earlier one (2 of
    the first, for the second), maybe one label of another, and 1-2 fresh
    labels, so no context holds another.  The states are the marginals of
    sparse global distributions, so no assignment space is enumerated.
    """
    fresh = (f"m{i}" for i in itertools.count())
    cover = [tuple(itertools.islice(fresh, draw(st.integers(3, 4))))]
    for k in range(1, draw(st.integers(2, 4))):
        base = cover[0] if k == 1 else draw(st.sampled_from(cover))
        size = 2 if k == 1 else draw(st.integers(1, min(3, len(base) - 1)))
        ctx = list(draw(st.permutations(base))[:size])
        if k > 1 and draw(st.booleans()):
            ctx.append(draw(st.sampled_from([m for c in cover for m in c])))
        ctx += itertools.islice(fresh, draw(st.integers(1, 2)))
        cover.append(tuple(dict.fromkeys(ctx)))
    labels = list(dict.fromkeys(m for ctx in cover for m in ctx))
    outcomes = {m: _TERNARY[: draw(st.integers(2, 3))] for m in labels}
    system = system_type(outcomes, cover)
    assume(not validate_system_type(system))
    assignment = st.tuples(*(st.sampled_from(outcomes[m]) for m in system.labels))
    states = {}
    for s in range(draw(st.integers(1, 4))):
        support = draw(st.lists(assignment, min_size=1, max_size=6, unique=True))
        raw = [draw(st.integers(1, 9)) for _ in support]
        section = RationalDistribution(
            domain=system.labels,
            weights={g: Fraction(w, sum(raw)) for g, w in zip(support, raw)},
        )
        table = {
            ctx: RationalDistribution(
                domain=ctx, weights=marginal_weights(section, ctx)
            )
            for ctx in system.cover
        }
        states[f"s{s}"] = State(name=f"s{s}", table=table)
    theory = EmpiricalTheory(system=system, states=states)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(theory.states)))
        ctx = draw(st.sampled_from(system.cover))
        dist = theory.states[name].table[ctx]
        weights = dict(dist.weights)
        source = draw(st.sampled_from(sorted(weights)))
        target = draw(st.tuples(*(st.sampled_from(outcomes[m]) for m in ctx)))
        delta = weights[source] / draw(st.integers(1, 3))
        weights[source] -= delta
        weights[target] = weights.get(target, ZERO) + delta
        table = RationalDistribution(domain=ctx, weights=weights)
        theory = _with_table(theory, name, ctx, table)
    return theory


@given(_overlapping_theories())
def test_signalling_violations_match_the_pairwise_gate(theory):
    assert signalling_violations(theory) == _reference_signalling_violations(theory)


def test_gate_compares_joints_on_two_shared_labels():
    # every single-label marginal agrees, but the (a, b) joints of the
    # first two contexts differ
    half = Fraction(1, 2)
    cover = (("a", "b", "c"), ("a", "b", "d"), ("c", "d"))
    system = system_type({m: ("0", "1") for m in "abcd"}, cover)
    table = {
        cover[0]: {("0", "0", "0"): half, ("1", "1", "0"): half},
        cover[1]: {("0", "1", "0"): half, ("1", "0", "0"): half},
        cover[2]: {("0", "0"): Fraction(1)},
    }
    state = State(
        name="s",
        table={
            ctx: RationalDistribution(domain=ctx, weights=w)
            for ctx, w in table.items()
        },
    )
    theory = EmpiricalTheory(system=system, states={"s": state})
    assert signalling_violations(theory) == [
        "state 's': contexts ('a', 'b', 'c') and ('a', 'b', 'd') disagree on ('a', 'b')"
    ]


# Integer readings: each object that holds weights reads them as ints once,
# in its constructor, and every reader reads that.

_LARGE_PRIMES = (1000003, 2**31 - 1, 2**61 - 1)


@st.composite
def _positive_weights(draw, keys):
    """Positive weights summing to 1 on a nonempty prefix of ``keys``; each
    but the last has a large prime denominator."""
    n = draw(st.integers(1, len(keys)))
    weights = {}
    rest = Fraction(1)
    for key in keys[: n - 1]:
        p = draw(st.sampled_from(_LARGE_PRIMES))
        weights[key] = Fraction(draw(st.integers(1, p // (2 * n))), p)
        rest -= weights[key]
    weights[keys[n - 1]] = rest
    return weights


def _kinds(w, *kinds):
    """``kinds``, and "int" too when ``w`` is whole."""
    return kinds + ("int",) if w.denominator == 1 else kinds


@given(st.data())
def test_integer_readings_are_integer_weights(data):
    tuples = data.draw(st.permutations(list(itertools.product(_TERNARY, repeat=2))))
    base = data.draw(_positive_weights(tuples))
    weights = {}
    for t in tuples:  # every other tuple may be given as an explicit zero
        if t in base:
            kind = data.draw(st.sampled_from(_kinds(base[t], "fraction", "str")))
            weights[t] = _as_type(kind, base[t])
        elif data.draw(st.booleans()):
            weights[t] = data.draw(st.sampled_from((0, "0", "0/7", ZERO)))
    dist = RationalDistribution(domain=("a", "b"), weights=weights)
    assert dist.integer == integer_weights(dist.weights)
    assert list(dist.integer[0].items()) == list(integer_weights(base)[0].items())

    names = [f"p{i}" for i in range(6)]
    coefficients = data.draw(_positive_weights(data.draw(st.permutations(names))))
    components = tuple(
        ConvexComponent(
            _as_type(data.draw(st.sampled_from(_kinds(w, "fraction"))), w), name
        )
        for name, w in coefficients.items()
    )
    decl = ConvexDeclaration(kind="state", target="u", components=components)
    want = integer_weights({c.name: c.coefficient for c in components})
    assert decl.integer == want
    assert list(decl.integer[0]) == list(want[0]) == list(coefficients)


def test_integer_readings_are_not_fields():
    half = Fraction(1, 2)
    dist = RationalDistribution(domain=("a",), weights={("0",): half, ("1",): half})
    decl = ConvexDeclaration(
        "state", "u", (ConvexComponent(half, "s"), ConvexComponent(half, "t"))
    )
    assert "integer" not in repr(dist) and "integer" not in repr(decl)
    twin = ConvexDeclaration("state", "u", decl.components)
    assert twin == decl and hash(twin) == hash(decl)
    assert dist == RationalDistribution(domain=("a",), weights=dict(dist.weights))


def test_repeated_declaration_component_is_reported_as_repeated():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    repeated = (ConvexComponent(half, "s"), ConvexComponent(half, "s"))
    distinct = "^convex declaration components must be distinct$"
    with pytest.raises(ModelError, match=distinct):
        ConvexDeclaration("state", "u", repeated)
    # the sum is checked first, over every component as given
    short = (ConvexComponent(half, "s"), ConvexComponent(quarter, "s"))
    with pytest.raises(ModelError, match="^convex coefficients sum to 3/4, expected 1$"):
        ConvexDeclaration("state", "u", short)


def _spy_on_integer_weights(monkeypatch):
    """Wrap ``integer_weights`` in every loaded ctxcheck module that holds
    it; returns the list of the weight maps it is called on."""
    real = integer_weights
    seen = []

    def spy(weights):
        seen.append(weights)
        return real(weights)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ctxcheck" and getattr(
            module, "integer_weights", None
        ) is real:
            monkeypatch.setattr(module, "integer_weights", spy)
    return seen


@pytest.mark.parametrize("declared", (True, False), ids=("declared", "undeclared"))
@pytest.mark.parametrize("mode", ("probabilistic", "possibilistic"))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_check_reads_each_weight_map_once(monkeypatch, name, mode, declared):
    theory = builtin_example(name).theory
    if not declared:
        theory = without_declarations(theory)
    seen = _spy_on_integer_weights(monkeypatch)
    verdict = sheaf.check_contextuality(theory, mode)
    # no table or declaration is read again: only each returned section, by
    # the constructor that makes it
    sections = (verdict.sections or {}).values()
    assert sorted(map(id, seen)) == sorted(id(s.weights) for s in sections)


def test_verify_reports_a_section_for_an_unknown_state():
    theory = next(_declared_theories())  # c = 1/2 a + 1/2 b, one state "s"
    uniform = RationalDistribution(
        domain=theory.system.labels,
        weights={g: Fraction(1, 27) for g in global_outcome_tuples(theory.system)},
    )
    assert verify_global_section(theory, {"s": uniform}) == []
    # a stray section that breaks the mixture, and one on the wrong domain:
    # each is reported as unknown, after the states', and nothing else
    breaking = RationalDistribution(
        domain=theory.system.labels, weights={("0", "0", "1"): Fraction(1)}
    )
    wrong = RationalDistribution(domain=("a",), weights={("0",): Fraction(1)})
    sections = {"x": breaking, "s": uniform, "y": wrong}
    assert verify_global_section(theory, sections) == [
        "section for unknown state 'x'",
        "section for unknown state 'y'",
    ]
    assert verify_global_section(theory, {"x": breaking}) == [
        "missing section for state 's'",
        "section for unknown state 'x'",
    ]
