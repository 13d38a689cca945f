"""Representation weight arithmetic against plain ``Fraction`` loops.

The representations drawn here have non-deterministic responses whose
weights have denominators that are products of primes near 10^6, with an
explicit zero or an ``int`` weight now and then.  Some are factorizable and
noncontextual; others have a perturbed joint response, a preparation or
outcome-event pair the ontology tells apart, a broken weight, or a target
table the representation does not realize.

The golden digest pins what the representation layer returns on 40 seeded
draws, in dict order; the property tests check the same functions against
the plain-``Fraction`` loops below, which the integer paths replaced.
"""

import hashlib
import itertools
import random
from fractions import Fraction
from math import prod

from hypothesis import given, settings, strategies as st

from ctxcheck import ontology
from ctxcheck.bridge import outcome_id, subcontext_measurements
from ctxcheck.equivalence import equivalence_classes, label_marginal, partition
from ctxcheck.model import (
    ModelError,
    Measurement,
    OperationalTheory,
    RationalDistribution,
    elementary_measurement,
    empirical_system,
    integer_weights,
    integer_weights_equal,
    system_type,
)
from ctxcheck.ontology import (
    OntologicalRepresentation,
    RepresentationError,
    analyze_representation,
    induced_theory,
    outcome_pair_classes,
    preparation_classes,
    realized_distribution,
    validate_representation,
    verify_realization,
)
from ctxcheck.sheaf import (
    global_outcome_tuples,
    marginal_weights,
    require_no_signalling,
    sub_contexts,
)

ZERO = Fraction(0)
ONE = Fraction(1)

_PRIMES = (
    999907, 999917, 999931, 999953, 999959, 999961, 999979, 999983,
    1000003, 1000033, 1000037, 1000039,
)
_COVERS = {
    2: (((0, 1),), ((0,), (1,))),
    3: (((0, 1), (1, 2)), ((0, 1, 2),), ((0, 1), (2,)), ((0, 2), (1, 2))),
}
_VARIANTS = (
    "product", "product", "product", "perturbed", "cloned", "swapped",
    "copied", "twin", "invalid", "target",
)


# ---------------------------------------------------------------------------
# Drawing representations
# ---------------------------------------------------------------------------


def _weights(rng, keys, full=False):
    """Weights summing to 1 on a random nonempty subset of ``keys`` (all of
    them when ``full``), in random order, over one or two primes near 10^6;
    now and then one more key with an explicit zero, and weights of 0 and 1
    written as ints."""
    support = rng.sample(list(keys), len(keys) if full else rng.randint(1, len(keys)))
    den = prod(rng.sample(_PRIMES, rng.randint(1, 2)))
    cuts = sorted(rng.sample(range(1, den), len(support) - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    weights = {k: Fraction(n, den) for k, n in zip(support, parts)}
    rest = [k for k in keys if k not in weights]
    if rest and rng.random() < 0.3:
        weights[rng.choice(rest)] = rng.choice((0, ZERO))
    if rng.random() < 0.3:
        weights = {k: w.numerator if w.denominator == 1 else w for k, w in weights.items()}
    return weights


def _tiny(rng):
    p, q = rng.sample(_PRIMES, 2)
    return Fraction(1, p * q)


def _representation(rng):
    """One seeded representation of a variant drawn from ``_VARIANTS``."""
    variant = rng.choice(_VARIANTS)
    ontic = tuple(f"l{i}" for i in range(rng.randint(1, 4)))
    preps = tuple(f"p{i}" for i in range(rng.randint(1, 3)))
    labels = tuple(f"e{i}" for i in range(rng.randint(2, 3)))
    outs = {m: tuple(str(v) for v in range(rng.randint(2, 3))) for m in labels}
    cover = [tuple(labels[i] for i in ctx) for ctx in rng.choice(_COVERS[len(labels)])]
    if variant == "twin":
        # a label answered exactly as e0, in a context of its own
        outs["t"] = outs["e0"]
        cover.append(("t",))
    measurements, _ = subcontext_measurements(system_type(outs, cover))
    mu = {p: _weights(rng, ontic, full=p == "p0") for p in preps}
    if variant == "swapped" and len(ontic) >= 2:
        # l0 and l1 get equal weights at every preparation
        for p in preps:
            w = Fraction(mu[p].pop("l0", 0)) + Fraction(mu[p].pop("l1", 0))
            mu[p] = {"l0": w / 2, **mu[p], "l1": w / 2}
    single = {m: {lam: _weights(rng, outs[m]) for lam in ontic} for m in outs}
    if variant == "twin":
        single["t"] = single["e0"]
    xi = {}
    for name, meas in measurements.items():
        xi[name] = {}
        for lam in ontic:
            if len(meas.labels) == 1:
                xi[name][lam] = dict(single[meas.labels[0]][lam])
                continue
            joint = {}
            for values in itertools.product(*(outs[m] for m in meas.labels)):
                w = prod(
                    (single[m][lam].get(v, 0) for m, v in zip(meas.labels, values)),
                    start=ONE,
                )
                if w or rng.random() < 0.1:
                    joint[outcome_id(values)] = w
            items = list(joint.items())
            rng.shuffle(items)
            xi[name][lam] = dict(items)
    if variant == "swapped" and len(ontic) >= 2:
        # a second measurement of e0 whose answers at l0 and l1 trade places
        measurements["s"] = elementary_measurement("s", outs["e0"])
        xi["s"] = {lam: dict(xi["e0"][lam]) for lam in ontic}
        xi["s"]["l0"], xi["s"]["l1"] = xi["s"]["l1"], xi["s"]["l0"]
    if variant == "perturbed":
        joints = sorted(m for m, meas in measurements.items() if len(meas.labels) > 1)
        if joints:
            joint = rng.choice(joints)
            response = xi[joint][rng.choice(ontic)]
            source = rng.choice([k for k, w in response.items() if w])
            target = rng.choice(measurements[joint].outcomes)
            delta = Fraction(response[source]) * _tiny(rng) * 1000
            response[source] -= delta
            response[target] = response.get(target, 0) + delta
    if variant == "cloned":
        # a copy of l0 that only a copy of p0 reaches, through part of l0's weight
        ontic += ("lc",)
        for family in xi.values():
            family["lc"] = dict(family["l0"])
        share = Fraction(rng.randint(1, 999), 1000)
        mu["q"] = {**mu["p0"], "l0": mu["p0"]["l0"] * share}
        mu["q"]["lc"] = mu["p0"]["l0"] * (1 - share)
        preps += ("q",)
    if variant == "copied":
        mu["q"] = dict(mu["p0"])
        preps += ("q",)
    rep = OntologicalRepresentation(
        ontic=ontic,
        mu=mu,
        xi=xi,
        target=OperationalTheory(preps, measurements, statistics={}),
    )
    rep.target.statistics = {
        (p, m): _reference_realized(rep, p, m) for p in preps for m in measurements
    }
    if variant == "target":
        p, m = rng.choice(sorted(rep.target.statistics))
        stats = rep.target.statistics[(p, m)]
        source = rng.choice(sorted(k for k, w in stats.items() if w))
        target = rng.choice(measurements[m].outcomes)
        delta = min(stats[source], _tiny(rng))
        stats[source] -= delta
        stats[target] = stats.get(target, ZERO) + delta
    if variant == "invalid":
        _break(rng, rep)
    return rep


def _break(rng, rep):
    """Edit one weight or key so ``validate_representation`` objects."""
    edit = rng.choice(
        ("negative", "mu sum", "response sum", "unknown outcome", "unknown ontic",
         "missing response", "unreachable")
    )
    p = rng.choice(sorted(rep.mu))
    m = rng.choice(sorted(rep.xi))
    lam = rng.choice(rep.ontic)
    if edit == "negative":
        dist = rep.mu[p]
        victim = rng.choice(sorted(dist))
        dist[victim] = -abs(Fraction(dist[victim])) - _tiny(rng)
        others = [lam for lam in rep.ontic if lam != victim]
        if others:
            other = rng.choice(others)
            dist[other] = dist.get(other, 0) + 1 - sum(dist.values())
    elif edit == "mu sum":
        dist = rep.mu[p]
        victim = rng.choice(sorted(dist))
        dist[victim] += _tiny(rng)
    elif edit == "response sum":
        response = rep.xi[m][lam]
        victim = rng.choice(sorted(response))
        response[victim] -= _tiny(rng)
    elif edit == "unknown outcome":
        rep.xi[m][lam]["?"] = rng.choice((0, ZERO))
    elif edit == "unknown ontic":
        rep.mu[p]["?"] = rng.choice((0, ZERO))
    elif edit == "missing response":
        del rep.xi[m][lam]
    else:
        rep.ontic += ("lu",)
        for family in rep.xi.values():
            family["lu"] = dict(family[rep.ontic[0]])


# ---------------------------------------------------------------------------
# The plain-Fraction loops the integer paths replaced
# ---------------------------------------------------------------------------


def _reference_validate(rep):
    out = []
    target = rep.target
    values = set(rep.ontic)
    if len(values) != len(rep.ontic):
        out.append("duplicate ontic values")
    if set(rep.mu) != set(target.preparations):
        out.append("preparation distributions do not match target preparations")
    if set(rep.xi) != set(target.measurements):
        out.append("response families do not match target measurements")
    for p, dist in rep.mu.items():
        if set(dist) - values:
            out.append(f"mu[{p!r}] uses unknown ontic values")
        if any(w < 0 for w in dist.values()):
            out.append(f"mu[{p!r}] has a negative weight")
        if sum(dist.values(), start=ZERO) != ONE:
            out.append(f"mu[{p!r}] does not sum to 1")
    for m, family in rep.xi.items():
        meas = target.measurements.get(m)
        if meas is None:
            continue
        if set(family) != values:
            out.append(f"xi[{m!r}] missing some ontic values")
        for lam, dist in family.items():
            if set(dist) - set(meas.outcomes):
                out.append(f"xi[{m!r}][{lam!r}] uses unknown outcomes")
            if any(w < 0 for w in dist.values()):
                out.append(f"xi[{m!r}][{lam!r}] has a negative weight")
            if sum(dist.values(), start=ZERO) != ONE:
                out.append(f"xi[{m!r}][{lam!r}] does not sum to 1")
    reached = {lam for dist in rep.mu.values() for lam, w in dist.items() if w > 0}
    for lam in rep.ontic:
        if lam not in reached:
            out.append(f"ontic value {lam!r} unreachable by every preparation")
    return out


def _reference_realized(rep, prep, meas):
    try:
        family = rep.xi[meas]
    except KeyError:
        raise RepresentationError(f"no response family for {meas!r}") from None
    weights = {}
    for lam, w in rep.mu_of(prep).items():
        if w == 0:
            continue
        try:
            response = family[lam]
        except KeyError:
            raise RepresentationError(
                f"xi[{meas!r}] has no response for ontic value {lam!r}"
            ) from None
        for k, x in response.items():
            weights[k] = weights.get(k, ZERO) + w * x
    return {k: w for k, w in weights.items() if w != 0}


def _reference_verify_realization(rep):
    target = rep.target
    for p in target.preparations:
        for m in sorted(target.measurements):
            stats = target.distribution(p, m)
            realized = _reference_realized(rep, p, m)
            for k in target.measurements[m].outcomes:
                if realized.get(k, ZERO) != stats.get(k, ZERO):
                    return False, (p, m, k)
    return True, None


def _reference_marginal(meas, dist, sub_labels):
    out = {}
    for k, w in dist.items():
        if w == 0:
            continue
        key = meas.project(sub_labels, k)
        out[key] = out.get(key, ZERO) + w
    return out


def _reference_parameter_independence(rep):
    target = rep.target
    for a, b in itertools.combinations(sorted(target.measurements), 2):
        ma, mb = target.measurements[a], target.measurements[b]
        shared = tuple(sorted(set(ma.labels) & set(mb.labels)))
        if not shared:
            continue
        for lam in rep.ontic:
            if _reference_marginal(ma, rep.xi[a][lam], shared) != _reference_marginal(
                mb, rep.xi[b][lam], shared
            ):
                return a, b, lam, shared
    return None


def _elementary_by_label(target):
    out = {}
    for name in sorted(target.measurements):
        meas = target.measurements[name]
        if len(meas.labels) == 1:
            out.setdefault(meas.labels[0], name)
    return out


def _reference_factorizability(rep):
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
            for k in meas.outcomes:
                product = ONE
                for x in meas.labels:
                    ex = target.measurements[elem[x]]
                    kx = ex.outcome_of(meas.project((x,), k))
                    product *= rep.xi[elem[x]][lam].get(kx, ZERO)
                    if product == 0:
                        break
                if rep.xi[m][lam].get(k, ZERO) != product:
                    return m, lam, k
    return None


def _reference_preparation_nc(rep):
    for cls in _reference_preparation_classes(rep.target):
        base = rep.mu_of(cls[0])
        for other in cls[1:]:
            b = rep.mu_of(other)
            if any(base.get(k, ZERO) != b.get(k, ZERO) for k in set(base) | set(b)):
                return cls[0], other
    return None


def _reference_measurement_nc(rep):
    for cls in _reference_outcome_pair_classes(rep.target):
        m0, k0 = cls[0]
        for m1, k1 in cls[1:]:
            for lam in rep.ontic:
                if rep.xi[m0][lam].get(k0, ZERO) != rep.xi[m1][lam].get(k1, ZERO):
                    return (m0, k0), (m1, k1), lam
    return None


def _reference_determinism(rep, names):
    for m in names:
        for lam in rep.ontic:
            for k, w in rep.xi[m][lam].items():
                if w != 0 and w != 1:
                    return m, lam, k
    return None


def _reference_sections(rep):
    system, _ = empirical_system(rep.target)
    minimal = system.labels
    assignments = list(global_outcome_tuples(system))
    sections = {}
    for p in rep.target.preparations:
        weights = {}
        for values in assignments:
            total = ZERO
            for lam, w in rep.mu_of(p).items():
                if w == 0:
                    continue
                product = w
                for m, k in zip(minimal, values):
                    product *= rep.xi[m][lam].get(k, ZERO)
                    if product == 0:
                        break
                total += product
            if total != 0:
                weights[values] = total
        sections[p] = weights
    return sections


def _reference_preparation_classes(target):
    names = sorted(target.measurements)

    def key(p):
        return tuple(tuple(sorted(target.distribution(p, m).items())) for m in names)

    return partition(sorted(target.preparations), key)


def _reference_outcome_pair_classes(target):
    preps = sorted(target.preparations)
    pairs = [(m, k) for m in sorted(target.measurements) for k in target.measurements[m].outcomes]

    def key(pair):
        m, k = pair
        return tuple(target.distribution(p, m).get(k, ZERO) for p in preps)

    return partition(pairs, key)


def _reference_equivalence_classes(theory, kind):
    system = theory.system
    if kind == "state":
        def state_key(name):
            table = theory.state(name).table
            return tuple(tuple(table[ctx].items()) for ctx in system.cover)
        return partition(sorted(theory.states), state_key)
    require_no_signalling(theory)
    states = sorted(theory.states)
    marginals = {m: [label_marginal(theory, s, m) for s in states] for m in system.labels}
    if kind == "measurement":
        def label_key(label):
            outs = system.outcomes_of(label).labels
            return (outs, tuple(tuple(marg.get(o, ZERO) for o in outs) for marg in marginals[label]))
        return partition(list(system.labels), label_key)
    pairs = [(m, o) for m in system.labels for o in system.outcomes_of(m).labels]

    def pair_key(pair):
        m, o = pair
        return tuple(marg.get(o, ZERO) for marg in marginals[m])

    return partition(pairs, pair_key)


# ---------------------------------------------------------------------------
# Outputs, errors included
# ---------------------------------------------------------------------------


def _result(f, *args):
    """``f(*args)``, or the type and text of the model error it raises."""
    try:
        return f(*args)
    except (ModelError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def _realized_all(rep, realized):
    return [
        (p, m, _result(lambda: list(realized(rep, p, m).items())))
        for p in rep.target.preparations
        for m in sorted(rep.target.measurements)
    ]


def _marginals_all(rep, marginal):
    out = []
    for name in sorted(rep.target.measurements):
        meas = rep.target.measurements[name]
        for sub in sub_contexts(tuple(sorted(meas.labels))):
            for lam, dist in sorted(rep.xi[name].items()):
                out.append((name, sub, lam, list(marginal(meas, dist, sub).items())))
    return out


def _induced(rep):
    """Sections and tables of the induced theory, in dict order."""
    theory, sections = induced_theory(rep)
    return (
        [(p, list(d.weights.items())) for p, d in sections.items()],
        [
            (s, ctx, list(d.weights.items()))
            for s, state in theory.states.items()
            for ctx, d in state.table.items()
        ],
        [equivalence_classes(theory, kind).classes for kind in ("state", "measurement", "outcome-pair")],
    )


def _reference_induced(rep):
    if (
        _reference_preparation_nc(rep)
        or _reference_measurement_nc(rep)
        or _reference_factorizability(rep)
    ):
        raise RepresentationError("representation must be factorizable and non-contextual")
    try:
        system, _ = empirical_system(rep.target)
    except ModelError as exc:
        raise RepresentationError(str(exc)) from None
    sections = {
        p: RationalDistribution(domain=system.labels, weights=w)
        for p, w in _reference_sections(rep).items()
    }
    tables = [
        (p, ctx, list(marginal_weights(sections[p], ctx).items()))
        for p in rep.target.preparations
        for ctx in system.cover
    ]
    theory, _ = induced_theory(rep)
    return (
        [(p, list(d.weights.items())) for p, d in sections.items()],
        tables,
        [
            _reference_equivalence_classes(theory, kind)
            for kind in ("state", "measurement", "outcome-pair")
        ],
    )


def test_representation_layer_matches_golden_digest():
    # sha256 over 40 seeded representations: validation messages, realized
    # distributions, the realization check, both class partitions of the
    # target, every response's pushforward onto every sub-measurement, the
    # factorizability and parameter-independence witnesses, the full report,
    # and the induced sections, tables and equivalence classes; weights in
    # dict order throughout, and errors by type and text
    digest = hashlib.sha256()
    rng = random.Random(26)
    for _ in range(40):
        rep = _representation(rng)
        valid = not validate_representation(rep)
        outputs = [
            validate_representation(rep),
            _realized_all(rep, realized_distribution),
            _result(verify_realization, rep),
            preparation_classes(rep.target),
            outcome_pair_classes(rep.target),
        ]
        if valid:
            outputs += [
                _marginals_all(rep, Measurement.marginal),
                _result(ontology._factorizability_witness, rep),
                _result(ontology._parameter_independence_witness, rep),
                _result(analyze_representation, rep),
                _result(_induced, rep),
            ]
        digest.update(repr(outputs).encode())
    assert digest.hexdigest() == (
        "876233cbb0ee9cf466ea2b87a6311676068d7a8dcbc5fe1b854dee28fbf9a7e0"
    )


# ---------------------------------------------------------------------------
# Properties against the plain-Fraction loops
# ---------------------------------------------------------------------------

_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60)
@given(_SEEDS)
def test_validation_and_realization_match_fraction_loops(seed):
    rep = _representation(random.Random(seed))
    assert validate_representation(rep) == _reference_validate(rep)
    got = _realized_all(rep, realized_distribution)
    assert got == _realized_all(rep, _reference_realized)
    assert all(
        type(w) is Fraction for _, _, r in got if isinstance(r, list) for _, w in r
    )
    assert _result(verify_realization, rep) == _result(_reference_verify_realization, rep)


@settings(max_examples=60)
@given(_SEEDS)
def test_partition_keys_match_fraction_keys(seed):
    target = _representation(random.Random(seed)).target
    assert preparation_classes(target) == _reference_preparation_classes(target)
    assert outcome_pair_classes(target) == _reference_outcome_pair_classes(target)


@settings(max_examples=60)
@given(_SEEDS)
def test_witnesses_and_pushforwards_match_fraction_loops(seed):
    rep = _representation(random.Random(seed))
    if validate_representation(rep):
        return
    assert _marginals_all(rep, Measurement.marginal) == _marginals_all(
        rep, _reference_marginal
    )
    assert _result(ontology._factorizability_witness, rep) == _result(
        _reference_factorizability, rep
    )
    assert _result(ontology._parameter_independence_witness, rep) == _result(
        _reference_parameter_independence, rep
    )
    assert ontology.preparation_nc_witness(rep) == _reference_preparation_nc(rep)
    assert _result(ontology.measurement_nc_witness, rep) == _result(
        _reference_measurement_nc, rep
    )
    names = sorted(rep.target.measurements)
    assert ontology._determinism_witness(rep, names) == _reference_determinism(rep, names)


@settings(max_examples=60)
@given(_SEEDS)
def test_induced_theory_matches_the_fraction_product(seed):
    rep = _representation(random.Random(seed))
    if validate_representation(rep):
        return
    got = _result(_induced, rep)
    assert got == _result(_reference_induced, rep)
    if not isinstance(got[0], str):
        assert all(type(w) is Fraction for _, weights in got[0] for _, w in weights)


# ---------------------------------------------------------------------------
# Int weights
# ---------------------------------------------------------------------------


def test_int_weights_read_as_n_over_1():
    assert integer_weights({"a": 3, "b": Fraction(1, 2), "c": 0}) == (
        {"a": 6, "b": 1, "c": 0},
        2,
    )
    assert integer_weights({"a": 1}) == ({"a": 1}, 1)
    assert integer_weights({}) == ({}, 1)
    joint = (("0,0", ("0", "0")), ("1,1", ("1", "1")))
    meas = Measurement("a,b", ("a", "b"), ("0,0", "1,1"), joint)
    assert meas.integer_marginal({"0,0": 1, "1,1": 0}, ("b",)) == ({("0",): 1}, 1)
    assert meas.marginal({"0,0": 1, "1,1": 0}, ("b",)) == {("0",): ONE}


_WEIGHT_MAPS = st.dictionaries(
    st.sampled_from("abc"),
    st.one_of(
        st.integers(-2, 2),
        st.fractions(max_denominator=6),
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from(_PRIMES)),
    ),
    max_size=3,
)


@given(_WEIGHT_MAPS, _WEIGHT_MAPS)
def test_integer_weights_equal_is_fraction_map_equality(a, b):
    want = {k: Fraction(w) for k, w in a.items()} == {
        k: Fraction(w) for k, w in b.items()
    }
    assert integer_weights_equal(integer_weights(a), integer_weights(b)) == want
    assert integer_weights_equal(integer_weights(a), integer_weights(dict(a)))


@given(_SEEDS)
def test_int_weights_give_what_their_fraction_twins_give(seed):
    # the same representation with every weight of 0 or 1 written as an int
    # and as a Fraction
    rep = _representation(random.Random(seed))

    def retyped(to):
        def weights(dist):
            return {k: to(w) if Fraction(w).denominator == 1 else w for k, w in dist.items()}

        return OntologicalRepresentation(
            ontic=rep.ontic,
            mu={p: weights(d) for p, d in rep.mu.items()},
            xi={m: {lam: weights(d) for lam, d in f.items()} for m, f in rep.xi.items()},
            target=rep.target,
        )

    as_int, as_fraction = retyped(int), retyped(Fraction)

    def outputs(r):
        out = [
            validate_representation(r),
            _realized_all(r, realized_distribution),
            _result(verify_realization, r),
        ]
        if not out[0]:
            out += [_result(analyze_representation, r), _result(_induced, r)]
        return out

    assert outputs(as_int) == outputs(as_fraction)
