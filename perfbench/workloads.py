"""The three workloads: their inputs, their op and the oracle on each op.

Each workload yields *passes*, lists of inputs with a fixed composition.
A run always finishes the pass it started, so every run sees the same mix
of input kinds however long its ops take.

The op calls the public API through module attributes
(``sheaf.check_contextuality``), so a traced run sees every layer.  The
oracle and the input fingerprints use functions imported here by name
before any tracing starts, so checking is never charged to a layer.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

from ctxcheck import equivalence, generate, ontology, quantum, serialize, sheaf
from ctxcheck.linprog import certificate_margin, verify_certificate
from ctxcheck.model import (
    EmpiricalTheory,
    RationalDistribution,
    State,
    system_type,
    validate_theory,
)
from ctxcheck.serialize import (
    dump_document,
    representation_to_document,
    theory_to_document,
)
from ctxcheck.sheaf import verify_global_section


@dataclass
class Item:
    """One op's input, with what the oracle needs to judge its output."""

    kind: str
    payload: object
    expect: dict = field(default_factory=dict)
    fingerprint: str = ""


@dataclass
class Facts:
    """Input properties of one op, recorded beside its timing."""

    contextual: bool | None = None
    lp_variables: int | None = None
    lp_rows: int | None = None
    lp_nonzeros: int | None = None


def _digest(doc: dict) -> str:
    return hashlib.sha256(dump_document(doc).encode()).hexdigest()


def _lp_facts(verdict) -> Facts:
    lp = verdict.system
    if lp is None:
        return Facts(contextual=verdict.contextual)
    return Facts(
        contextual=verdict.contextual,
        lp_variables=len(lp.variables),
        lp_rows=len(lp.constraints),
        lp_nonzeros=sum(len(c.coeffs) for c in lp.constraints),
    )


class Workload:
    """Inputs of one seed as an endless, replayable sequence of passes.

    ``setup`` draws the first ``setup_passes`` passes; later passes are
    drawn between ops, outside any op's time.  ``passes`` called again
    replays the same inputs.
    """

    setup_passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def passes(self, tracer=None):
        raise NotImplementedError

    def setup(self, tracer=None) -> None:
        self._stream = self.passes(tracer)
        self._ready = [next(self._stream) for _ in range(self.setup_passes)]

    def first_passes(self):
        """The passes drawn by ``setup``, then the rest of the same stream."""
        yield from self._ready
        self._ready = []
        yield from self._stream


def _check_verdict(item: Item, verdict) -> list[str]:
    """Oracle for one ``check_contextuality`` verdict."""
    theory, _ = item.payload
    want = item.expect["contextual"]
    if verdict.contextual != want:
        return [f"verdict {verdict.contextual}, expected {want}"]
    if verdict.mode == "possibilistic":
        if bool(verdict.blocked) != want:
            return ["blocked sections disagree with the verdict"]
        return []
    if want:
        if not verify_certificate(verdict.system, verdict.certificate):
            return ["certificate does not verify"]
        if certificate_margin(verdict.system, verdict.certificate) != verdict.margin:
            return ["margin is not the certificate's margin"]
        pinned = item.expect.get("margin")
        if pinned is not None and verdict.margin != pinned:
            return [f"margin {verdict.margin}, pinned {pinned}"]
        if verdict.margin <= 0:
            return [f"margin {verdict.margin} is not positive"]
        return []
    return verify_global_section(theory, verdict.sections)


def _check_contextuality(item: Item):
    theory, mode = item.payload
    return sheaf.check_contextuality(theory, mode=mode)


# ---------------------------------------------------------------------------
# declared
# ---------------------------------------------------------------------------

PINNED_MARGINS = {
    "bell": Fraction(5, 16),
    "mermin": Fraction(1, 4),
    "spekkens-preparation": Fraction(73, 168),
    "spekkens-unsharp": Fraction(5, 12),
    "specker-triangle": Fraction(1, 2),
}
PINNED_POSSIBILISTIC = {
    "bell": False,
    "mermin": True,
    "spekkens-preparation": False,
    "specker-triangle": True,
}
UNDECLARED = ("spekkens-preparation", "spekkens-unsharp")


class Declared(Workload):
    """The bundled scenarios, the same 11 checks in every pass.

    Per pass: the five scenarios with their declarations (all contextual,
    pinned margins), both spekkens scenarios without declarations
    (feasible), and the four possibilistic checks with pinned verdicts.
    The seed fixes the order of the checks within a pass.
    """

    name = "declared"

    def passes(self, tracer=None):
        examples = {n: quantum.builtin_example(n) for n in quantum.BUILTIN_NAMES}
        items = []
        for name, ex in examples.items():
            items.append(
                Item(
                    kind=name,
                    payload=(ex.theory, "probabilistic"),
                    expect={
                        "contextual": ex.expected["probabilistic_contextual"],
                        "margin": PINNED_MARGINS[name],
                    },
                )
            )
        for name in UNDECLARED:
            feasible = examples[name].expected["feasible_without_declarations"]
            items.append(
                Item(
                    kind=f"{name}/undeclared",
                    payload=(quantum.without_declarations(examples[name].theory), "probabilistic"),
                    expect={"contextual": not feasible},
                )
            )
        for name, pinned in PINNED_POSSIBILISTIC.items():
            if examples[name].expected["possibilistic_contextual"] != pinned:
                raise RuntimeError(f"{name}: bundled possibilistic verdict moved")
            items.append(
                Item(
                    kind=f"{name}/possibilistic",
                    payload=(examples[name].theory, "possibilistic"),
                    expect={"contextual": pinned},
                )
            )
        for item in items:
            theory, mode = item.payload
            item.fingerprint = _digest(theory_to_document(theory)) + mode
        random.Random(self.seed).shuffle(items)
        while True:
            yield list(items)

    run = staticmethod(_check_contextuality)
    check = staticmethod(_check_verdict)
    facts = staticmethod(_lp_facts)


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

# (kind, n, count per pass), in rising order of op time.  Feasible rings of
# one size vary least in solve time, so the median sits in the middle of the
# eight feasible n = 5 rings and the 90th percentile inside the feasible
# n = 7 group, rather than on the edge between two kinds of ring.  Feasible
# n = 8 is left out: its solve time ranges from 1.9 to 3.6 s with the drawn
# weights, and the five a 30 s run had room for moved ops_per_s by 7% from
# seed to seed.
RING_PASS = (
    ("frustrated", 5, 3),
    ("frustrated", 6, 2),
    ("frustrated", 7, 2),
    ("feasible", 5, 8),
    ("frustrated", 8, 2),
    ("feasible", 6, 1),
    ("frustrated", 9, 1),
    ("feasible", 7, 4),
)


def _ring_system(n: int):
    names = tuple(f"x{i}" for i in range(n))
    return system_type(
        {m: ("0", "1") for m in names},
        tuple((names[i], names[(i + 1) % n]) for i in range(n)),
    )


def feasible_ring(rng: random.Random, n: int) -> EmpiricalTheory:
    """Marginals of one strictly positive distribution: always feasible."""
    system = _ring_system(n)
    return generate.theory_from_sections(
        system, generate.random_sections(rng, system, ("s0",))
    )


def frustrated_ring(rng: random.Random, n: int) -> EmpiricalTheory:
    """A ring with one anti-correlated edge and up to 1/10 noise per edge.

    Each edge is violated with probability noise <= 1/10, and an n-cycle
    with an odd number of anti-correlated edges is noncontextual only when
    these probabilities sum to at least 1 (the n-cycle inequalities of
    Araujo et al., PRA 88, 022118).  For n <= 9 they sum to at most 9/10,
    so every ring built here is contextual.
    """
    if n > 9:
        raise ValueError("rings above n = 9 could be noncontextual")
    system = _ring_system(n)
    anti = rng.randrange(n)
    table = {}
    for i, ctx in enumerate(system.cover):
        noise = Fraction(rng.randint(0, 2), 20)
        same = (1 - noise) / 2 if i != anti else noise / 2
        differ = Fraction(1, 2) - same
        table[ctx] = RationalDistribution(
            domain=ctx,
            weights={("0", "0"): same, ("1", "1"): same, ("0", "1"): differ, ("1", "0"): differ},
        )
    theory = EmpiricalTheory(system=system, states={"s0": State(name="s0", table=table)})
    problems = validate_theory(theory)
    if problems:
        raise ValueError("; ".join(problems))
    return theory


class Rings(Workload):
    """Seeded binary n-cycles, a fresh ring for every op."""

    name = "rings"
    setup_passes = 8

    def passes(self, tracer=None):
        rng = random.Random(self.seed)
        while True:
            kinds = [(kind, n) for kind, n, count in RING_PASS for _ in range(count)]
            rng.shuffle(kinds)
            items = []
            for kind, n in kinds:
                with tracer.span("generate") if tracer is not None else nullcontext():
                    if kind == "feasible":
                        theory = feasible_ring(rng, n)
                    else:
                        theory = frustrated_ring(rng, n)
                items.append(
                    Item(
                        kind=f"{kind}-{n}",
                        payload=(theory, "probabilistic"),
                        expect={"contextual": kind == "frustrated"},
                        fingerprint=_digest(theory_to_document(theory)),
                    )
                )
            yield items

    run = staticmethod(_check_contextuality)
    check = staticmethod(_check_verdict)
    facts = staticmethod(_lp_facts)


# ---------------------------------------------------------------------------
# represent
# ---------------------------------------------------------------------------

REPRESENT_PASS = 20

# Flags canonical_representation promises by construction; measurement
# noncontextuality is not among them.
CANONICAL_FLAGS = (
    "realizes",
    "preparation_nc",
    "outcome_deterministic",
    "parameter_independent",
    "factorizable",
)
ALL_FLAGS = CANONICAL_FLAGS + ("measurement_nc",)


@dataclass
class RepresentOutput:
    rep: object
    report: object
    theory: EmpiricalTheory
    sections: dict
    canonical_report: object
    duplicated: EmpiricalTheory
    minimal: EmpiricalTheory
    minimal_map: object
    quotient: EmpiricalTheory


class Represent(Workload):
    """Seeded factorizable representations through the whole pipeline."""

    name = "represent"
    setup_passes = 10

    def passes(self, tracer=None):
        rng = random.Random(self.seed)
        while True:
            items = []
            for _ in range(REPRESENT_PASS):
                rep = generate.random_factorizable_representation(rng)
                items.append(
                    Item(
                        kind="representation",
                        payload=(rep, rng.randrange(2**32)),
                        fingerprint=_digest(representation_to_document(rep)),
                    )
                )
            yield items

    @staticmethod
    def run(item: Item) -> RepresentOutput:
        rep, dup_seed = item.payload
        text = serialize.dump_document(serialize.representation_to_document(rep))
        loaded = serialize.representation_from_document(serialize.load_document(text))
        report = ontology.analyze_representation(loaded)
        theory, sections = ontology.induced_theory(loaded)
        canonical = ontology.canonical_representation(theory, sections)
        canonical_report = ontology.analyze_representation(canonical)
        duplicated = generate.duplicated_label_theory(random.Random(dup_seed), theory)
        minimal, minimal_map = equivalence.minimalize(duplicated)
        quotient, _ = equivalence.quotient_theory(duplicated)
        return RepresentOutput(
            loaded, report, theory, sections, canonical_report,
            duplicated, minimal, minimal_map, quotient,
        )

    @staticmethod
    def check(item: Item, out: RepresentOutput) -> list[str]:
        rep, _ = item.payload
        problems = []
        if out.rep != rep:
            problems.append("JSON round trip changed the representation")
        problems += [f"input lacks {f}" for f in ALL_FLAGS if not getattr(out.report, f)]
        problems += [
            f"canonical representation lacks {f}"
            for f in CANONICAL_FLAGS
            if not getattr(out.canonical_report, f)
        ]
        problems += verify_global_section(out.theory, out.sections)
        if len(out.duplicated.system.labels) != len(out.theory.system.labels) + 1:
            problems.append("duplicated theory does not add exactly one label")
        for name, smaller, larger in (
            ("minimal", out.minimal, out.minimal_map.split_theory),
            ("quotient", out.quotient, out.duplicated),
        ):
            problems += [f"{name}: {p}" for p in validate_theory(smaller)]
            if len(smaller.system.labels) > len(larger.system.labels):
                problems.append(f"{name} theory has more labels than its input")
        return problems

    @staticmethod
    def facts(out: RepresentOutput) -> Facts:
        return Facts()


WORKLOADS = {w.name: w for w in (Declared, Rings, Represent)}
