"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
wrapper, at every ``ctxcheck`` module attribute bound to it (``ontology``
imports ``verify_global_section`` from ``sheaf`` under the same name, so
patching ``sheaf`` alone would miss that caller).  ``Tracer.remove`` puts
the originals back.  Solver internals (presolve, component split, pivots,
certificate patching) are private functions, so their time shows up as
``linprog.solve_feasibility`` self time.

A span is ``[id, name, start, end, close, parent, op]``.  ``end`` is taken
when the wrapped call returns; ``close`` after the span's counts are taken,
so the cost of counting is charged to no layer.  A layer's self time is
``end - start`` minus the ``close - start`` of each of its children.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager

from ctxcheck.linprog import Feasible, Infeasible


def _max_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _count_system(tracer, span, args, result) -> None:
    tracer.count("sheaf.lp_variables", len(result.variables))
    tracer.count("sheaf.lp_rows", len(result.constraints))
    tracer.count("sheaf.lp_nonzeros", sum(len(c.coeffs) for c in result.constraints))


def _count_solve(tracer, span, args, result) -> None:
    if isinstance(result, Feasible):
        span[1] += ".feasible"
        tracer.maximum("linprog.result_max_bits", _max_bits(result.point.values()))
    elif isinstance(result, Infeasible):
        span[1] += ".infeasible"
        multipliers = result.certificate.multipliers
        tracer.count("linprog.certificate_support", len(multipliers))
        tracer.maximum("linprog.result_max_bits", _max_bits(multipliers.values()))


def _count_canonical(tracer, span, args, result) -> None:
    tracer.count("ontology.ontic_states", len(result.ontic))


def _count_quotient(tracer, span, args, result) -> None:
    tracer.count("equivalence.labels_in", len(args[0].system.labels))
    tracer.count("equivalence.labels_out", len(result[0].system.labels))


def _count_dump(tracer, span, args, result) -> None:
    tracer.count("serialize.bytes", len(result.encode()))


# (module, function) -> (span name, count hook)
LAYERS = {
    ("ctxcheck.sheaf", "check_contextuality"): ("sheaf.check_contextuality", None),
    ("ctxcheck.sheaf", "require_no_signalling"): ("sheaf.require_no_signalling", None),
    ("ctxcheck.sheaf", "global_section_system"): (
        "sheaf.global_section_system",
        _count_system,
    ),
    ("ctxcheck.sheaf", "extract_sections"): ("sheaf.extract_sections", None),
    ("ctxcheck.sheaf", "verify_global_section"): ("sheaf.verify_global_section", None),
    ("ctxcheck.linprog", "solve_feasibility"): ("linprog.solve_feasibility", _count_solve),
    ("ctxcheck.linprog", "verify_point"): ("linprog.verify_point", None),
    ("ctxcheck.linprog", "verify_certificate"): ("linprog.verify_certificate", None),
    ("ctxcheck.linprog", "certificate_margin"): ("linprog.certificate_margin", None),
    ("ctxcheck.ontology", "analyze_representation"): (
        "ontology.analyze_representation",
        None,
    ),
    ("ctxcheck.ontology", "induced_theory"): ("ontology.induced_theory", None),
    ("ctxcheck.ontology", "canonical_representation"): (
        "ontology.canonical_representation",
        _count_canonical,
    ),
    ("ctxcheck.equivalence", "minimalize"): ("equivalence.minimalize", None),
    ("ctxcheck.equivalence", "quotient_theory"): (
        "equivalence.quotient_theory",
        _count_quotient,
    ),
    ("ctxcheck.equivalence", "observable_split"): ("equivalence.observable_split", None),
    ("ctxcheck.bridge", "to_operational"): ("bridge.to_operational", None),
    ("ctxcheck.serialize", "representation_to_document"): ("serialize.dump", None),
    ("ctxcheck.serialize", "dump_document"): ("serialize.dump", _count_dump),
    ("ctxcheck.serialize", "load_document"): ("serialize.load", None),
    ("ctxcheck.serialize", "representation_from_document"): ("serialize.load", None),
    ("ctxcheck.quantum", "builtin_example"): ("quantum.builtin_example", None),
    ("ctxcheck.generate", "random_sections"): ("generate", None),
    ("ctxcheck.generate", "theory_from_sections"): ("generate", None),
    ("ctxcheck.generate", "random_factorizable_representation"): ("generate", None),
    ("ctxcheck.generate", "duplicated_label_theory"): ("generate", None),
}


def ctxcheck_attributes() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every loaded ctxcheck module."""
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "ctxcheck" or name.startswith("ctxcheck.")
        for attr, value in vars(module).items()
    }


class Tracer:
    """Spans and counts of one run, kept in memory until the run ends.

    Times come from ``clock.now()``, which leaves out the host-speed
    samples.  ``op`` is the id of the op in progress: an int during a timed op,
    ``"setup"`` during set-up, ``None`` between ops.  Counts are kept only
    for timed ops.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: int) -> None:
        if isinstance(self.op, int):
            self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: int) -> None:
        if isinstance(self.op, int):
            self.maxima[name] = max(self.maxima.get(name, 0), value)

    def _open(self, name: str) -> list:
        span = [
            len(self.spans),
            name,
            0.0,
            0.0,
            0.0,
            self._stack[-1] if self._stack else None,
            self.op,
        ]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = self.clock.now()
        return span

    def _end(self, span: list) -> None:
        span[3] = span[4] = self.clock.now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side work, such as input generation."""
        span = self._open(name)
        try:
            yield
        finally:
            self._end(span)

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if hook is not None:
                hook(tracer, span, args, result)
                span[4] = tracer.clock.now()
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "ctxcheck" or name.startswith("ctxcheck.")
        ]
        for (module_name, attr), (name, hook) in LAYERS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, alias, original))
                        setattr(module, alias, wrapper)

    def remove(self) -> None:
        while self._patched:
            module, alias, original = self._patched.pop()
            setattr(module, alias, original)

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> dict[tuple[object, str], float]:
        """Self time per (op, span name), in wall seconds."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[5] is not None:
                covered[span[5]] += span[4] - span[2]
        out: dict[tuple[object, str], float] = {}
        for span in self.spans:
            key = (span[6], span[1])
            out[key] = out.get(key, 0.0) + (span[3] - span[2]) - covered[span[0]]
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[5], "op": s[6]}
            for s in self.spans
        ]
