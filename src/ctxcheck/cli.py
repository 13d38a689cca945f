"""Command line front end.

Scenario, section and representation files are the JSON documents of
:mod:`ctxcheck.serialize`.  Exit status 0 means the check passed (or the
input is non-contextual), 2 means contextual / failed verification, and
1 reports an input problem such as signalling tables or a usage error.
"""

from __future__ import annotations

import argparse
import random
import sys

from ctxcheck.equivalence import minimalize, quotient_theory
from ctxcheck.generate import random_instance
from ctxcheck.linprog import is_robust
from ctxcheck.model import ModelError, format_rational
from ctxcheck.ontology import (
    RepresentationError,
    analyze_representation,
    canonical_representation,
    induced_theory,
)
from ctxcheck.quantum import BUILTIN_NAMES, builtin_example
from ctxcheck.serialize import (
    DocumentError,
    dump_document,
    load_document,
    representation_from_document,
    representation_to_document,
    scenario_from_document,
    sections_from_document,
    sections_to_document,
    theory_to_document,
)
from ctxcheck.sheaf import check_contextuality, verify_global_section

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONTEXTUAL = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_scenario(args):
    doc = load_document(_read_text(args.file))
    return scenario_from_document(doc, args.max_denominator)


def _emit(doc: dict) -> None:
    sys.stdout.write(dump_document(doc))


def _cmd_check(args) -> int:
    theory, bound = _load_scenario(args)
    verdict = check_contextuality(theory, mode=args.mode)
    robust = None
    if verdict.margin is not None:
        robust = is_robust(verdict.margin, verdict.constraint_count, bound)
    if args.json:
        payload = {
            "verdict": "contextual" if verdict.contextual else "non-contextual",
            "mode": verdict.mode,
            "variables": verdict.variable_count,
            "constraints": verdict.constraint_count,
            "perturbation_bound": format_rational(bound),
        }
        if verdict.margin is not None:
            payload["margin"] = format_rational(verdict.margin)
            payload["robust"] = robust
        if verdict.certificate is not None:
            payload["certificate"] = {
                name: format_rational(y)
                for name, y in sorted(verdict.certificate.multipliers.items())
            }
        if verdict.sections is not None:
            payload["sections"] = sections_to_document(theory, verdict.sections)
        if verdict.boolean_sections is not None:
            payload["supported_assignments"] = {
                s: [",".join(g) for g in rows]
                for s, rows in verdict.boolean_sections.items()
            }
        if verdict.blocked:
            payload["blocked"] = [
                {"state": s, "context": list(ctx), "values": list(v)}
                for s, ctx, v in verdict.blocked
            ]
        _emit(payload)
    else:
        print(("CONTEXTUAL" if verdict.contextual else "NON-CONTEXTUAL") + f" ({verdict.mode})")
        print(f"variables: {verdict.variable_count}  constraints: {verdict.constraint_count}")
        if verdict.certificate is not None:
            print("infeasibility certificate (constraint: multiplier):")
            for name, y in sorted(verdict.certificate.multipliers.items()):
                print(f"  {name}: {format_rational(y)}")
            print(f"margin: {format_rational(verdict.margin)}")
            print(f"perturbation bound: {format_rational(bound)}")
            print(f"robust: {'yes' if robust else 'no'}")
        if verdict.sections is not None:
            for s, dist in verdict.sections.items():
                print(f"section for {s!r}: {len(dist.weights)} supported assignments")
        if verdict.boolean_sections is not None and not verdict.contextual:
            for s, rows in verdict.boolean_sections.items():
                print(f"state {s!r}: {len(rows)} fully supported assignments")
        if verdict.blocked:
            print("unextendable supported local sections:")
            for s, ctx, v in verdict.blocked:
                print(f"  state {s!r}: {','.join(ctx)} = {','.join(v)}")
    return EXIT_CONTEXTUAL if verdict.contextual else EXIT_OK


def _cmd_verify(args) -> int:
    theory, _ = _load_scenario(args)
    sections = sections_from_document(theory, load_document(_read_text(args.sections)))
    violations = verify_global_section(theory, sections)
    if args.json:
        _emit({"ok": not violations, "violations": violations})
    elif violations:
        for line in violations:
            print(line)
    else:
        print("section verified")
    return EXIT_OK if not violations else EXIT_CONTEXTUAL


def _cmd_quotient(args) -> int:
    theory, _ = _load_scenario(args)
    small, qmap = quotient_theory(theory)
    merged_labels = [cls for cls in qmap.label_classes if len(cls) > 1]
    merged_states = [cls for cls in qmap.state_classes if len(cls) > 1]
    print(
        f"merged label classes: {merged_labels or 'none'}; "
        f"merged state classes: {merged_states or 'none'}",
        file=sys.stderr,
    )
    _emit(theory_to_document(small))
    return EXIT_OK


def _cmd_minimalize(args) -> int:
    theory, _ = _load_scenario(args)
    small, mmap = minimalize(theory)
    print(
        "identity" if mmap.is_identity() else "reduced",
        file=sys.stderr,
    )
    _emit(theory_to_document(small))
    return EXIT_OK


def _cmd_canonical_rep(args) -> int:
    theory, _ = _load_scenario(args)
    verdict = check_contextuality(theory)
    if verdict.contextual:
        print("scenario is contextual: no representation exists", file=sys.stderr)
        return EXIT_CONTEXTUAL
    rep = canonical_representation(theory, verdict.sections)
    _emit(representation_to_document(rep))
    return EXIT_OK


def _cmd_analyze_rep(args) -> int:
    rep = representation_from_document(load_document(_read_text(args.file)))
    report = analyze_representation(rep)
    flags = {
        "realizes": report.realizes,
        "preparation-noncontextual": report.preparation_nc,
        "measurement-noncontextual": report.measurement_nc,
        "outcome-deterministic": report.outcome_deterministic,
        "parameter-independent": report.parameter_independent,
        "factorizable": report.factorizable,
    }
    if args.json:
        _emit(
            {
                "flags": flags,
                "counterexamples": {
                    key: repr(value) for key, value in report.counterexamples.items()
                },
            }
        )
    else:
        for name, value in flags.items():
            print(f"{name}: {'yes' if value else 'no'}")
        for key, value in sorted(report.counterexamples.items()):
            print(f"witness against {key}: {value}")
    ok = report.realizes and report.noncontextual()
    return EXIT_OK if ok else EXIT_CONTEXTUAL


def _cmd_induce(args) -> int:
    rep = representation_from_document(load_document(_read_text(args.file)))
    theory, sections = induced_theory(rep)
    _emit(
        {
            "scenario": theory_to_document(theory),
            "sections": sections_to_document(theory, sections),
        }
    )
    return EXIT_OK


def _cmd_example(args) -> int:
    if args.name == "random":
        if args.max_denominator is not None:
            raise ModelError("--max-denominator does not apply to 'random'")
        theory = random_instance(random.Random(args.seed))
    else:
        if args.seed is not None:
            raise ModelError(f"--seed applies only to 'random', not {args.name!r}")
        theory = builtin_example(args.name, args.max_denominator).theory
    _emit(theory_to_document(theory))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with ``EXIT_ERROR``: argparse's own status 2
    would read as "contextual".  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctxcheck",
        description="Exact contextuality checks and ontological representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *, max_denominator=True, json=False):
        p = sub.add_parser(name, help=summary)
        if max_denominator:
            p.add_argument(
                "--max-denominator",
                type=int,
                default=None,
                help="denominator bound when rationalizing quantum scenarios",
            )
        if json:
            p.add_argument(
                "--json", action="store_true", help="machine-readable output"
            )
        p.set_defaults(handler=handler)
        return p

    p = command("check", _cmd_check, "decide contextuality", json=True)
    p.add_argument("file", help="scenario file ('-' for stdin)")
    p.add_argument(
        "--mode",
        choices=("probabilistic", "possibilistic"),
        default="probabilistic",
    )

    p = command(
        "verify", _cmd_verify, "check a section file against a scenario", json=True
    )
    p.add_argument("file")
    p.add_argument("sections")

    p = command("quotient", _cmd_quotient, "merge statistically equivalent pieces")
    p.add_argument("file")

    p = command("minimalize", _cmd_minimalize, "split coarse outcomes, then quotient")
    p.add_argument("file")

    p = command(
        "canonical-rep",
        _cmd_canonical_rep,
        "build the canonical representation of a non-contextual scenario",
    )
    p.add_argument("file")

    p = command(
        "analyze-rep",
        _cmd_analyze_rep,
        "six-flag report on a representation",
        max_denominator=False,
        json=True,
    )
    p.add_argument("file")

    p = command(
        "induce",
        _cmd_induce,
        "scenario and section induced by a factorizable representation",
        max_denominator=False,
    )
    p.add_argument("file")

    p = command("example", _cmd_example, "emit a bundled scenario")
    p.add_argument("name", choices=BUILTIN_NAMES + ("random",))
    p.add_argument("--seed", type=int, default=None, help="seed for 'random'")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (DocumentError, RepresentationError, ModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
