"""End-to-end command line checks driven through main(argv) in process, and
in a fresh interpreter where the test is what gets imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxcheck
from ctxcheck import (
    BUILTIN_NAMES,
    builtin_example,
    canonical_representation,
    dump_document,
    find_global_section,
    representation_to_document,
    sections_to_document,
    theory_to_document,
    without_declarations,
)
from ctxcheck.cli import EXIT_CONTEXTUAL, EXIT_ERROR, EXIT_OK, build_parser, main
from ctxcheck.model import ModelError


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_document(doc))
    return str(path)


def _theory_file(tmp_path, name="specker-triangle", strip=False):
    theory = builtin_example(name).theory
    if strip:
        theory = without_declarations(theory)
    return _write(tmp_path, f"{name}.json", theory_to_document(theory)), theory


def test_check_exit_codes_and_json(tmp_path, capsys):
    path, _ = _theory_file(tmp_path)
    assert main(["check", path]) == EXIT_CONTEXTUAL
    out = capsys.readouterr().out
    assert "CONTEXTUAL" in out

    assert main(["check", "--json", path]) == EXIT_CONTEXTUAL
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "contextual"
    assert payload["certificate"]
    assert payload["margin"] == "1/2"

    feasible, _ = _theory_file(tmp_path, "spekkens-preparation", strip=True)
    assert main(["check", "--json", feasible]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "non-contextual"
    assert payload["sections"]


def test_check_possibilistic_mode(tmp_path, capsys):
    path, _ = _theory_file(tmp_path, "mermin")
    assert main(["check", "--mode", "possibilistic", path]) == EXIT_CONTEXTUAL
    assert "possibilistic" in capsys.readouterr().out


def test_check_rejects_missing_and_malformed_files(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check", str(bad)]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_check_rejects_signalling_scenario(tmp_path, capsys):
    # x's marginal is 0 in one context and 1 in the other
    doc = {
        "labels": {"x": ["0", "1"], "y": ["0", "1"], "z": ["0", "1"]},
        "cover": [["x", "y"], ["x", "z"]],
        "states": {
            "s": {
                "x,y": {"0,0": "1"},
                "x,z": {"1,0": "1"},
            }
        },
    }
    path = _write(tmp_path, "signalling.json", doc)
    assert main(["check", path]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    path, theory = _theory_file(tmp_path, "spekkens-preparation", strip=True)
    sections = find_global_section(theory)
    good = _write(tmp_path, "sections.json", sections_to_document(theory, sections))
    assert main(["verify", path, good]) == EXIT_OK

    capsys.readouterr()
    # swapping two states' sections keeps them normalized but breaks marginals
    doc = sections_to_document(theory, sections)
    doc["sections"]["a"], doc["sections"]["b"] = doc["sections"]["b"], doc["sections"]["a"]
    bad = _write(tmp_path, "bad-sections.json", doc)
    assert main(["verify", path, bad]) == EXIT_CONTEXTUAL
    assert capsys.readouterr().out.strip()


def test_quotient_and_minimalize(tmp_path, capsys):
    path, _ = _theory_file(tmp_path)
    assert main(["minimalize", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert "identity" in captured.err
    json.loads(captured.out)

    assert main(["quotient", path]) == EXIT_OK
    captured = capsys.readouterr()
    json.loads(captured.out)


def test_canonical_rep_and_analyze(tmp_path, capsys):
    feasible, _ = _theory_file(tmp_path, "spekkens-preparation", strip=True)
    assert main(["canonical-rep", feasible]) == EXIT_OK
    rep_doc = json.loads(capsys.readouterr().out)
    rep_path = _write(tmp_path, "rep.json", rep_doc)

    assert main(["analyze-rep", rep_path]) == EXIT_OK
    assert "realizes" in capsys.readouterr().out

    assert main(["analyze-rep", "--json", rep_path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["realizes"] is True

    contextual, _ = _theory_file(tmp_path)
    assert main(["canonical-rep", contextual]) == EXIT_CONTEXTUAL
    assert capsys.readouterr().err.strip()


def test_induce_round_trip(tmp_path, capsys):
    feasible, _ = _theory_file(tmp_path, "spekkens-preparation", strip=True)
    assert main(["canonical-rep", feasible]) == EXIT_OK
    rep_path = _write(tmp_path, "rep.json", json.loads(capsys.readouterr().out))
    assert main(["induce", rep_path]) == EXIT_OK
    bundle = json.loads(capsys.readouterr().out)
    assert set(bundle) == {"scenario", "sections"}
    scenario_path = _write(tmp_path, "induced.json", bundle["scenario"])
    assert main(["check", scenario_path]) == EXIT_OK


def test_example_command(tmp_path, capsys):
    assert main(["example", "bell"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["cover"]

    assert main(["example", "random", "--seed", "5"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["example", "random", "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out == first

    with pytest.raises(SystemExit):
        main(["example", "nonesuch"])
    capsys.readouterr()

    # a flag the chosen name would not read, or a bound below 1, is an
    # error, not silently dropped
    for argv in (
        ["bell", "--seed", "3"],
        ["bell", "--max-denominator", "2"],
        ["random", "--seed", "3", "--max-denominator", "2"],
        ["spekkens-unsharp", "--max-denominator", "0"],
    ):
        assert main(["example", *argv]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    with pytest.raises(ModelError, match="'bell' takes no denominator bound"):
        builtin_example("bell", 5)
    assert main(["example", "spekkens-unsharp"]) == EXIT_OK
    default = json.loads(capsys.readouterr().out)
    assert main(["example", "spekkens-unsharp", "--max-denominator", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["states"] != default["states"]


def test_check_quantum_document_via_stdin(tmp_path, capsys, monkeypatch):
    import io

    doc = {
        "labels": {"x": ["0", "1"]},
        "cover": [["x"]],
        "states": {"s": {"x": {"0": "1/3", "1": "2/3"}}},
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(dump_document(doc)))
    assert main(["check", "-"]) == EXIT_OK
    assert "NON-CONTEXTUAL" in capsys.readouterr().out


_ONE, _ZERO = [1, 0], [0, 0]  # complex entries as [re, im]


def _quantum_doc(state=None, effect=None, cover=None):
    """One qubit state measured by one two-outcome label, with one part swapped."""
    return {
        "quantum": {
            "states": {"s": [_ONE, _ZERO] if state is None else state},
            "labels": {
                "z": {
                    "outcomes": ["0", "1"],
                    "effects": [
                        [[_ONE, _ZERO], [_ZERO, _ZERO]] if effect is None else effect,
                        [[_ZERO, _ZERO], [_ZERO, _ONE]],
                    ],
                }
            },
            "cover": [["z"]] if cover is None else cover,
            "max_denominator": 8,
        }
    }


def test_check_quantum_document_from_file(tmp_path, capsys):
    # the document with nothing swapped checks, so each malformed one below
    # fails on its swapped part alone
    path = _write(tmp_path, "qubit.json", _quantum_doc())
    assert main(["check", path]) == EXIT_OK
    assert "NON-CONTEXTUAL" in capsys.readouterr().out


def test_check_rejects_a_max_denominator_flag_below_1(tmp_path, capsys):
    # the flag overrides the file's bound whenever it is given, so a bound
    # below 1 is an error even where the file's own bound is valid
    doc = _quantum_doc()
    doc["quantum"]["max_denominator"] = 100
    path = _write(tmp_path, "qubit.json", doc)
    for bound in ("0", "-3"):
        assert main(["check", "--max-denominator", bound, path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: quantum: max_denominator must be a positive integer "
            "(in the file or via --max-denominator)\n"
        )


def _spoiled_quantum_doc(spoil):
    doc = _quantum_doc()
    spoil(doc["quantum"])
    return doc


def _list_outcome(section):
    section["labels"]["z"]["outcomes"][0] = ["0"]


def _true_max_denominator(section):
    # ``True`` is an int in Python, so it must not be read as 1
    section["max_denominator"] = True


@pytest.mark.parametrize(
    "doc",
    [
        _quantum_doc(state=[5]),
        _quantum_doc(state=[[]]),
        _quantum_doc(state=[[_ONE, _ZERO], [_ZERO]]),  # ragged matrix
        _quantum_doc(effect=[[_ONE, _ZERO, _ZERO], [_ZERO, _ZERO, _ZERO]]),
        _quantum_doc(state=[_ONE, _ZERO, _ZERO]),  # 3-dim state, 2-dim effects
        _quantum_doc(cover=[["z", "q"]]),  # undeclared label
        _quantum_doc(cover=["z"]),  # a context written as a string
        _spoiled_quantum_doc(_list_outcome),
        _spoiled_quantum_doc(_true_max_denominator),
    ],
    ids=[
        "scalar",
        "empty-row",
        "ragged",
        "non-square",
        "dimensions",
        "label",
        "string-context",
        "list-outcome",
        "true-max-denominator",
    ],
)
def test_check_reports_malformed_quantum_documents(tmp_path, capsys, doc):
    path = _write(tmp_path, "bad.json", doc)
    assert main(["check", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1, captured.err


def _first(mapping):
    return next(iter(mapping))


def _rep_doc():
    theory = without_declarations(builtin_example("spekkens-preparation").theory)
    rep = canonical_representation(theory, find_global_section(theory))
    return representation_to_document(rep)


def _drop_outcome_values(doc):
    meas = doc["target"]["measurements"][_first(doc["target"]["measurements"])]
    del meas["outcome_values"][meas["outcomes"][0]]


def _string_mu(doc):
    doc["mu"][_first(doc["mu"])] = "1"


def _unknown_target_outcome(doc):
    statistics = doc["target"]["statistics"]
    table = statistics[_first(statistics)]
    table[_first(table)]["zz"] = "1"


def _ghost_state_mixture(doc):
    target = doc["target"]
    target["convex"] = [
        {
            "kind": "state",
            "target": target["preparations"][0],
            "components": [{"coefficient": "1", "name": "ghost"}],
        }
    ]


def _string_cover_entry(doc):
    # bell's first context ["a", "b"] written "ab", which splits into (a, b)
    doc["cover"][0] = "".join(doc["cover"][0])


def _string_context_table(doc):
    tables = doc["states"][_first(doc["states"])]
    tables[_first(tables)] = "1"


def _string_convex_item(doc):
    doc["convex"] = ["kind"]


def _bell_doc():
    return theory_to_document(builtin_example("bell").theory)


def _list_in_ontic(doc):
    doc["ontic"][0] = [doc["ontic"][0]]


def _list_in_preparations(doc):
    preparations = doc["target"]["preparations"]
    preparations[0] = [preparations[0]]


def _first_measurement(doc):
    return doc["target"]["measurements"][_first(doc["target"]["measurements"])]


def _list_in_measurement_labels(doc):
    labels = _first_measurement(doc)["labels"]
    labels[0] = [labels[0]]


def _list_in_measurement_outcomes(doc):
    outcomes = _first_measurement(doc)["outcomes"]
    outcomes[0] = [outcomes[0]]


def _list_in_measurement_mixture_map(doc):
    doc["convex"] = [
        {
            "kind": "measurement",
            "target": "a",
            "components": [
                {"coefficient": "1/2", "name": "a'"},
                {
                    "coefficient": "1/2",
                    "name": "b",
                    "outcome_map": {"0": ["0"], "1": "1"},
                },
            ],
        }
    ]


def _list_in_state_mixture_map(doc):
    state = _first(doc["states"])
    doc["convex"] = [
        {
            "kind": "state",
            "target": state,
            "components": [
                {"coefficient": "1", "name": state, "outcome_map": {"0": ["0"]}}
            ],
        }
    ]


@pytest.mark.parametrize(
    "command, make_doc, spoil",
    [
        ("analyze-rep", _rep_doc, _drop_outcome_values),
        ("analyze-rep", _rep_doc, _string_mu),
        ("analyze-rep", _rep_doc, _unknown_target_outcome),
        ("analyze-rep", _rep_doc, _ghost_state_mixture),
        ("induce", _rep_doc, _unknown_target_outcome),
        ("check", _bell_doc, _string_context_table),
        ("check", _bell_doc, _string_convex_item),
        ("check", _bell_doc, _string_cover_entry),
        ("analyze-rep", _rep_doc, _list_in_ontic),
        ("induce", _rep_doc, _list_in_ontic),
        ("analyze-rep", _rep_doc, _list_in_preparations),
        ("induce", _rep_doc, _list_in_preparations),
        ("analyze-rep", _rep_doc, _list_in_measurement_labels),
        ("analyze-rep", _rep_doc, _list_in_measurement_outcomes),
        ("induce", _rep_doc, _list_in_measurement_outcomes),
        ("check", _bell_doc, _list_in_measurement_mixture_map),
        ("check", _bell_doc, _list_in_state_mixture_map),
    ],
    ids=[
        "outcome-values-lack-outcome",
        "mu-entry-string",
        "analyze-target-outcome-unknown",
        "analyze-target-mixture-unknown-preparation",
        "induce-target-outcome-unknown",
        "context-table-string",
        "convex-item-string",
        "cover-entry-string",
        "analyze-ontic-list",
        "induce-ontic-list",
        "analyze-preparation-list",
        "induce-preparation-list",
        "analyze-measurement-label-list",
        "analyze-measurement-outcome-list",
        "induce-measurement-outcome-list",
        "measurement-mixture-map-list",
        "state-mixture-map-list",
    ],
)
def test_malformed_documents_exit_with_error(
    tmp_path, capsys, command, make_doc, spoil
):
    doc = make_doc()
    spoil(doc)
    path = _write(tmp_path, "spoiled.json", doc)
    assert main([command, path]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_verify_reports_a_section_for_an_unknown_state(tmp_path, capsys):
    path, theory = _theory_file(tmp_path, "spekkens-preparation", strip=True)
    doc = sections_to_document(theory, find_global_section(theory))
    doc["sections"]["stray"] = doc["sections"][_first(doc["sections"])]
    sections = _write(tmp_path, "sections.json", doc)
    assert main(["verify", path, sections]) == EXIT_CONTEXTUAL
    assert capsys.readouterr().out == "section for unknown state 'stray'\n"


def test_verify_rejects_non_object_section(tmp_path, capsys):
    path, theory = _theory_file(tmp_path, "spekkens-preparation", strip=True)
    doc = sections_to_document(theory, find_global_section(theory))
    doc["sections"][_first(doc["sections"])] = "1"
    sections = _write(tmp_path, "sections.json", doc)
    assert main(["verify", path, sections]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_exit_with_error_and_help_exits_ok(tmp_path, capsys):
    path, _ = _theory_file(tmp_path)
    for argv in (["check", "--bogus", path], ["induce", "--json", path], []):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["check", "--help"]):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == EXIT_OK
        assert "usage:" in capsys.readouterr().out


_FLAG_VALUES = {"--max-denominator": ["64"], "--json": [], "--seed": ["1"]}


# positional arguments and the flags each subcommand's handler reads
_TAKES = {
    "check": (["f"], {"--max-denominator", "--json"}),
    "verify": (["f", "s"], {"--max-denominator", "--json"}),
    "quotient": (["f"], {"--max-denominator"}),
    "minimalize": (["f"], {"--max-denominator"}),
    "canonical-rep": (["f"], {"--max-denominator"}),
    "analyze-rep": (["f"], {"--json"}),
    "induce": (["f"], set()),
    "example": (["random"], {"--max-denominator", "--seed"}),
}


@pytest.mark.parametrize("command", list(_TAKES))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command):
    positionals, flags = _TAKES[command]
    for flag, value in _FLAG_VALUES.items():
        argv = [command, *positionals, flag, *value]
        if flag in flags:
            build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as caught:
                build_parser().parse_args(argv)
            assert caught.value.code == EXIT_ERROR
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# numpy is already loaded in the pytest process, so whether the exact path
# loads it is observed in a fresh interpreter.
_NUMPY_PROBE = """
import contextlib, io, json, sys

import ctxcheck
from ctxcheck.cli import main

bell, feasible, sections, rep = sys.argv[1:]
loaded = {"import ctxcheck": "numpy" in sys.modules}
with open(bell) as fh:
    theory = ctxcheck.theory_from_document(ctxcheck.load_document(fh.read()))
contextual = ctxcheck.check_contextuality(theory).contextual
loaded["check_contextuality"] = "numpy" in sys.modules
codes = {}
for argv in (
    ["check", bell],
    ["verify", feasible, sections],
    ["quotient", feasible],
    ["minimalize", feasible],
    ["canonical-rep", feasible],
    ["analyze-rep", rep],
    ["induce", rep],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        codes[argv[0]] = main(argv)
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps({"contextual": contextual, "codes": codes, "loaded": loaded}))
"""

_NUMPY_BLOCKED = """
import sys

sys.modules["numpy"] = None  # any later "import numpy" raises ImportError
from ctxcheck.cli import main

sys.exit(main(sys.argv[1:]))
"""


def _fresh_python(script, *args):
    src = str(Path(ctxcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _exact_path_files(tmp_path):
    bell, _ = _theory_file(tmp_path, "bell")
    feasible, theory = _theory_file(tmp_path, "spekkens-preparation", strip=True)
    sections = _write(
        tmp_path,
        "sections.json",
        sections_to_document(theory, find_global_section(theory)),
    )
    rep = _write(tmp_path, "rep.json", _rep_doc())
    return bell, feasible, sections, rep


def test_exact_path_never_loads_numpy(tmp_path):
    done = _fresh_python(_NUMPY_PROBE, *_exact_path_files(tmp_path))
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["contextual"] is True
    assert report["codes"] == {
        "check": EXIT_CONTEXTUAL,
        "verify": EXIT_OK,
        "quotient": EXIT_OK,
        "minimalize": EXIT_OK,
        "canonical-rep": EXIT_OK,
        "analyze-rep": EXIT_OK,
        "induce": EXIT_OK,
    }
    assert not any(report["loaded"].values()), report["loaded"]


def _quantum_scenario_doc(scenario, max_denominator):
    def entries(row):
        return [[z.real, z.imag] for z in row]

    def matrix(m):
        # a state may be a vector of complex entries or a matrix of rows
        return entries(m) if isinstance(m[0], complex) else [entries(r) for r in m]

    return {
        "quantum": {
            "states": {name: matrix(m) for name, m in scenario.states.items()},
            "labels": {
                name: {
                    "outcomes": list(lab.outcomes),
                    "effects": [matrix(e) for e in lab.effects],
                }
                for name, lab in scenario.labels.items()
            },
            "cover": [list(ctx) for ctx in scenario.cover],
            "max_denominator": max_denominator,
        }
    }


def test_check_runs_with_numpy_blocked(tmp_path):
    bell, _ = _theory_file(tmp_path, "bell")
    done = _fresh_python(_NUMPY_BLOCKED, "check", bell)
    assert done.returncode == EXIT_CONTEXTUAL, done.stderr
    assert "CONTEXTUAL" in done.stdout
    # the Born rule needs no numpy either: every builtin and a quantum
    # scenario document
    for name in BUILTIN_NAMES:
        done = _fresh_python(_NUMPY_BLOCKED, "example", name)
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads(done.stdout) == theory_to_document(
            builtin_example(name).theory
        )
    doc = _quantum_scenario_doc(builtin_example("bell").scenario, 8)
    done = _fresh_python(_NUMPY_BLOCKED, "check", _write(tmp_path, "q.json", doc))
    assert done.returncode == EXIT_CONTEXTUAL, done.stderr
    assert "CONTEXTUAL" in done.stdout


@pytest.mark.parametrize(
    "command", ["check", "quotient", "minimalize", "canonical-rep"]
)
def test_quantum_document_with_a_bad_outcome_map_is_an_invalid_scenario(
    tmp_path, capsys, command
):
    doc = _quantum_scenario_doc(builtin_example("bell").scenario, 8)
    doc["convex"] = [
        {
            "kind": "measurement",
            "target": "a",
            "components": [
                {"coefficient": "1/2", "name": "a'"},
                {
                    "coefficient": "1/2",
                    "name": "b",
                    "outcome_map": {"0": "x", "1": "1"},
                },
            ],
        }
    ]
    path = _write(tmp_path, "bad-map.json", doc)
    assert main([command, path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid scenario: ")
    assert "'b' is not a bijection" in captured.err
    assert captured.err.count("\n") == 1, captured.err
