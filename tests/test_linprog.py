"""Exact feasibility solver: hand-worked systems and randomized soundness."""

import hashlib
import itertools
import pickle
import random
from collections import defaultdict, deque
from copy import deepcopy
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from ctxcheck.generate import (
    bloch_preparation_scenario,
    random_feasible_theory,
    random_frustrated_cycle,
    random_instance,
    random_sections,
    theory_from_sections,
)
from ctxcheck import linprog, sheaf
from ctxcheck.linprog import (
    FarkasCertificate,
    Feasible,
    Infeasible,
    LinearConstraint,
    LinearSystem,
    LinearSystemError,
    _GROWTH_BITS,
    _inverse_phase1,
    _objective_step,
    _patch_certificate,
    _presolve,
    _simplex_phase1,
    _stored_phase1,
    certificate_margin,
    is_robust,
    solve_feasibility,
    verify_certificate,
    verify_point,
)
from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    RationalDistribution,
    State,
    system_type,
)
from ctxcheck.quantum import BUILTIN_NAMES, builtin_example, without_declarations
from ctxcheck.sheaf import (
    context_outcome_tuples,
    global_outcome_tuples,
    global_section_system,
    marginal_weights,
)


def _system(rows, variables):
    return LinearSystem(
        variables=tuple(variables),
        constraints=tuple(
            LinearConstraint(
                name=name,
                coeffs={v: Fraction(a) for v, a in coeffs.items()},
                rhs=Fraction(rhs),
            )
            for name, coeffs, rhs in rows
        ),
    )


def test_simple_feasible_system():
    system = _system(
        [("sum", {"x": 1, "y": 1}, 1), ("half", {"x": 1}, "1/3")],
        ["x", "y"],
    )
    result = solve_feasibility(system)
    assert isinstance(result, Feasible)
    assert result.point["x"] == Fraction(1, 3)
    assert result.point["y"] == Fraction(2, 3)
    assert verify_point(system, result.point)


def test_contradictory_rows_yield_verified_certificate():
    system = _system(
        [("one", {"x": 1, "y": 1}, 1), ("two", {"x": 1, "y": 1}, 2)],
        ["x", "y"],
    )
    result = solve_feasibility(system)
    assert isinstance(result, Infeasible)
    assert verify_certificate(system, result.certificate)
    # multipliers (1, -1) on the two rows give combined rhs -1, margin 1
    assert result.margin == 1
    assert certificate_margin(system, result.certificate) == result.margin


def test_negative_rhs_with_nonnegative_row_is_infeasible():
    system = _system([("neg", {"x": 2, "y": 3}, -1)], ["x", "y"])
    result = solve_feasibility(system)
    assert isinstance(result, Infeasible)
    assert verify_certificate(system, result.certificate)
    # single multiplier 1 on the row itself; margin is the |rhs|
    assert result.margin == 1


def test_verify_certificate_rejects_wrong_multipliers():
    system = _system(
        [("one", {"x": 1, "y": 1}, 1), ("two", {"x": 1, "y": 1}, 2)],
        ["x", "y"],
    )
    assert not verify_certificate(system, FarkasCertificate(multipliers={}))
    assert not verify_certificate(
        system, FarkasCertificate(multipliers={"one": Fraction(1)})
    )
    assert not verify_certificate(
        system, FarkasCertificate(multipliers={"ghost": Fraction(1)})
    )
    # the honest direction
    assert verify_certificate(
        system,
        FarkasCertificate(
            multipliers={"one": Fraction(1), "two": Fraction(-1)}
        ),
    )


def test_certificate_check_reads_multipliers_of_every_rational_type():
    # ints and Fractions are read as they are, anything else through Fraction
    system = _system(
        [("one", {"x": 1, "y": 1}, 1), ("two", {"x": 1, "y": 1}, 2)],
        ["x", "y"],
    )
    cases = ((Fraction(1, 2), Fraction(-1, 2)), ("1/2", -0.5), (1, -1), (True, -1.0))
    for one, two in cases:
        certificate = FarkasCertificate(multipliers={"one": one, "two": two})
        assert verify_certificate(system, certificate)
        coeffs, rhs = certificate.combined(system)
        assert coeffs == {"x": 0, "y": 0}
        assert rhs == Fraction(one) + 2 * Fraction(two)


@pytest.mark.parametrize(
    "value, rational",
    [
        ("1/2", Fraction(1, 2)),
        (0.5, Fraction(1, 2)),
        (-0.25, Fraction(-1, 4)),
        (2, Fraction(2)),
        (True, Fraction(1)),
        (None, Fraction(0)),
        ("abc", None),
        (float("nan"), None),
        (object(), None),
    ],
)
def test_certificate_functions_read_each_multiplier_alike(value, rational):
    # the three functions read a multiplier one way: as a rational, None as
    # 0, and anything else as an error naming its constraint
    system = _system(
        [("one", {"x": 1, "y": 1}, 1), ("two", {"x": 1, "y": 1}, 2)],
        ["x", "y"],
    )
    half = Fraction(1, 2)
    certificate = FarkasCertificate(multipliers={"one": value, "two": -half})
    if rational is None:
        for check in (verify_certificate, certificate_margin):
            with pytest.raises(LinearSystemError, match="constraint 'one'"):
                check(system, certificate)
        with pytest.raises(LinearSystemError, match="constraint 'one'"):
            certificate.combined(system)
        return
    coeffs, rhs = certificate.combined(system)
    assert rhs == rational - 1
    assert coeffs == {"x": rational - half, "y": rational - half}
    assert verify_certificate(system, certificate) == (half <= rational < 1)
    scale = max(abs(rational), half)
    assert certificate_margin(system, certificate) == abs(rhs) / scale


def test_certificate_margin_rejects_empty_multipliers():
    system = _system([("one", {"x": 1}, 1)], ["x"])
    with pytest.raises(LinearSystemError):
        certificate_margin(system, FarkasCertificate(multipliers={}))


def test_certificate_margin_rejects_unknown_constraint_names():
    system = _system(
        [("one", {"x": 1, "y": 1}, 1), ("two", {"x": 1, "y": 1}, 2)],
        ["x", "y"],
    )
    with pytest.raises(LinearSystemError):
        certificate_margin(system, FarkasCertificate(multipliers={"zz": Fraction(1)}))
    with pytest.raises(LinearSystemError):
        certificate_margin(
            system,
            FarkasCertificate(
                multipliers={"one": Fraction(1), "two": Fraction(-1), "zz": Fraction(1)}
            ),
        )


def test_verify_point_checks_negativity_and_rows():
    system = _system([("sum", {"x": 1, "y": 1}, 1)], ["x", "y"])
    assert verify_point(system, {"x": Fraction(1), "y": Fraction(0)})
    assert not verify_point(system, {"x": Fraction(2), "y": Fraction(-1)})
    assert not verify_point(system, {"x": Fraction(1, 2), "y": Fraction(1, 4)})


def test_duplicate_names_rejected():
    with pytest.raises(LinearSystemError):
        _system([("r", {"x": 1}, 1), ("r", {"x": 1}, 1)], ["x"])
    with pytest.raises(LinearSystemError):
        LinearSystem(variables=("x", "x"), constraints=())


def test_unknown_variable_rejected():
    with pytest.raises(LinearSystemError):
        _system([("r", {"ghost": 1}, 1)], ["x"])


def test_named_view_and_system_are_read_only():
    system = _system([("r", {"x": 1, "y": "1/2"}, 1)], ["x", "y"])
    row = system.constraints[0]
    assert dict(row.coeffs) == {"x": 1, "y": Fraction(1, 2)}
    with pytest.raises(TypeError):
        row.coeffs["x"] = Fraction(2)
    with pytest.raises(TypeError):
        del row.coeffs["x"]
    with pytest.raises(TypeError):
        row.coeffs["ghost"] = Fraction(1)
    with pytest.raises(AttributeError):
        row.rhs = Fraction(3)
    with pytest.raises(AttributeError):
        system.constraints = ()
    with pytest.raises(AttributeError):
        system.variables = ("x",)
    assert (system.coeffs, system.rhs, system.scales) == (({0: 2, 1: 1},), (2,), (2,))
    assert system == _system([("r", {"x": 1, "y": "1/2"}, 1)], ["x", "y"])
    assert system != _system([("r", {"x": 2, "y": 1}, 2)], ["x", "y"])


def test_system_with_its_view_rendered_pickles_and_copies():
    system = global_section_system(builtin_example("bell").theory)
    view = system.constraints
    for copied in (pickle.loads(pickle.dumps(system)), deepcopy(system)):
        assert copied == system
        assert copied.constraints == view


def test_stored_zero_coefficient_is_not_eliminated_by_presolve():
    # "zero" forces x = 0 and nothing else: its stored 0 on y neither puts y
    # into the elimination nor keeps x out of it, so the clash between "sum"
    # and "y" is certified by those two rows alone
    system = _system(
        [
            ("zero", {"x": 1, "y": 0}, 0),
            ("sum", {"x": 1, "y": 1}, 1),
            ("y", {"y": 1}, 2),
        ],
        ["x", "y"],
    )
    result = solve_feasibility(system)
    assert isinstance(result, Infeasible)
    assert result.certificate.multipliers == {"sum": 1, "y": -1}
    assert verify_certificate(system, result.certificate)
    assert result.margin == 1


def test_all_zero_row_with_nonzero_rhs_is_its_own_certificate():
    # "one" and "two" clash as well, but the stored-zero row "empty" is a
    # contradiction on its own and presolve certifies it before any pivot
    system = _system(
        [
            ("one", {"x": 1, "y": 1}, 1),
            ("two", {"x": 1, "y": 1}, 2),
            ("empty", {"x": 0, "y": 0}, 3),
        ],
        ["x", "y"],
    )
    result = solve_feasibility(system)
    assert isinstance(result, Infeasible)
    assert result.certificate.multipliers == {"empty": -1}
    assert verify_certificate(system, result.certificate)
    assert result.margin == 3


def test_is_robust_strict_inequality():
    assert is_robust(Fraction(1, 8), 4, Fraction(1, 64))
    assert not is_robust(Fraction(1, 8), 8, Fraction(1, 64))
    assert is_robust(Fraction(1, 1000), 10, Fraction(0))


def _random_feasible_system(rng):
    n_vars = rng.randint(2, 6)
    variables = [f"v{i}" for i in range(n_vars)]
    point = {v: Fraction(rng.randint(0, 6), rng.randint(1, 4)) for v in variables}
    rows = []
    for r in range(rng.randint(1, 5)):
        coeffs = {
            v: Fraction(rng.randint(-4, 4))
            for v in rng.sample(variables, rng.randint(1, n_vars))
        }
        coeffs = {v: a for v, a in coeffs.items() if a}
        if not coeffs:
            continue
        rhs = sum(a * point[v] for v, a in coeffs.items())
        rows.append((f"r{r}", coeffs, rhs))
    return _system(rows, variables), point


def test_random_systems_with_known_point_are_feasible():
    rng = random.Random(11)
    for _ in range(150):
        system, _ = _random_feasible_system(rng)
        result = solve_feasibility(system)
        assert isinstance(result, Feasible)
        assert verify_point(system, result.point)


def test_random_systems_with_planted_contradiction_are_infeasible():
    rng = random.Random(13)
    for _ in range(150):
        system, point = _random_feasible_system(rng)
        if not system.constraints:
            continue
        row = rng.choice(system.constraints)
        clash = LinearConstraint(
            name="clash", coeffs=dict(row.coeffs), rhs=row.rhs + Fraction(1, 3)
        )
        bad = LinearSystem(
            variables=system.variables,
            constraints=system.constraints + (clash,),
        )
        result = solve_feasibility(bad)
        assert isinstance(result, Infeasible)
        assert verify_certificate(bad, result.certificate)
        assert result.margin > 0
        assert certificate_margin(bad, result.certificate) == result.margin


def test_margin_normalization_max_multiplier_is_one():
    system = _system(
        [("one", {"x": 1, "y": 1}, 1), ("two", {"x": 2, "y": 2}, 5)],
        ["x", "y"],
    )
    result = solve_feasibility(system)
    assert isinstance(result, Infeasible)
    scale = max(abs(y) for y in result.certificate.multipliers.values())
    assert scale == 1
    # rows scaled (1, -1/2): combined rhs 1 - 5/2 = -3/2
    assert result.margin == Fraction(3, 2)


def _golden_theories():
    for name in BUILTIN_NAMES:
        theory = builtin_example(name).theory
        yield theory
        yield without_declarations(theory)
    for seed in range(40):
        yield random_instance(random.Random(seed))
        yield random_frustrated_cycle(random.Random(seed))
        yield random_feasible_theory(random.Random(seed))[0]


def test_solver_output_matches_golden_digest():
    # sha256 over every point, multiplier and margin of 130 LPs (63
    # infeasible); any change to the pivot sequence, the returned point or
    # the certificate changes it
    digest = hashlib.sha256()
    for theory in _golden_theories():
        result = solve_feasibility(global_section_system(theory))
        if isinstance(result, Feasible):
            digest.update(b"F")
            values = result.point
        else:
            digest.update(b"I" + str(result.margin).encode())
            values = result.certificate.multipliers
        for name, value in sorted(values.items()):
            digest.update(f"{name}={value};".encode())
    assert digest.hexdigest() == (
        "bbb51f3db00c986a6ed6f5980beba31eb06f72c5e41c9764cb15ca62b670fbcd"
    )


def test_lp_build_matches_golden_digest():
    # sha256 over the variables, the constraint names, every row's sorted
    # coefficients and every rhs of the 130 golden LPs; any change to the
    # built system changes it
    digest = hashlib.sha256()
    for theory in _golden_theories():
        lp = global_section_system(theory)
        for v in lp.variables:
            digest.update(f"v:{v};".encode())
        for c in lp.constraints:
            digest.update(f"c:{c.name}={c.rhs}:".encode())
            for name, a in sorted(c.coeffs.items()):
                digest.update(f"{name}={a},".encode())
    assert digest.hexdigest() == (
        "a8c72e2ee7f208ea0960c303ee624e04a05b13841f162afc6296fda092661249"
    )


def _ring_system(n):
    names = tuple(f"x{i}" for i in range(n))
    return system_type(
        {m: ("0", "1") for m in names},
        tuple((names[i], names[(i + 1) % n]) for i in range(n)),
    )


def _frustrated_ring(rng, n):
    """A binary n-cycle with one anti-correlated edge and noise <= 1/10."""
    system = _ring_system(n)
    anti = rng.randrange(n)
    table = {}
    for i, ctx in enumerate(system.cover):
        noise = Fraction(rng.randint(0, 2), 20)
        same = (1 - noise) / 2 if i != anti else noise / 2
        differ = Fraction(1, 2) - same
        weights = {("0", "0"): same, ("1", "1"): same}
        weights.update({("0", "1"): differ, ("1", "0"): differ})
        table[ctx] = RationalDistribution(domain=ctx, weights=weights)
    return EmpiricalTheory(system=system, states={"s0": State(name="s0", table=table)})


def _feasible_ring(n, seed):
    """A binary n-cycle marginalized from random positive sections."""
    system = _ring_system(n)
    sections = random_sections(random.Random(100 * n + seed), system, ("s0",))
    return theory_from_sections(system, sections)


def _ring_theories():
    for n in range(5, 9):
        for seed in (1, 2):
            yield _feasible_ring(n, seed)
    for n in range(5, 10):
        yield _frustrated_ring(random.Random(n), n)


def test_ring_solver_output_matches_golden_digest():
    # feasible n-cycles are single blocks of 2n + 1 rows by 2^n columns (up
    # to 33 x 256 here), far wider than any block of the 130 golden LPs;
    # sha256 over every point, multiplier (in dict order) and margin
    digest = hashlib.sha256()
    for theory in _ring_theories():
        result = solve_feasibility(global_section_system(theory))
        if isinstance(result, Feasible):
            digest.update(b"F")
            values = result.point
        else:
            digest.update(b"I" + str(result.margin).encode())
            values = result.certificate.multipliers
        for name, value in values.items():
            digest.update(f"{name}={value};".encode())
    assert digest.hexdigest() == (
        "f1dcee4450e05ef177dfb50b7e37cc6f2c2af63bf0dddce4fddc8880971c41bf"
    )


def _long_run_systems():
    """LPs with long phase-I runs, whose points and certificates are pinned.

    In the first four, multipliers of more than ``_GROWTH_BITS`` bits reach
    some rows between divisions (2, 30, 74 and 126 times), so the kernel
    divides those rows by their content: feasible rings n = 10 (seed 8) and
    n = 11 (seeds 2 and 8), and the n = 11 seed-2 ring with one marginal rhs
    lowered by 1/1000, which then signals and is infeasible.  Bloch k = 6
    ends in a 551-multiplier certificate after about 400 stored-form pivots.
    """
    for n, seed in ((10, 8), (11, 2), (11, 8)):
        yield global_section_system(_feasible_ring(n, seed))
    lp = global_section_system(_feasible_ring(11, 2))
    constraints = list(lp.constraints)
    r = lp.names.index("marg[s0;x0,x10;1,0]")
    c = constraints[r]
    constraints[r] = LinearConstraint(c.name, dict(c.coeffs), c.rhs - Fraction(1, 1000))
    yield LinearSystem(lp.variables, constraints)
    yield global_section_system(bloch_preparation_scenario(range(6)))


def test_long_run_solver_output_matches_golden_digest():
    # sha256 over every point, multiplier and margin of the long runs; no
    # row of the other digests' LPs grows past the division bound
    digest = hashlib.sha256()
    for lp in _long_run_systems():
        result = solve_feasibility(lp)
        if isinstance(result, Feasible):
            digest.update(b"F")
            values = result.point
        else:
            digest.update(b"I" + str(result.margin).encode())
            values = result.certificate.multipliers
        for name, value in sorted(values.items()):
            digest.update(f"{name}={value};".encode())
    assert digest.hexdigest() == (
        "3b3295e1783a5b89dd35217a5459b550ef8e7752ca27d455f703f27621247483"
    )


def _vanishing_declaration_theory():
    """A measurement mixture of one-outcome labels: its row is all zeros.

    The declaration's coefficients are over 2, but the row cancels to
    nothing, so its scale is 1, not 2; no golden theory has such a row.
    """
    half = Fraction(1, 2)
    system = system_type(
        {"a": ("0", "1"), "u": ("0",), "v": ("0",), "w": ("0",)},
        [("a", "u"), ("v", "w")],
    )
    table = {
        ("a", "u"): RationalDistribution(
            domain=("a", "u"), weights={("0", "0"): half, ("1", "0"): half}
        ),
        ("v", "w"): RationalDistribution(
            domain=("v", "w"), weights={("0", "0"): Fraction(1)}
        ),
    }
    mixture = ConvexDeclaration(
        kind="measurement",
        target="u",
        components=(
            ConvexComponent(coefficient=half, name="v"),
            ConvexComponent(coefficient=half, name="w"),
        ),
    )
    return EmpiricalTheory(
        system=system, states={"s": State(name="s", table=table)}, convex=(mixture,)
    )


def test_built_integer_rows_match_conversion_and_solve_alike():
    # the digests above pin solve_feasibility(global_section_system(T)), whose
    # rows the build makes without the public constructor; converting the
    # named view back must give the same rows, dict order included, and the
    # same verdict, multipliers (in dict order), margin and point
    theories = itertools.chain(
        _golden_theories(), _ring_theories(), [_vanishing_declaration_theory()]
    )
    for theory in theories:
        lp = global_section_system(theory)
        copy = LinearSystem(lp.variables, lp.constraints)
        assert copy == lp
        assert [list(row.items()) for row in copy.coeffs] == [
            list(row.items()) for row in lp.coeffs
        ]
        result, expected = solve_feasibility(lp), solve_feasibility(copy)
        assert type(result) is type(expected)
        if isinstance(result, Feasible):
            assert list(result.point.items()) == list(expected.point.items())
        else:
            assert list(result.certificate.multipliers.items()) == list(
                expected.certificate.multipliers.items()
            )
            assert result.margin == expected.margin


# A kernel or presolve defect fails the property tests that reach the solver
# on their first failing draw, within seconds; shrinking that draw takes
# exact solves enough to run to hypothesis's five-minute shrink cap, so these
# report the draw as found
_UNSHRUNK = settings(phases=[p for p in Phase if p is not Phase.shrink])


_EDITED_THEORIES = (
    builtin_example("bell").theory,
    builtin_example("specker-triangle").theory,
    random_feasible_theory(random.Random(5))[0],
    random_frustrated_cycle(random.Random(5)),
)


@_UNSHRUNK
@given(
    st.sampled_from(_EDITED_THEORIES),
    st.integers(0, 10**6),
    st.sampled_from(["rhs", "coefficient", "drop"]),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
def test_row_edited_after_build_never_yields_an_unverified_verdict(
    theory, index, edit, value
):
    # the view is read-only, so an edit goes to a copy of its rows, and the
    # edited rows make a new system, whose verdict must verify on it
    lp = global_section_system(theory)
    rows = list(lp.constraints)
    row = rows[index % len(rows)]
    variable = sorted(row.coeffs)[index % len(row.coeffs)]
    coeffs, rhs = dict(row.coeffs), row.rhs
    if edit == "rhs":
        rhs = value
    elif edit == "coefficient":
        coeffs[variable] = value
    else:
        del coeffs[variable]
    rows[index % len(rows)] = LinearConstraint(name=row.name, coeffs=coeffs, rhs=rhs)
    edited = LinearSystem(lp.variables, rows)
    result = solve_feasibility(edited)
    if isinstance(result, Feasible):
        assert verify_point(edited, result.point)
    else:
        assert verify_certificate(edited, result.certificate)
        assert certificate_margin(edited, result.certificate) == result.margin


@pytest.mark.parametrize("value", [0.5, "1/2"])
def test_non_rational_entries_raise_linear_system_error(value):
    rows = (
        LinearConstraint("r", {"x": value, "y": 1}, 1),
        LinearConstraint("r", {"x": 1, "y": 1}, value),
    )
    for row in rows:
        with pytest.raises(LinearSystemError, match="constraint 'r'"):
            LinearSystem(variables=("x", "y"), constraints=(row,))
    system = _system([("r", {"x": 1, "y": 1}, 1)], ["x", "y"])
    for point in ({"x": value}, {"x": Fraction(1, 2), "y": value}):
        with pytest.raises(LinearSystemError, match="not rational"):
            verify_point(system, point)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _rational_systems(draw, max_columns=4):
    """Small systems with mixed-sign rational rows; half get a planted point.

    Without a planted point the rhs is drawn freely, so many systems are
    infeasible and some rhs are negative (exercising the row sign flip);
    with one, the rhs is the row value at a nonnegative rational point.
    """
    n = draw(st.integers(1, max_columns))
    variables = [f"v{j}" for j in range(n)]
    planted = draw(st.booleans())
    point = {
        v: draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        for v in variables
    }
    rows = []
    for r in range(draw(st.integers(1, 5))):
        coeffs = {v: draw(_RATIONALS) for v in variables}
        if planted:
            rhs = sum(a * point[v] for v, a in coeffs.items())
        else:
            rhs = draw(_RATIONALS)
        rows.append((f"r{r}", coeffs, rhs))
    return _system(rows, variables)


def _with_constraints(system, constraints):
    return LinearSystem(variables=system.variables, constraints=tuple(constraints))


@_UNSHRUNK
@given(_rational_systems())
def test_every_verdict_passes_its_exact_check(system):
    result = solve_feasibility(system)
    if isinstance(result, Feasible):
        assert verify_point(system, result.point)
    else:
        assert verify_certificate(system, result.certificate)
        assert certificate_margin(system, result.certificate) == result.margin > 0


@_UNSHRUNK
@given(_rational_systems(max_columns=8))
def test_verdict_unchanged_when_copied_rows_make_every_block_tall(system):
    # up to 8 columns over at most 5 rows: many blocks are wider than tall
    # and pivot on the basis inverse; with every row present once per
    # column, no block is wider than tall and every column is stored
    copies = [
        LinearConstraint(name=f"{c.name}~{t}", coeffs=c.coeffs, rhs=c.rhs)
        for t in range(1, len(system.variables))
        for c in system.constraints
    ]
    tall = _with_constraints(system, system.constraints + tuple(copies))
    results = [(system, solve_feasibility(system)), (tall, solve_feasibility(tall))]
    for lp, result in results:
        if isinstance(result, Feasible):
            assert verify_point(lp, result.point)
        else:
            assert verify_certificate(lp, result.certificate)
    assert isinstance(results[0][1], Feasible) == isinstance(results[1][1], Feasible)


@_UNSHRUNK
@given(
    _rational_systems(),
    st.integers(0, 4),
    st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
)
def test_verdict_unchanged_by_positive_row_scaling(system, index, factor):
    rows = list(system.constraints)
    row = rows[index % len(rows)]
    rows[index % len(rows)] = LinearConstraint(
        name=row.name,
        coeffs={v: a * factor for v, a in row.coeffs.items()},
        rhs=row.rhs * factor,
    )
    assert isinstance(
        solve_feasibility(_with_constraints(system, rows)), Feasible
    ) == isinstance(solve_feasibility(system), Feasible)


@_UNSHRUNK
@given(_rational_systems(), st.randoms(use_true_random=False))
def test_verdict_unchanged_by_row_permutation(system, rng):
    rows = list(system.constraints)
    rng.shuffle(rows)
    assert isinstance(
        solve_feasibility(_with_constraints(system, rows)), Feasible
    ) == isinstance(solve_feasibility(system), Feasible)


@_UNSHRUNK
@given(
    _rational_systems(),
    _rational_systems().filter(lambda b: isinstance(solve_feasibility(b), Feasible)),
    st.randoms(use_true_random=False),
)
def test_direct_sum_with_a_feasible_system_solves_like_the_summand(a, b, rng):
    # b shares no variable with a, so presolve splits it off into blocks of
    # its own, wherever its rows and variables fall among a's
    variables, rows = list(a.variables), list(a.constraints)
    for v in b.variables:
        variables.insert(rng.randint(0, len(variables)), "b" + v)
    for c in b.constraints:
        coeffs = {"b" + v: x for v, x in c.coeffs.items()}
        row = LinearConstraint(name="b" + c.name, coeffs=coeffs, rhs=c.rhs)
        rows.insert(rng.randint(0, len(rows)), row)
    both = solve_feasibility(LinearSystem(tuple(variables), tuple(rows)))
    alone = solve_feasibility(a)
    if isinstance(alone, Feasible):
        assert isinstance(both, Feasible)
        assert [both.point[v] for v in a.variables] == list(alone.point.values())
    else:
        assert isinstance(both, Infeasible)
        assert list(both.certificate.multipliers.items()) == list(
            alone.certificate.multipliers.items()
        )
        assert both.margin == alone.margin


# ---------------------------------------------------------------------------
# The exact checks against a plain dense Fraction reference
# ---------------------------------------------------------------------------

# mixed denominators; zero is drawn often, so stored zero coefficients, zero
# multipliers and points vanishing on a row's whole support all occur
_MIXED = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


@st.composite
def _sparse_systems(draw):
    """Systems whose rows store a subset of the variables, zeros included.

    A row may be empty, and half the rows have one coefficient on every
    column they store, as the normalization and marginal rows of a
    global-section LP have.
    """
    n = draw(st.integers(1, 4))
    variables = [f"v{j}" for j in range(n)]
    rows = []
    for r in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.sampled_from(variables), unique=True))
        if draw(st.booleans()):
            coeffs = dict.fromkeys(support, draw(_MIXED))
        else:
            coeffs = {v: draw(_MIXED) for v in support}
        rows.append((f"r{r}", coeffs, draw(_MIXED)))
    return _system(rows, variables)


@st.composite
def _points(draw, system):
    """Points with negative and zero entries and keys that are not variables.

    Half the points are nonnegative, and half the time every rhs is made to
    match the point, so that points which pass the check are drawn too.  A
    key that is not a variable carries a negative value, which the check
    must ignore.
    """
    point = {v: draw(_MIXED) for v in draw(st.lists(st.sampled_from(system.variables)))}
    if draw(st.booleans()):
        point = {v: abs(x) for v, x in point.items()}
    if draw(st.booleans()):
        point["ghost"] = draw(st.fractions(min_value=-3, max_value=-1))
    if draw(st.booleans()):
        rows = [
            LinearConstraint(
                name=c.name,
                coeffs=c.coeffs,
                rhs=sum(
                    (a * point.get(v, 0) for v, a in c.coeffs.items()), Fraction(0)
                ),
            )
            for c in system.constraints
        ]
        system = _with_constraints(system, rows)
    return system, point


@st.composite
def _certificates(draw, system):
    """Multipliers on some constraints, sometimes a name the system lacks."""
    names = [c.name for c in system.constraints]
    chosen = draw(st.lists(st.sampled_from(names), unique=True))
    multipliers = {name: draw(_MIXED) for name in chosen}
    if draw(st.integers(0, 4)) == 0:
        multipliers["ghost"] = draw(_MIXED)
    return FarkasCertificate(multipliers=multipliers)


def _dense_row(system, coeffs):
    return [Fraction(coeffs.get(v, 0)) for v in system.variables]


def _dense_verify_point(system, point):
    x = [Fraction(point.get(v, 0)) for v in system.variables]
    if any(xj < 0 for xj in x):
        return False
    return all(
        sum((a * xj for a, xj in zip(_dense_row(system, c.coeffs), x)), Fraction(0))
        == c.rhs
        for c in system.constraints
    )


def _dense_combined(system, multipliers):
    combined = [Fraction(0)] * len(system.variables)
    rhs = Fraction(0)
    for c in system.constraints:
        y = Fraction(multipliers.get(c.name, 0))
        combined = [t + y * a for t, a in zip(combined, _dense_row(system, c.coeffs))]
        rhs += y * c.rhs
    return combined, rhs


def _dense_verify_certificate(system, multipliers):
    names = {c.name for c in system.constraints}
    if not multipliers or set(multipliers) - names:
        return False
    combined, rhs = _dense_combined(system, multipliers)
    return rhs < 0 and all(a >= 0 for a in combined)


@given(_sparse_systems().flatmap(_points))
def test_verify_point_matches_dense_reference(system_and_point):
    system, point = system_and_point
    assert verify_point(system, point) == _dense_verify_point(system, point)


@given(_sparse_systems().flatmap(lambda s: st.tuples(st.just(s), _certificates(s))))
def test_certificate_checks_match_dense_reference(system_and_certificate):
    system, cert = system_and_certificate
    dense, rhs = _dense_combined(system, cert.multipliers)
    coeffs, combined_rhs = cert.combined(system)
    assert combined_rhs == rhs
    assert [coeffs.get(v, 0) for v in system.variables] == dense
    assert all(isinstance(a, Fraction) for a in (combined_rhs, *coeffs.values()))
    assert verify_certificate(system, cert) == _dense_verify_certificate(
        system, cert.multipliers
    )
    names = {c.name for c in system.constraints}
    scale = max((abs(y) for y in cert.multipliers.values()), default=0)
    if set(cert.multipliers) - names or scale == 0:
        with pytest.raises(LinearSystemError):
            certificate_margin(system, cert)
    else:
        assert certificate_margin(system, cert) == abs(rhs) / scale


@st.composite
def _int_entries(draw, system):
    """The system with some integer-valued entries stored as plain ints."""
    def entry(a):
        return int(a) if a.denominator == 1 and draw(st.booleans()) else a

    rows = [
        LinearConstraint(
            name=c.name,
            coeffs={v: entry(a) for v, a in c.coeffs.items()},
            rhs=entry(c.rhs),
        )
        for c in system.constraints
    ]
    return _with_constraints(system, rows)


@given(
    _sparse_systems()
    .flatmap(_int_entries)
    .flatmap(lambda s: st.tuples(st.just(s), _certificates(s), st.booleans()))
)
def test_combined_is_the_plain_fraction_sum(case):
    system, cert, int_multipliers = case
    if int_multipliers:
        cert = FarkasCertificate(
            {
                name: int(y) if y.denominator == 1 else y
                for name, y in cert.multipliers.items()
            }
        )
    # rows with a nonzero multiplier, in row order; unknown names drop out
    coeffs, rhs = {}, Fraction(0)
    for c in system.constraints:
        y = cert.multipliers.get(c.name)
        if not y:
            continue
        rhs += y * c.rhs
        for v, a in c.coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + y * a
    got_coeffs, got_rhs = cert.combined(system)
    assert got_rhs == rhs
    assert got_coeffs == coeffs
    assert list(got_coeffs) == list(coeffs)


@_UNSHRUNK
@given(
    _sparse_systems(),
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
)
def test_solver_certificates_match_dense_reference(system, factor):
    result = solve_feasibility(system)
    if isinstance(result, Feasible):
        assert _dense_verify_point(system, result.point)
        return
    multipliers = result.certificate.multipliers
    assert _dense_verify_certificate(system, multipliers)
    _, rhs = _dense_combined(system, multipliers)
    assert result.margin == -rhs
    # a positive rescaling still certifies, with the same normalized margin
    scaled = FarkasCertificate({name: y * factor for name, y in multipliers.items()})
    assert verify_certificate(system, scaled)
    assert certificate_margin(system, scaled) == result.margin


# ---------------------------------------------------------------------------
# The phase-I kernel against a plain dense Fraction Bland reference
# ---------------------------------------------------------------------------


def _dense_phase1(system):
    """Bland phase I on a full Fraction tableau: (point, None, pivots) or
    (None, dual, pivots), with ``pivots`` the number of pivots it took.

    Rows are flipped to a nonnegative rhs and start on their artificial
    columns.  The entering column is the lowest-index structural column with
    a negative reduced cost; ratio ties go to the lowest basis index.  The
    dual is ``(reduced cost of artificial k - 1) * flip[k]``.
    """
    m, n = len(system.constraints), len(system.variables)
    flip = [-1 if c.rhs < 0 else 1 for c in system.constraints]
    tab = [
        [f * Fraction(c.coeffs.get(v, 0)) for v in system.variables]
        + [Fraction(int(i == k)) for i in range(m)]
        + [f * c.rhs]
        for k, (c, f) in enumerate(zip(system.constraints, flip))
    ]
    obj = [-sum(column) for column in zip(*tab)]
    obj[n : n + m] = [Fraction(0)] * m
    basis = list(range(n, n + m))
    pivots = 0
    while (enter := next((j for j in range(n) if obj[j] < 0), None)) is not None:
        pivots += 1
        leave = min(
            (i for i in range(m) if tab[i][enter] > 0),
            key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]),
        )
        prow = [a / tab[leave][enter] for a in tab[leave]]
        tab = [
            prow if i == leave
            else row if not row[enter]
            else [a - row[enter] * b if b else a for a, b in zip(row, prow)]
            for i, row in enumerate(tab)
        ]
        obj = [a - obj[enter] * b for a, b in zip(obj, prow)]
        basis[leave] = enter
    if obj[-1] == 0:
        return {j: row[-1] for row, j in zip(tab, basis) if j < n}, None, pivots
    dual = {k: (obj[n + k] - 1) * flip[k] for k in range(m)}
    return None, {k: y for k, y in dual.items() if y}, pivots


_NONZERO = _RATIONALS.filter(bool)


@st.composite
def _blocks(draw):
    """Blocks wider or taller than tall, some rhs negative, three column kinds.

    A column's entries are drawn as the rhs-flipped rational values the
    kernel packs: a uniform column has two or more equal entries, a
    one-entry column has one, and a mixed column has two or more entries of
    both signs, so it is never uniform.  Half the blocks instead get the
    rhs of a planted nonnegative point, so that tall blocks are feasible
    too; their entries are drawn unflipped, and a row whose planted rhs is
    negative flips them.

    Half the blocks are made tall, up to 12 rows over no more columns than
    rows, by derived rows: a multiple of a drawn row (an exact repeat
    included), or of one plus a multiple of another, with the rhs of that
    combination or, unless planted, rhs 0.  So updated rows cancel to exact
    zero and ratio tests tie.
    """
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    planted = draw(st.booleans())
    if planted:
        point = {f"v{j}": abs(draw(_RATIONALS)) for j in range(n)}
        flip = [1] * m
    else:
        rhs = [draw(_RATIONALS) for _ in range(m)]
        flip = [-1 if b < 0 else 1 for b in rhs]
    rows = [{} for _ in range(m)]
    kinds = ["uniform", "one-entry", "mixed"] if m > 1 else ["one-entry"]
    for j in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "one-entry":
            ks = [draw(st.integers(0, m - 1))]
            values = [draw(_NONZERO)]
        else:
            ks = draw(st.lists(st.integers(0, m - 1), min_size=2, unique=True))
            if kind == "uniform":
                values = [draw(_NONZERO)] * len(ks)
            else:
                values = [abs(draw(_NONZERO)), -abs(draw(_NONZERO))]
                values += [draw(_NONZERO) for _ in ks[2:]]
        for k, a in zip(ks, values):
            rows[k][f"v{j}"] = a * flip[k]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(max(m, n), 12)) - m):
            a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            x = draw(st.one_of(st.just(Fraction(1)), _NONZERO))
            y = draw(st.one_of(st.just(Fraction(0)), _NONZERO))
            row = {v: x * c for v, c in rows[a].items()}
            for v, c in rows[b].items():
                row[v] = row.get(v, 0) + y * c
            rows.append({v: c for v, c in row.items() if c})
            if not planted:
                combined = x * rhs[a] + y * rhs[b]
                rhs.append(combined if draw(st.booleans()) else Fraction(0))
    if planted:
        rhs = [sum(a * point[v] for v, a in row.items()) for row in rows]
    return _system(
        [(f"r{k}", row, b) for k, (row, b) in enumerate(zip(rows, rhs))],
        [f"v{j}" for j in range(n)],
    )


def _assert_phase1_matches_dense_reference(system, rows, cols, phase1=_simplex_phase1):
    """The kernel on block (rows, cols) of ``system`` against ``_dense_phase1``
    on that block alone: the same number of pivots, and the same point or the
    same dual up to one positive scale.  The reference runs first, and the
    kernel fails as soon as it takes more pivots than the reference."""
    position = {j: i for i, j in enumerate(cols)}
    block = LinearSystem._from_rows(
        tuple(system.variables[j] for j in cols),
        tuple(system.names[r] for r in rows),
        tuple(
            {position[j]: a for j, a in system.coeffs[r].items() if j in position}
            for r in rows
        ),
        tuple(system.rhs[r] for r in rows),
        tuple(system.scales[r] for r in rows),
    )
    expected_point, expected_dual, expected_pivots = _dense_phase1(block)
    # both kernels call ``_objective_step`` once per pivot; counting there
    # makes a kernel that would cycle fail instead of running on
    pivots = 0

    def step(*args):
        nonlocal pivots
        pivots += 1
        if pivots > expected_pivots:
            raise AssertionError(f"more pivots than the reference's {expected_pivots}")
        return _objective_step(*args)

    with mock.patch.object(linprog, "_objective_step", step):
        point, dual = phase1(system.coeffs, system.rhs, system.scales, rows, cols)
    assert pivots == expected_pivots
    if expected_point is not None:
        expected_point = {cols[j]: x for j, x in expected_point.items()}
    assert point == expected_point
    if expected_dual is None:
        assert dual is None
        return
    expected_dual = {rows[k]: y for k, y in expected_dual.items()}
    assert dual.keys() == expected_dual.keys()
    scale = Fraction(dual[next(iter(dual))]) / expected_dual[next(iter(dual))]
    assert scale > 0
    assert all(dual[k] == scale * y for k, y in expected_dual.items())


@_UNSHRUNK
@given(_blocks())
def test_phase1_matches_dense_bland_reference(system):
    # no global-section LP has a non-uniform column in a wide block, so the
    # golden digests do not pin that path; this reference does
    m, n = len(system.names), len(system.variables)
    _assert_phase1_matches_dense_reference(system, list(range(m)), list(range(n)))


def _block_rows(coeffs, rows, cols, flip):
    """The block's rows as ``_simplex_phase1`` reads them: per row,
    ``{position in cols: entry times the row's sign}``, fresh dicts, since
    the stored form extends them in place."""
    position = {j: i for i, j in enumerate(cols)}
    return [
        {position[j]: sign * a for j, a in coeffs[r].items() if j in position}
        for r, sign in zip(rows, flip)
    ]


def _storage_input(loop, coeffs, scales, rows, cols, oden, flip):
    """What ``_simplex_phase1`` hands ``loop``: the block rows to the stored
    form, and to the inverse form each column packed as its row indices and
    entries times ``oden // scales[r]``."""
    block = _block_rows(coeffs, rows, cols, flip)
    if loop is _stored_phase1:
        return block
    packs = [([], []) for _ in cols]
    for k, (row, r) in enumerate(zip(block, rows)):
        for i, a in row.items():
            packs[i][0].append(k)
            packs[i][1].append(a * (oden // scales[r]))
    return packs


def _storage_phase1(loop, coeffs, rhs, scales, rows, cols):
    """``_simplex_phase1`` with ``loop`` as the storage, whatever the block's
    shape: the dual is read from the artificial columns of the objective row
    the loop returns, which follow the structural ones in the stored form."""
    oden = lcm(*(scales[r] for r in rows))
    flip = [-1 if rhs[r] < 0 else 1 for r in rows]
    block = _storage_input(loop, coeffs, scales, rows, cols, oden, flip)
    point, obj, oden = loop(block, rhs, scales, rows, cols, oden, flip)
    if point is not None:
        return point, None
    art = len(cols) if loop is _stored_phase1 else 0
    dual = {r: (obj[art + k] - oden) * flip[k] for k, r in enumerate(rows)}
    return None, {r: y for r, y in dual.items() if y}


def _assert_both_storages_match_dense_reference(system):
    m, n = len(system.names), len(system.variables)
    for loop in (_stored_phase1, _inverse_phase1):
        _assert_phase1_matches_dense_reference(
            system, list(range(m)), list(range(n)), partial(_storage_phase1, loop)
        )


@_UNSHRUNK
@given(_blocks())
def test_both_storages_match_dense_bland_reference_on_every_shape(system):
    # a block runs only the storage its shape picks, so neither storage
    # would otherwise run on the other's shapes
    _assert_both_storages_match_dense_reference(system)


_PRIMES = (999_983, 999_979, 999_961, 999_959, 999_953, 999_931, 999_917, 999_907)


@st.composite
def _coprime_blocks(draw):
    """Blocks whose entries have large prime denominators, drawn per entry.

    A row's integer entries are then products of distinct large primes, so
    the pivot entry and a row's entry share little and nearly every row
    update multiplies the row by ``q != 1``: a few updates carry a row past
    the division bound.  Half the blocks get the rhs of a planted
    nonnegative point, the rest a drawn rhs of either sign.
    """
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))

    def entry():
        num = draw(st.integers(-(10**6), 10**6).filter(bool))
        return Fraction(num, draw(st.sampled_from(_PRIMES)))

    rows = [{f"v{j}": entry() for j in range(n) if draw(st.booleans())} for _ in range(m)]
    if draw(st.booleans()):
        point = {f"v{j}": abs(entry()) for j in range(n)}
        rhs = [sum(a * point[v] for v, a in row.items()) for row in rows]
    else:
        rhs = [entry() for _ in range(m)]
    return _system(
        [(f"r{k}", row, b) for k, (row, b) in enumerate(zip(rows, rhs))],
        [f"v{j}" for j in range(n)],
    )


@_UNSHRUNK
@given(_coprime_blocks())
def test_both_storages_match_dense_bland_reference_when_rows_grow(system):
    # with ``_blocks``' small denominators about half the updates have
    # q != 1 and no row reaches the division bound; here more than nine in
    # ten have q != 1 and rows reach it within a few updates
    _assert_both_storages_match_dense_reference(system)


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "bloch3", "bloch4"])
def test_phase1_matches_dense_bland_reference_on_stored_lp_blocks(name):
    # every block of these LPs, as presolve leaves them, is no wider than
    # tall; mermin's and specker-triangle's presolve finds a contradiction,
    # so they have no block
    if name in BUILTIN_NAMES:
        theory = builtin_example(name).theory
    else:
        theory = bloch_preparation_scenario(range(int(name[-1])))
    system = global_section_system(theory)
    blocks, _, bad_row = _presolve(system.coeffs, system.rhs)
    assert (bad_row is None) == (name not in ("mermin", "specker-triangle"))
    assert all(len(cols) <= len(rows) for rows, cols in blocks)
    for rows, cols in blocks:
        _assert_phase1_matches_dense_reference(system, rows, cols)


# ---------------------------------------------------------------------------
# Presolve and certificate patch against their full-queue references
# ---------------------------------------------------------------------------


def _reference_presolve(coeffs, rhs, n):
    """Presolve from every row, over a column index of every column.

    (blocks, eliminations, column index, contradiction row or None); the
    column index maps each column to every row with a nonzero on it.
    """
    m = len(coeffs)
    support = [set(row) for row in coeffs]
    var_rows = [set() for _ in range(n)]
    for r in range(m):
        for j in support[r]:
            var_rows[j].add(r)
    active = set(range(m))
    eliminated = []
    queue = deque(range(m))
    queued = set(range(m))
    while queue:
        r = queue.popleft()
        queued.discard(r)
        nz = support[r]
        if not nz:
            if rhs[r] != 0:
                return [], eliminated, var_rows, r
            active.discard(r)
            continue
        if rhs[r] != 0:
            continue
        row = coeffs[r]
        if not (all(row[j] > 0 for j in nz) or all(row[j] < 0 for j in nz)):
            continue
        active.discard(r)
        for j in sorted(nz):
            eliminated.append((j, r))
            for r2 in var_rows[j]:
                if r2 in active:
                    support[r2].discard(j)
                    if r2 not in queued:
                        queue.append(r2)
                        queued.add(r2)
    blocks = []
    for start in sorted(active):
        if start not in active:
            continue
        active.discard(start)
        rows, cols, stack = [start], set(), [start]
        while stack:
            for j in support[stack.pop()] - cols:
                cols.add(j)
                for r in var_rows[j] & active:
                    active.discard(r)
                    rows.append(r)
                    stack.append(r)
        blocks.append((sorted(rows), sorted(cols)))
    return blocks, eliminated, var_rows, None


def _reference_patch_certificate(coeffs, scales, multipliers, eliminated, var_rows):
    """The certificate patch, each column combined over its rows in ``var_rows``."""
    common = lcm(*(scales[r] for r in multipliers))
    z = {r: y * (common // scales[r]) for r, y in multipliers.items()}
    for j, row in reversed(eliminated):
        combined = 0
        for r in var_rows[j]:
            zr = z.get(r)
            if zr is not None:
                combined += zr * coeffs[r][j]
        if combined < 0:
            q = coeffs[row][j]
            f = abs(q) // gcd(combined, q)
            if f > 1:
                z = {r: v * f for r, v in z.items()}
                combined *= f
            zr = z.get(row, 0) - combined // q
            if zr:
                z[row] = zr
            else:
                del z[row]
    return {r: v * scales[r] for r, v in z.items()}


def _block_dual(coeffs, rhs, scales, blocks, bad_row):
    """The multipliers ``solve_feasibility`` patches, or None if feasible."""
    if bad_row is not None:
        return {bad_row: -1 if rhs[bad_row] > 0 else 1}
    for rows, cols in blocks:
        _, dual = _simplex_phase1(coeffs, rhs, scales, rows, cols)
        if dual is not None:
            return dual
    return None


def _assert_presolve_and_patch_match_reference(coeffs, rhs, scales, n):
    blocks, eliminated, bad_row = _presolve(coeffs, rhs)
    expected_blocks, expected_eliminated, var_rows, expected_bad_row = (
        _reference_presolve(coeffs, rhs, n)
    )
    assert blocks == expected_blocks
    assert eliminated == expected_eliminated
    assert bad_row == expected_bad_row
    dual = _block_dual(coeffs, rhs, scales, blocks, bad_row)
    if dual is not None:
        patched = _patch_certificate(coeffs, scales, dual, eliminated, n)
        expected = _reference_patch_certificate(
            coeffs, scales, dual, eliminated, var_rows
        )
        assert list(patched.items()) == list(expected.items())
    return eliminated


def _differential_theories():
    yield from _golden_theories()
    yield from _ring_theories()
    yield _vanishing_declaration_theory()
    # no digest pins these
    for seed in range(40, 140):
        yield random_instance(random.Random(seed))
        yield random_frustrated_cycle(random.Random(seed))


def test_scanned_presolve_and_row_wise_patch_match_reference():
    # presolve makes its first pass as a scan and indexes only the columns
    # left; it must reach the blocks, eliminations (in order) and
    # contradiction row of the full queue, and the row-wise patch must give
    # the column-wise patch's multipliers in dict order
    eliminating = 0
    for theory in _differential_theories():
        lp = global_section_system(theory)
        eliminating += bool(
            _assert_presolve_and_patch_match_reference(
                lp.coeffs, lp.rhs, lp.scales, len(lp.variables)
            )
        )
    assert eliminating > 100


def _counted_presolve(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("scan", True))
        return _presolve(*args, **kwargs)

    monkeypatch.setattr(linprog, "_presolve", counted)
    return calls


@pytest.mark.parametrize(
    "theory, row, scans",
    [
        pytest.param(builtin_example("mermin").theory, 25, [True], id="mermin"),
        pytest.param(
            builtin_example("specker-triangle").theory, 10, [True], id="specker"
        ),
        pytest.param(
            random_instance(random.Random(1)), 20, [True, False], id="random-instance-1"
        ),
    ],
)
def test_presolve_contradictions_by_name(theory, row, scans, monkeypatch):
    # mermin and specker-triangle each have a nonzero marginal row whose
    # every column an earlier zero row forces to 0: the full queue's first
    # pass stops there, and so does the scan, with no second presolve.  In
    # random_instance(Random(1)) row 20 loses its last column only after its
    # turn, so presolve runs again without the scan to find it
    lp = global_section_system(theory)
    _assert_presolve_and_patch_match_reference(
        lp.coeffs, lp.rhs, lp.scales, len(lp.variables)
    )
    calls = _counted_presolve(monkeypatch)
    result = solve_feasibility(lp)
    assert isinstance(result, Infeasible)
    assert calls == scans
    assert _presolve(lp.coeffs, lp.rhs)[2] == row


def test_contradiction_after_the_scan_is_the_full_queues(monkeypatch):
    # x0 = 1, x1 = 1, x1 = 0, x0 = 0: the scan forces both columns, which
    # empties rows 0 and 1 after their turn; the full queue sees row 1
    # again first (its column went first), so presolve runs again unscanned
    coeffs = [{0: 1}, {1: 1}, {1: 1}, {0: 1}]
    rhs = [1, 1, 0, 0]
    assert _reference_presolve(coeffs, rhs, 2)[3] == 1
    calls = _counted_presolve(monkeypatch)
    assert linprog._presolve(coeffs, rhs) == ([], [(1, 2), (0, 3)], 1)
    assert calls == [True, False]


def test_scan_stops_at_a_zero_row_of_mixed_signs():
    # x0 - x1 = 0 forces nothing until x1 = 0 has forced x1, so x0 goes
    # second, by row 0 when the queue sees it again
    coeffs = [{0: 1, 1: -1}, {1: 1}, {0: 1, 2: 1}]
    rhs = [0, 0, 1]
    expected = ([([2], [2])], [(1, 1), (0, 0)], None)
    assert _presolve(coeffs, rhs) == expected
    blocks, eliminated, _, bad_row = _reference_presolve(coeffs, rhs, 3)
    assert (blocks, eliminated, bad_row) == expected


@st.composite
def _scanned_systems(draw):
    """Integer rows whose first rows the scan covers: (coeffs, rhs, columns).

    The first rows mix zero-rhs rows of one sign with nonzero-rhs rows; the
    rows after them are drawn freely, zero rhs as often as not, so the scan
    stops at a row of mixed signs, the queue still eliminates after it, and
    contradictions show up during the scan and after it.  Any row may
    instead have one coefficient on all its columns, as a global-section
    LP's unit rows (1) and marginal rows (a weight's denominator) have, or
    be empty.
    """
    n = draw(st.integers(1, 8))
    nonzero = st.integers(-3, 3).filter(bool)
    columns = st.lists(st.integers(0, n - 1), min_size=1, unique=True)

    def equal_or(row):
        kind = draw(st.sampled_from(["drawn", "drawn", "equal", "empty"]))
        if kind == "equal":
            return dict.fromkeys(row, draw(st.sampled_from([1, 1, 2, 3, -1, -2])))
        return {} if kind == "empty" else row

    coeffs, rhs = [], []
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(columns)
        if draw(st.booleans()):
            sign = draw(st.sampled_from([1, -1]))
            coeffs.append({j: sign * draw(st.integers(1, 3)) for j in cols})
            rhs.append(0)
        else:
            coeffs.append(equal_or({j: draw(nonzero) for j in cols}))
            rhs.append(draw(nonzero))
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(columns)
        coeffs.append(equal_or({j: draw(nonzero) for j in cols}))
        rhs.append(draw(st.sampled_from([0, 0, 0, 1, -1, 2])))
    return coeffs, rhs, n


# Blocks are found by merging row supports in row order, and the column index
# is built only when a queued row first forces.  Rows 0 and 1 start two blocks
# that row 2 joins, and row 3 joins none; nothing forces, so nothing is indexed
_JOINED_BLOCKS = ([{0: 1, 1: 1}, {2: 1, 3: 1}, {1: 1, 2: -1}, {4: 2}], [1, 1, 1, 1], 5)
# row 3 joins the blocks of rows 0 and 2 but not row 1's, which still comes
# second, by its first row; row 4 joins the first block alone
_SKIPPED_BLOCK = ([{0: 1}, {1: 1}, {2: 1}, {0: 1, 2: 1}, {0: 3}], [1, 2, 3, 4, 5], 3)
# the scan forces column 0 and leaves no zero-rhs row, so the queue finds
# nothing to force and the index is never built
_SCANNED_ONLY = ([{0: 1}, {0: 1, 1: 1}, {1: 1, 2: 1}, {3: 1}], [0, 1, 1, 2], 4)
# row 1 stops the scan; row 2 is the queue's first row to force, after rows
# 0 and 1 have had their turn, so the index is built mid-queue, and row 1
# then forces column 0 too
_FORCED_IN_QUEUE = (
    [{0: 1, 1: 1, 4: 1}, {0: 1, 1: -1}, {1: 1}, {0: 1, 2: 1}, {2: 1, 3: 1}],
    [1, 0, 0, 1, 1],
    5,
)


@settings(_UNSHRUNK, max_examples=500)
@example(_JOINED_BLOCKS)
@example(_SKIPPED_BLOCK)
@example(_SCANNED_ONLY)
@example(_FORCED_IN_QUEUE)
@given(_scanned_systems())
def test_any_scanned_presolve_matches_the_full_queue(case):
    coeffs, rhs, n = case
    _assert_presolve_and_patch_match_reference(coeffs, rhs, [1] * len(coeffs), n)


@pytest.mark.parametrize(
    "case, blocks, indexed",
    [
        (_JOINED_BLOCKS, [([0, 1, 2], [0, 1, 2, 3]), ([3], [4])], False),
        (_SKIPPED_BLOCK, [([0, 2, 3, 4], [0, 2]), ([1], [1])], False),
        (_SCANNED_ONLY, [([1, 2], [1, 2]), ([3], [3])], False),
        (_FORCED_IN_QUEUE, [([0], [4]), ([3, 4], [2, 3])], True),
    ],
)
def test_presolve_indexes_columns_only_once_a_row_forces(
    case, blocks, indexed, monkeypatch
):
    coeffs, rhs, n = case
    built = []

    class Recorded(defaultdict):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(linprog, "defaultdict", Recorded)
    assert linprog._presolve(coeffs, rhs)[0] == blocks
    assert len(built) == indexed
    assert _reference_presolve(coeffs, rhs, n)[0] == blocks


def test_rows_the_scan_settled_are_never_queued(monkeypatch):
    # x0 = 0 forces x0; x1 - x2 = 0 stops the scan.  Past it, 2 x0 = 0 and
    # -x0 = 0 hold only x0, so they force nothing and are never queued, while
    # x0 = 1, in the same state, is still the contradiction
    coeffs = [{0: 1}, {1: 1, 2: -1}, {0: 2}, {0: -1}, {0: 1}, {1: 1, 0: 3}]
    rhs = [0, 0, 0, 0, 1, 1]
    queues = []

    class Recorded(deque):
        def __init__(self, rows=()):
            rows = list(rows)
            queues.append(rows)
            super().__init__(rows)

    monkeypatch.setattr(linprog, "deque", Recorded)
    _assert_presolve_and_patch_match_reference(coeffs, rhs, [1] * len(coeffs), 3)
    assert _presolve(coeffs, rhs)[1:] == ([(0, 0)], 4)
    assert queues[0] == [1, 4, 5]
    # without the contradiction the queue still settles what is left
    coeffs, rhs = coeffs[:4] + coeffs[5:], rhs[:4] + rhs[5:]
    _assert_presolve_and_patch_match_reference(coeffs, rhs, [1] * len(coeffs), 3)
    assert _presolve(coeffs, rhs) == ([([1, 4], [1, 2])], [(0, 0)], None)
    assert queues[-1] == [1, 4]


@st.composite
def _settled_systems(draw):
    """Rows past the scan's stop that the scan has settled: (coeffs, rhs, columns).

    Zero-rhs rows of one sign force the first ``f`` columns, and a zero-rhs
    row of mixed signs on the other columns stops the scan.  The rows after
    it are drawn over the forced columns only, with zero rhs (settled) or
    nonzero rhs (a contradiction), or over every column, so settled rows sit
    before, between and after the rows the queue still has to see.
    """
    forced = draw(st.integers(1, 4))
    n = forced + draw(st.integers(2, 4))
    nonzero = st.integers(-3, 3).filter(bool)
    coeffs, rhs = [], []
    for j in range(forced):
        sign = draw(st.sampled_from([1, -1]))
        coeffs.append({j: sign * draw(st.integers(1, 3))})
        rhs.append(0)
    free = draw(st.lists(st.integers(forced, n - 1), min_size=2, unique=True))
    coeffs.append({free[0]: 1, free[1]: -1, **{j: draw(nonzero) for j in free[2:]}})
    rhs.append(0)
    some_forced = st.lists(st.integers(0, forced - 1), min_size=1, unique=True)
    any_columns = st.lists(st.integers(0, n - 1), min_size=1, unique=True)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["settled", "settled", "contradiction", "free"]))
        cols = draw(any_columns if kind == "free" else some_forced)
        coeffs.append({j: draw(nonzero) for j in cols})
        if kind == "settled":
            rhs.append(0)
        elif kind == "contradiction":
            rhs.append(draw(nonzero))
        else:
            rhs.append(draw(st.sampled_from([0, 0, 1, -1])))
    return coeffs, rhs, n


@settings(_UNSHRUNK, max_examples=300)
@given(_settled_systems())
def test_presolve_settles_scanned_rows_as_the_full_queue_does(case):
    coeffs, rhs, n = case
    _assert_presolve_and_patch_match_reference(coeffs, rhs, [1] * len(coeffs), n)


def test_feasible_point_lists_every_variable_in_variable_order():
    # the full point is built once every block is feasible; it still names
    # every variable, zeros included, in the system's order
    feasible = 0
    for theory in itertools.islice(_golden_theories(), 40):
        lp = global_section_system(theory)
        result = solve_feasibility(lp)
        if isinstance(result, Feasible):
            feasible += 1
            assert list(result.point) == list(lp.variables)
            assert all(type(v) is Fraction for v in result.point.values())
    assert feasible >= 10


# ---------------------------------------------------------------------------
# The presolve memo a built LP shares with the other LPs of its skeleton
# ---------------------------------------------------------------------------


def _frozen_presolve(coeffs, rhs):
    """``_presolve``'s result with every list a tuple, as the memo holds it."""
    blocks, eliminated, bad_row = _presolve(coeffs, rhs)
    return (
        tuple((tuple(rows), tuple(cols)) for rows, cols in blocks),
        tuple(eliminated),
        bad_row,
    )


def _verdict(result):
    """A solve's whole output, dict order included."""
    if isinstance(result, Feasible):
        return "F", list(result.point.items())
    return "I", list(result.certificate.multipliers.items()), result.margin


# the system types and state names of a binary 5-ring with one state and of a
# binary triangle with two states, on which new tables are drawn
_MEMO_SCENARIOS = (
    _frustrated_ring(random.Random(5), 5),
    random_instance(random.Random(1)),
)


def _weights_on(draw, keys):
    """Drawn positive weights on ``keys``, summing to 1."""
    nums = [draw(st.integers(1, 3)) for _ in keys]
    return {k: Fraction(n, sum(nums)) for k, n in zip(keys, nums)}


@st.composite
def _supports(draw, theory):
    """Per state of ``theory``, either the support of a section over every
    assignment, whose marginals make the tables, or the support of each
    table, drawn apart from the others, so the tables may signal."""
    system = theory.system
    assignments = list(global_outcome_tuples(system))
    supports = {}
    for name in theory.states:
        if draw(st.booleans()):
            supports[name] = draw(
                st.lists(st.sampled_from(assignments), min_size=1, unique=True)
            )
        else:
            supports[name] = {
                ctx: draw(
                    st.lists(
                        st.sampled_from(list(context_outcome_tuples(system, ctx))),
                        min_size=1,
                        unique=True,
                    )
                )
                for ctx in system.cover
            }
    return supports


@st.composite
def _theories_on_one_scenario(draw):
    """Two to six theories on the system type and state names of one of
    ``_MEMO_SCENARIOS``, each on one of up to three drawn supports, with
    drawn weights: consecutive theories often share their zero pattern, and
    as often do not."""
    base = draw(st.sampled_from(_MEMO_SCENARIOS))
    system = base.system
    supports = draw(st.lists(_supports(base), min_size=1, max_size=3))
    theories = []
    for support in draw(st.lists(st.sampled_from(supports), min_size=2, max_size=6)):
        states = {}
        for name, drawn in support.items():
            if isinstance(drawn, list):
                section = RationalDistribution(system.labels, _weights_on(draw, drawn))
                table = {
                    ctx: RationalDistribution(ctx, marginal_weights(section, ctx))
                    for ctx in system.cover
                }
            else:
                table = {
                    ctx: RationalDistribution(ctx, _weights_on(draw, keys))
                    for ctx, keys in drawn.items()
                }
            states[name] = State(name=name, table=table)
        theories.append(EmpiricalTheory(system=system, states=states))
    return theories


@_UNSHRUNK
@given(_theories_on_one_scenario())
def test_memoized_presolve_solves_as_a_system_without_memo(theories):
    # every LP of one skeleton shares its memo, so each solve, in the drawn
    # order, reads the entry the solve before it left or replaces it; its
    # verdict must be that of the same rows without a memo, and the entry it
    # leaves what presolve gives its rows
    sheaf._skeleton.cache_clear()
    lps = [global_section_system(theory) for theory in theories]
    memo = lps[0]._presolve_memo
    assert memo == [None] and all(lp._presolve_memo is memo for lp in lps)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("scan", True))
        return _presolve(*args, **kwargs)

    verdicts, entries = [], []
    with mock.patch.object(linprog, "_presolve", counted):
        for lp in lps:
            verdicts.append(_verdict(solve_feasibility(lp)))
            entries.append(memo[0])
    keys = [key for key, _ in entries]
    # one presolve per solve whose zero pattern is not the one before it
    changes = sum(k != before for k, before in zip(keys, [None, *keys]))
    assert calls.count(True) == changes
    for lp, (key, entry), verdict in zip(lps, entries, verdicts):
        assert key == bytes(map(bool, lp.rhs))
        assert entry == _frozen_presolve(lp.coeffs, lp.rhs)
        plain = LinearSystem(lp.variables, lp.constraints)
        assert plain == lp and plain._presolve_memo is None
        assert _verdict(solve_feasibility(plain)) == verdict


def _two_zero_patterns():
    """The LPs of two theories of one binary 5-ring: a frustrated ring, with
    six zero weights on its noiseless edges, and the marginals of a positive
    section, with none.  They share one skeleton, and so one memo."""
    lps = [
        global_section_system(theory)
        for theory in (_frustrated_ring(random.Random(2), 5), _feasible_ring(5, 1))
    ]
    first, second = lps
    assert first._presolve_memo is second._presolve_memo
    assert 0 in first.rhs and 0 not in second.rhs
    return lps


def test_public_constructor_system_reads_and_writes_no_presolve_memo():
    built, other = _two_zero_patterns()
    solve_feasibility(built)
    memo = built._presolve_memo
    entry = memo[0]
    # the same rows through the public constructor, of either zero pattern,
    # carry no memo, and solving them leaves the skeleton's as it was
    for lp in (built, other):
        plain = LinearSystem(lp.variables, lp.constraints)
        assert "_presolve_memo" not in vars(plain) and plain._presolve_memo is None
        solve_feasibility(plain)
        assert memo == [entry] and memo[0] is entry


def test_pickled_lp_drops_the_presolve_memo_and_solves_alike():
    for lp in _two_zero_patterns():
        result = solve_feasibility(lp)
        for copy in (pickle.loads(pickle.dumps(lp)), deepcopy(lp)):
            assert copy == lp
            assert "_presolve_memo" not in vars(copy) and copy._presolve_memo is None
            assert _verdict(solve_feasibility(copy)) == _verdict(result)


def test_second_zero_pattern_replaces_the_first(monkeypatch):
    first, second = _two_zero_patterns()
    memo = first._presolve_memo
    calls = _counted_presolve(monkeypatch)
    expected = [_verdict(solve_feasibility(lp)) for lp in (first, second)]
    assert calls.count(True) == 2
    # each pattern in turn: the one entry is the last pattern's, and a solve
    # of the other pattern presolves again
    for lp, presolves, verdict in (
        (first, 3, expected[0]),
        (first, 3, expected[0]),
        (second, 4, expected[1]),
        (second, 4, expected[1]),
        (first, 5, expected[0]),
    ):
        assert _verdict(solve_feasibility(lp)) == verdict
        assert memo == [(bytes(map(bool, lp.rhs)), _frozen_presolve(lp.coeffs, lp.rhs))]
        assert calls.count(True) == presolves


# ---------------------------------------------------------------------------
# Kernel set-up against the earlier kernels, on rows reaching outside the block
# ---------------------------------------------------------------------------

# The phase-I kernels as they were when their set-up walked every entry of a
# block row and kept those inside the block (docstrings dropped).  The
# objective step they call is the module's, which they shared.

def _parent_simplex_phase1(
    coeffs: Sequence[dict[int, int]],
    rhs: Sequence[int],
    scales: Sequence[int],
    rows: list[int],
    cols: list[int],
) -> tuple[dict[int, Fraction] | None, dict[int, int] | None]:
    oden = lcm(*(scales[r] for r in rows))
    flip = [-1 if rhs[r] < 0 else 1 for r in rows]
    if len(cols) <= len(rows):
        point, obj, oden = _parent_stored_phase1(
            coeffs, rhs, scales, rows, cols, oden, flip
        )
        art = len(cols)
    else:
        point, obj, oden = _parent_inverse_phase1(
            coeffs, rhs, scales, rows, cols, oden, flip
        )
        art = 0
    if point is not None:
        return point, None
    # each y_k times oden, so all are ints
    dual: dict[int, int] = {}
    for k, r in enumerate(rows):
        y = (obj[art + k] - oden) * flip[k]
        if y:
            dual[r] = y
    return None, dual


def _parent_stored_phase1(
    coeffs: Sequence[dict[int, int]],
    rhs: Sequence[int],
    scales: Sequence[int],
    rows: list[int],
    cols: list[int],
    oden: int,
    flip: list[int],
) -> tuple[dict[int, Fraction] | None, list[int], int]:
    m = len(rows)
    n = len(cols)
    end = n + m  # the rhs column
    position = {j: i for i, j in enumerate(cols)}
    tab: list[dict[int, int]] = []
    # phase-I reduced costs: structural -column sums, artificial 0
    obj = [0] * (end + 1)
    for k, (r, sign) in enumerate(zip(rows, flip)):
        mult = oden // scales[r]
        row: dict[int, int] = {}
        for j, a in coeffs[r].items():
            i = position.get(j)
            if i is not None:
                row[i] = sign * a
                obj[i] -= sign * a * mult
        row[n + k] = scales[r]
        if rhs[r]:
            row[end] = sign * rhs[r]
            obj[end] -= sign * rhs[r] * mult
        tab.append(row)

    basis = list(range(n, end))
    grown = [0] * m  # bits of the q's applied to each row since its division
    while True:
        enter = -1
        for j in range(n):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        column = [row.get(enter, 0) for row in tab]
        # ratio test kept per storage: a shared rhs getter ran slower on tall blocks
        leave = -1
        for i, a in enumerate(column):
            if a > 0:
                b = tab[i].get(end, 0)
                if leave < 0:
                    leave, best_b, best_a = i, b, a
                    continue
                # b / a against best_b / best_a by cross-multiplying (a > 0)
                here, best = b * best_a, best_b * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            raise LinearSystemError("phase-I objective unbounded; invalid system")
        prow = tab[leave]
        p = column[leave]
        g = gcd(*prow.values())
        if g > 1:
            prow = tab[leave] = {k: a // g for k, a in prow.items()}
            p //= g
        grown[leave] = 0
        for i, f in enumerate(column):
            if f and i != leave:
                g = gcd(p, f)
                q, f = p // g, f // g
                row = tab[i]
                if q != 1:
                    row = tab[i] = {k: a * q for k, a in row.items()}
                    grown[i] += q.bit_length()
                for k, b in prow.items():
                    a = row.get(k, 0) - f * b
                    if a:
                        row[k] = a
                    else:
                        del row[k]
                if grown[i] > _GROWTH_BITS:
                    grown[i] = 0
                    g = gcd(*row.values())
                    if g > 1:
                        tab[i] = {k: a // g for k, a in row.items()}
        obj, oden = _objective_step(obj, oden, prow.items(), p, obj[enter])
        basis[leave] = enter
    if obj[end]:
        return None, obj, oden
    point: dict[int, Fraction] = {}
    for row, j in zip(tab, basis):
        if j < n:
            point[cols[j]] = Fraction(row.get(end, 0), row[j])
    return point, obj, oden


def _parent_inverse_phase1(
    coeffs: Sequence[dict[int, int]],
    rhs: Sequence[int],
    scales: Sequence[int],
    rows: list[int],
    cols: list[int],
    oden: int,
    flip: list[int],
) -> tuple[dict[int, Fraction] | None, list[int], int]:
    m = len(rows)
    n = len(cols)
    unit = oden  # computed entries are ``unit`` times the row's
    position = {j: i for i, j in enumerate(cols)}
    columns: list[tuple[list[int], list[int]]] = [([], []) for _ in cols]
    tab: list[list[int]] = []
    # phase-I reduced costs: artificial 0, then the rhs
    obj = [0] * (m + 1)
    for k, (r, sign) in enumerate(zip(rows, flip)):
        mult = oden // scales[r]
        row = [0] * (m + 1)
        for j, a in coeffs[r].items():
            i = position.get(j)
            if i is not None:
                ks, vals = columns[i]
                ks.append(k)
                vals.append(sign * a * mult)
        row[k] = scales[r]
        row[-1] = sign * rhs[r]
        obj[-1] -= row[-1] * mult
        tab.append(row)

    # a packed column is (getter, c, ks, vals): a column with two or more
    # entries, all equal to c, reads ``c * sum(getter(row))``; any other has
    # c = 0 and reads ``sum(map(mul, map(row.__getitem__, ks), vals))``
    packed: list[tuple[itemgetter | None, int, list[int], list[int]]] = []
    for ks, vals in columns:
        if len(ks) > 1 and vals.count(vals[0]) == len(vals):
            packed.append((itemgetter(*ks), vals[0], ks, vals))
        else:
            packed.append((None, 0, ks, vals))

    def column_entries(j: int, rows: list[list[int]]) -> list[int]:
        """Structural column ``j`` of each of ``rows``."""
        get, c, ks, vals = packed[j]
        if c:
            return [c * sum(get(row)) for row in rows]
        return [sum(map(mul, map(row.__getitem__, ks), vals)) for row in rows]

    basis = [n + k for k in range(m)]
    grown = [0] * m  # bits of the q's applied to each row since its division
    while True:
        enter = -1
        prices = [a - oden for a in obj[:m]]
        for j, (get, c, ks, vals) in enumerate(packed):
            if c:
                price = c * sum(get(prices))
            else:
                price = sum(map(mul, map(prices.__getitem__, ks), vals))
            if price < 0:
                enter = j
                break
        if enter < 0:
            break
        column = column_entries(enter, tab)
        # ratio test kept per storage: a shared rhs getter ran slower on tall blocks
        leave = -1
        for i, a in enumerate(column):
            if a > 0:
                b = tab[i][-1]
                if leave < 0:
                    leave, best_b, best_a = i, b, a
                    continue
                # b / a against best_b / best_a by cross-multiplying (a > 0)
                here, best = b * best_a, best_b * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            raise LinearSystemError("phase-I objective unbounded; invalid system")
        prow = tab[leave]
        p = column[leave]
        g = gcd(*prow)
        if g > 1:
            prow = tab[leave] = [a // g for a in prow]
            p //= g
        grown[leave] = 0
        # an update subtracts f * prow only where prow is nonzero
        support = [(k, b) for k, b in enumerate(prow) if b]
        for i, f in enumerate(column):
            if f and i != leave:
                g = gcd(p, f)
                q, f = p // g, f // g
                row = tab[i]
                if q != 1:
                    row = tab[i] = [a * q for a in row]
                    grown[i] += q.bit_length()
                for k, b in support:
                    row[k] -= f * b
                if grown[i] > _GROWTH_BITS:
                    grown[i] = 0
                    g = gcd(*row)
                    if g > 1:
                        tab[i] = [a // g for a in row]
        obj, oden = _objective_step(obj, oden, support, p, price)
        basis[leave] = enter
    if obj[-1]:
        return None, obj, oden
    point: dict[int, Fraction] = {}
    for row, j in zip(tab, basis):
        if j < n:
            point[cols[j]] = Fraction(row[-1] * unit, column_entries(j, [row])[0])
    return point, obj, oden


@st.composite
def _blocks_in_wider_rows(draw):
    """A ``_blocks`` system whose rows also hold many columns outside the
    block, among rows outside it: (coeffs, rhs, scales, rows, cols).

    The block's columns are spread over a wider column range, and each of
    its rows gets nonzero entries on a drawn set of the other columns, in a
    drawn dict order, as a presolved block's rows keep the columns presolve
    eliminated.  Rows outside the block hold only such entries.
    """
    system = draw(_blocks())
    n = len(system.variables)
    width = n + draw(st.integers(1, 24))
    cols = sorted(draw(st.permutations(range(width)))[:n])
    outside = [j for j in range(width) if j not in cols]
    entries = st.integers(-9, 9).filter(bool)
    coeffs, rhs, scales, rows = [], [], [], []
    for r in range(len(system.names)):
        for _ in range(draw(st.integers(0, 2))):
            extra = draw(st.lists(st.sampled_from(outside), min_size=1, unique=True))
            coeffs.append({j: draw(entries) for j in extra})
            rhs.append(draw(entries))
            scales.append(1)
        extra = draw(st.lists(st.sampled_from(outside), unique=True))
        row = [(cols[j], a) for j, a in system.coeffs[r].items()]
        row += [(j, draw(entries)) for j in extra]
        rows.append(len(coeffs))
        coeffs.append(dict(draw(st.permutations(row))))
        rhs.append(system.rhs[r])
        scales.append(system.scales[r])
    return coeffs, rhs, scales, rows, cols


@_UNSHRUNK
@given(_blocks_in_wider_rows())
def test_phase1_reads_only_block_columns_as_before(case):
    coeffs, rhs, scales, rows, cols = case
    assert _simplex_phase1(coeffs, rhs, scales, rows, cols) == _parent_simplex_phase1(
        coeffs, rhs, scales, rows, cols
    )
    # each storage on every shape, down to its objective row and denominator
    oden = lcm(*(scales[r] for r in rows))
    flip = [-1 if rhs[r] < 0 else 1 for r in rows]
    for loop, before in (
        (_stored_phase1, _parent_stored_phase1),
        (_inverse_phase1, _parent_inverse_phase1),
    ):
        block = _storage_input(loop, coeffs, scales, rows, cols, oden, flip)
        assert loop(block, rhs, scales, rows, cols, oden, flip) == before(
            coeffs, rhs, scales, rows, cols, oden, flip
        )
