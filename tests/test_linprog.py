"""Exact feasibility solver: hand-worked systems and randomized soundness."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ctxcheck.generate import (
    random_feasible_theory,
    random_frustrated_cycle,
    random_instance,
)
from ctxcheck.linprog import (
    FarkasCertificate,
    Feasible,
    Infeasible,
    LinearConstraint,
    LinearSystem,
    LinearSystemError,
    certificate_margin,
    is_robust,
    solve_feasibility,
    verify_certificate,
    verify_point,
)
from ctxcheck.quantum import BUILTIN_NAMES, builtin_example, without_declarations
from ctxcheck.sheaf import global_section_system


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


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _rational_systems(draw):
    """Small systems with mixed-sign rational rows; half get a planted point.

    Without a planted point the rhs is drawn freely, so many systems are
    infeasible and some rhs are negative (exercising the row sign flip);
    with one, the rhs is the row value at a nonnegative rational point.
    """
    n = draw(st.integers(1, 4))
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


@given(_rational_systems())
def test_every_verdict_passes_its_exact_check(system):
    result = solve_feasibility(system)
    if isinstance(result, Feasible):
        assert verify_point(system, result.point)
    else:
        assert verify_certificate(system, result.certificate)
        assert certificate_margin(system, result.certificate) == result.margin > 0


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


@given(_rational_systems(), st.randoms(use_true_random=False))
def test_verdict_unchanged_by_row_permutation(system, rng):
    rows = list(system.constraints)
    rng.shuffle(rows)
    assert isinstance(
        solve_feasibility(_with_constraints(system, rows)), Feasible
    ) == isinstance(solve_feasibility(system), Feasible)
