"""Shared pytest configuration and fixtures."""

import functools
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import settings

from ctxcheck import linprog, sheaf
from ctxcheck.generate import theory_from_sections
from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    RationalDistribution,
    system_type,
)

# Property tests over exact arithmetic: a fixed example stream makes every
# run check the same systems, and no deadline keeps a slow exact solve from
# reading as a failure.
settings.register_profile("ctxcheck", derandomize=True, deadline=None)
settings.load_profile("ctxcheck")

# Each phase-I storage loops until Bland's rule stops it, so a kernel defect
# that cycles would hang the run.  Every test therefore runs the kernel with a
# pivot budget per call, far above any known run (909 pivots at most in these
# tests, 2,064 at Bloch k = 8): a storage call resets the count, and
# ``_objective_step``, which each storage calls once per pivot, fails the test
# past the budget.  They are wrapped here, before any test module imports
# them, so every module is covered, including tests that call a storage
# directly.
_PIVOT_BUDGET = 20_000
_pivots = [0]


def _pivot_budgeted(kernel):
    @functools.wraps(kernel)
    def run(*args):
        _pivots[0] = 0
        return kernel(*args)

    return run


def _counted_step(*args):
    _pivots[0] += 1
    if _pivots[0] > _PIVOT_BUDGET:
        raise AssertionError(f"phase I took more than {_PIVOT_BUDGET} pivots")
    return _objective_step(*args)


_objective_step = linprog._objective_step
linprog._objective_step = _counted_step
linprog._stored_phase1 = _pivot_budgeted(linprog._stored_phase1)
linprog._inverse_phase1 = _pivot_budgeted(linprog._inverse_phase1)


@pytest.fixture(autouse=True)
def _cold_skeletons():
    """Each test starts with no LP skeleton memoized, so the presolve memo a
    skeleton holds (``linprog._presolved``) sees only the test's own solves,
    and a test that counts ``_presolve`` calls counts the same whichever
    tests ran before it."""
    sheaf._skeleton.cache_clear()


TERNARY = ("0", "1", "2")


@pytest.fixture
def mixture_theory():
    """Builds theories on ternary labels a, b, c with cover [(a, b), (c,)] and
    the declared measurement mixture c = 1/2 a + 1/2 b, plus any further
    declarations.  The tables are the marginals of the given sections, so
    they break the declaration when the sections do."""

    def build(sections, *declarations):
        system = system_type({m: TERNARY for m in "abc"}, [("a", "b"), ("c",)])
        half = Fraction(1, 2)
        c_mix = ConvexDeclaration(
            kind="measurement",
            target="c",
            components=(ConvexComponent(half, "a"), ConvexComponent(half, "b")),
        )
        return theory_from_sections(system, sections, (c_mix, *declarations))

    return build


@pytest.fixture(params=["uniform", "c-zero"])
def mixture_variant(request, mixture_theory):
    """``(theory, sections, contextual)`` for one state.  The uniform section
    satisfies the declaration; a section with c always 0 gives tables that
    break it, so that theory is contextual."""
    if request.param == "uniform":
        weights = {g: Fraction(1, 27) for g in product(TERNARY, repeat=3)}
    else:
        weights = {(x, y, "0"): Fraction(1, 9) for x, y in product(TERNARY, repeat=2)}
    sections = {"s": RationalDistribution(domain=("a", "b", "c"), weights=weights)}
    return mixture_theory(sections), sections, request.param == "c-zero"
