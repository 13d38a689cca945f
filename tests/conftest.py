"""Shared pytest configuration and fixtures."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import settings

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
