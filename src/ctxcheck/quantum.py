"""Born-rule front end and built-in example scenarios.

Floating point is confined to this module.  Matrices are tuples of rows of
``complex``; any nested sequence of numbers, numpy arrays included, is
accepted as input.  Probabilities are computed as tr(rho E) in plain
Python, rationalized to bounded-denominator fractions, and each context's
table is renormalized exactly; the maximum rationalization error is
reported so feasibility verdicts can be flagged robust or fragile against
it.  Every input is at most a few 8x8 matrices, so the package needs no
numerical library.

Built-in scenarios: the two-qubit phase-measurement table, the three-qubit
parity argument, the trine preparation scenario with a declared mixed
state, its unsharp-measurement variant with declared measurement mixtures,
and the three-party anti-correlated coin (pairwise measurable only).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Number
from operator import mul

from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    ModelError,
    RationalDistribution,
    State,
    ZERO,
    system_type,
    validate_system_type,
)
from ctxcheck.sheaf import context_outcome_tuples

TOLERANCE = 1e-12
COMMUTE_TOLERANCE = 1e-9

Vector = tuple[complex, ...]
Matrix = tuple[Vector, ...]


class QuantumInputError(ModelError):
    pass


def _vector(values) -> Vector:
    """Finite complex entries from a sequence of numbers."""
    if isinstance(values, Number):
        raise QuantumInputError(f"expected a sequence of numbers, got {values!r}")
    out = []
    for x in values:
        if not isinstance(x, Number):
            raise QuantumInputError(f"expected a number, got {x!r}")
        z = complex(x)
        if not cmath.isfinite(z):
            raise QuantumInputError(f"entry {x!r} is not finite")
        out.append(z)
    return tuple(out)


def _matrix(value, what: str) -> Matrix:
    """A nonempty square complex matrix from a nested sequence of numbers."""
    rows = tuple(_vector(row) for row in value)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise QuantumInputError(f"{what} must be a nonempty square matrix")
    return rows


def _identity(dim: int) -> Matrix:
    return tuple(
        tuple(1 + 0j if i == j else 0j for j in range(dim)) for i in range(dim)
    )


def _outer(v: Vector) -> Matrix:
    """v v^H."""
    return tuple(tuple(x * y.conjugate() for y in v) for x in v)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _kron(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _dagger(a: Matrix) -> Matrix:
    """The conjugate transpose."""
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def _max_abs_diff(a: Matrix, b: Matrix) -> float:
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _is_positive(h: Matrix) -> bool:
    """Whether every eigenvalue of the hermitian ``h`` exceeds -TOLERANCE.

    Factors h + TOLERANCE*I as L D L^H, reading the lower triangle, with L
    unit lower-triangular and D real diagonal.  By Sylvester's law of inertia
    the shifted matrix is positive definite exactly when every pivot in D is
    positive, so the factorization stops at the first pivot that is not.
    """
    n = len(h)
    low = [[0j] * n for _ in range(n)]
    pivots = [0.0] * n
    for j in range(n):
        pivot = h[j][j].real + TOLERANCE - sum(
            pivots[k] * abs(low[j][k]) ** 2 for k in range(j)
        )
        if not pivot > 0:
            return False
        pivots[j] = pivot
        for i in range(j + 1, n):
            low[i][j] = (
                h[i][j]
                - sum(
                    low[i][k] * pivots[k] * low[j][k].conjugate()
                    for k in range(j)
                )
            ) / pivot
    return True


def _norm(v: Vector) -> float:
    return math.sqrt(sum(z.real**2 + z.imag**2 for z in v))


def as_density(state) -> Matrix:
    """Accept a state vector or density matrix; return a validated matrix."""
    entries = tuple(state)
    if entries and all(isinstance(x, Number) for x in entries):
        v = _vector(entries)
        norm = _norm(v)
        if abs(norm - 1.0) > TOLERANCE:
            raise QuantumInputError(f"state vector has norm {norm!r}")
        return _outer(v)
    rho = _matrix(entries, "density matrix")
    if _max_abs_diff(rho, _dagger(rho)) > TOLERANCE:
        raise QuantumInputError("density matrix is not hermitian")
    trace = sum(rho[i][i] for i in range(len(rho)))
    if abs(trace.real - 1.0) > TOLERANCE:
        raise QuantumInputError(f"density matrix has trace {trace!r}")
    if not _is_positive(rho):
        raise QuantumInputError("density matrix has a negative eigenvalue")
    return rho


def validate_projector(matrix) -> None:
    p = _matrix(matrix, "projector")
    if _max_abs_diff(p, _dagger(p)) > TOLERANCE:
        raise QuantumInputError("projector is not hermitian")
    if _max_abs_diff(_matmul(p, p), p) > TOLERANCE:
        raise QuantumInputError("matrix is not idempotent")


def validate_povm(effects) -> None:
    """Hermitian positive elements summing to the identity (within 1e-12)."""
    if not effects:
        raise QuantumInputError("empty effect list")
    effects = [_matrix(e, "effect") for e in effects]
    dim = len(effects[0])
    if any(len(e) != dim for e in effects):
        raise QuantumInputError("effects differ in dimension")
    for e in effects:
        if _max_abs_diff(e, _dagger(e)) > TOLERANCE:
            raise QuantumInputError("effect is not hermitian")
        if not _is_positive(e):
            raise QuantumInputError("effect has a negative eigenvalue")
    total = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*effects))
    if _max_abs_diff(total, _identity(dim)) > TOLERANCE:
        raise QuantumInputError("effects do not sum to the identity")


def projector_onto(vector) -> Matrix:
    v = _vector(vector)
    norm = _norm(v)
    if norm == 0:
        raise QuantumInputError("cannot project onto the zero vector")
    v = tuple(z / norm for z in v)
    return _outer(v)


@dataclass
class QuantumLabel:
    """A base measurement: named POVM elements aligned with outcome labels."""

    name: str
    outcomes: tuple[str, ...]
    effects: tuple[Matrix, ...]  # any nested sequences, stored as Matrix

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.effects):
            raise QuantumInputError(
                f"label {self.name!r}: outcomes and effects misaligned"
            )
        what = f"label {self.name!r}: effect"
        self.effects = tuple(_matrix(e, what) for e in self.effects)
        validate_povm(self.effects)


@dataclass
class QuantumScenario:
    """States, labelled POVMs and a measurement cover; Born input data."""

    states: dict[str, Vector | Matrix]  # or any nested sequence: see as_density
    labels: dict[str, QuantumLabel]
    cover: tuple[tuple[str, ...], ...]
    convex: tuple[ConvexDeclaration, ...] = ()


def binary_projective_label(name: str, vector) -> QuantumLabel:
    """Yes/no test for a pure state: outcome "1" fires on the projector."""
    p = projector_onto(vector)
    validate_projector(p)
    complement = tuple(
        tuple(e - x for e, x in zip(erow, prow))
        for erow, prow in zip(_identity(len(p)), p)
    )
    return QuantumLabel(name=name, outcomes=("0", "1"), effects=(complement, p))


def born_weight(rho: Matrix, effects) -> float:
    """tr(rho E1 E2 ...) as the sum over i, j of rho_ij Pi_ji, Pi = E1 E2 ..."""
    product = effects[0]
    for e in effects[1:]:
        product = _matmul(product, e)
    return sum(
        x * y for row, col in zip(rho, zip(*product)) for x, y in zip(row, col)
    ).real


def _require_commuting(labels: list[QuantumLabel]) -> None:
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            for a in labels[i].effects:
                for b in labels[j].effects:
                    gap = _max_abs_diff(_matmul(a, b), _matmul(b, a))
                    if gap > COMMUTE_TOLERANCE:
                        raise QuantumInputError(
                            f"effects of {labels[i].name!r} and "
                            f"{labels[j].name!r} do not commute"
                        )


def born_scenario(
    scenario: QuantumScenario, max_denominator: int
) -> tuple[EmpiricalTheory, Fraction]:
    """Exact-rational empirical theory from Born-rule probabilities.

    Joint context probabilities multiply commuting effects.  Each value is
    rounded to the nearest fraction with denominator at most
    ``max_denominator`` and every context table is renormalized exactly;
    the returned bound is the largest |float - rational| over all entries.
    """
    if max_denominator < 1:
        raise QuantumInputError("max_denominator must be positive")
    densities = {}
    for name, m in scenario.states.items():
        try:
            densities[name] = as_density(m)
        except QuantumInputError as e:
            raise QuantumInputError(f"state {name!r}: {e}") from None
    dims = {len(rho) for rho in densities.values()}
    dims.update(len(e) for lab in scenario.labels.values() for e in lab.effects)
    if len(dims) > 1:
        raise QuantumInputError(
            f"states and effects mix the dimensions {sorted(dims)}"
        )
    system = system_type(
        {name: lab.outcomes for name, lab in scenario.labels.items()},
        scenario.cover,
    )
    problems = validate_system_type(system)
    if problems:
        raise QuantumInputError("invalid scenario: " + "; ".join(problems))
    for ctx in system.cover:
        _require_commuting([scenario.labels[m] for m in ctx])
    bound = 0.0
    states: dict[str, State] = {}
    for name, rho in densities.items():
        table: dict[tuple[str, ...], RationalDistribution] = {}
        for ctx in system.cover:
            labs = [scenario.labels[m] for m in ctx]
            raw: dict[tuple[str, ...], tuple[float, Fraction]] = {}
            total = ZERO
            for values in context_outcome_tuples(system, ctx):
                effs = [
                    lab.effects[lab.outcomes.index(v)]
                    for lab, v in zip(labs, values)
                ]
                p = born_weight(rho, effs)
                f = Fraction(p).limit_denominator(max_denominator)
                if f < 0:
                    f = ZERO
                raw[values] = (p, f)
                total += f
            if total == 0:
                raise QuantumInputError(
                    f"context {ctx} has zero total weight for state {name!r}"
                )
            weights = {}
            for values, (p, f) in raw.items():
                w = f / total
                if w != 0:
                    weights[values] = w
                bound = max(bound, abs(p - float(w)))
            table[ctx] = RationalDistribution(domain=ctx, weights=weights)
        states[name] = State(name=name, table=table)
    theory = EmpiricalTheory(
        system=system, states=states, convex=scenario.convex
    )
    return theory, Fraction(bound)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

BUILTIN_NAMES = (
    "bell",
    "mermin",
    "spekkens-preparation",
    "spekkens-unsharp",
    "specker-triangle",
)


@dataclass
class BuiltinExample:
    """A ready-made theory plus its expected verdicts and builder notes."""

    name: str
    theory: EmpiricalTheory
    perturbation_bound: Fraction
    expected: dict[str, bool]
    notes: dict[str, str] = field(default_factory=dict)
    # the pre-rationalization quantum scenario, when there is one
    scenario: QuantumScenario | None = None


def phase_vector(theta: float) -> Vector:
    r = math.sqrt(2)
    return (1 / r + 0j, cmath.exp(1j * theta) / r)


def _lift(effect: Matrix, position: int, parties: int) -> Matrix:
    """Tensor a single-qubit effect into the given slot of a qubit register."""
    out = _identity(1)
    for i in range(parties):
        out = _kron(out, effect if i == position else _identity(2))
    return out


def _register_label(name: str, vectors, position: int, parties: int) -> QuantumLabel:
    effects = tuple(
        _lift(projector_onto(v), position, parties) for v in vectors
    )
    return QuantumLabel(name=name, outcomes=("0", "1"), effects=effects)


def _ghz(parties: int) -> Vector:
    """(|0...0> + |1...1>) / sqrt(2) on a qubit register."""
    h = 1 / math.sqrt(2) + 0j
    return (h,) + (0j,) * (2**parties - 2) + (h,)


def _bell() -> BuiltinExample:
    ghz2 = _ghz(2)
    theta = math.pi / 3
    basis = {
        "a": (phase_vector(0), _orth(phase_vector(0))),
        "a'": (phase_vector(theta), _orth(phase_vector(theta))),
        "b": (phase_vector(0), _orth(phase_vector(0))),
        "b'": (phase_vector(theta), _orth(phase_vector(theta))),
    }
    labels = {}
    for name, vectors in basis.items():
        position = 0 if name.startswith("a") else 1
        labels[name] = _register_label(name, vectors, position, 2)
    scenario = QuantumScenario(
        states={"ghz": ghz2},
        labels=labels,
        cover=(("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'")),
    )
    theory, bound = born_scenario(scenario, 8)
    return BuiltinExample(
        name="bell",
        theory=theory,
        perturbation_bound=bound,
        expected={
            "probabilistic_contextual": True,
            "possibilistic_contextual": False,
        },
        notes={
            "state": "two-qubit maximally entangled state",
            "measurements": "phase measurements at angles 0 and pi/3 per side",
        },
        scenario=scenario,
    )


def _orth(v: Vector) -> Vector:
    return (v[1].conjugate(), -v[0].conjugate())


def _mermin() -> BuiltinExample:
    ghz3 = _ghz(3)
    r = math.sqrt(2)
    x_basis = ((1 / r + 0j, 1 / r + 0j), (1 / r + 0j, -1 / r + 0j))
    y_basis = ((1 / r + 0j, 1j / r), (1 / r + 0j, -1j / r))
    labels = {}
    for i in range(3):
        labels[f"X{i + 1}"] = _register_label(f"X{i + 1}", x_basis, i, 3)
        labels[f"Y{i + 1}"] = _register_label(f"Y{i + 1}", y_basis, i, 3)
    scenario = QuantumScenario(
        states={"ghz": ghz3},
        labels=labels,
        cover=(
            ("X1", "Y2", "Y3"),
            ("Y1", "X2", "Y3"),
            ("Y1", "Y2", "X3"),
            ("X1", "X2", "X3"),
        ),
    )
    theory, bound = born_scenario(scenario, 16)
    return BuiltinExample(
        name="mermin",
        theory=theory,
        perturbation_bound=bound,
        expected={
            "probabilistic_contextual": True,
            "possibilistic_contextual": True,
        },
        notes={
            "state": "three-qubit maximally entangled state",
            "parity": "odd weight on the three mixed contexts, even on X1X2X3",
        },
        scenario=scenario,
    )


TRINE_VECTORS = {
    "a": (1.0, 0.0),
    "A": (0.0, 1.0),
    "b": (math.sqrt(3) / 2, -0.5),
    "B": (0.5, math.sqrt(3) / 2),
    "c": (math.sqrt(3) / 2, 0.5),
    "C": (0.5, -math.sqrt(3) / 2),
}

VECTOR_CONVENTION_NOTE = (
    "vectors are assigned so that the state named b gives weight 1/4 to "
    "outcome 0 of the test Pa; with the other pairing of each orthogonal "
    "pair the roles of b/B and c/C are exchanged and the mixture "
    "declarations become exactly satisfiable"
)


def _trine_labels() -> dict[str, QuantumLabel]:
    return {
        f"P{x}": binary_projective_label(f"P{x}", v)
        for x, v in TRINE_VECTORS.items()
    }


def _uniform_mix(names: tuple[str, ...], target: str) -> ConvexDeclaration:
    """``target`` declared as the equal-weight mixture of the states ``names``."""
    w = Fraction(1, len(names))
    return ConvexDeclaration(
        kind="state",
        target=target,
        components=tuple(ConvexComponent(coefficient=w, name=n) for n in names),
    )


def _spekkens_preparation() -> BuiltinExample:
    states = {x: projector_onto(v) for x, v in TRINE_VECTORS.items()}
    states["mix"] = ((0.5 + 0j, 0j), (0j, 0.5 + 0j))
    scenario = QuantumScenario(
        states=states,
        labels=_trine_labels(),
        cover=(("Pa", "PA"), ("Pb", "PB"), ("Pc", "PC")),
        convex=(
            _uniform_mix(("a", "b", "c"), "mix"),
            _uniform_mix(("A", "B", "C"), "mix"),
            _uniform_mix(("a", "A"), "mix"),
            _uniform_mix(("b", "B"), "mix"),
            _uniform_mix(("c", "C"), "mix"),
        ),
    )
    theory, bound = born_scenario(scenario, 8)
    return BuiltinExample(
        name="spekkens-preparation",
        theory=theory,
        perturbation_bound=bound,
        expected={
            "probabilistic_contextual": True,
            "possibilistic_contextual": False,
            "feasible_without_declarations": True,
        },
        notes={
            "convention": VECTOR_CONVENTION_NOTE,
            "declarations": (
                "five decompositions of the mixed preparation are declared; "
                "the three balanced two-element ones hold for the identity "
                "matrix, the two three-element ones are the contested "
                "mixtures driving infeasibility"
            ),
        },
        scenario=scenario,
    )


def _spekkens_unsharp(max_denominator: int = 10**6) -> BuiltinExample:
    states = {x: projector_onto(v) for x, v in TRINE_VECTORS.items()}
    scenario = QuantumScenario(
        states=states,
        labels=_trine_labels(),
        cover=(("Pa", "PA"), ("Pb", "PB"), ("Pc", "PC")),
    )
    theory, bound = born_scenario(scenario, max_denominator)
    system = system_type(
        {
            **{m: ("0", "1") for m in theory.system.labels},
            "Pabc": ("0", "1"),
            "PABC": ("0", "1"),
        },
        tuple(theory.system.cover) + (("Pabc", "PABC"),),
    )
    h = Fraction(1, 2)
    uniform_pair = {("1", "0"): h, ("0", "1"): h}
    states_out: dict[str, State] = {}
    for name, st in theory.states.items():
        table = dict(st.table)
        table[("Pabc", "PABC")] = RationalDistribution(
            domain=("Pabc", "PABC"), weights=dict(uniform_pair)
        )
        states_out[name] = State(name=name, table=table)
    t = Fraction(1, 3)
    identity_map = (("0", "0"), ("1", "1"))
    convex = tuple(
        ConvexDeclaration(
            kind="measurement",
            target=target,
            components=tuple(
                ConvexComponent(
                    coefficient=t, name=f"P{x}", outcome_map=identity_map
                )
                for x in members
            ),
        )
        for target, members in (("Pabc", "abc"), ("PABC", "ABC"))
    )
    out = EmpiricalTheory(system=system, states=states_out, convex=convex)
    return BuiltinExample(
        name="spekkens-unsharp",
        theory=out,
        perturbation_bound=bound,
        expected={
            "probabilistic_contextual": True,
            "feasible_without_declarations": True,
        },
        notes={
            "convention": VECTOR_CONVENTION_NOTE,
            "joint_context": (
                "the mixed-test pair is declared uniform and perfectly "
                "anti-correlated, as realized by uniformly sampling one of "
                "the three projective tests"
            ),
            "computed_mixture": (
                "the declared third-weight mixtures force the state named a "
                "to weight 5/6 on outcome 1 of the abc test, against the "
                "declared 1/2; the source text prints (3+sqrt(3))/6 here, "
                "which neither vector pairing reproduces"
            ),
        },
    )


def _specker_triangle() -> BuiltinExample:
    h = Fraction(1, 2)
    cover = (("a", "b"), ("a", "c"), ("b", "c"))
    system = system_type({m: ("0", "1") for m in "abc"}, cover)
    table = {
        ctx: RationalDistribution(
            domain=ctx, weights={("0", "1"): h, ("1", "0"): h}
        )
        for ctx in system.cover
    }
    theory = EmpiricalTheory(
        system=system, states={"coin": State(name="coin", table=table)}
    )
    return BuiltinExample(
        name="specker-triangle",
        theory=theory,
        perturbation_bound=ZERO,
        expected={
            "probabilistic_contextual": True,
            "possibilistic_contextual": True,
            "one_point_representation": True,
        },
        notes={
            "statistics": "every pairwise table is uniform anti-correlated",
        },
    )


def builtin_example(name: str, max_denominator: int | None = None) -> BuiltinExample:
    """Return a built-in scenario by name; see BUILTIN_NAMES.

    Only ``spekkens-unsharp`` is rationalized, so only it takes
    ``max_denominator``; another builtin given one raises ``ModelError``.
    """
    if name == "spekkens-unsharp":
        return _spekkens_unsharp(10**6 if max_denominator is None else max_denominator)
    if max_denominator is not None and name in BUILTIN_NAMES:
        raise ModelError(f"example {name!r} takes no denominator bound")
    if name == "bell":
        return _bell()
    if name == "mermin":
        return _mermin()
    if name == "spekkens-preparation":
        return _spekkens_preparation()
    if name == "specker-triangle":
        return _specker_triangle()
    raise ModelError(
        f"unknown example {name!r}; choose one of {', '.join(BUILTIN_NAMES)}"
    )


def without_declarations(theory: EmpiricalTheory) -> EmpiricalTheory:
    """The same theory with every convex declaration removed."""
    return EmpiricalTheory(system=theory.system, states=theory.states, convex=())
