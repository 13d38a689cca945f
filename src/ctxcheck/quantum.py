"""Born-rule front end and built-in example scenarios.

Floating point is confined to this module.  Probabilities are computed as
tr(rho E) with numpy, rationalized to bounded-denominator fractions, and
each context's table is renormalized exactly; the maximum rationalization
error is reported so feasibility verdicts can be flagged robust or fragile
against it.  numpy is imported inside the functions that use it, so it
loads on the first Born-rule call (a quantum scenario or a builtin example)
and the exact checker runs without it.

Built-in scenarios: the two-qubit phase-measurement table, the three-qubit
parity argument, the trine preparation scenario with a declared mixed
state, its unsharp-measurement variant with declared measurement mixtures,
and the three-party anti-correlated coin (pairwise measurable only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from ctxcheck.model import (
    ConvexComponent,
    ConvexDeclaration,
    EmpiricalTheory,
    ModelError,
    RationalDistribution,
    State,
    ZERO,
    system_type,
)
from ctxcheck.sheaf import context_outcome_tuples

if TYPE_CHECKING:
    import numpy as np

TOLERANCE = 1e-12
COMMUTE_TOLERANCE = 1e-9


class QuantumInputError(ModelError):
    pass


def as_density(state) -> np.ndarray:
    """Accept a state vector or density matrix; return a validated matrix."""
    import numpy as np

    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > TOLERANCE:
            raise QuantumInputError(f"state vector has norm {norm!r}")
        return np.outer(arr, arr.conj())
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QuantumInputError("density matrix must be square")
    if np.abs(arr - arr.conj().T).max() > TOLERANCE:
        raise QuantumInputError("density matrix is not hermitian")
    if abs(np.trace(arr).real - 1.0) > TOLERANCE:
        raise QuantumInputError(f"density matrix has trace {np.trace(arr)!r}")
    eigs = np.linalg.eigvalsh(arr)
    if eigs.min() < -TOLERANCE:
        raise QuantumInputError("density matrix has a negative eigenvalue")
    return arr


def validate_projector(matrix: np.ndarray) -> None:
    import numpy as np

    if np.abs(matrix - matrix.conj().T).max() > TOLERANCE:
        raise QuantumInputError("projector is not hermitian")
    if np.abs(matrix @ matrix - matrix).max() > TOLERANCE:
        raise QuantumInputError("matrix is not idempotent")


def validate_povm(effects) -> None:
    """Hermitian positive elements summing to the identity (within 1e-12)."""
    import numpy as np

    if not effects:
        raise QuantumInputError("empty effect list")
    dim = effects[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for e in effects:
        if np.abs(e - e.conj().T).max() > TOLERANCE:
            raise QuantumInputError("effect is not hermitian")
        if np.linalg.eigvalsh(e).min() < -TOLERANCE:
            raise QuantumInputError("effect has a negative eigenvalue")
        total += e
    if np.abs(total - np.eye(dim)).max() > TOLERANCE:
        raise QuantumInputError("effects do not sum to the identity")


def projector_onto(vector) -> np.ndarray:
    import numpy as np

    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


@dataclass
class QuantumLabel:
    """A base measurement: named POVM elements aligned with outcome labels."""

    name: str
    outcomes: tuple[str, ...]
    effects: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.effects):
            raise QuantumInputError(
                f"label {self.name!r}: outcomes and effects misaligned"
            )
        validate_povm(self.effects)


@dataclass
class QuantumScenario:
    """States, labelled POVMs and a measurement cover; Born input data."""

    states: dict[str, np.ndarray]  # validated by as_density at build time
    labels: dict[str, QuantumLabel]
    cover: tuple[tuple[str, ...], ...]
    convex: tuple[ConvexDeclaration, ...] = ()


def binary_projective_label(name: str, vector) -> QuantumLabel:
    """Yes/no test for a pure state: outcome "1" fires on the projector."""
    import numpy as np

    p = projector_onto(vector)
    validate_projector(p)
    return QuantumLabel(
        name=name,
        outcomes=("0", "1"),
        effects=(np.eye(p.shape[0], dtype=complex) - p, p),
    )


def born_weight(rho: np.ndarray, effects) -> float:
    import numpy as np

    product = None
    for e in effects:
        product = e if product is None else product @ e
    return float(np.trace(rho @ product).real)


def _require_commuting(labels: list[QuantumLabel]) -> None:
    import numpy as np

    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            for a in labels[i].effects:
                for b in labels[j].effects:
                    if np.abs(a @ b - b @ a).max() > COMMUTE_TOLERANCE:
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
    densities = {name: as_density(m) for name, m in scenario.states.items()}
    system = system_type(
        {name: lab.outcomes for name, lab in scenario.labels.items()},
        scenario.cover,
    )
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


def phase_vector(theta: float) -> np.ndarray:
    import numpy as np

    return np.array([1.0, np.exp(1j * theta)], dtype=complex) / math.sqrt(2)


def _lift(effect: np.ndarray, position: int, parties: int) -> np.ndarray:
    """Tensor a single-qubit effect into the given slot of a qubit register."""
    import numpy as np

    out = np.eye(1, dtype=complex)
    for i in range(parties):
        out = np.kron(out, effect if i == position else np.eye(2, dtype=complex))
    return out


def _register_label(name: str, vectors, position: int, parties: int) -> QuantumLabel:
    effects = tuple(
        _lift(projector_onto(v), position, parties) for v in vectors
    )
    return QuantumLabel(name=name, outcomes=("0", "1"), effects=effects)


def _bell() -> BuiltinExample:
    import numpy as np

    ghz2 = np.zeros(4, dtype=complex)
    ghz2[0] = ghz2[3] = 1 / math.sqrt(2)
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


def _orth(v: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.array([v[1].conjugate(), -v[0].conjugate()], dtype=complex)


def _mermin() -> BuiltinExample:
    import numpy as np

    ghz3 = np.zeros(8, dtype=complex)
    ghz3[0] = ghz3[7] = 1 / math.sqrt(2)
    x_basis = (
        np.array([1, 1], dtype=complex) / math.sqrt(2),
        np.array([1, -1], dtype=complex) / math.sqrt(2),
    )
    y_basis = (
        np.array([1, 1j], dtype=complex) / math.sqrt(2),
        np.array([1, -1j], dtype=complex) / math.sqrt(2),
    )
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
    import numpy as np

    states = {x: projector_onto(v) for x, v in TRINE_VECTORS.items()}
    states["mix"] = np.eye(2, dtype=complex) / 2
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
