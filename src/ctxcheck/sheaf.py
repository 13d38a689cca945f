"""Global sections of empirical theories and the contextuality decision.

A theory is noncontextual when every state's context tables arise as the
marginals of one exact distribution over full outcome assignments, with any
declared convex relations holding at that underlying level too.  This module
builds that condition as an exact linear system and decides it, returning
either the underlying distributions or a Farkas certificate.

One input needs no linear system: a theory without declarations on an
alpha-acyclic cover.  No-signalling already gives it a global section, the
product of its context tables along a join tree (Vorob'ev 1962; Abramsky
and Brandenburger, New J. Phys. 13, 113036 (2011)).  The probabilistic
check builds that section (``_product_sections``), verifies it with
``verify_global_section``, and returns it with no LP.  Every other input,
a cyclic cover or any declaration, is decided by the LP.  Both deciders
assume a theory that passes ``validate_theory``; ``check_contextuality``
rejects any other before either runs.

The possibilistic variant asks the same question of supports: every supported
local section must extend to a full assignment that is supported everywhere.
They are the keys of the natural join of its tables over the cover (Abramsky,
arXiv:1208.6416), the one join (``_join``) whose weights the product path
reads on an acyclic cover; neither check lists the full assignments.

Every table, section and declaration holds its weights' integer reading
(``integer``, as ``model.integer_weights`` gives it), computed once by the
sum check its constructor runs; no reader here computes it again.
Restriction to a context has one helper per data shape: ``_pushforwards``
sums integer weights by restriction onto several label tuples in one call,
and ``_skeleton`` groups the full assignments by their restriction, for
the LP build; both restrict with ``_restriction``.  ``marginal_weights``
pushes a distribution's sorted integer reading onto one label tuple and
returns ``Fraction`` weights, and ``marginals_agree`` compares two unsorted
pushforwards with ``model.integer_weights_equal`` (for ``equivalence`` and
``bridge``).  ``verify_global_section`` pushes each section's reading onto
every context in one call and onto every label a measurement mixture names,
and compares by cross-multiplying, declarations included.  It reads no
product or LP code, so it stays an independent re-encoding of the LP.  The
product section reads each table's reading, carries each weight as an
integer pair and makes one ``Fraction`` per returned weight.

The input gate reads each table once.  ``check_contextuality`` first runs
``validate_theory``, whose system-type checks are memoized on the system
type (``model.validate_system_type``), and then the no-signalling check
``signalling_violations``.  That takes each state's table's integer
reading, with no sort (an equality needs none), and pushes it in one call
onto every label tuple it shares with another context; each overlapping
pair then compares two pushforwards with ``integer_weights_equal``.  Which
pairs overlap, on which labels, and where those labels sit in each context
depend only on the cover, so they are a field of the system type's
``Scenario``.

In the LP ``M d = v``, the tables enter only through the marginal rows
(Abramsky, Barbosa and Mansfield, PRL 119, 050504 (2017)): a marginal row's
rhs is a table weight, and its integer coefficients are that weight's
denominator.  The rest, its skeleton, depends only on the system type, the
state names and the declarations: the variables, every row name, every
marginal row's unit row (a 1 on each of its columns), and the
normalization and declaration rows whole.
``_skeleton`` builds it, memoized by value on those three.  Every LP of a
scenario shares the skeleton's normalization and declaration rows, and the
unit row of every marginal whose weight is 0 or 1, since a ``LinearSystem``
is immutable and nothing writes its rows.

Everything a system type alone fixes is one ``Scenario``, memoized by value
on it (``_scenario``): the assignments (the LP build and
``extract_sections``), the overlapping pairs (the gate), the join plan (the
product path and the possibilistic check) and the unbuilt LP's size, each
built on first read.  The two memos, ``_scenario`` and
``_skeleton``, each keep at most ``model._MEMO_SIZE`` (8) scenarios and
never hold a verdict or a table entry.  Each skeleton also holds the
presolve memo its LPs share (``linprog._presolved``): one entry, the
presolve of the last of them solved, keyed on which of its rows have a zero
rhs, the one thing presolve reads that differs between them.  The entry is
row and column indices only, so it holds no verdict or table entry either.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd, lcm, prod
from operator import itemgetter

from ctxcheck.linprog import (
    FarkasCertificate,
    Feasible,
    LinearSystem,
    LinearSystemError,
    solve_feasibility,
)
from ctxcheck.model import (
    Context,
    ConvexDeclaration,
    EmpiricalTheory,
    ModelError,
    RationalDistribution,
    State,
    SystemType,
    ZERO,
    _MEMO_SIZE,
    component_outcome_map,
    integer_weights_equal,
    validate_theory,
)


class SignallingError(ModelError):
    """Raised when an operation requires marginal-consistent tables."""


def context_outcome_tuples(system: SystemType, context: Context):
    """All outcome tuples over ``context``, lexicographic (first label slowest)."""
    return itertools.product(*(system.outcomes_of(m).labels for m in context))


def global_outcome_tuples(system: SystemType):
    """All outcome tuples over the full label set."""
    return context_outcome_tuples(system, system.labels)


def sub_contexts(ctx: Context):
    """All nonempty sub-contexts of ``ctx``, by size, in label order."""
    for r in range(1, len(ctx) + 1):
        yield from itertools.combinations(ctx, r)


def _picker(pos: Sequence[int]) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """The map from a tuple to the tuple of its entries at ``pos``."""
    if len(pos) > 1:
        return itemgetter(*pos)
    # itemgetter of one position returns the bare entry; a slice keeps a tuple
    start = pos[0] if pos else 0
    return itemgetter(slice(start, start + len(pos)))


def _restriction(
    domain: tuple[str, ...], sub: tuple[str, ...]
) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """The map from a ``domain`` outcome tuple to its ``sub`` labels' values."""
    return _picker([domain.index(m) for m in sub])


def _pushforwards(
    items: Collection[tuple[tuple[str, ...], int]],
    restrictions: Sequence[Callable[[tuple[str, ...]], tuple[str, ...]]],
) -> list[dict[tuple[str, ...], int]]:
    """Sums of integer weights by restriction of their outcome tuples, one
    sum per label tuple, each given by its restriction (``_restriction``).

    Each sum keeps the outcome tuples in the order they are first reached.
    ``items`` is walked once per restriction: one walk updating every sum
    measured slower, at the three or four label tuples a table or section
    is pushed onto.
    """
    accs = []
    for restrict in restrictions:
        acc: dict[tuple[str, ...], int] = {}
        for values, n in items:
            key = restrict(values)
            acc[key] = acc.get(key, 0) + n
        accs.append(acc)
    return accs


def marginal_weights(
    dist: RationalDistribution, sub: tuple[str, ...]
) -> dict[tuple[str, ...], Fraction]:
    """Pushforward of a distribution along restriction to ``sub`` labels.

    Sums the distribution's integer reading, so the outcome tuples come in
    the order they are first reached in sorted order.
    """
    nums, den = dist.integer
    (acc,) = _pushforwards(sorted(nums.items()), [_restriction(dist.domain, sub)])
    return {key: Fraction(n, den) for key, n in acc.items()}


def marginals_agree(
    a: RationalDistribution,
    a_sub: tuple[str, ...],
    b: RationalDistribution,
    b_sub: tuple[str, ...],
) -> bool:
    """Whether ``a`` restricted to ``a_sub`` and ``b`` restricted to ``b_sub``
    have equal pushforwards, outcome tuples read position by position.

    Compares the pushforwards of the integer readings by cross-multiplying
    their denominators, so no ``Fraction`` is made.
    """
    (a_nums, a_den), (b_nums, b_den) = a.integer, b.integer
    (a_acc,) = _pushforwards(a_nums.items(), [_restriction(a.domain, a_sub)])
    (b_acc,) = _pushforwards(b_nums.items(), [_restriction(b.domain, b_sub)])
    return integer_weights_equal((a_acc, a_den), (b_acc, b_den))


def signalling_violations(theory: EmpiricalTheory) -> list[str]:
    """Context pairs whose tables disagree on shared labels, per state.

    The integer reading of each table that shares labels with another
    context is pushed onto all of its shared label tuples in one call per
    state (``Scenario.overlaps`` lists them); each pair compares two
    pushforwards.  Pairs come in ``itertools.combinations`` order of the cover.
    """
    cover = theory.system.cover
    pushes, pairs = _scenario(theory.system).overlaps
    out: list[str] = []
    for name, state in theory.states.items():
        # per context index: (pushforwards onto its shared tuples, den)
        read: dict[int, tuple[list[dict[tuple[str, ...], int]], int]] = {}
        for i, j, shared, i_slot, j_slot in pairs:
            for k in (i, j):
                if k not in read:
                    dist = state.distribution(cover[k])
                    subs, at = pushes[k]
                    if dist.domain != cover[k]:  # invalid, but read as labeled
                        at = [_restriction(dist.domain, sub) for sub in subs]
                    nums, den = dist.integer
                    read[k] = _pushforwards(nums.items(), at), den
            (i_accs, i_den), (j_accs, j_den) = read[i], read[j]
            if not integer_weights_equal(
                (i_accs[i_slot], i_den), (j_accs[j_slot], j_den)
            ):
                out.append(
                    f"state {name!r}: contexts {cover[i]} and {cover[j]} "
                    f"disagree on {shared}"
                )
    return out


def require_no_signalling(theory: EmpiricalTheory) -> None:
    violations = signalling_violations(theory)
    if violations:
        raise SignallingError("; ".join(violations))


def variable_name(state: str, values: tuple[str, ...]) -> str:
    return f"d[{state};{','.join(values)}]"


def global_section_system(theory: EmpiricalTheory) -> LinearSystem:
    """The exact linear system whose nonnegative solutions are global sections.

    One variable per (state, full outcome assignment): state ``k``'s
    assignment ``i`` is column ``k * len(assignments) + i``.  Rows:
    normalization per state, every context marginal per state, and one row
    per declared convex relation (state mixtures bind assignment-wise;
    measurement mixtures bind the aggregated per-label statistics of the
    underlying distribution, using the declared outcome identifications).

    Only the marginal rows read the tables.  Everything else (the variables,
    every row name, each marginal's unit row, and the normalization and
    declaration rows whole) depends only on the system type, the state
    names and the declarations, and comes from ``_skeleton``, memoized on
    those three.  A marginal row reads its weight's denominator on each
    column, so a zero or one weight's row is the unit row itself, and any
    other is built from it.  Every LP of a scenario shares the rows it takes
    from the skeleton, which nothing writes, and the skeleton's presolve
    memo: its rows have the same supports and signs, so ``solve_feasibility``
    presolves again only when the zero pattern of the rhs differs from that
    of the scenario's last solve.
    """
    skeleton = _skeleton(theory.system, tuple(theory.states), tuple(theory.convex))
    coeffs: list[dict[int, int]] = []
    rhs: list[int] = []
    scales: list[int] = []
    for s, norm, marginals in skeleton.states:
        coeffs.append(norm)
        rhs.append(1)
        scales.append(1)
        state = theory.state(s)
        for ctx, entries in marginals:
            weights = state.distribution(ctx).weights
            for t, unit in entries:
                w = weights.get(t, ZERO)
                # the row reads its scale, the rhs denominator, on each
                # column; a zero or one weight's row is the shared unit row
                den = w.denominator
                coeffs.append(unit if den == 1 else dict.fromkeys(unit, den))
                rhs.append(w.numerator)
                scales.append(den)
    for row, scale in skeleton.declarations:
        coeffs.append(row)
        rhs.append(0)
        scales.append(scale)
    return LinearSystem._from_rows(
        skeleton.variables,
        skeleton.rows,
        tuple(coeffs),
        tuple(rhs),
        tuple(scales),
        skeleton.presolve_memo,
    )


# One marginal row of a skeleton: (outcome tuple, unit row), the unit row
# reading 1 on each column whose assignment restricts to the tuple; the LP row
# is the unit row times the denominator of the weight the table gives the
# tuple, and its rhs that weight's numerator.
_Marginal = tuple[tuple[str, ...], dict[int, int]]
# One declaration row: (name, integer coefficients by column, scale); its
# rhs is 0.
_Declaration = tuple[str, dict[int, int], int]


@dataclass(frozen=True)
class Scenario:
    """What a system type alone fixes, each field built on first read, so
    the gate and the two readers of the join never list the assignments."""

    system: SystemType

    @cached_property
    def assignments(self) -> tuple[tuple[str, ...], ...]:
        """The full outcome assignments, in mixed-radix order."""
        return tuple(global_outcome_tuples(self.system))

    @cached_property
    def size(self) -> tuple[int, int]:
        """Per state, the columns and rows of an undeclared
        ``global_section_system``: one column per assignment, and one row
        for the norm and for each outcome tuple of each context."""
        radices = [len(o.labels) for o in self.system.outcomes]
        position = self.system.label_position
        return prod(radices), 1 + sum(
            prod(radices[position(m)] for m in ctx) for ctx in self.system.cover
        )

    @cached_property
    def overlaps(self) -> tuple[tuple, tuple]:
        """The cover's overlapping pairs, as (pushes, pairs).  ``pushes[k]``
        holds the distinct label tuples context ``k`` shares with others and
        their restrictions from it (``_restriction``); ``pairs`` holds per
        overlapping pair, in ``itertools.combinations`` order of the cover,
        (i, j, shared labels, their slot in ``pushes[i]``, in ``pushes[j]``).
        """
        cover = self.system.cover
        shares: list[list[tuple[str, ...]]] = [[] for _ in cover]
        pairs = []
        for (i, ctx), (j, other) in itertools.combinations(enumerate(cover), 2):
            shared = tuple(m for m in ctx if m in other)
            if not shared:
                continue
            slots = []
            for k in (i, j):
                if shared not in shares[k]:
                    shares[k].append(shared)
                slots.append(shares[k].index(shared))
            pairs.append((i, j, shared, *slots))
        pushes = tuple(
            (tuple(subs), tuple(_restriction(ctx, sub) for sub in subs))
            for ctx, subs in zip(cover, shares)
        )
        return pushes, tuple(pairs)

    @cached_property
    def join(self) -> tuple[tuple, Callable, bool]:
        """The plan of ``_join`` over the cover, as (steps, perm, acyclic).

        The steps take the cover in a maximum cardinality search order
        (Tarjan and Yannakakis, SIAM J. Comput. 13, 566 (1984)): next comes
        the context with the most labels already seen, the first listed
        among ties.  The cover is ``acyclic`` (alpha-acyclic) exactly when the
        shared labels of each context, those of earlier ones, lie in one
        earlier context.  A step is (context, shared labels, and pickers of
        their values from a context tuple and from a partial product, and of
        the context's other values); ``perm`` puts a row in label order.
        """
        cover = self.system.cover
        seen: dict[str, int] = {}  # each label's position in the product
        earlier: list[set[str]] = []
        left = list(range(len(cover)))
        steps = []
        acyclic = True
        while left:
            k = max(left, key=lambda j: sum(m in seen for m in cover[j]))
            left.remove(k)
            ctx = cover[k]
            shared = tuple(m for m in ctx if m in seen)
            if shared and not any(c.issuperset(shared) for c in earlier):
                acyclic = False
            steps.append(
                (
                    ctx,
                    shared,
                    _picker([ctx.index(m) for m in shared]),
                    _picker([seen[m] for m in shared]),
                    _picker([i for i, m in enumerate(ctx) if m not in seen]),
                )
            )
            earlier.append(set(ctx))
            for m in ctx:
                seen.setdefault(m, len(seen))
        return tuple(steps), _picker([seen[m] for m in self.system.labels]), acyclic


# one Scenario per system type, by value
_scenario = lru_cache(maxsize=_MEMO_SIZE)(Scenario)


@dataclass(frozen=True)
class _Skeleton:
    """Everything of a global-section LP that reads no table.

    ``variables`` and ``rows`` are the LP's variable and row names.
    ``state_variables`` holds each state's variable names by assignment
    index.  ``states`` holds per state its name, its normalization row and
    per context its marginal rows' unit rows.  ``declarations`` holds the
    declaration rows' integer coefficients and scales.  Every LP of the
    scenario shares the normalization and declaration row dicts, and the
    unit row of each marginal whose weight is 0 or 1.

    ``presolve_memo`` is the presolve memo every LP of the scenario
    carries (``LinearSystem._from_rows``): one slot, holding the zero
    pattern of the rhs of the last LP solved with its presolve, or None
    before the first solve.  It is not compared, and it holds row and
    column indices only.
    """

    variables: tuple[str, ...]
    rows: tuple[str, ...]
    state_variables: dict[str, tuple[str, ...]]
    states: tuple[
        tuple[str, dict[int, int], tuple[tuple[Context, tuple[_Marginal, ...]], ...]],
        ...,
    ]
    declarations: tuple[tuple[dict[int, int], int], ...]
    presolve_memo: list = field(
        default_factory=lambda: [None], compare=False, repr=False
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _skeleton(
    system: SystemType,
    state_names: tuple[str, ...],
    convex: tuple[ConvexDeclaration, ...],
) -> _Skeleton:
    """The table-free part of ``global_section_system``, memoized by value.

    Variable and row names are checked to be unique here, once per
    scenario.  A scenario that fails that check, or holds a declaration it
    cannot hold, raises here; since a raised call is not memoized, it raises
    on every build.
    """
    assignments = _scenario(system).assignments
    size = len(assignments)
    # per context, its outcome tuples in ``context_outcome_tuples`` order,
    # each with the increasing indices of the assignments restricting to it
    marginals = []
    for ctx in system.cover:
        groups = {t: [] for t in context_outcome_tuples(system, ctx)}
        for i, t in enumerate(map(_restriction(system.labels, ctx), assignments)):
            groups[t].append(i)
        marginals.append((ctx, groups))
    names = {
        s: tuple(variable_name(s, g) for g in assignments) for s in state_names
    }
    # one int object per column, shared by every row that holds it
    every_column = tuple(range(len(state_names) * size))
    columns = {
        s: every_column[k * size : (k + 1) * size] for k, s in enumerate(state_names)
    }
    rows: list[str] = []
    states = []
    for s in state_names:
        state_columns = columns[s]
        rows.append(f"norm[{s}]")
        per_context = []
        for ctx, groups in marginals:
            prefix = f"marg[{s};{','.join(ctx)};"
            rows.extend(f"{prefix}{','.join(t)}]" for t in groups)
            units = tuple(
                (t, dict.fromkeys(map(state_columns.__getitem__, group), 1))
                for t, group in groups.items()
            )
            per_context.append((ctx, units))
        states.append((s, dict.fromkeys(state_columns, 1), tuple(per_context)))
    declarations = []
    for index, decl in enumerate(convex):
        for name, row, scale in _declaration_rows(
            system, decl, index, assignments, columns
        ):
            rows.append(name)
            declarations.append((row, scale))
    variables = tuple(v for s in state_names for v in names[s])
    if len(set(variables)) != len(variables):
        raise LinearSystemError("duplicate variable names")
    if len(set(rows)) != len(rows):
        raise LinearSystemError("duplicate constraint names")
    return _Skeleton(
        variables=variables,
        rows=tuple(rows),
        state_variables=names,
        states=tuple(states),
        declarations=tuple(declarations),
    )


def _declaration_rows(
    system: SystemType,
    decl: ConvexDeclaration,
    index: int,
    assignments: tuple[tuple[str, ...], ...],
    columns: dict[str, tuple[int, ...]],
) -> list[_Declaration]:
    """The declaration's rows (rhs 0), each as (name, integer row, scale).

    ``columns`` gives each state's column indices by assignment index.
    """
    rows: list[_Declaration] = []
    if decl.kind == "state":
        needed = {decl.target, *(c.name for c in decl.components)}
        if not needed <= columns.keys():
            raise ModelError(
                f"state mixture {decl.target!r} references states outside the system"
            )
        # every row has the same coefficient on each state's variable: the
        # target's den minus each component's numerator over den
        # (``decl.integer``), divided by the content of den and the weights
        coefs, den = decl.integer
        weights = {decl.target: den}
        for name, n in coefs.items():
            weights[name] = weights.get(name, 0) - n
        terms = {s: n for s, n in weights.items() if n}
        content = gcd(den, *terms.values())
        scale = den // content
        integer = [(columns[s], n // content) for s, n in terms.items()]
        for i, g in enumerate(assignments):
            rows.append(
                (
                    f"mix:state[{decl.target}#{index};{','.join(g)}]",
                    {cols[i]: n for cols, n in integer},
                    scale,
                )
            )
    else:
        # One row per (state, target outcome k): the assignments giving the
        # target k, minus each component's weight on the assignments whose
        # component outcome is identified with k.  The rows are the same for
        # every state up to columns, so they are built once, over assignment
        # indices, in integers over the coefficients' den (``decl.integer``).
        target_pos = system.label_position(decl.target)
        coefs, den = decl.integer
        pattern: dict[str, dict[int, int]] = {
            k: {} for k in system.outcomes_of(decl.target).labels
        }
        for i, g in enumerate(assignments):
            pattern[g[target_pos]][i] = den
        for c in decl.components:
            bij = component_outcome_map(system, decl, c)
            pos = system.label_position(c.name)
            for i, g in enumerate(assignments):
                row = pattern[bij[g[pos]]]
                row[i] = row.get(i, 0) - coefs[c.name]
        # row k times den // content is integer, with content the gcd of
        # den and its entries, and its coefficients are then n // content
        shapes: list[tuple[str, dict[int, int], int]] = []
        for k, row in pattern.items():
            nonzero = {i: n for i, n in row.items() if n}
            content = gcd(den, *nonzero.values())
            shapes.append(
                (k, {i: n // content for i, n in nonzero.items()}, den // content)
            )
        for s, state_columns in columns.items():
            for k, integers, scale in shapes:
                rows.append(
                    (
                        f"mix:meas[{decl.target}#{index};{k};{s}]",
                        {state_columns[i]: n for i, n in integers.items()},
                        scale,
                    )
                )
    return rows


@dataclass
class ContextualityVerdict:
    """Outcome of a contextuality decision, with its supporting evidence.

    Probabilistic mode fills ``sections`` (one exact full-assignment
    distribution per state) or ``certificate``/``margin``.  Possibilistic
    mode fills ``boolean_sections`` (the supported-everywhere assignments
    per state) and ``blocked`` (supported local sections none of them hits).

    ``system`` is the LP that decided a probabilistic verdict, and None when
    no LP was built: in possibilistic mode, and for the join-tree product
    section of an undeclared theory on an acyclic cover.  A probabilistic
    verdict's counts are the sizes of ``global_section_system`` either way.
    """

    contextual: bool
    mode: str
    variable_count: int = 0
    constraint_count: int = 0
    sections: dict[str, RationalDistribution] | None = None
    certificate: FarkasCertificate | None = None
    margin: Fraction | None = None
    system: LinearSystem | None = None
    boolean_sections: dict[str, tuple[tuple[str, ...], ...]] | None = None
    blocked: tuple[tuple[str, Context, tuple[str, ...]], ...] = ()


def check_contextuality(
    theory: EmpiricalTheory, mode: str = "probabilistic"
) -> ContextualityVerdict:
    """Decide whether the theory is contextual.

    Probabilistic mode is the exact feasibility question (declarations
    included); possibilistic mode asks whether every supported local section
    extends to a fully supported assignment, per state.  A theory that fails
    ``validate_theory`` raises ``ModelError`` before either mode runs.
    """
    problems = validate_theory(theory)
    if problems:
        raise ModelError(f"invalid theory: {problems[0]}")
    require_no_signalling(theory)
    if mode == "probabilistic":
        return _check_probabilistic(theory)
    if mode == "possibilistic":
        return _check_possibilistic(theory)
    raise ModelError(f"unknown mode {mode!r}")


def _check_probabilistic(theory: EmpiricalTheory) -> ContextualityVerdict:
    if not theory.convex:
        sections = _product_sections(theory)
        if sections is not None:
            # the sizes ``global_section_system`` would give, unbuilt
            columns, rows = _scenario(theory.system).size
            return ContextualityVerdict(
                contextual=False,
                mode="probabilistic",
                variable_count=len(sections) * columns,
                constraint_count=len(sections) * rows,
                sections=sections,
            )
    lp = global_section_system(theory)
    result = solve_feasibility(lp)
    feasible = isinstance(result, Feasible)
    return ContextualityVerdict(
        contextual=not feasible,
        mode="probabilistic",
        variable_count=len(lp.variables),
        constraint_count=len(lp.names),
        sections=extract_sections(theory, result.point) if feasible else None,
        certificate=None if feasible else result.certificate,
        margin=None if feasible else result.margin,
        system=lp,
    )


def _product_sections(
    theory: EmpiricalTheory,
) -> dict[str, RationalDistribution] | None:
    """The join-tree product section of each state, or None on a cyclic cover.

    On an alpha-acyclic cover, a no-signalling theory has the global section
    prod_i p(g|C_i) / p(g|S_i), taken over a running-intersection order,
    with S_i the labels C_i shares with earlier contexts and 0/0 read as 0
    (Vorob'ev, Theory Probab. Appl. 7, 147 (1962)).  ``_join`` builds it
    over supported assignments only, and ``verify_global_section`` checks it
    before it is returned.
    """
    system = theory.system
    steps, perm, acyclic = _scenario(system).join
    if not acyclic:
        return None
    sections: dict[str, RationalDistribution] = {}
    for name, state in theory.states.items():
        joined = _join(steps, state).items()
        weights = {perm(h): Fraction(num, hden) for h, (num, hden) in joined}
        sections[name] = RationalDistribution(domain=system.labels, weights=weights)
    violations = verify_global_section(theory, sections)
    if violations:
        raise ModelError(f"product section failed verification: {violations[0]}")
    return sections


def _join(steps: tuple, state: State) -> dict[tuple[str, ...], tuple[int, int]]:
    """The natural join of the state's tables along ``Scenario.join``: the
    rows (labels in the order first seen) whose every restriction to a
    context is supported, each with its weight as (numerator, denominator),
    which on an acyclic cover is the product section's."""
    partial: dict[tuple[str, ...], tuple[int, int]] = {(): (1, 1)}
    for ctx, _, in_ctx, in_run, new in steps:
        # the table in integers over one denominator, which cancels in
        # p(t) / p(key) = n_t / (sum of n over key)
        nums, _ = state.distribution(ctx).integer
        groups: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = {}
        totals: dict[tuple[str, ...], int] = {}
        for t, n in nums.items():
            key = in_ctx(t)
            groups.setdefault(key, []).append((new(t), n))
            totals[key] = totals.get(key, 0) + n
        grown: dict[tuple[str, ...], tuple[int, int]] = {}
        for h, (num, hden) in partial.items():
            key = in_run(h)
            if key in groups:
                hden *= totals[key]
                for ext, n in groups[key]:
                    grown[h + ext] = (num * n, hden)
        partial = grown
    return partial


def extract_sections(
    theory: EmpiricalTheory, point: dict[str, Fraction]
) -> dict[str, RationalDistribution]:
    """Per-state full-assignment distributions from a solved LP point.

    The variable names are the LP build's, read from its memoized skeleton.
    """
    system = theory.system
    assignments = _scenario(system).assignments
    names = _skeleton(
        system, tuple(theory.states), tuple(theory.convex)
    ).state_variables
    return {
        s: RationalDistribution(
            domain=system.labels,
            weights={g: point[v] for g, v in zip(assignments, names[s]) if point.get(v)},
        )
        for s in theory.states
    }


def verify_global_section(
    theory: EmpiricalTheory, sections: dict[str, RationalDistribution]
) -> list[str]:
    """Exact re-check that ``sections`` marginalize to every table and
    satisfy every declaration; returns violations (empty = verified).

    Each section, table and declaration is read through its integer
    reading (``integer``), and every sum and comparison is over ints,
    cross-multiplied where denominators differ.  A section for a state the
    theory lacks is reported after the per-state checks, and no declaration
    check reads it.
    """
    system = theory.system
    allowed = [set(o.labels) for o in system.outcomes]
    out: list[str] = []
    for name, state in theory.states.items():
        if name not in sections:
            out.append(f"missing section for state {name!r}")
            continue
        dist = sections[name]
        if dist.domain != system.labels:
            out.append(f"section for {name!r} has wrong domain {dist.domain}")
            continue
        stray = [
            (m, v)
            for g in dist.weights
            for m, v, outs in zip(system.labels, g, allowed)
            if v not in outs
        ]
        if stray:
            m, v = stray[0]
            out.append(
                f"section for {name!r} puts mass on outcome {v!r} "
                f"outside the outcome set of {m!r}"
            )
        nums, den = dist.integer
        pushes = _pushforwards(
            nums.items(), [_restriction(dist.domain, ctx) for ctx in system.cover]
        )
        for ctx, acc in zip(system.cover, pushes):
            want, want_den = state.distribution(ctx).integer
            for t in context_outcome_tuples(system, ctx):
                if acc.get(t, 0) * want_den != want.get(t, 0) * den:
                    out.append(
                        f"state {name!r}: marginal at {ctx} differs at {t}"
                    )
                    break
    out.extend(
        f"section for unknown state {name!r}"
        for name in sections
        if name not in theory.states
    )
    for decl in theory.convex:
        if decl.kind == "state":
            if decl.target not in sections or any(
                c.name not in sections for c in decl.components
            ):
                out.append(f"state mixture {decl.target!r}: section missing")
                continue
            # the mixture's weight at g is sum(n * nums[g]) over mix_den
            coefs, coef_den = decl.integer
            parts = [
                (coefs[c.name], sections[c.name].integer) for c in decl.components
            ]
            den = lcm(*[d for _, (_, d) in parts])
            parts = [(n * (den // d), nums) for n, (nums, d) in parts]
            mix_den = coef_den * den
            target, target_den = sections[decl.target].integer
            for g in global_outcome_tuples(system):
                want = sum(n * nums.get(g, 0) for n, nums in parts)
                if target.get(g, 0) * mix_den != want * target_den:
                    out.append(
                        f"state mixture {decl.target!r} violated at {g}"
                    )
                    break
        else:
            outcomes = system.outcomes_of(decl.target).labels
            coefs, coef_den = decl.integer
            for name, dist in sections.items():
                if dist.domain != system.labels or name not in theory.states:
                    continue  # reported above
                # every marginal of one section shares its denominator, so
                # both sides are over coef_den times it
                items = dist.integer[0].items()
                (lhs,) = _pushforwards(
                    items, [_picker([system.label_position(decl.target)])]
                )
                rhs = dict.fromkeys(outcomes, 0)
                for c in decl.components:
                    bij = component_outcome_map(system, decl, c)
                    inv = {t: (o,) for o, t in bij.items()}
                    (marg,) = _pushforwards(
                        items, [_picker([system.label_position(c.name)])]
                    )
                    for k in outcomes:
                        rhs[k] += coefs[c.name] * marg.get(inv[k], 0)
                for k in outcomes:
                    if lhs.get((k,), 0) * coef_den != rhs[k]:
                        out.append(
                            f"measurement mixture {decl.target!r} violated for "
                            f"state {name!r} at outcome {k!r}"
                        )
    return out


def _check_possibilistic(theory: EmpiricalTheory) -> ContextualityVerdict:
    system = theory.system
    steps, perm, _ = _scenario(system).join
    index = [{v: i for i, v in enumerate(o.labels)} for o in system.outcomes]

    def radix(g: tuple[str, ...]) -> list[int]:  # mixed-radix order
        return [at[v] for at, v in zip(index, g)]
    restrictions = [(ctx, _restriction(system.labels, ctx)) for ctx in system.cover]
    boolean: dict[str, tuple[tuple[str, ...], ...]] = {}
    blocked: list[tuple[str, Context, tuple[str, ...]]] = []
    for name, state in theory.states.items():
        # the supported-everywhere assignments are the join's rows, on any cover
        rows = boolean[name] = tuple(sorted(map(perm, _join(steps, state)), key=radix))
        for ctx, restrict in restrictions:
            reached = set(map(restrict, rows))
            for t in state.distribution(ctx).support():
                if t not in reached:
                    blocked.append((name, ctx, t))
    return ContextualityVerdict(
        contextual=bool(blocked),
        mode="possibilistic",
        variable_count=sum(len(v) for v in boolean.values()),
        boolean_sections=boolean,
        blocked=tuple(blocked),
    )


def find_global_section(
    theory: EmpiricalTheory,
) -> dict[str, RationalDistribution] | None:
    """The per-state global-section distributions, or None if contextual."""
    verdict = check_contextuality(theory, mode="probabilistic")
    return verdict.sections
