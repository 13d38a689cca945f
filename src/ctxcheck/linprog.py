"""Exact rational feasibility of equality systems with nonnegative variables.

Decides whether ``{x >= 0 : A x = b}`` is nonempty by a phase-I simplex with
Bland's anti-cycling rule.  Infeasible systems come with a Farkas
certificate: multipliers whose row combination has only nonnegative variable
coefficients but a negative right-hand side.

A ``LinearSystem`` is its sparse integer-indexed rows of Python ints: each
row is one ``{column index: nonzero coefficient}`` dict with an integer rhs,
the constraint times the lcm of its denominators (the row's scale).  The
public constructor converts named ``Fraction`` constraints to these rows
once, and rejects malformed input there; ``sheaf.global_section_system``
builds the rows directly, from a memoized per-scenario skeleton.  Names are
used again only for the returned point and certificate, and for the
read-only named view ``LinearSystem.constraints``, rendered from the rows
when it is first read.  Nothing here writes a row, so systems may share
them.  A light presolve (forced-zero variable elimination plus
connected-component splitting) keeps the tableaus small.  Its first pass, up
to the first zero-rhs row of mixed signs, is one scan without a column
index, so the columns forced there (on a sheaf LP, those of the zero-weight
marginals) never enter the index.  A zero-rhs row past that point whose
columns the scan has all eliminated forces nothing, so it never enters the
index or the queue either.  The index itself is built only when the queue
first meets a row that forces, so a system whose scan leaves only
nonzero-rhs rows (every ring LP) is never indexed, and the blocks are found
by merging row supports in row order.
Presolve reads a row's support, its coefficients' signs and whether its rhs
is zero, nothing else, and every LP that ``sheaf.global_section_system``
builds from one skeleton has the same supports and signs: a marginal row is
its unit row times a positive denominator, and the normalization and
declaration rows are shared.  So such a system carries its skeleton's
presolve memo, and ``solve_feasibility`` presolves only when the memo
misses (``_presolved``).  The key is the zero pattern of the rhs,
``bytes(map(bool, rhs))``; the memo holds one entry, the last pattern's,
replaced whole on a miss, and the entry holds only row and column indices,
as tuples.  A hit returns what presolve would, so every point, certificate
and margin is the same.  A system from the public constructor has no memo,
and a pickled or copied one loses it, so either presolves on every solve.
A block's set-up reads only the block's columns: a block row may hold
many columns presolve eliminated, so ``_simplex_phase1`` reads each block
row once, walking the smaller of the row and the block's column positions
and probing the other with one ``.get`` per entry, into the form its
storage keeps: a tall block's rows as dicts, a wide block's entries
straight into its column packs.  A row lying wholly inside its block is
then walked once, with no set built.  No output depends on the order of a
tableau row's entries.
Each block's phase I writes once what does not depend on how its tableau
rows are stored: ``_simplex_phase1`` reads the block rows, computes the
block's common denominator and row signs and reads the Farkas dual from the
final objective row, and ``_objective_step`` takes the exact objective row
through a pivot.  Each of the two storages keeps its tableau set-up from
those block rows, Bland's entering column, the column read, the ratio test,
the row updates and the basic values, since these read or write the rows.
A block with no more columns than rows stores every column, each row as a
sparse dict of its nonzero entries: such a tall block's row is mostly its
artificial part, the basis inverse, which stays near the identity, so a
pivot's updates cost per nonzero, not per column.  It also indexes the rows
that hold each structural column, so a pivot reads the entering column,
runs the ratio test and updates rows only where that column is nonzero: its
cost follows the entering column's nonzeros, not the block's rows.  A wider
block stores only its basis inverse and rhs, as dense lists (a row has only
rows + 1 entries, so a dict would save little), keeps each column packed as
its row indices and coefficients, and computes a column's reduced cost and
entries from them when Bland's rule asks for them, pricing only the
nonbasic columns, so a pivot costs rows times rows instead of rows times
columns.  Both storages take the same
pivots, so the point and certificate do not depend on the block's shape.
Nor do they depend on a tableau row's positive scale, so a row is divided
by its content only when it becomes the pivot row or when the multipliers
applied to it since its last division pass ``_GROWTH_BITS`` bits, and the
objective row only after a pivot that multiplied it.
No ``Fraction`` is used between the input rows and the returned point and
multipliers.

Certificates found on the reduced system are patched back so they verify
against the original rows: the patch sums every column's combined
coefficient once over the rows that carry a multiplier, then walks the
columns presolve eliminated and adds each patch row to those sums.  Both
verdicts are checked on the system's integer rows: a certificate by
combining its rows with one common denominator (``_combine``), a point by
putting it over one common denominator and summing each row only over the
point's nonzero entries (``verify_point``), so signs and equalities are read
from integers.  The patch and ``_combine`` each sum into a dense list with
one slot per column, and a row whose coefficients are all equal (every
normalization and marginal row of a global-section LP) adds one weight per
column.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ctxcheck.model import ModelError, ZERO


class LinearSystemError(ModelError):
    """Malformed linear system (unknown variable, duplicate names, ...)."""


@dataclass(frozen=True)
class LinearConstraint:
    """One equality row ``sum(coeffs[v] * v) == rhs`` with a stable name."""

    name: str
    coeffs: Mapping[str, Fraction]
    rhs: Fraction


@dataclass(frozen=True, init=False)
class LinearSystem:
    """An equality system over named nonnegative variables, as integer rows.

    Row ``r`` is named ``names[r]`` and is its constraint times
    ``scales[r]``, the lcm of the constraint's denominators: ``coeffs[r]``
    maps column index (into ``variables``) to every nonzero integer
    coefficient, stored zeros dropped so row supports stay exact, and
    ``rhs[r]`` is the integer rhs.  Two systems are equal when these five
    are.  The system is immutable, and nothing reads its rows but to solve
    and check it, so systems may share row dicts.  A system that
    ``sheaf.global_section_system`` builds also carries its skeleton's
    presolve memo (``_from_rows``), which is neither compared nor pickled.

    ``LinearSystem(variables, constraints)`` converts named constraints and
    raises ``LinearSystemError`` for a duplicate variable or constraint
    name, an unknown variable or an entry that is not rational.
    """

    variables: tuple[str, ...]
    names: tuple[str, ...]
    coeffs: tuple[dict[int, int], ...]
    rhs: tuple[int, ...]
    scales: tuple[int, ...]

    def __init__(
        self, variables: Iterable[str], constraints: Iterable[LinearConstraint]
    ) -> None:
        variables = tuple(variables)
        vindex = {v: i for i, v in enumerate(variables)}
        if len(vindex) != len(variables):
            raise LinearSystemError("duplicate variable names")
        names: dict[str, None] = {}
        coeffs: list[dict[int, int]] = []
        rhs: list[int] = []
        scales: list[int] = []
        for c in constraints:
            if c.name in names:
                raise LinearSystemError(f"duplicate constraint name {c.name!r}")
            names[c.name] = None
            try:
                values = c.coeffs.values()
                nums = [a.numerator for a in values]
                dens = [a.denominator for a in values]
                b_num, b_den = c.rhs.numerator, c.rhs.denominator
                # the distinct denominators are few, and lcm is slow on many
                scale = lcm(b_den, *set(dens))
            except (AttributeError, TypeError):
                raise LinearSystemError(
                    f"constraint {c.name!r} has a coefficient or rhs that is not rational"
                ) from None
            try:
                columns = [vindex[v] for v in c.coeffs]
            except KeyError as exc:
                raise LinearSystemError(
                    f"constraint {c.name!r} uses unknown variable {exc.args[0]!r}"
                ) from None
            coeffs.append(
                {j: n * (scale // d) for j, n, d in zip(columns, nums, dens) if n}
            )
            rhs.append(b_num * (scale // b_den))
            scales.append(scale)
        self.__dict__.update(
            variables=variables,
            names=tuple(names),
            coeffs=tuple(coeffs),
            rhs=tuple(rhs),
            scales=tuple(scales),
        )

    # the builder's presolve memo (``_from_rows``); unannotated, so not a field
    _presolve_memo = None

    @classmethod
    def _from_rows(
        cls,
        variables: tuple[str, ...],
        names: tuple[str, ...],
        coeffs: tuple[dict[int, int], ...],
        rhs: tuple[int, ...],
        scales: tuple[int, ...],
        presolve_memo: list | None = None,
    ) -> LinearSystem:
        """A system of rows its builder made, and checked, in this form.

        ``presolve_memo`` is a one-slot list the builder shares among every
        system whose rows have the same supports and signs, so that only
        which rows have a zero rhs can tell their presolves apart
        (``_presolved``).
        """
        system = object.__new__(cls)
        system.__dict__.update(
            variables=variables, names=names, coeffs=coeffs, rhs=rhs, scales=scales
        )
        if presolve_memo is not None:
            system.__dict__["_presolve_memo"] = presolve_memo
        return system

    def __getstate__(self) -> dict:
        # a rendered view holds read-only mappings, which do not pickle; the
        # presolve memo is the builder's, so a copy goes without it
        return {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("constraints", "_presolve_memo")
        }

    @cached_property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """The rows as named constraints, rendered on first access.

        Each entry is ``Fraction(a, scale)``, and each coefficient mapping
        is read-only, so the rows cannot be edited through the view.
        """
        variables = self.variables
        rows = []
        for name, row, b, scale in zip(self.names, self.coeffs, self.rhs, self.scales):
            # a row holds few distinct values, so each becomes one Fraction
            value = {a: Fraction(a, scale) for a in set(row.values())}
            coeffs = {variables[j]: value[a] for j, a in row.items()}
            rows.append(
                LinearConstraint(name, MappingProxyType(coeffs), Fraction(b, scale))
            )
        return tuple(rows)


@dataclass
class FarkasCertificate:
    """Multipliers (by constraint name, normalized to max |y| = 1).

    The certified combination ``sum_r y_r * row_r`` has every variable
    coefficient >= 0 and rhs < 0, which no nonnegative point can satisfy.
    """

    multipliers: dict[str, Fraction]

    def combined(self, system: LinearSystem) -> tuple[dict[str, Fraction], Fraction]:
        """Recompute the combined row and rhs from the original system.

        The row's keys are the variables on which some row with a nonzero
        multiplier has a nonzero coefficient; a sum may still be 0.
        """
        coeffs, rhs, den = _combine(system, self.multipliers)
        # keyed in the order of the rows with a nonzero multiplier and of
        # each row's entries
        held = [
            row
            for name, row in zip(system.names, system.coeffs)
            if self.multipliers.get(name)
        ]
        named = {
            system.variables[j]: Fraction(coeffs[j], den)
            for j in dict.fromkeys(chain.from_iterable(held))
        }
        return named, Fraction(rhs, den)


def _multiplier(name: str, y: object) -> Fraction | int:
    """A certificate's multiplier for constraint ``name`` as a rational.

    Ints and Fractions are read as they are, anything else through
    ``Fraction``; ``LinearSystemError`` names the constraint when that
    fails.
    """
    if type(y) is Fraction or type(y) is int:
        return y
    try:
        return Fraction(y)  # type: ignore[arg-type]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise LinearSystemError(
            f"multiplier of constraint {name!r} is not rational: {y!r}"
        ) from None


def _combine(
    system: LinearSystem, multipliers: dict[str, Fraction]
) -> tuple[list[int], int, int]:
    """``sum_r y_r * row_r`` over Python ints: (coefficients, rhs, denominator).

    Every value is an integer over the one common denominator ``den > 0``, so
    signs read straight off the integers.  Each integer row comes with its
    multiplier divided by the row's scale; ``den`` is the lcm of the
    resulting multiplier denominators.  Multipliers naming no constraint are
    ignored, and a falsy one (0, None) reads 0; one that is not rational
    raises ``LinearSystemError`` (``_multiplier``).  The coefficients are a
    dense list with one slot per column.  A row whose coefficients are all
    equal, as every normalization and marginal row of a global-section LP
    is, adds its one weight times that coefficient to each of its columns.
    """
    rows = []
    den = 1
    for name, row, b, scale in zip(
        system.names, system.coeffs, system.rhs, system.scales
    ):
        y = multipliers.get(name)
        if not y:
            continue
        y = _multiplier(name, y)
        # the weight y / scale in lowest terms, y's own terms being lowest
        g = gcd(y.numerator, scale)
        w_num, w_den = y.numerator // g, y.denominator * (scale // g)
        den = lcm(den, w_den)
        rows.append((row, b, w_num, w_den))
    coeffs = [0] * len(system.variables)
    rhs = 0
    for row, b, w_num, w_den in rows:
        w = w_num * (den // w_den)
        rhs += w * b
        values = set(row.values())
        if len(values) == 1:
            w *= values.pop()
            for j in row:
                coeffs[j] += w
        else:
            for j, a in row.items():
                coeffs[j] += w * a
    return coeffs, rhs, den


@dataclass
class Feasible:
    """A solution point, exact, with every constraint satisfied."""

    point: dict[str, Fraction]


@dataclass
class Infeasible:
    """Infeasibility verdict with certificate and normalized margin."""

    certificate: FarkasCertificate
    margin: Fraction


def _unknown_names(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    return not set(system.names).issuperset(certificate.multipliers)


def _certified_rhs(
    system: LinearSystem, certificate: FarkasCertificate
) -> Fraction | None:
    """The combined rhs if the multipliers witness infeasibility, else None."""
    if _unknown_names(system, certificate):
        return None
    coeffs, rhs, den = _combine(system, certificate.multipliers)
    if rhs >= 0 or min(coeffs, default=0) < 0:
        return None
    return Fraction(rhs, den)


def verify_certificate(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    """True iff the multipliers genuinely witness infeasibility (exact check).

    Raises ``LinearSystemError`` when a multiplier is not rational.
    """
    return _certified_rhs(system, certificate) is not None


def certificate_margin(system: LinearSystem, certificate: FarkasCertificate) -> Fraction:
    """|combined rhs| after scaling multipliers to max absolute value 1.

    The multipliers are read as ``_combine`` reads them.  Raises
    ``LinearSystemError`` when the certificate has no nonzero multiplier,
    names a constraint the system does not have, or has a multiplier that
    is not rational.
    """
    if _unknown_names(system, certificate):
        raise LinearSystemError("certificate names constraints outside the system")
    scale = max(
        (abs(_multiplier(name, y)) for name, y in certificate.multipliers.items() if y),
        default=0,
    )
    if scale == 0:
        raise LinearSystemError("certificate has no nonzero multiplier")
    _, rhs, den = _combine(system, certificate.multipliers)
    return Fraction(abs(rhs), den) / scale


def is_robust(margin: Fraction, constraint_count: int, max_perturbation: Fraction) -> bool:
    """Whether an infeasibility margin survives entrywise data perturbation."""
    return margin > constraint_count * Fraction(max_perturbation)


def verify_point(system: LinearSystem, point: dict[str, Fraction]) -> bool:
    """Exact check that ``point`` is nonnegative and satisfies every row.

    Keys that are not variables are ignored, and a missing variable reads 0.
    Each integer row is checked over Python ints, as ``_combine`` checks a
    certificate: the point is put over one common denominator ``den``, and
    each row is summed only over the point's nonzero entries and compared
    with its rhs times ``den``.  Raises ``LinearSystemError`` when an entry
    of the point is not rational.
    """
    nonzero = {j: x for j, v in enumerate(system.variables) if (x := point.get(v))}
    try:
        den = lcm(*[x.denominator for x in nonzero.values()])
    except (AttributeError, TypeError):
        raise LinearSystemError("point has an entry that is not rational") from None
    ints = {j: x.numerator * (den // x.denominator) for j, x in nonzero.items()}
    if min(ints.values(), default=0) < 0:
        return False
    for row, b in zip(system.coeffs, system.rhs):
        if sum(row[j] * ints[j] for j in row.keys() & ints.keys()) != b * den:
            return False
    return True


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

# A tableau row is divided by its content once the multipliers ``q`` applied
# to it since its last division sum to more than this many bits.
_GROWTH_BITS = 64


def _presolve(
    coeffs: Sequence[dict[int, int]], rhs: Sequence[int], scan: bool = True
) -> tuple[list[tuple[list[int], list[int]]], list[tuple[int, int]], int | None]:
    """Iteratively eliminate forced-zero variables, then split what is left.

    ``coeffs`` holds one sparse integer row per constraint (column index ->
    nonzero coefficient).  A zero-rhs row whose active coefficients all
    share one sign forces its variables to zero.  Returns (blocks,
    eliminations, contradiction row index or None).  The blocks are the
    independent (rows, columns) parts of the active system, each list
    sorted, in the order of their first row.  An elimination is a (column,
    row) pair, in order: the column was forced to zero by the row.  A
    contradiction row has no active coefficients left but nonzero rhs; the
    blocks are then empty.

    A queue re-examines each row that loses a column, starting with every
    row in row order.  Its first pass, up to the first zero-rhs row of
    mixed signs, is made as one scan without a column index: each zero-rhs
    row forces its live columns to zero, and a nonzero-rhs row with none
    left is the contradiction the queue stops at.  The rows the scan did not
    retire go to the queue, which builds its column index (``var_rows``,
    live columns only) when it first meets a row that forces.  A row with a
    nonzero rhs never forces, so a system whose scan leaves no zero-rhs row,
    as every ring LP's does, is never indexed.  A zero-rhs row past the
    scan's stop whose columns the scan has all eliminated forces nothing,
    and no elimination reaches it again, so it is settled there and never
    indexed or queued; a nonzero-rhs row is always kept, so every
    contradiction is still found.  The queue sees the rows that the scan's
    eliminations reached again in its own order, and that order only
    decides which contradiction is found first; so a contradiction found
    after the scan has eliminated a column is looked for again without the
    scan (``scan=False``).  The blocks are found without the index, by
    merging the active rows' supports in row order.
    """
    m = len(coeffs)
    eliminated: list[tuple[int, int]] = []
    dead: set[int] = set()  # the columns the scan eliminated
    held: list[int] = []  # the nonzero-rhs rows it passed
    start = m if scan else 0  # the first row it leaves to the queue
    for r in range(start):
        row = coeffs[r]
        if rhs[r]:
            if dead.issuperset(row):
                return [], eliminated, r
            held.append(r)
            continue
        live = set(row).difference(dead)
        if live:
            values = [row[j] for j in live]
            if min(values) < 0 < max(values):
                start = r
                break
            forced = sorted(live)
            eliminated.extend(zip(forced, repeat(r)))
            dead.update(forced)
    # the active columns of each active row (a row that leaves ``active``
    # keeps only eliminated columns), in row order; a zero-rhs row the scan
    # left with no live column is settled, so it is left out
    support = {r: set(coeffs[r]).difference(dead) for r in held}
    for r in range(start, m):
        live = set(coeffs[r]).difference(dead) if dead else set(coeffs[r])
        if live or rhs[r]:
            support[r] = live
    rows = list(support)
    var_rows: defaultdict[int, set[int]] | None = None  # built on the first force
    active = set(rows)
    queue = deque(rows)
    queued = set(rows)
    while queue:
        r = queue.popleft()
        queued.discard(r)
        nz = support[r]
        if not nz:
            if rhs[r] != 0:
                if dead:
                    return _presolve(coeffs, rhs, scan=False)
                return [], eliminated, r
            active.discard(r)
            continue
        if rhs[r] != 0:
            continue
        row = coeffs[r]
        if not (all(row[j] > 0 for j in nz) or all(row[j] < 0 for j in nz)):
            continue
        if var_rows is None:
            # no support has lost a column yet: the rows of each column, in
            # row order, as if every queued row had been indexed up front
            var_rows = defaultdict(set)
            for r2, nz2 in support.items():
                for j in nz2:
                    var_rows[j].add(r2)
        active.discard(r)
        for j in sorted(nz):
            eliminated.append((j, r))
            for r2 in var_rows[j]:
                if r2 in active:
                    support[r2].discard(j)
                    if r2 not in queued:
                        queue.append(r2)
                        queued.add(r2)
    # each active row, in row order, joins the blocks its columns are in,
    # merged into the one of the lowest first row, so ``found`` keeps the
    # blocks in the order of their first row; a row inside the block the
    # row before it joined is added with no lookup
    found: list[tuple[list[int], set[int]] | None] = []
    owner: dict[int, int] = {}  # active column -> its block's index in found
    block: list[int] = []
    cols: set[int] = set()
    for r in sorted(active):
        nz = support[r]
        if nz <= cols:
            block.append(r)
            continue
        joined = set(map(owner.get, nz))
        joined.discard(None)
        b = min(joined) if joined else len(found)
        if b == len(found):
            found.append(([], set()))
        block, cols = found[b]
        for other in joined - {b}:
            other_rows, other_cols = found[other]
            found[other] = None
            block += other_rows
            cols |= other_cols
            owner.update(dict.fromkeys(other_cols, b))
        block.append(r)
        cols |= nz
        owner.update(dict.fromkeys(nz, b))
    blocks = [(sorted(block), sorted(cols)) for block, cols in filter(None, found)]
    return blocks, eliminated, None


def _presolved(system: LinearSystem) -> tuple:
    """``_presolve(system.coeffs, system.rhs)``, read from the system's
    presolve memo when its builder gave it one.

    The memo is a one-slot list holding (key, result): the key is the rhs's
    zero pattern, the result ``_presolve``'s with every list made a tuple.
    A miss presolves and replaces the slot whole, so no reader sees one
    pattern's key with another's result.  A system without a memo gets
    ``_presolve``'s own result.
    """
    memo = system._presolve_memo
    if memo is None:
        return _presolve(system.coeffs, system.rhs)
    key = bytes(map(bool, system.rhs))
    entry = memo[0]
    if entry is None or entry[0] != key:
        blocks, eliminated, bad_row = _presolve(system.coeffs, system.rhs)
        frozen = tuple((tuple(rows), tuple(cols)) for rows, cols in blocks)
        entry = memo[0] = (key, (frozen, tuple(eliminated), bad_row))
    return entry[1]


def _simplex_phase1(
    coeffs: Sequence[dict[int, int]],
    rhs: Sequence[int],
    scales: Sequence[int],
    rows: Sequence[int],
    cols: Sequence[int],
) -> tuple[dict[int, Fraction] | None, dict[int, int] | None]:
    """Phase-I simplex on a block.  Returns (point, None) or (None, dual).

    Row ``r = rows[k]`` arrives as ``scales[r]`` times the rational row,
    flipped by ``flip[k]`` to a nonnegative rhs, and starts basic on its own
    artificial column.  Columns are ``cols`` in sorted order, then one
    artificial per row, then the rhs.  Each storage sets up from the block
    rows read here, once, in the form it keeps them: for the stored form
    (no more columns than rows) row ``k`` is ``{i: flip[k] * a}`` over the
    entries ``a`` of ``rows[k]`` on ``cols[i]``; for the inverse form the
    same pass packs each column ``i`` as its row indices ``k`` and entries
    ``flip[k] * a * (oden // scales[rows[k]])``.  Bland's rule: the
    entering column is the lowest structural column with a negative reduced
    cost (artificials are barred); the leaving row has the least ratio of
    rhs to a positive entry, ties going to the lowest basic column.  Since
    ``cols`` is sorted, the rule sees the original variable order.

    Fraction-free (Edmonds): each tableau row holds Python ints equal to the
    exact rational row up to a positive scale.  Positive scaling changes
    neither the sign of an entry nor the order of two ratios, so the pivots
    are those of the rational tableau; a point entry is the ratio of two
    entries of one row, and the dual is read up to one positive scale, so
    no output depends on a row's scale.  A row is therefore divided by its
    content only where that keeps its integers from growing.  An update
    ``row * q - f * prow``, with ``q`` and ``f`` the pivot and the row's
    entry over their gcd, grows the row's scale by ``q`` alone.  So the
    pivot row is divided when it is chosen (and ``p`` with it), and any
    other row once the ``q``'s applied to it since its last division pass
    ``_GROWTH_BITS`` bits; an update with ``q == 1`` leaves it undivided.
    The objective row is read exactly, so it carries its own denominator:
    its rational value is ``obj / oden``, ``oden`` starting at the lcm of
    the block's row scales, and ``_objective_step`` takes both through a
    pivot.

    ``point`` maps column index -> value.  Otherwise, with the artificial
    column of row ``k`` at ``art + k`` in the final objective row, ``dual``
    maps ``rows[k]`` to ``y_k = (obj[art + k] / oden - 1) * flip[k]``: the
    Farkas multiplier on the rational row, up to one positive scale, valid
    for the block rows (before any elimination patching).
    """
    oden = lcm(*(scales[r] for r in rows))
    flip = [-1 if rhs[r] < 0 else 1 for r in rows]
    n = len(cols)
    position = {j: i for i, j in enumerate(cols)}
    if n <= len(rows):
        block: list[dict[int, int]] = []
        for r, sign in zip(rows, flip):
            entries = coeffs[r]
            row: dict[int, int] = {}
            if len(entries) <= n:
                for j, a in entries.items():
                    i = position.get(j)
                    if i is not None:
                        row[i] = a
            else:
                for j, i in position.items():
                    a = entries.get(j)
                    if a is not None:
                        row[i] = a
            # flipped afterwards: no global-section row has a negative rhs,
            # so the entries are kept as they are rather than copied times 1
            if sign < 0:
                row = {i: -a for i, a in row.items()}
            block.append(row)
        point, obj, oden = _stored_phase1(block, rhs, scales, rows, cols, oden, flip)
        art = n
    else:
        # the pass that reads the rows packs each column as its row indices
        # and entries, the entries made integer over ``oden``
        packs: list[tuple[list[int], list[int]]] = [([], []) for _ in cols]
        for k, (r, sign) in enumerate(zip(rows, flip)):
            entries = coeffs[r]
            mult = sign * (oden // scales[r])
            if len(entries) <= n:
                for j, a in entries.items():
                    i = position.get(j)
                    if i is not None:
                        ks, vals = packs[i]
                        ks.append(k)
                        vals.append(a * mult)
            else:
                for j, i in position.items():
                    a = entries.get(j)
                    if a is not None:
                        ks, vals = packs[i]
                        ks.append(k)
                        vals.append(a * mult)
        point, obj, oden = _inverse_phase1(packs, rhs, scales, rows, cols, oden, flip)
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


def _objective_step(
    obj: list[int], oden: int, prow: Iterable[tuple[int, int]], p: int, price: int
) -> tuple[list[int], int]:
    """The objective row ``obj / oden`` after a pivot on ``p``: (obj, oden).

    ``prow`` holds the pivot row's nonzero entries as (column, value) pairs
    and ``price`` is the entering column's reduced cost, both on the scale of
    ``p``.  With ``g = gcd(p, price)`` and ``q = p / g``, the row becomes
    ``obj * q - (price / g) * prow`` over ``oden * q``.  Only ``q`` grows
    the pair, so only when ``q != 1`` is the content the row shares with its
    denominator divided out of both; otherwise ``obj`` is changed in place.
    """
    g = gcd(p, price)
    q, f = p // g, price // g
    if q != 1:
        obj = [a * q for a in obj]
    for k, b in prow:
        obj[k] -= f * b
    if q != 1:
        oden *= q
        g = gcd(oden, *obj)
        if g > 1:
            obj = [a // g for a in obj]
            oden //= g
    return obj, oden


def _stored_phase1(
    block: list[dict[int, int]],
    rhs: Sequence[int],
    scales: Sequence[int],
    rows: Sequence[int],
    cols: Sequence[int],
    oden: int,
    flip: list[int],
) -> tuple[dict[int, Fraction] | None, list[int], int]:
    """``_simplex_phase1``'s loop on a block with no more columns than rows.

    Returns (point or None, objective row, its denominator).  Each row is a
    dict ``{column: nonzero int}`` over structural columns ``0 .. n - 1``,
    artificial columns ``n .. n + m - 1`` and the rhs at ``n + m``; an entry
    that cancels to 0 is deleted.  Row ``k`` is the block row ``block[k]``
    with its artificial and rhs entries added in place.  The objective row
    (built, like ``holders``, from the block rows) is a dense list over
    the same columns, since Bland's rule scans it in column order.  A row
    update is ``row * q - f * prow``, made at the pivot row's nonzeros; with
    ``q == 1`` it is made in place.

    ``holders[j]`` is the set of tableau rows holding structural column
    ``j``, built at set-up and kept exact: an update that fills in an entry
    adds its row, and one that cancels an entry to 0 deletes the entry and
    drops its row, so no row in the set reads 0 (a stale row would raise
    ``KeyError`` at the column read).  Scaling a row by ``q`` or dividing it
    by its content keeps its keys.  A pivot reads the entering column from
    its holders only, as ``{row: entry}``, and runs the ratio test and the
    updates over them, so its cost follows the entering column's nonzeros,
    not the block's rows.  The entering entry of every updated row cancels
    exactly (``f * q == (f / g) * p``), so it is deleted without being
    computed, and the column's holders become the pivot row alone.  The
    ratio test breaks ties on ``basis``, not on row order, and each row
    update is independent of the others, so the pivots do not depend on
    the order of a set.  Artificial columns never enter, so they are not
    indexed.
    """
    m = len(rows)
    n = len(cols)
    end = n + m  # the rhs column
    tab = block  # extended in place into the tableau rows
    holders: list[set[int]] = [set() for _ in cols]
    # phase-I reduced costs: structural -column sums, artificial 0
    obj = [0] * (end + 1)
    for k, (row, r, sign) in enumerate(zip(tab, rows, flip)):
        mult = oden // scales[r]
        for i, a in row.items():
            obj[i] -= a * mult
            holders[i].add(k)
        row[n + k] = scales[r]
        if rhs[r]:
            row[end] = sign * rhs[r]
            obj[end] -= sign * rhs[r] * mult

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
        column = {i: tab[i][enter] for i in holders[enter]}
        # ratio test kept per storage: a shared rhs getter ran slower on tall blocks
        leave = -1
        for i, a in column.items():
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
        p = column.pop(leave)
        g = gcd(*prow.values())
        if g > 1:
            prow = tab[leave] = {k: a // g for k, a in prow.items()}
            p //= g
        grown[leave] = 0
        others = [(k, b) for k, b in prow.items() if k != enter]
        for i, f in column.items():
            g = gcd(p, f)
            q, f = p // g, f // g
            row = tab[i]
            del row[enter]
            if q != 1:
                row = tab[i] = {k: a * q for k, a in row.items()}
                grown[i] += q.bit_length()
            for k, b in others:
                a = row.get(k)
                if a is None:
                    row[k] = -f * b
                    if k < n:
                        holders[k].add(i)
                    continue
                a -= f * b
                if a:
                    row[k] = a
                else:
                    del row[k]
                    if k < n:
                        holders[k].discard(i)
            if grown[i] > _GROWTH_BITS:
                grown[i] = 0
                g = gcd(*row.values())
                if g > 1:
                    tab[i] = {k: a // g for k, a in row.items()}
        holders[enter] = {leave}
        obj, oden = _objective_step(obj, oden, prow.items(), p, obj[enter])
        basis[leave] = enter
    if obj[end]:
        return None, obj, oden
    point: dict[int, Fraction] = {}
    for row, j in zip(tab, basis):
        if j < n:
            point[cols[j]] = Fraction(row.get(end, 0), row[j])
    return point, obj, oden


def _inverse_phase1(
    packs: list[tuple[list[int], list[int]]],
    rhs: Sequence[int],
    scales: Sequence[int],
    rows: Sequence[int],
    cols: Sequence[int],
    oden: int,
    flip: list[int],
) -> tuple[dict[int, Fraction] | None, list[int], int]:
    """``_simplex_phase1``'s loop on a block with more columns than rows.

    Returns (point or None, objective row, its denominator).  Each row is a
    dense list of the artificial columns (the basis inverse, up to row
    scales) and the rhs, and so is the objective row.  With ``L`` the lcm of
    the block's row scales and ``A[k][j] = (L / scales[k]) * block[k][j]``
    the sign-flipped block rows made integer over one denominator, tableau
    row ``i`` times ``L`` reads ``sum_k row_i[k] * A[k][j]`` on column
    ``j``, and the reduced cost of ``j`` times ``L`` is ``sum_k (obj[k] -
    oden) * A[k][j]``.  Bland's rule prices the nonbasic columns in index
    order and stops at the first negative one (a basic column's reduced
    cost is 0, so skipping the basic ones picks the same column), and the
    ratio test and the update need only the entering column, so a pivot
    costs about the rows times the rows, not times the columns.  ``packs``
    holds each column as ``_simplex_phase1`` packed it while reading the
    block rows: its row indices ``ks`` and entries ``A[k][j]``.  A column
    with two or more entries, all equal to ``c``, reads ``c *
    sum(itemgetter(*ks)(row))``, as every wide column of a global-section
    LP does (all ``L`` or ``-L``); any other column reads
    ``sum(map(mul, map(row.__getitem__, ks), vals))``.  Either way the sum
    runs in C builtins, so pricing a column calls no Python function.
    Computed entries carry the extra factor ``L``; dividing ``gcd(p, f)``
    out of the two multipliers of every row update removes it (and any
    other common factor) before it reaches the row.  As in the stored form,
    an update is ``row * q - f * prow``, made at the pivot row's nonzeros
    and in place when ``q == 1``.
    """
    m = len(rows)
    n = len(cols)
    unit = oden  # computed entries are ``unit`` times the row's
    tab: list[list[int]] = []
    # phase-I reduced costs: artificial 0, then the rhs
    obj = [0] * (m + 1)
    for k, (r, sign) in enumerate(zip(rows, flip)):
        row = [0] * (m + 1)
        row[k] = scales[r]
        row[-1] = sign * rhs[r]
        obj[-1] -= row[-1] * (oden // scales[r])
        tab.append(row)

    # a packed column is (getter, c, ks, vals): a column with two or more
    # entries, all equal to c, reads ``c * sum(getter(row))``; any other has
    # c = 0 and reads ``sum(map(mul, map(row.__getitem__, ks), vals))``
    packed: list[tuple[itemgetter | None, int, list[int], list[int]]] = []
    for ks, vals in packs:
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
    # the nonbasic structural columns in index order, each with its pack: a
    # basic column prices 0, so Bland's rule never needs it
    nonbasic = list(enumerate(packed))
    grown = [0] * m  # bits of the q's applied to each row since its division
    while True:
        enter = -1
        prices = [a - oden for a in obj[:m]]
        for j, (get, c, ks, vals) in nonbasic:
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
        del nonbasic[bisect_left(nonbasic, (enter,))]
        if basis[leave] < n:
            insort(nonbasic, (basis[leave], packed[basis[leave]]))
        basis[leave] = enter
    if obj[-1]:
        return None, obj, oden
    point: dict[int, Fraction] = {}
    for row, j in zip(tab, basis):
        if j < n:
            point[cols[j]] = Fraction(row[-1] * unit, column_entries(j, [row])[0])
    return point, obj, oden


def _add_row(sums: list[int], row: dict[int, int], w: int) -> None:
    """Add ``w`` times ``row`` to the dense column sums ``sums``.

    A row whose coefficients are all equal adds one weight per column.
    """
    values = set(row.values())
    if len(values) == 1:
        w *= values.pop()
        for j in row:
            sums[j] += w
    else:
        for j, a in row.items():
            sums[j] += w * a


def _patch_certificate(
    coeffs: Sequence[dict[int, int]],
    scales: Sequence[int],
    multipliers: dict[int, int],
    eliminated: Sequence[tuple[int, int]],
    n: int,
) -> dict[int, int]:
    """Extend block multipliers so eliminated columns also combine >= 0.

    Processed in reverse elimination order: each patch row is nonnegative on
    every column still active when its variable was eliminated, so later
    (already patched) columns only increase.  The combined coefficient of
    each of the ``n`` columns is summed once, into a dense list, over the
    rows that carry a multiplier, and each patch step adds its row, times
    the step, to those sums (``_add_row``).

    Multipliers on the rational rows come in, and go out, up to one positive
    scale; the patch commutes with positive scaling.  In between they are
    held as integers ``z`` on the integer rows (``y_r = z_r * scales[r]`` up
    to scale), and all of ``z`` is multiplied up when a patch step would
    leave the integers.
    """
    common = lcm(*(scales[r] for r in multipliers))
    z = {r: y * (common // scales[r]) for r, y in multipliers.items()}
    combined = [0] * n  # sum_r z[r] * coeffs[r][j] for every column j
    for r, zr in z.items():
        _add_row(combined, coeffs[r], zr)
    for j, row in reversed(eliminated):
        c = combined[j]
        if c < 0:
            # z[row] -= c / q brings the column to exactly zero
            q = coeffs[row][j]
            f = abs(q) // gcd(c, q)
            if f > 1:
                z = {r: v * f for r, v in z.items()}
                combined = [v * f for v in combined]
                c *= f
            step = -(c // q)
            zr = z.get(row, 0) + step
            if zr:
                z[row] = zr
            else:
                del z[row]
            _add_row(combined, coeffs[row], step)
    return {r: v * scales[r] for r, v in z.items()}


def solve_feasibility(system: LinearSystem) -> Feasible | Infeasible:
    """Decide feasibility of ``A x = b, x >= 0`` exactly.

    Deterministic: fixed variable order and Bland's rule.  A Feasible result
    always satisfies every row exactly; an Infeasible result always carries a
    certificate that passes ``verify_certificate`` (both re-checked here, on
    the system's integer rows, which the solve reads and never writes).
    A system built by ``sheaf.global_section_system`` reads its presolve
    from its skeleton's memo when the last solve of that skeleton had the
    same zero pattern of the rhs, and leaves its own there otherwise
    (``_presolved``); the result is the same either way.
    """
    varnames = system.variables
    coeffs, rhs, scales = system.coeffs, system.rhs, system.scales
    blocks, eliminated, bad_row = _presolved(system)

    def finish_infeasible(block_dual: dict[int, int]) -> Infeasible:
        full = _patch_certificate(coeffs, scales, block_dual, eliminated, len(varnames))
        scale = max(abs(v) for v in full.values())
        named = {system.names[r]: Fraction(v, scale) for r, v in full.items()}
        cert = FarkasCertificate(multipliers=named)
        rhs = _certified_rhs(system, cert)
        if rhs is None:
            raise LinearSystemError("certificate failed verification")
        # the multipliers are normalized to max |y| = 1, so the margin is |rhs|
        return Infeasible(certificate=cert, margin=-rhs)

    if bad_row is not None:
        return finish_infeasible({bad_row: -1 if rhs[bad_row] > 0 else 1})

    solved: list[dict[int, Fraction]] = []
    for rows, cols in blocks:
        block_point, block_dual = _simplex_phase1(coeffs, rhs, scales, rows, cols)
        if block_point is None:
            assert block_dual is not None
            return finish_infeasible(block_dual)
        solved.append(block_point)
    # the full point, built only once every block is feasible
    point: dict[str, Fraction] = dict.fromkeys(varnames, ZERO)
    for block_point in solved:
        for j, value in block_point.items():
            point[varnames[j]] = value
    if not verify_point(system, point):
        raise LinearSystemError("solution failed verification")
    return Feasible(point=point)
