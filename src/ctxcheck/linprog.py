"""Exact rational feasibility of equality systems with nonnegative variables.

Decides whether ``{x >= 0 : A x = b}`` is nonempty by a phase-I simplex with
Bland's anti-cycling rule.  Infeasible systems come with a Farkas
certificate: multipliers whose row combination has only nonnegative variable
coefficients but a negative right-hand side.

The solver works on sparse integer-indexed rows: each constraint becomes one
``{column index: nonzero coefficient}`` dict, and names are used again only
for the returned point and certificate.  A light presolve (forced-zero
variable elimination plus connected-component splitting) keeps the tableaus
small.  Each block's tableau is dense over its own columns and fraction-free
(Edmonds): a row is a list of Python ints, scaled once by the lcm of its
denominators, kept only up to a positive scale and divided by its content
after every pivot.  The simplex uses no ``Fraction``: they enter with the
input rows and leave with the returned point and multipliers.  Certificates
found on the reduced system are patched back so they verify against the
original rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ctxcheck.model import ModelError, ZERO


class LinearSystemError(ModelError):
    """Malformed linear system (unknown variable, duplicate names, ...)."""


@dataclass(frozen=True)
class LinearConstraint:
    """One equality row ``sum(coeffs[v] * v) == rhs`` with a stable name."""

    name: str
    coeffs: dict[str, Fraction]
    rhs: Fraction


@dataclass
class LinearSystem:
    """An equality system over named nonnegative variables."""

    variables: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise LinearSystemError("duplicate variable names")
        names = [c.name for c in self.constraints]
        if len(set(names)) != len(names):
            raise LinearSystemError("duplicate constraint names")
        varset = set(self.variables)
        for c in self.constraints:
            unknown = set(c.coeffs) - varset
            if unknown:
                raise LinearSystemError(
                    f"constraint {c.name!r} uses unknown variables {sorted(unknown)}"
                )

    def constraint(self, name: str) -> LinearConstraint:
        for c in self.constraints:
            if c.name == name:
                return c
        raise LinearSystemError(f"no constraint named {name!r}")


@dataclass
class FarkasCertificate:
    """Multipliers (by constraint name, normalized to max |y| = 1).

    The certified combination ``sum_r y_r * row_r`` has every variable
    coefficient >= 0 and rhs < 0, which no nonnegative point can satisfy.
    """

    multipliers: dict[str, Fraction]

    def combined(self, system: LinearSystem) -> tuple[dict[str, Fraction], Fraction]:
        """Recompute the combined row and rhs from the original system."""
        coeffs: dict[str, Fraction] = {}
        rhs = ZERO
        for c in system.constraints:
            y = self.multipliers.get(c.name, ZERO)
            if y == 0:
                continue
            rhs += y * c.rhs
            for v, a in c.coeffs.items():
                coeffs[v] = coeffs.get(v, ZERO) + y * a
        return coeffs, rhs


@dataclass
class Feasible:
    """A solution point, exact, with every constraint satisfied."""

    point: dict[str, Fraction]


@dataclass
class Infeasible:
    """Infeasibility verdict with certificate and normalized margin."""

    certificate: FarkasCertificate
    margin: Fraction


def _certified_rhs(
    system: LinearSystem, certificate: FarkasCertificate
) -> Fraction | None:
    """The combined rhs if the multipliers witness infeasibility, else None."""
    if not certificate.multipliers:
        return None
    known = {c.name for c in system.constraints}
    if set(certificate.multipliers) - known:
        return None
    coeffs, rhs = certificate.combined(system)
    if rhs >= 0 or any(a < 0 for a in coeffs.values()):
        return None
    return rhs


def verify_certificate(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    """True iff the multipliers genuinely witness infeasibility (exact check)."""
    return _certified_rhs(system, certificate) is not None


def certificate_margin(system: LinearSystem, certificate: FarkasCertificate) -> Fraction:
    """|combined rhs| after scaling multipliers to max absolute value 1."""
    scale = max(abs(y) for y in certificate.multipliers.values())
    if scale == 0:
        raise LinearSystemError("certificate has no nonzero multiplier")
    _, rhs = certificate.combined(system)
    return abs(rhs) / scale


def is_robust(margin: Fraction, constraint_count: int, max_perturbation: Fraction) -> bool:
    """Whether an infeasibility margin survives entrywise data perturbation."""
    return margin > constraint_count * Fraction(max_perturbation)


def verify_point(system: LinearSystem, point: dict[str, Fraction]) -> bool:
    """Exact check that ``point`` is nonnegative and satisfies every row."""
    for v in system.variables:
        if point.get(v, ZERO) < 0:
            return False
    for c in system.constraints:
        total = sum((a * point.get(v, ZERO) for v, a in c.coeffs.items()), start=ZERO)
        if total != c.rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass
class _Elimination:
    """A variable forced to zero by an all-nonnegative zero-rhs row."""

    var: int
    row: int
    sign: int  # sign * row has all coefficients >= 0 on columns active then


def _presolve(
    coeffs: list[dict[int, Fraction]], rhs: list[Fraction], n: int
) -> tuple[list[int], list[int], list[_Elimination], int | None]:
    """Iteratively eliminate forced-zero variables.

    ``coeffs`` holds one sparse row per constraint (column index -> nonzero
    coefficient) over ``n`` columns.  A zero-rhs row whose active
    coefficients all share one sign forces its variables to zero.  Returns
    (active rows, active vars, eliminations in order, contradiction row index
    or None); a contradiction row has no active coefficients left but
    nonzero rhs.
    """
    m = len(coeffs)
    support: list[set[int]] = [set(row) for row in coeffs]
    var_rows: dict[int, set[int]] = {}
    for r in range(m):
        for j in support[r]:
            var_rows.setdefault(j, set()).add(r)
    active = set(range(m))
    eliminated: list[_Elimination] = []
    gone_vars: set[int] = set()
    queue = deque(range(m))
    queued = set(range(m))
    while queue:
        r = queue.popleft()
        queued.discard(r)
        if r not in active:
            continue
        nz = support[r]
        if not nz:
            if rhs[r] != 0:
                active_rows = sorted(active)
                active_vars = [j for j in range(n) if j not in gone_vars]
                return active_rows, active_vars, eliminated, r
            active.discard(r)
            continue
        if rhs[r] != 0:
            continue
        row = coeffs[r]
        if all(row[j] > 0 for j in nz):
            sign = 1
        elif all(row[j] < 0 for j in nz):
            sign = -1
        else:
            continue
        active.discard(r)
        for j in sorted(nz):
            eliminated.append(_Elimination(var=j, row=r, sign=sign))
            gone_vars.add(j)
            for r2 in var_rows.pop(j, ()):
                if r2 == r or r2 not in active:
                    continue
                support[r2].discard(j)
                if r2 not in queued:
                    queue.append(r2)
                    queued.add(r2)
    active_rows = sorted(active)
    active_vars = [j for j in range(n) if j not in gone_vars]
    return active_rows, active_vars, eliminated, None


def _components(
    coeffs: list[dict[int, Fraction]], active_rows: list[int], active_vars: list[int]
) -> list[tuple[list[int], list[int]]]:
    """Split the active system into independent (rows, vars) blocks."""
    var_rows: dict[int, list[int]] = {j: [] for j in active_vars}
    row_vars: dict[int, list[int]] = {}
    for r in active_rows:
        cols = [j for j in coeffs[r] if j in var_rows]
        row_vars[r] = cols
        for j in cols:
            var_rows[j].append(r)
    seen_rows: set[int] = set()
    seen_vars: set[int] = set()
    blocks: list[tuple[list[int], list[int]]] = []
    for start in active_rows:
        if start in seen_rows:
            continue
        rows = [start]
        seen_rows.add(start)
        vs: list[int] = []
        stack = [("r", start)]
        while stack:
            kind, idx = stack.pop()
            if kind == "r":
                for j in row_vars[idx]:
                    if j not in seen_vars:
                        seen_vars.add(j)
                        vs.append(j)
                        stack.append(("v", j))
            else:
                for r in var_rows[idx]:
                    if r not in seen_rows:
                        seen_rows.add(r)
                        rows.append(r)
                        stack.append(("r", r))
        blocks.append((sorted(rows), sorted(vs)))
    return blocks


def _simplex_phase1(
    coeffs: list[dict[int, Fraction]],
    rhs: list[Fraction],
    rows: list[int],
    cols: list[int],
) -> tuple[dict[int, Fraction] | None, dict[int, Fraction] | None]:
    """Phase-I simplex on a block.  Returns (point, None) or (None, dual).

    Fraction-free: each tableau row is a list of Python ints equal to the
    exact rational row up to a positive scale, divided by its content after
    every update.  Positive scaling changes neither the sign of an entry nor
    the order of two ratios, so Bland's pivot sequence is the one of the
    rational tableau.  The objective row is read exactly, so it carries its
    own denominator: its rational value is ``obj / oden``.

    Columns are ``cols`` in sorted order (Bland's rule sees the original
    variable order), then one artificial per row, then the rhs.  ``point``
    maps column index -> value; ``dual`` maps row index -> Farkas multiplier
    valid for the block rows (before any elimination patching).
    """
    m = len(rows)
    n = len(cols)
    width = n + m + 1
    position = {j: i for i, j in enumerate(cols)}
    flip: list[int] = []
    scales: list[int] = []
    tab: list[list[int]] = []
    for k, r in enumerate(rows):
        entries = [(position[j], a) for j, a in coeffs[r].items() if j in position]
        b = rhs[r]
        sign = -1 if b < 0 else 1
        scale = lcm(b.denominator, *(a.denominator for _, a in entries))
        row = [0] * width
        for i, a in entries:
            row[i] = sign * a.numerator * (scale // a.denominator)
        row[n + k] = scale
        row[-1] = sign * b.numerator * (scale // b.denominator)
        flip.append(sign)
        scales.append(scale)
        tab.append(row)
    # phase-I reduced costs: structural -column sums, artificial 0
    oden = lcm(*scales)
    obj = [0] * width
    for row, scale in zip(tab, scales):
        mult = oden // scale
        for i in range(n):
            if row[i]:
                obj[i] -= row[i] * mult
        obj[-1] -= row[-1] * mult
    basis = [n + k for k in range(m)]
    while True:
        enter = -1
        for j in range(n):  # Bland: lowest structural index; artificials barred
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tab[i][enter]
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
        p = prow[enter]
        for i in range(m):
            row = tab[i]
            f = row[enter]
            if f and i != leave:
                row = [a * p - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                tab[i] = [a // g for a in row] if g > 1 else row
        f = obj[enter]
        obj = [a * p - f * b for a, b in zip(obj, prow)]
        oden *= p
        g = gcd(oden, *obj)
        if g > 1:
            obj = [a // g for a in obj]
            oden //= g
        basis[leave] = enter
    if obj[-1] == 0:
        point: dict[int, Fraction] = {}
        for i in range(m):
            if basis[i] < n:
                point[cols[basis[i]]] = Fraction(tab[i][-1], tab[i][basis[i]])
        return point, None
    dual: dict[int, Fraction] = {}
    for k in range(m):
        y = Fraction(obj[n + k] - oden, oden) * flip[k]
        if y != 0:
            dual[rows[k]] = y
    return None, dual


def _patch_certificate(
    coeffs: list[dict[int, Fraction]],
    multipliers: dict[int, Fraction],
    eliminated: list[_Elimination],
) -> dict[int, Fraction]:
    """Extend block multipliers so eliminated columns also combine >= 0.

    Processed in reverse elimination order: each patch row is nonnegative on
    every column still active when its variable was eliminated, so later
    (already patched) columns only increase.
    """
    y = dict(multipliers)
    for e in reversed(eliminated):
        combined = ZERO
        for r, yr in y.items():
            a = coeffs[r].get(e.var, ZERO)
            if a != 0:
                combined += yr * a
        if combined < 0:
            coeff = coeffs[e.row][e.var] * e.sign
            t = (-combined) / coeff
            y[e.row] = y.get(e.row, ZERO) + t * e.sign
            if y[e.row] == 0:
                del y[e.row]
    return y


def solve_feasibility(system: LinearSystem) -> Feasible | Infeasible:
    """Decide feasibility of ``A x = b, x >= 0`` exactly.

    Deterministic: fixed variable order and Bland's rule.  A Feasible result
    always satisfies every row exactly; an Infeasible result always carries a
    certificate that passes ``verify_certificate`` (both re-checked here).
    """
    varnames = system.variables
    vindex = {v: i for i, v in enumerate(varnames)}
    # stored zero coefficients are dropped so row supports stay exact
    coeffs = [
        {vindex[v]: a for v, a in c.coeffs.items() if a != 0}
        for c in system.constraints
    ]
    rhs = [c.rhs for c in system.constraints]

    active_rows, active_vars, eliminated, bad_row = _presolve(
        coeffs, rhs, len(varnames)
    )

    def finish_infeasible(block_dual: dict[int, Fraction]) -> Infeasible:
        full = _patch_certificate(coeffs, block_dual, eliminated)
        scale = max(abs(v) for v in full.values())
        named = {
            system.constraints[r].name: v / scale for r, v in full.items() if v != 0
        }
        cert = FarkasCertificate(multipliers=named)
        rhs = _certified_rhs(system, cert)
        if rhs is None:
            raise LinearSystemError("internal error: certificate failed verification")
        # the multipliers are normalized to max |y| = 1, so the margin is |rhs|
        return Infeasible(certificate=cert, margin=-rhs)

    if bad_row is not None:
        sign = Fraction(-1 if rhs[bad_row] > 0 else 1)
        return finish_infeasible({bad_row: sign})

    point: dict[str, Fraction] = {v: ZERO for v in varnames}
    for rows, cols in _components(coeffs, active_rows, active_vars):
        block_point, block_dual = _simplex_phase1(coeffs, rhs, rows, cols)
        if block_point is None:
            assert block_dual is not None
            return finish_infeasible(block_dual)
        for j, value in block_point.items():
            point[varnames[j]] = value
    if not verify_point(system, point):
        raise LinearSystemError("internal error: solution failed verification")
    return Feasible(point=point)
