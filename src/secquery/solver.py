"""Backward value recursions and threshold extraction for the optimal strategy.

Two table families are computed, indexed by the number of queries already
spent, k, and the time t:

* ``A[k][t]``  — maximal success probability continuing past time t with k
  queries spent (``A[0][0]`` is the value of the whole problem),
* ``U[k][t]``  — value of placing the k-th query at a record time t
  (``U[K+1][t] = t/n`` is the no-query final-stop reward).

The query times are consecutive stopping times, so the recursion runs
backward one stage at a time, k = K..0: building ``A[k]`` needs only
``U[k+1]``, and ``U[k]`` follows from ``A[k]``:

    A[k][t-1] = A[k][t]*(1 - 1/t) + max(U[k+1][t], A[k][t])*(1/t)
    U[k][t]   = sum_m max(p(m)*t/n, q(m)*A[k][t])

Each ``Stage`` says which arithmetic it holds.  Exact stages evaluate the
recursion as written, on integer numerators over one denominator
(``_exact_rows``); float stages use an algebraically identical slack form
with ratchets (``stages``), so flat regions stay exact and every table
ordering holds without tolerance.  A float U row is built one stretch of t
at a time, between the cut points where a level's p-arm starts to win, and
the float stages stop changing after a few dozen k: the first stage equal
to the one before it ends the solve (``_float_rows``).

The entire optimal strategy compresses into integer thresholds: query k at
the first record time >= r_k, stop on response m iff the time is >= s_k(m),
and after all queries stop at the first record time >= r_f.  Stage k alone
fixes r_{k+1} and s_k (the final stop is stage K+1 of the query rule, so
stage K fixes r_f).  Each stage carries both, found in its own arithmetic as
the stage is built, and ``solve`` collects them as ``stages`` yields each
stage, in O(n) memory; only ``compute_tables`` (``solve --tables``) keeps
all 2K+3 rows.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, islice, pairwise, repeat
from math import gcd, lcm
from operator import ge
from typing import NamedTuple

from .model import Number, NumericMode, ProblemSpec, ResponseModel, ValidationError

Row = tuple[Number, ...]


class Stage(NamedTuple):
    """(A[k], U[k+1] or None, den, gate, stop) for one k.

    Float rows hold the values and ``den`` is None.  Exact rows hold integer
    numerators over the stage's one denominator ``den``, so two cells of a
    stage compare as integers.  ``gate`` is r_{k+1} (r_f at k = K), the
    least t >= 1 with U[k+1][t] >= A[k][t].  ``stop`` holds, for each level
    m, the least t with p(m)*t/n >= q(m)*A[k][t], the test the U step
    decides each max by; it exists because at t = n, A[k][n] = 0.  U is None
    in a streamed exact stage, whose A step overwrote it.
    """

    A: Row
    U: Row | None
    den: int | None
    gate: int
    stop: tuple[int, ...]

    def value(self, x: Number) -> Number:
        """A cell of this stage as a number: the float, or the Fraction x/den."""
        return x if self.den is None else Fraction(x, self.den)

    def floats(self, row: Row) -> Iterator[float]:
        """A row's cells as floats, each rounded as float(value) rounds it.

        An exact cell is x / den: integer true division is correctly
        rounded, so no Fraction is built and none is reduced.
        """
        return iter(row) if self.den is None else (x / self.den for x in row)


# Largest solve accepted, counted in table cells: A has K+1 rows and U has
# K+2 (the t/n row included), each of n+1 cells.  Only compute_tables keeps
# them all; ``stages`` holds one row at a time in exact mode and four in
# float mode, so for a streamed solve the cap bounds work, not memory.  Exact
# work grows with n*K; float work grows with n*K only up to the fixed point
# of ``_float_rows`` (about 25 stages at p = 9/10), and past it only by the
# M thresholds collected per stage, which the repeated stage found once.
# On a 2-vCPU VM a float solve of 7*10**6 cells (n = 10**6, K = 2, M = 4),
# whose rows are 32 MB each, peaks near 0.18 GB streamed and 0.24 GB kept.
# Past the cap a solve is refused before anything is allocated.
MAX_TABLE_CELLS = 10_000_000

# Largest exact-rational solve, counted as table cells times n.  Exact values
# carry denominators of thousands of bits, so the cost of a row grows faster
# than n**2: on a 2-vCPU VM n = 1000, K = 10 (2.3e7) takes about 0.13 s,
# n = 4000, K = 2 (1.1e8) 0.5 s and n = K = 390 (1.2e8) 1.0 s.  Doubling n
# costs about 6.5x (n = 8000, K = 2 takes 3.1 s), so n = 20000, K = 2 (2.8e9)
# would run for over half a minute.  Float solves are not bound by it.
MAX_RATIONAL_WORK = 120_000_000


@dataclass(frozen=True)
class ValueTables:
    """Solved A and U tables for one instance. Immutable and shareable.

    The tables are kept as the stages the solve yielded: ``a`` and ``u``
    build one cell, ``A`` and ``U`` every cell on the first read.
    """

    kept: tuple[Stage, ...]  # (A[k], U[k+1], den, gate, stop) for k = 0..K
    spec: ProblemSpec

    @cached_property
    def A(self) -> tuple[Row, ...]:
        """A[k] for k = 0..K; the first read builds every cell."""
        return tuple(tuple(map(stage.value, stage.A)) for stage in self.kept)

    @cached_property
    def U(self) -> tuple[Row, ...]:
        """U[k] at index k-1, for k = 1..K+1; the first read builds every cell."""
        return tuple(tuple(map(stage.value, stage.U)) for stage in self.kept)

    def a(self, k: int, t: int) -> Number:
        stage = self.kept[k]
        return stage.value(stage.A[t])

    def u(self, k: int, t: int) -> Number:
        """U for query index k in 1..K+1."""
        stage = self.kept[k - 1]
        return stage.value(stage.U[t])


class HorizonMismatch(ValueError):
    """Thresholds run on an instance they were not solved for.

    ``ThresholdSet.check_fits`` refuses an instance whose horizon n, budget K
    or number of response levels M differs; the message names the field.
    ``run_strategy`` checks n alone: a rank stream has no K or M.
    """


@dataclass(frozen=True)
class ThresholdSet:
    """The optimal strategy in compact form.

    ``r[k-1]`` gates the k-th query, ``s[k-1][m-1]`` is the stop threshold for
    response m at the k-th query, ``r_f`` gates the final stop once the budget
    is spent.  ``success_probability`` equals A[0][0].  A set whose ``s`` is
    not K rows of M entries, or with a threshold outside 1..n, is refused with
    a ValidationError.
    """

    n: int
    M: int
    r_f: int
    r: tuple[int, ...]
    s: tuple[tuple[int, ...], ...]
    success_probability: Number

    def __post_init__(self) -> None:
        if len(self.s) != self.K or any(len(row) != self.M for row in self.s):
            raise ValidationError(
                f"s must be K={self.K} rows of M={self.M} entries, "
                f"got rows of {[len(row) for row in self.s]}"
            )
        for name, t in (
            ("r_f", self.r_f),
            *(("r", t) for t in self.r),
            *(("s", t) for row in self.s for t in row),
        ):
            if not 1 <= t <= self.n:
                raise ValidationError(f"{name} threshold {t} outside 1..n={self.n}")

    @property
    def K(self) -> int:
        return len(self.r)

    @property
    def gates(self) -> tuple[int, ...]:
        """(r_1, ..., r_K, r_f): the first time each of the K+1 stages may act."""
        return (*self.r, self.r_f)

    def check_fits(self, spec: ProblemSpec) -> None:
        """Raise HorizonMismatch unless these thresholds were solved for spec's n, K and M."""
        for name, solved, given in (
            ("n", self.n, spec.n), ("K", self.K, spec.K), ("M", self.M, spec.model.M)
        ):
            if solved != given:
                raise HorizonMismatch(f"thresholds for {name}={solved}, spec has {name}={given}")


def stages(spec: ProblemSpec, mode: NumericMode = NumericMode.FLOAT64) -> Iterator[Stage]:
    """Solve stage by stage: yield the Stage of each k = K..0 as it finishes.

    Instances needing more than MAX_TABLE_CELLS cells, and exact solves above
    MAX_RATIONAL_WORK, are refused with a ValidationError here, before the
    first stage is computed.  Each row is yielded once, as a tuple, and is
    dropped as soon as no later stage reads it: besides the stage the caller
    holds, an exact solve holds one row, so its stages carry no U row, and a
    float solve the t/n row, A[k], U[k+1] and the row being built.

    Exact mode evaluates the defining recursion of the module docstring
    as written (see ``_exact_rows``).  The float path rearranges it so every
    table ordering that is a theorem holds with zero tolerance: the A step
    uses the slack form A[k][t] + (U[k+1][t]-A[k][t])_+/t (bit-flat plateaus,
    stable extraction ties), the U step collapses to t/n * sum(p) where every
    max picks its p-arm, and each finished row is max-ratcheted against its
    neighbors: A[k] against A[k+1], one more query spent, and U[k] against
    A[k] and U[k+1] (``_float_u_row``).  U >= t/n follows, as U[K+1] is the
    t/n row.  All three are float-only: on the true values they change
    nothing.  The float U step runs over the stretches of t where the
    winning levels are fixed, and once a float stage repeats the one before
    it, that stage is yielded for every later k (``_float_rows`` gives both
    arguments).
    """
    return _stages(spec, mode, keep_u=False)


def compute_tables(spec: ProblemSpec, mode: NumericMode = NumericMode.FLOAT64) -> ValueTables:
    """Every stage of ``stages``, kept with its U row: the tables ``solve --tables`` writes."""
    return ValueTables(tuple(reversed(list(_stages(spec, mode, keep_u=True)))), spec)


def _stages(spec: ProblemSpec, mode: NumericMode, keep_u: bool) -> Iterator[Stage]:
    """``stages``, whose exact stages also hold U[k+1] when keep_u is true."""
    n, K = spec.n, spec.K
    cells = (2 * K + 3) * (n + 1)
    if cells > MAX_TABLE_CELLS:
        raise ValidationError(
            f"n={n}, K={K} needs {cells} table cells, above MAX_TABLE_CELLS={MAX_TABLE_CELLS}"
        )
    if mode is not NumericMode.EXACT_RATIONAL:
        return _float_rows(spec)
    if not spec.model.exact:
        raise ValidationError(
            "exact-rational solve requires exact model probabilities; "
            "use ints, Fractions, or 'a/b' strings in the config"
        )
    work = cells * n
    if work > MAX_RATIONAL_WORK:
        raise ValidationError(
            f"rational solve of n={n}, K={K} needs cells*n = {work}, above "
            f"MAX_RATIONAL_WORK={MAX_RATIONAL_WORK}; solve it in float mode"
        )
    return _exact_rows(spec, keep_u)


def _exact_rows(spec: ProblemSpec, keep_u: bool) -> Iterator[Stage]:
    """The stages in exact rationals: integer numerators over one denominator per stage.

    A stage's rows share the denominator ``den``, and A[k][t] = N[t]/den.
    den carries L = lcm(1..n) on top of the denominator of U[k+1], so every
    division by t in the A step is an exact integer division (the argument
    is in ``_exact_a_step``).  The U step divides by nothing: with p(m) = P(m)/D
    and q(m) = Q(m)/D over their least common denominator D,

        U[k][t] = (sum(winning P) * t * den/n + sum(winning Q) * N[t]) / (den*D)

    Level m's p-arm wins from t = stop[m] on, the stage's stop row, bisected
    with the integer test P(m)*t*den/n >= Q(m)*N[t] (``_least``).  So both
    sums are fixed between stop row entries, and at t = 0, where every p-arm
    is 0, the cell is sum(Q) * N[0] whichever arm wins.  Once per stage, one
    gcd of den*D and the U row takes out the row's common factor before L is
    multiplied back in, so den stays near L times the row's least common
    denominator instead of growing by L*D per stage.  No cell is a Fraction
    until it is read.

    The A step overwrites U[k+1] with A[k] and the U step A[k] with U[k], so
    the solve holds one row; only with keep_u is U[k+1] copied out first.
    """
    n, K = spec.n, spec.K
    D, P, Q = spec.model.integer_weights()
    L = lcm(*range(1, n + 1))
    u, den = [t * L for t in range(n + 1)], n * L  # U[K+1][t] = t/n, the no-query reward
    for k in range(K, -1, -1):
        up = tuple(u) if keep_u else None
        gate = _exact_a_step(u)  # u holds A[k] from here on
        c = den // n  # t/n = t*c/den
        stop = tuple(_least(n, lambda t: Pm * c * t >= Qm * u[t]) for Pm, Qm in zip(P, Q))
        yield Stage(tuple(u), up, den, gate, stop)
        if k >= 1:
            den *= D  # U[k] over den*D, built in A[k]'s list
            for lo, hi in pairwise(sorted({0, n + 1, *stop})):
                pc = c * sum(Pm for Pm, s in zip(P, stop) if s <= lo)
                sq = sum(Qm for Qm, s in zip(Q, stop) if s > lo)
                for t in range(lo, hi):
                    u[t] = pc * t + sq * u[t]
            # Divide out the row's common factor g and scale by L in one
            # step: x*L/g = x//(g/h) * (L/h) with h = gcd(g, L).  Mostly g
            # divides L, and the step is one product by the short L/g.
            g = gcd(den, *u)
            h = gcd(g, L)
            g, s = g // h, L // h
            for t, x in enumerate(u):
                u[t] = x // g * s
            den = den // g * s


def _exact_a_step(u: list[int]) -> int:
    """Overwrite U[k+1] with A[k] in place, both integer numerators over the stage's den.

    Returns the gate, the least t >= 1 with U[k+1][t] >= A[k][t], read
    exactly (at t = n, U >= 0 = A).

    The A step is N[t-1] = ((t-1)*N[t] + U[t]) / t where U[t] > N[t], and
    N[t] otherwise; the t = 1 step is a max.  Each U[t] is a multiple of
    L = lcm(1..n) (``_exact_rows``), so of t(t-1), and the division by t is
    exact when N[t] is a multiple of t: N[n] = 0 is, a tie leaves N[t-1] =
    U[t], and a gain at t makes t*N[t-1], so N[t-1], a multiple of t-1.  A
    remainder needs gains at t and at some t' > t with U < A between them:
    U - A changing sign twice along t, against the table orderings (A falls
    and U rises along t) and the one gate r.  It is refused, not rounded.
    """
    n = len(u) - 1
    x, y = 0, u[n]  # A[k][t] and U[k+1][t], from t = n down
    u[n] = 0
    for t in range(n, 1, -1):
        if y >= x:
            gate = t
            if y > x:
                x, r = divmod((t - 1) * x + y, t)
                if r:
                    raise ValidationError(f"A step remainder at t={t}: U - A changes sign twice")
        y = u[t - 1]
        u[t - 1] = x
    if y >= x:
        gate = 1
    u[0] = max(y, x)  # the t=1 step is exactly a max
    return gate


def _float_rows(spec: ProblemSpec) -> Iterator[Stage]:
    """The stages in IEEE doubles, each with the bits of the cell-by-cell loop.

    The A step is a recurrence in t and runs cell by cell.  The U step has
    none and runs over stretches of t.  Level m's p-arm wins where d(m) =
    p(m)*t/n - q(m)*A[k][t] > 0, and that test never turns false again along
    t (``_least``).  So each level's cut point is bisected, and between cut
    points the set of winning levels is fixed.  There every cell gets the
    IEEE operations of a loop over m per cell, in the same m order: t/n *
    sum(p) where every level wins, else A*sum(q) + e, with e the winning d(m)
    summed left to right from 0.0.
    ``tests/test_table_digests.py`` and ``tests/test_float_kernel.py`` pin
    the resulting bits.

    The stages reach a fixed point.  Stage k-1 is a function of stage k
    alone: U[k] is built from A[k] and U[k+1], and A[k-1] from U[k] and the
    ratchet against A[k].  So if stage k equals stage k+1, then stage k-1 =
    f(stage k) = f(stage k+1) = stage k, and by induction every stage down
    to k = 0 is that stage.  Equal means bit for bit here: every cell is a
    sum or product of non-negative doubles started from +0.0, so no row
    holds a NaN or a -0.0 that == would misread.  The loop keeps no stage,
    only A[k+1] for the A ratchet, which is applied per cell as A[k] is
    written; ``_float_u_row`` reports whether U[k+1] equals U[k+2], and with
    A[k] == A[k+1] that is the repeat.  The first repeat ends the solve: the
    equal stage just built is yielded for it and every later k.  Exact
    stages change den every stage and are not checked.

    Each stage keeps U[k+1], which the loop holds anyway, its gate is
    scanned from t = 1, and its stop row is bisected with t/n read from the
    no-query row, so the stop tests compare the values the recursion used.
    The repeated stage carries its stop row, so past the fixed point no
    stage is read again.
    """
    n, K = spec.n, spec.K
    p, q = spec.model.float_weights()
    # Summed left to right: since Python 3.12 the builtin sum() of floats is
    # compensated, and the table bits would depend on the interpreter.
    sum_p = sum_q = 0.0
    for pm, qm in zip(p, q):
        sum_p += pm
        sum_q += qm
    arms = tuple(zip(p, q))

    ratio = tuple(t / n for t in range(n + 1))
    # U[K+1][t] = t/n, the no-query reward.  The A ratchet of stage K is
    # against zeros, a no-op on non-negative cells.
    up, prev, same = ratio, (0.0,) * (n + 1), False
    for k in range(K, -1, -1):
        row = [0.0] * (n + 1)
        a = 0.0
        for t, b in zip(range(n, 1, -1), islice(reversed(prev), 1, None)):
            # Slack form of the t-step: exact (no drift) wherever U <= A, so
            # flat stretches of A stay bit-flat and extraction ties are stable.
            gain = up[t] - a
            if gain > 0.0:
                a += gain / t
            # A[k] >= A[k+1] (one more query spent) is a theorem, so this
            # ratchet against b = A[k+1][t-1] is a no-op on the true values;
            # in float it pins the stage ordering where the true gap is below
            # one ulp.  The recurrence runs on in the unratcheted a.
            row[t - 1] = b if b > a else a
        a = max(up[1], a)  # the t=1 step is exactly a max
        b = prev[0]
        row[0] = b if b > a else a
        row = tuple(row)
        gate = next(compress(count(1), map(ge, islice(up, 1, None), islice(row, 1, None))))
        stop = tuple(_least(n, lambda t: pm * ratio[t] >= qm * row[t]) for pm, qm in arms)
        if same and row == prev:
            yield from repeat(Stage(row, up, None, gate, stop), k + 1)
            return
        yield Stage(row, up, None, gate, stop)
        prev = row
        if k >= 1:
            up, same = _float_u_row(row, up, ratio, arms, sum_p, sum_q)


# Cells per piece of a float U row.  Each piece lies inside one stretch of
# fixed winning levels, and its slices and lists are all the U step holds
# besides the rows, so even a stretch as long as the row costs a few
# thousand cells, not a row.  Larger pieces are no faster.
_PIECE = 1024


def _float_u_row(
    row: Row, up: Row, ratio: Row, arms: tuple[tuple[float, float], ...], sum_p: float, sum_q: float
) -> tuple[Row, bool]:
    """U[k] from the float rows A[k] and U[k+1], and whether it equals U[k+1].

    Each level's cut point, the least t where its p-arm wins, is bisected
    (``_least``); it is n+1 where the p-arm never wins.  Between cut points
    the winning levels are fixed, so a piece of such a stretch takes one
    pass per winning level and one for U, and the two ratchets follow per
    piece, each cell appended to the one new row.
    """
    cuts = [
        _least(len(row) - 1, lambda t: pm * ratio[t] - qm * row[t] > 0.0) for pm, qm in arms
    ]
    out: list[float] = []
    for lo, hi in pairwise(sorted({len(row), *cuts, *range(0, len(row), _PIECE)})):
        xs, ys, us = ratio[lo:hi], row[lo:hi], up[lo:hi]
        won = [arm for arm, cut in zip(arms, cuts) if cut <= lo]
        if len(won) == len(arms):
            # Where every max picks its p-arm the sum collapses identically
            # to t/n * sum(p); using that keeps the region exact in float.
            cand = [x * sum_p for x in xs]
        else:
            e = [0.0] * (hi - lo)
            for pm, qm in won:
                e = [s + (pm * x - qm * y) for s, x, y in zip(e, xs, ys)]
            cand = [y * sum_q + s for y, s in zip(ys, e)]
        # U >= A and U >= U[k+1] are theorems; ratcheted as A >= A[k+1] is.
        cand = [a if a > c else c for c, a in zip(cand, ys)]
        out += [u if u > c else c for c, u in zip(cand, us)]
    out[0] = row[0]  # p-terms vanish at t=0, leaving sum_m q(m)*A[k][0]
    new = tuple(out)
    return new, new == up


def _least(n: int, holds: Callable[[int], bool]) -> int:
    """The least t in 1..n where holds(t), for a test that never turns false again; else n+1.

    It serves the stop tests p(m)*t/n >= q(m)*A[k][t], whose rows the exact
    U step also runs on, and the float U step's cut points: in both modes
    A[k] never rises along t (exactly, or in float because the slack A step
    only adds and the ratchet is a max of such rows) while t/n never falls,
    and IEEE products and differences are monotone in each operand, so once
    p(m)'s arm wins it wins at every later t.
    """
    return bisect_left(range(1, n + 1), True, key=holds) + 1


def read_stages(
    spec: ProblemSpec, rows: Iterable[Stage]
) -> tuple[ThresholdSet, tuple[tuple[int, ...], ...]]:
    """The thresholds, collected from the stages for k = K..0 as they come.

    Stage k carries its gate r_{k+1} (r_f at k = K) and one stop row, both
    found in the stage's own arithmetic as it was built.  The stop row is
    s_k of the ThresholdSet, the executable rule, which compares against the
    value once the k-th query is charged.  It is also s_{k+1} of the
    pre-query rows returned second, the convention of the published
    reference grid that `table2` reproduces.  On that grid's symmetric models
    the two agree at every reachable time (t >= r_k); on asymmetric models
    they can differ there, and then the pre-query rows lose value (see
    README).  No row is read but A[0][0], the one cell that becomes a
    Fraction in exact mode.

    The stages are read through map, which, unlike a for loop, holds no
    stage while the next one is built; of each stage only its gate, its stop
    row and, until the next one, its corner A[k][0] are kept.
    """
    n, model = spec.n, spec.model
    corner = None

    def read(stage: Stage) -> tuple[int, tuple[int, ...]]:
        nonlocal corner
        corner = stage.A[0], stage.den
        return stage.gate, stage.stop

    (r_f, *r), stops = zip(*map(read, rows))
    x, den = corner
    value = x if den is None else Fraction(x, den)  # A[0][0]
    ts = ThresholdSet(n, model.M, r_f, tuple(reversed(r)), tuple(reversed(stops[:-1])), value)
    return ts, tuple(reversed(stops[1:]))


def solve(spec: ProblemSpec, mode: NumericMode = NumericMode.FLOAT64) -> ThresholdSet:
    """The thresholds of spec, read stage by stage; no table is kept."""
    return read_stages(spec, stages(spec, mode))[0]


def extract_thresholds(tables: ValueTables) -> ThresholdSet:
    """The thresholds of stored tables, read as ``read_stages`` reads a solve."""
    return read_stages(tables.spec, reversed(tables.kept))[0]


def pre_query_stop_thresholds(tables: ValueTables) -> tuple[tuple[int, ...], ...]:
    """Stop rows of stored tables against the pre-query row A[k-1] (``read_stages``)."""
    return read_stages(tables.spec, reversed(tables.kept))[1]


_UNINFORMATIVE = ResponseModel(1, (1,), (1,))


def classical_threshold(n: int, mode: NumericMode = NumericMode.FLOAT64) -> tuple[int, Number]:
    """Final-stop threshold and success probability with no queries at all."""
    ts = solve(ProblemSpec(n=n, K=0, model=_UNINFORMATIVE), mode)
    return ts.r_f, ts.success_probability
