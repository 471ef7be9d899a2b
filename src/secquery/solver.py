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
ordering holds without tolerance.

The entire optimal strategy compresses into integer thresholds: query k at
the first record time >= r_k, stop on response m iff the time is >= s_k(m),
and after all queries stop at the first record time >= r_f.  Stage k alone
fixes r_{k+1} and s_k (the final stop is stage K+1 of the query rule, so
stage K fixes r_f), so ``solve`` reads them as ``stages`` yields each stage,
in O(n) memory; only ``compute_tables`` (``solve --tables``) keeps all 2K+3
rows.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, islice
from math import gcd, lcm
from operator import ge
from typing import NamedTuple

from .model import Number, NumericMode, ProblemSpec, ResponseModel, ValidationError

Row = tuple[Number, ...]


class Stage(NamedTuple):
    """(A[k], U[k+1]) for one k.

    Float rows hold the values and ``den`` is None.  Exact rows hold integer
    numerators over the one denominator ``den`` that both rows share, so two
    cells of a stage compare as integers.
    """

    A: Row
    U: Row
    den: int | None = None

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
# them all; ``stages`` holds a few rows at a time, so for a streamed solve
# the cap bounds work, which grows with n*K, and not memory.  On a 2-vCPU VM
# a float solve of 7*10**6 cells (n = 10**6, K = 2, M = 4) peaks near
# 0.28 GB streamed and 0.31 GB kept.  Past the cap a solve is refused before
# anything is allocated.
MAX_TABLE_CELLS = 10_000_000

# Largest exact-rational solve, counted as table cells times n.  Exact values
# carry denominators of thousands of bits, so the cost of a row grows faster
# than n**2: on a 2-vCPU VM n = 1000, K = 10 (2.3e7) takes about 0.2 s,
# n = 4000, K = 2 (1.1e8) 0.8 s and n = K = 390 (1.2e8) 1.6 s.  Doubling n
# costs about 6x (n = 8000, K = 2 takes 5 s), so n = 20000, K = 2 (2.8e9)
# would run for about a minute.  Float solves are not bound by it.
MAX_RATIONAL_WORK = 120_000_000


@dataclass(frozen=True)
class ValueTables:
    """Solved A and U tables for one instance. Immutable and shareable.

    The tables are kept as the stages the solve yielded: ``a`` and ``u``
    build one cell, ``A`` and ``U`` every cell on the first read.
    """

    kept: tuple[Stage, ...]  # (A[k], U[k+1]) for k = 0..K
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
    """Solve stage by stage: yield the Stage (A[k], U[k+1]) for k = K..0 as each finishes.

    Instances needing more than MAX_TABLE_CELLS cells, and exact solves above
    MAX_RATIONAL_WORK, are refused with a ValidationError here, before the
    first stage is computed.  The stages keep only the rows the next stage
    reads; each row is yielded once, as a tuple.

    Exact mode evaluates the defining recursion of the module docstring
    as written (see ``_exact_rows``).  The float path rearranges it so every
    table ordering that is a theorem holds with zero tolerance: the A step
    uses the slack form A[k][t] + (U[k+1][t]-A[k][t])_+/t (bit-flat plateaus,
    stable extraction ties), the U step collapses to t/n * sum(p) where every
    max picks its p-arm, and each finished row is max-ratcheted against its
    neighbors (one more query spent; U >= A and U >= t/n).  All three are
    float-only: on the true values they change nothing.
    """
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
    return _exact_rows(spec)


def compute_tables(spec: ProblemSpec, mode: NumericMode = NumericMode.FLOAT64) -> ValueTables:
    """Every stage of ``stages``, kept: the tables ``solve --tables`` writes."""
    return ValueTables(tuple(reversed(list(stages(spec, mode)))), spec)


def _exact_rows(spec: ProblemSpec) -> Iterator[Stage]:
    """The stages in exact rationals: integer numerators over one denominator per stage.

    A stage's two rows share the denominator ``den``, and A[k][t] = N[t]/den.
    den carries L = lcm(1..n) on top of the denominator of U[k+1], so every
    division by t in the A step is an exact integer division (the argument
    is in ``_exact_a_row``).  The U step divides by nothing: with p(m) = P(m)/D
    and q(m) = Q(m)/D over their least common denominator D,

        U[k][t] = (sum(winning P) * t * den/n + sum(winning Q) * N[t]) / (den*D)

    each max decided by the integer test P(m)*t*den/n >= Q(m)*N[t], the test
    ``read_stages`` reads the stop thresholds with.  Once per stage, one gcd
    of den*D and the U row takes out the row's common factor before L is
    multiplied back in, so den stays near L times the row's least common
    denominator instead of growing by L*D per stage.  No cell is a Fraction
    until it is read.
    """
    n, K = spec.n, spec.K
    D, P, Q = spec.model.integer_weights()
    L = lcm(*range(1, n + 1))
    u, den = [t * L for t in range(n + 1)], n * L  # U[K+1][t] = t/n, the no-query reward
    for k in range(K, -1, -1):
        a = _exact_a_row(u)
        yield Stage(tuple(a), tuple(u), den)
        if k >= 1:
            c = den // n  # t/n = t*c/den
            arms = [(Pm, Pm * c, Qm) for Pm, Qm in zip(P, Q)]
            for t, x in enumerate(a):  # U[k] over den*D, built in A[k]'s list
                sp = sq = 0
                for Pm, Pc, Qm in arms:
                    if Pc * t >= Qm * x:  # p(m)*t/n >= q(m)*A[k][t]
                        sp += Pm
                    else:
                        sq += Qm
                a[t] = sp * t * c + sq * x
            u, den = a, den * D
            # Divide out the row's common factor g and scale by L in one
            # step: x*L/g = x//(g/h) * (L/h) with h = gcd(g, L).  Mostly g
            # divides L, and the step is one product by the short L/g.
            g = gcd(den, *u)
            h = gcd(g, L)
            g, s = g // h, L // h
            for t, x in enumerate(u):
                u[t] = x // g * s
            den = den // g * s


def _exact_a_row(u: list[int]) -> list[int]:
    """A[k] from U[k+1], both as integer numerators over the stage's den.

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
    a = [0] * (n + 1)
    x = 0
    for t in range(n, 1, -1):
        y = u[t]
        if y > x:
            x, r = divmod((t - 1) * x + y, t)
            if r:
                raise ValidationError(f"A step remainder at t={t}: U - A changes sign twice")
        a[t - 1] = x
    a[0] = max(u[1], a[1])
    return a


def _float_rows(spec: ProblemSpec) -> Iterator[Stage]:
    """The stages in IEEE doubles.

    The A step is a recurrence in t and runs cell by cell.  The U step has
    none and runs arm by arm over whole rows, but every cell still goes
    through the same IEEE operations, in the same m order, as in a loop over
    m per cell; ``tests/test_table_digests.py`` pins the resulting bits.
    """
    n, K = spec.n, spec.K
    p, q = spec.model.float_weights()
    # Summed left to right: since Python 3.12 the builtin sum() of floats is
    # compensated, and the table bits would depend on the interpreter.
    sum_p = sum_q = 0.0
    for pm, qm in zip(p, q):
        sum_p += pm
        sum_q += qm

    ratio = tuple(t / n for t in range(n + 1))
    up = ratio  # U[K+1][t] = t/n, the no-query reward
    for k in range(K, -1, -1):
        row = [0.0] * (n + 1)
        a = row[n]
        for t in range(n, 1, -1):
            # Slack form of the t-step: exact (no drift) wherever U <= A, so
            # flat stretches of A stay bit-flat and extraction ties are stable.
            gain = up[t] - a
            if gain > 0.0:
                a += gain / t
            row[t - 1] = a
        row[0] = max(up[1], a)  # the t=1 step is exactly a max
        if k < K:
            # A[k] >= A[k+1] (one more query spent) is a theorem, so this is a
            # no-op on the true values; in float it pins the stage ordering
            # where the true gap is below one ulp.
            row = [b if b > a else a for a, b in zip(row, after)]
        after = row = tuple(row)
        yield Stage(row, up)
        if k >= 1:
            # Per cell: extra = sum of the positive d(m) = p(m)*t/n - q(m)*A
            # in m order, and won = every d(m) > 0.
            extra = [0.0] * (n + 1)
            won = [True] * (n + 1)
            for pm, qm in zip(p, q):
                d = [pm * x - qm * a for x, a in zip(ratio, row)]
                extra = [e + dm if dm > 0.0 else e for e, dm in zip(extra, d)]
                won = [w and dm > 0.0 for w, dm in zip(won, d)]
            # When every max picks its p-arm the sum collapses identically
            # to t/n * sum(p); using that keeps the region exact in float.
            # When none does, extra is zero and this is A * sum(q).
            cand = [
                x * sum_p if w else a * sum_q + e for w, x, a, e in zip(won, ratio, row, extra)
            ]
            # U >= A and U >= U[next stage] are theorems; same ratchet.
            cand = [a if a > c else c for c, a in zip(cand, row)]
            up = [u if u > c else c for c, u in zip(cand, up)]
            up[0] = row[0]  # p-terms vanish at t=0, leaving sum_m q(m)*A[k][0]
            up = tuple(up)
            del d, extra, won, cand  # not to be held through the next stage


def _first(hits: Iterable[bool]) -> int:
    """The least t >= 1 whose test holds, given the tests for t = 1, 2, ..."""
    return next(compress(count(1), hits))


def _least(n: int, holds: Callable[[int], bool]) -> int:
    """The least t in 1..n where holds(t), for a test that never turns false again."""
    return bisect_left(range(1, n + 1), True, key=holds) + 1


def read_stages(
    spec: ProblemSpec, rows: Iterable[Stage]
) -> tuple[ThresholdSet, tuple[tuple[int, ...], ...]]:
    """The thresholds, read from the stages (A[k], U[k+1]) for k = K..0 as they come.

    Stage k gives the gate r_{k+1} (r_f at k = K), the least t with
    U[k+1][t] >= A[k][t], and one stop row: for each level m the least t
    with p(m)*t/n >= q(m)*A[k][t].  That row is s_k of the ThresholdSet,
    the executable rule, which compares against the value once the k-th
    query is charged.  It is also s_{k+1} of the pre-query rows returned
    second, the convention of the published reference grid that `table2`
    reproduces.  On that grid's symmetric models the two agree at every
    reachable time (t >= r_k); on asymmetric models they can differ there,
    and then the pre-query rows lose value (see README).

    Each stage is read in its own arithmetic.  Exact rows compare integer
    numerators over the stage's den, the stop test as P(m)*t*den/n >=
    Q(m)*N[t], the test the U step used; only A[0][0] becomes a Fraction.
    Float rows (den None) compute t/n as the no-query row U[K+1] does, so
    they too compare the values the recursion used.  Existence at t=n is
    guaranteed: U is 1 or p(m) there while A[.][n] = 0.

    The gate is scanned from t = 1.  A stop test is found by bisection: in
    both modes A[k] never rises along t (exactly, or in float because the
    slack A step only adds and the ratchet is a max of such rows) while
    t/n never falls, so once a stop test holds it holds at every later t.
    """
    n = spec.n
    gates, stops = [], []
    for stage in rows:
        a, u, den = stage
        if den is None:
            p, q = spec.model.float_weights()
            p_arms = [lambda t, pm=pm: pm * (t / n) for pm in p]
        else:  # p(m)*t/n over den is P(m)*(den/n)*t
            _, p, q = spec.model.integer_weights()
            p_arms = [(pm * (den // n)).__mul__ for pm in p]
        gates.append(_first(map(ge, islice(u, 1, None), islice(a, 1, None))))
        stops.append(tuple(_least(n, lambda t: arm(t) >= qm * a[t]) for arm, qm in zip(p_arms, q)))
    r_f, *r = gates
    s = tuple(reversed(stops[:-1]))
    ts = ThresholdSet(n, spec.model.M, r_f, tuple(reversed(r)), s, stage.value(a[0]))
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
