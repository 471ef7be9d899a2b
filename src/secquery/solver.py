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

Exact mode evaluates them as written.  The float path uses an algebraically
identical slack form with ratchets (see ``stages``) so that flat regions
stay exact and every table ordering holds without tolerance.

The entire optimal strategy compresses into integer thresholds: query k at
the first record time >= r_k, stop on response m iff the time is >= s_k(m),
and after all queries stop at the first record time >= r_f.  Stage k alone
fixes r_{k+1} and s_k (the final stop is stage K+1 of the query rule, so
stage K fixes r_f), so ``solve`` reads them as ``stages`` yields each stage,
in O(n) memory; only ``compute_tables`` (``solve --tables``) keeps all 2K+3
rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .model import Number, NumericMode, ProblemSpec, ResponseModel, ValidationError

Row = tuple[Number, ...]
Stage = tuple[Row, Row]  # (A[k], U[k+1])

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
# than n**2: on a 2-vCPU VM n = 1000, K = 10 (2.3e7) takes about 0.6 s,
# n = 4000, K = 2 (1.1e8) 2 s and n = K = 390 (1.2e8) 7 s, while n = 20000,
# K = 2 (2.8e9) would run for minutes.  Float solves are not bound by it.
MAX_RATIONAL_WORK = 120_000_000


@dataclass(frozen=True)
class ValueTables:
    """Solved A and U tables for one instance. Immutable and shareable."""

    A: tuple[Row, ...]  # k = 0..K
    U: tuple[Row, ...]  # index k-1 for k = 1..K+1
    spec: ProblemSpec
    mode: NumericMode

    def a(self, k: int, t: int) -> Number:
        return self.A[k][t]

    def u(self, k: int, t: int) -> Number:
        """U for query index k in 1..K+1."""
        return self.U[k - 1][t]

    def stages(self) -> Iterator[Stage]:
        """(A[k], U[k+1]) for k = K..0, the stages in the order ``stages`` yields them."""
        return zip(reversed(self.A), reversed(self.U))


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
    """Solve stage by stage: yield (A[k], U[k+1]) for k = K..0 as each finishes.

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
    A, U = zip(*reversed(list(stages(spec, mode))))
    return ValueTables(A=A, U=U, spec=spec, mode=mode)


def _exact_rows(spec: ProblemSpec) -> Iterator[Stage]:
    """The stages in exact rationals.

    The A step is A[t-1] = (A[t]*(t-1) + U[t]) / t where U[t] > A[t], and
    A[t] otherwise; the test is decided by correctly rounded floats of both
    cells wherever they differ (``_greater``).  In the U step each max is
    decided by an integer comparison (``_p_arm_wins``) and the arms it picks
    are summed at once, t/n * sum(winning p) + A * sum(winning q).
    """
    n, K = spec.n, spec.K
    D, P, Q = spec.model.integer_weights()
    zero = Fraction(0)
    up = tuple(Fraction(t, n) for t in range(n + 1))  # U[K+1][t] = t/n, the no-query reward
    for k in range(K, -1, -1):
        row = [zero] * (n + 1)
        a = row[n]
        a_float = float(a)
        for t in range(n, 1, -1):
            u = up[t]
            if _greater(u, float(u), a, a_float):
                a = (a * (t - 1) + u) / t
                a_float = float(a)
            row[t - 1] = a
        row[0] = max(up[1], row[1])
        row = tuple(row)
        yield row, up
        if k >= 1:
            up = []
            for t, a in enumerate(row):
                sum_p = sum_q = 0
                for Pm, Qm in zip(P, Q):
                    if _p_arm_wins(Pm, Qm, n, t, a):
                        sum_p += Pm
                    else:
                        sum_q += Qm
                up.append(Fraction(t * sum_p, n * D) + a * Fraction(sum_q, D))
            up = tuple(up)


def _greater(x: Fraction, x_float: float, y: Fraction, y_float: float) -> bool:
    """x > y, given the correctly rounded floats of x and y.

    Rounding is monotone, so floats that differ order x and y the same way;
    only equal floats leave the answer to the exact comparison.
    """
    if x_float != y_float:
        return x_float > y_float
    return x > y


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
        yield row, up
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


def _p_arm_wins(Pm: int, Qm: int, n: int, t: int, a: Fraction) -> bool:
    """p(m)*t/n >= q(m)*a, compared in integers: P = p*D and Q = q*D."""
    return Pm * t * a.denominator >= Qm * n * a.numerator


def _first_time(n: int, pred) -> int:
    for t in range(1, n + 1):
        if pred(t):
            return t
    raise AssertionError("threshold inequality must hold at t=n")


def read_stages(
    spec: ProblemSpec, mode: NumericMode, rows: Iterable[Stage]
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

    Exact rows compare integers (``_p_arm_wins``), the rule the U step used.
    Float rows read t/n from the no-query row U[K+1], the first stage's U,
    so they too compare exactly the values the recursion used.  Existence
    at t=n is guaranteed: U is 1 or p(m) there while A[.][n] = 0.
    """
    n = spec.n
    if mode is NumericMode.EXACT_RATIONAL:
        _, p, q = spec.model.integer_weights()

        def stop(pm, qm, a):
            return lambda t: _p_arm_wins(pm, qm, n, t, a[t])

    else:
        p, q = spec.model.float_weights()

        def stop(pm, qm, a):
            return lambda t: pm * ratio[t] >= qm * a[t]

    gates, stops = [], []
    for a, u in rows:
        if not gates:  # the first stage's U is U[K+1][t] = t/n
            ratio = u
        gates.append(_first_time(n, lambda t: u[t] >= a[t]))
        stops.append(tuple(_first_time(n, stop(pm, qm, a)) for pm, qm in zip(p, q)))
    r_f, *r = gates
    ts = ThresholdSet(n, spec.model.M, r_f, tuple(reversed(r)), tuple(reversed(stops[:-1])), a[0])
    return ts, tuple(reversed(stops[1:]))


def solve(spec: ProblemSpec, mode: NumericMode = NumericMode.FLOAT64) -> ThresholdSet:
    """The thresholds of spec, read stage by stage; no table is kept."""
    return read_stages(spec, mode, stages(spec, mode))[0]


def extract_thresholds(tables: ValueTables) -> ThresholdSet:
    """The thresholds of stored tables, read as ``read_stages`` reads a solve."""
    return read_stages(tables.spec, tables.mode, tables.stages())[0]


def pre_query_stop_thresholds(tables: ValueTables) -> tuple[tuple[int, ...], ...]:
    """Stop rows of stored tables against the pre-query row A[k-1] (``read_stages``)."""
    return read_stages(tables.spec, tables.mode, tables.stages())[1]


_UNINFORMATIVE = ResponseModel(1, (1,), (1,))


def classical_threshold(n: int, mode: NumericMode = NumericMode.FLOAT64) -> tuple[int, Number]:
    """Final-stop threshold and success probability with no queries at all."""
    ts = solve(ProblemSpec(n=n, K=0, model=_UNINFORMATIVE), mode)
    return ts.r_f, ts.success_probability
