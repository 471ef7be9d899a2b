"""Backward value recursions and threshold extraction for the optimal strategy.

Two table families are computed, indexed by the number of queries already
spent, k, and the time t:

* ``A[k][t]``  — maximal success probability continuing past time t with k
  queries spent (``A[0][0]`` is the value of the whole problem),
* ``U[k][t]``  — value of placing the k-th query at a record time t
  (``U[K+1][t] = t/n`` is the no-query final-stop reward).

The recursion runs k = K..0; building ``A[k]`` needs the already-built
``U[k+1]``, and ``U[k]`` follows from ``A[k]``:

    A[k][t-1] = A[k][t]*(1 - 1/t) + max(U[k+1][t], A[k][t])*(1/t)
    U[k][t]   = sum_m max(p(m)*t/n, q(m)*A[k][t])

evaluated in an algebraically identical slack form (see ``compute_tables``)
so the float path keeps flat regions exact.

The entire optimal strategy compresses into integer thresholds: query k at
the first record time >= r_k, stop on response m iff the time is >= s_k(m),
and after all queries stop at the first record time >= r_f.  The final stop
is stage K+1 of the query rule: r_f is the least t with U[K+1][t] >= A[K][t].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .model import Number, NumericMode, ProblemSpec, ResponseModel, ValidationError

Row = tuple[Number, ...]

# Largest solve compute_tables accepts, counted in table cells: A has K+1
# rows and U has K+2 (the t/n row included), each of n+1 cells.  A float
# solve of 7*10**6 cells (n = 10**6, K = 2) peaks near 0.3 GB; past the cap
# a solve is refused before allocating instead of running out of memory.
MAX_TABLE_CELLS = 10_000_000


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


@dataclass(frozen=True)
class ThresholdSet:
    """The optimal strategy in compact form.

    ``r[k-1]`` gates the k-th query, ``s[k-1][m-1]`` is the stop threshold for
    response m at the k-th query, ``r_f`` gates the final stop once the budget
    is spent.  ``success_probability`` equals A[0][0].
    """

    n: int
    M: int
    r_f: int
    r: tuple[int, ...]
    s: tuple[tuple[int, ...], ...]
    success_probability: Number

    @property
    def K(self) -> int:
        return len(self.r)


def _coerce(model: ResponseModel, mode: NumericMode) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    if mode is NumericMode.EXACT_RATIONAL:
        if not model.exact:
            raise ValidationError(
                "exact-rational solve requires exact model probabilities; "
                "use ints, Fractions, or 'a/b' strings in the config"
            )
        return tuple(Fraction(x) for x in model.p), tuple(Fraction(x) for x in model.q)
    return tuple(float(x) for x in model.p), tuple(float(x) for x in model.q)


def compute_tables(spec: ProblemSpec, mode: NumericMode = NumericMode.FLOAT64) -> ValueTables:
    """Fill the A and U tables by the double backward recursion.

    Exact-arithmetic values match the defining formulas everywhere.  The float
    path rearranges them so every table ordering that is a theorem holds with
    zero tolerance: the A step uses the slack form
    A[k][t] + (U[k+1][t]-A[k][t])_+/t (bit-flat plateaus, stable extraction
    ties), the U step collapses to t/n * sum(p) where every max picks its
    p-arm, and each finished row is max-ratcheted against its neighbors (one
    more query spent; U >= A and U >= t/n), which is a no-op on the true
    values.  Instances needing more than MAX_TABLE_CELLS cells are refused
    with a ValidationError before anything is allocated.
    """
    n, K = spec.n, spec.K
    cells = (2 * K + 3) * (n + 1)
    if cells > MAX_TABLE_CELLS:
        raise ValidationError(
            f"n={n}, K={K} needs {cells} table cells, above MAX_TABLE_CELLS={MAX_TABLE_CELLS}"
        )
    exact = mode is NumericMode.EXACT_RATIONAL
    p, q = _coerce(spec.model, mode)
    M = spec.model.M
    zero: Number = Fraction(0) if exact else 0.0
    sum_q: Number = sum(q, zero)

    A: list[list[Number]] = [[zero] * (n + 1) for _ in range(K + 1)]
    U: list[list[Number]] = [[zero] * (n + 1) for _ in range(K + 1)]
    ratio = [Fraction(t, n) if exact else t / n for t in range(n + 1)]
    U.append(ratio)  # U[K+1][t] = t/n, the no-query reward; never rewritten
    sum_p: Number = sum(p, zero)
    for k in range(K, -1, -1):
        row = A[k]
        up = U[k + 1]
        below = A[k + 1] if k < K else None
        for t in range(n, 1, -1):
            # Slack form of the t-step: exact (no drift) wherever U <= A, so
            # flat stretches of A stay bit-flat and extraction ties are stable.
            gain = up[t] - row[t]
            cand = row[t] + gain / t if gain > zero else row[t]
            # Ratcheting against the already-built row with one more query
            # spent is a no-op in exact arithmetic (the inequality is a
            # theorem); in float it pins the stage ordering where the true
            # gap is below one ulp.
            row[t - 1] = cand if below is None else max(cand, below[t - 1])
        top = max(up[1], row[1])  # the t=1 step is exactly a max
        row[0] = top if below is None else max(top, below[0])
        if k >= 1:
            uk = U[k]
            uk[0] = row[0]  # p-terms vanish at t=0, leaving sum_m q(m)*A[k][0]
            for t in range(1, n + 1):
                x = ratio[t]
                extra = zero
                wins = 0
                for m in range(M):
                    d = p[m] * x - q[m] * row[t]
                    if d > zero:
                        extra += d
                        wins += 1
                # When every max picks its p-arm the sum collapses identically
                # to t/n * sum(p); using that keeps the region exact in float.
                # When none does, extra is zero and this is A * sum(q).
                if wins == M:
                    cand = x * sum_p
                else:
                    cand = row[t] * sum_q + extra
                # U >= A and U >= U[next stage] are theorems; same ratchet.
                uk[t] = max(cand, row[t], up[t])
    return ValueTables(
        A=tuple(tuple(r) for r in A),
        U=tuple(tuple(r) for r in U[1:]),
        spec=spec,
        mode=mode,
    )


def _first_time(n: int, pred) -> int:
    for t in range(1, n + 1):
        if pred(t):
            return t
    raise AssertionError("threshold inequality must hold at t=n")


def _stop_thresholds(tables: ValueTables, lag: int) -> tuple[tuple[int, ...], ...]:
    """Least t with p(m)*t/n >= q(m)*A[k-lag][t], for each query k and level m.

    t/n is read from the no-query row U[K+1], so both numeric modes compare
    exactly the values the recursion used.
    """
    spec = tables.spec
    p, q = _coerce(spec.model, tables.mode)
    ratio = tables.U[spec.K]
    return tuple(
        tuple(
            _first_time(spec.n, lambda t, pm=pm, qm=qm, a=a: pm * ratio[t] >= qm * a[t])
            for pm, qm in zip(p, q)
        )
        for a in tables.A[1 - lag : spec.K + 1 - lag]
    )


def extract_thresholds(tables: ValueTables) -> ThresholdSet:
    """Extract all thresholds as least times satisfying their >= inequalities.

    Stage index is the number of queries spent: the k-th query compares
    U[k] against A[k-1], and its stop rule on response m compares
    p(m)*t/n >= q(m)*A[k][t] (the continuation value once the query is
    charged).  The final stop is stage K+1 of the query rule, with
    U[K+1][t] = t/n.  Existence at t=n is guaranteed: U is 1 or p(m) there
    while A[.][n] = 0.
    """
    spec = tables.spec
    # U[k] pairs with A[k-1] for k = 1..K+1; the last pair gives r_f.
    *r, r_f = (
        _first_time(spec.n, lambda t, u=u, a=a: u[t] >= a[t]) for u, a in zip(tables.U, tables.A)
    )
    return ThresholdSet(
        n=spec.n,
        M=spec.model.M,
        r_f=r_f,
        r=tuple(r),
        s=_stop_thresholds(tables, 0),
        success_probability=tables.A[0][0],
    )


def pre_query_stop_thresholds(tables: ValueTables) -> tuple[tuple[int, ...], ...]:
    """Stop thresholds measured against the pre-query value row A[k-1].

    This is the convention of the published reference grid that `table2`
    reproduces.  It agrees with ThresholdSet.s at every reachable time
    (t >= r_k); below r_k it can differ, and on asymmetric models the
    executable rule in ThresholdSet.s is the one that stays optimal.
    """
    return _stop_thresholds(tables, 1)


_UNINFORMATIVE = ResponseModel(1, (1,), (1,))


def classical_threshold(n: int, mode: NumericMode = NumericMode.FLOAT64) -> tuple[int, Number]:
    """Final-stop threshold and success probability with no queries at all."""
    tables = compute_tables(ProblemSpec(n=n, K=0, model=_UNINFORMATIVE), mode)
    ts = extract_thresholds(tables)
    return ts.r_f, ts.success_probability


# -- exports -----------------------------------------------------------------


def _fmt(x: Number) -> str:
    return f"{float(x):.10g}"


def tables_to_csv(tables: ValueTables) -> str:
    """Dense CSV dump, header k,t,A,U; U blank at k=0 and A blank at k=K+1."""
    K, n = tables.spec.K, tables.spec.n
    lines = ["k,t,A,U"]
    for k in range(K + 2):
        for t in range(n + 1):
            a = _fmt(tables.a(k, t)) if k <= K else ""
            u = _fmt(tables.u(k, t)) if k >= 1 else ""
            lines.append(f"{k},{t},{a},{u}")
    return "\n".join(lines) + "\n"


def thresholds_to_json(ts: ThresholdSet) -> str:
    return json.dumps(
        {
            "r_f": ts.r_f,
            "r": list(ts.r),
            "s": [list(row) for row in ts.s],
            "success_probability": float(f"{float(ts.success_probability):.10g}"),
        },
        indent=2,
    )
