"""Exact small-scale verification oracles.

Everything here works by enumeration over all n! permutations (and, where the
expert is involved, over response branches weighted by p/q), in exact rational
arithmetic by default.  None of it reuses the solver's value recursion; these
are the independent checks the solver is validated against.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .model import Number, NumericMode, ProblemSpec, ResponseModel, validate_model
from .policy import HorizonMismatch
from .solver import ThresholdSet


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard caps so enumeration refuses oversized inputs instead of hanging."""

    max_n: int = 7
    max_states: int = 10_000_000


@dataclass
class IdentityCheck:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    worst_deviation: Fraction = Fraction(0)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, instance: str, expected: Fraction, actual: Fraction) -> None:
        self.cases += 1
        dev = abs(actual - expected)
        if dev > self.worst_deviation:
            self.worst_deviation = dev
        if actual != expected and len(self.failures) < 5:
            self.failures.append(f"{instance}: expected {expected}, got {actual}")


@dataclass
class LemmaReport:
    lemma: str
    n: int
    checks: list[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _enumerate(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All permutations of 1..n as (rank stream, best arrival time).

    Relative ranks are recomputed here from their definition rather than
    taken from ``policy.relative_ranks``: the oracle is the independent
    reference the strategy code is checked against, so it shares none of it.
    """
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        z = tuple(
            1 + sum(1 for l in range(i) if perm[l] < perm[i]) for i in range(n)
        )
        out.append((z, perm.index(1) + 1))
    return out


def _guard(n: int, budget: EnumerationBudget | None) -> EnumerationBudget:
    budget = budget or EnumerationBudget()
    if n > budget.max_n:
        raise BudgetExceeded(f"n={n} exceeds enumeration cap max_n={budget.max_n}")
    return budget


def exact_success_probability(
    spec: ProblemSpec,
    thresholds: ThresholdSet,
    budget: EnumerationBudget | None = None,
    mode: NumericMode = NumericMode.EXACT_RATIONAL,
) -> Number:
    """Success probability of the given threshold strategy, by enumeration.

    Permutation-major: each of the n! rank streams carries weight 1/n!; the
    walk branches at every query, multiplying the branch weight by p(m) or
    q(m) according to whether the queried sample is the best.
    """
    _guard(spec.n, budget)
    if thresholds.n != spec.n:
        raise HorizonMismatch(f"thresholds for n={thresholds.n}, spec has n={spec.n}")
    n, K, M = spec.n, spec.K, spec.model.M
    exact = mode is NumericMode.EXACT_RATIONAL
    if exact:
        p = [Fraction(x) for x in spec.model.p]
        q = [Fraction(x) for x in spec.model.q]
        unit: Number = Fraction(1, factorial(n))
        total: Number = Fraction(0)
    else:
        p = [float(x) for x in spec.model.p]
        q = [float(x) for x in spec.model.q]
        unit = 1.0 / factorial(n)
        total = 0.0
    r, s, r_f = thresholds.r, thresholds.s, thresholds.r_f
    for z, best in _enumerate(n):
        stack: list[tuple[int, int, Number]] = [(1, 1, unit)]
        while stack:
            t, k, w = stack.pop()
            # advance to the next actionable record
            while t <= n and not (
                z[t - 1] == 1
                and ((k <= K and t >= r[k - 1]) or (k > K and t >= r_f))
            ):
                t += 1
            if t > n:
                continue
            if k <= K:
                dist = p if t == best else q
                for m in range(1, M + 1):
                    wm = w * dist[m - 1]
                    if not wm:
                        continue
                    if t >= s[k - 1][m - 1]:
                        if t == best:
                            total += wm
                    else:
                        stack.append((t + 1, k + 1, wm))
            elif t == best:
                total += w
    return total


def exhaustive_optimal(spec: ProblemSpec, budget: EnumerationBudget | None = None) -> Fraction:
    """Best success probability over all history-dependent deterministic policies.

    Backward induction on full observation histories (rank prefix plus query
    times and responses); actions at a record are stop, query (when budget
    remains, followed by a stop/continue decision per response), or skip.
    Queries and stops at non-records are pointless and excluded.  This never
    touches the solver's A/U reduction.
    """
    budget = _guard(spec.n, budget)
    n, K, M = spec.n, spec.K, spec.model.M
    p = [Fraction(x) for x in spec.model.p]
    q = [Fraction(x) for x in spec.model.q]
    data = _enumerate(n)
    unit = Fraction(1, factorial(n))
    states = 0

    # Values are kept unnormalized: W(history) = P(history) * V(history), so
    # branching is plain summation of child W's and no division is needed.
    def after_rank(t: int, used: int, items: list[tuple[int, Fraction]]) -> Fraction:
        nonlocal states
        states += 1
        if states > budget.max_states:
            raise BudgetExceeded(f"history count exceeded max_states={budget.max_states}")
        zt = data[items[0][0]][0][t - 1]
        best_w = continue_value(t, used, items)
        if zt == 1:
            stop_mass = sum((w for i, w in items if data[i][1] == t), Fraction(0))
            if stop_mass > best_w:
                best_w = stop_mass
            if used < K:
                w_query = Fraction(0)
                for m in range(M):
                    sub = []
                    for i, w in items:
                        f = p[m] if data[i][1] == t else q[m]
                        if f:
                            sub.append((i, w * f))
                    if not sub:
                        continue
                    stop_m = sum((w for i, w in sub if data[i][1] == t), Fraction(0))
                    cont_m = continue_value(t, used + 1, sub)
                    w_query += max(stop_m, cont_m)
                if w_query > best_w:
                    best_w = w_query
        return best_w

    def continue_value(t: int, used: int, items: list[tuple[int, Fraction]]) -> Fraction:
        if t == n:
            return Fraction(0)
        groups: dict[int, list[tuple[int, Fraction]]] = {}
        for i, w in items:
            groups.setdefault(data[i][0][t], []).append((i, w))
        return sum(
            (after_rank(t + 1, used, g) for g in groups.values()), Fraction(0)
        )

    all_items = [(i, unit) for i in range(len(data))]
    return continue_value(0, 0, all_items)


# -- distributional identity suites --------------------------------------------


def verify_lemma1(n: int, budget: EnumerationBudget | None = None) -> LemmaReport:
    """Exact distributional identities of the rank process.

    Checks, by full enumeration: every rank prefix has probability 1/t!; the
    next rank is uniform on 1..t given the past; the joint probability of a
    prefix with the best arriving now is 1/((t-1)! n) when z_t = 1; and with
    the best at an earlier time t1 it carries the indicator that z_{t1} = 1
    and every later rank in the prefix exceeds 1.
    """
    _guard(n, budget)
    data = _enumerate(n)
    nfact = factorial(n)
    prefix_prob = IdentityCheck("rank-prefix-probability")
    next_rank = IdentityCheck("next-rank-uniform")
    joint_now = IdentityCheck("joint-best-now")
    joint_earlier = IdentityCheck("joint-best-earlier")

    prev_counts: dict[tuple[int, ...], int] = {(): nfact}
    for t in range(1, n + 1):
        counts: dict[tuple[int, ...], int] = {}
        best_counts: dict[tuple[int, ...], list[int]] = {}
        for z, best in data:
            key = z[:t]
            counts[key] = counts.get(key, 0) + 1
            if best <= t:
                row = best_counts.setdefault(key, [0] * (t + 1))
                row[best] += 1
        if len(counts) != factorial(t):
            prefix_prob.cases += 1
            prefix_prob.failures.append(
                f"t={t}: {len(counts)} distinct prefixes, expected {factorial(t)}"
            )
        for key, c in counts.items():
            prefix_prob.record(f"t={t} prefix={key}", Fraction(1, factorial(t)), Fraction(c, nfact))
            next_rank.record(
                f"t={t} prefix={key}",
                Fraction(1, t),
                Fraction(c, prev_counts[key[:-1]]),
            )
            row = best_counts.get(key, [0] * (t + 1))
            for t1 in range(1, t + 1):
                ind = key[t1 - 1] == 1 and all(key[l] > 1 for l in range(t1, t))
                expected = Fraction(1, factorial(t - 1) * n) if ind else Fraction(0)
                actual = Fraction(row[t1], nfact)
                check = joint_now if t1 == t else joint_earlier
                check.record(f"t={t} t1={t1} prefix={key}", expected, actual)
        prev_counts = counts
    return LemmaReport("lemma1", n, [prefix_prob, next_rank, joint_now, joint_earlier])


def verify_lemma2(
    n: int, model: ResponseModel, budget: EnumerationBudget | None = None
) -> LemmaReport:
    """Exact posterior/response identities involving the expert.

    Enumerates permutations x response branches for every strictly increasing
    tuple of query times and checks: the current-sample posterior given ranks
    and responses (t/n at records, regardless of past responses); the queried
    sample's posterior given its response; the response marginal at a record;
    and the next-record probability with its dependence on the most recent
    response through the all-ranks-above-one indicator.
    """
    _guard(n, budget)
    data = _enumerate(n)
    nfact = factorial(n)
    M = model.M
    p = [Fraction(x) for x in model.p]
    q = [Fraction(x) for x in model.q]
    cur_posterior = IdentityCheck("record-posterior")
    query_posterior = IdentityCheck("queried-sample-posterior")
    response_marginal = IdentityCheck("response-marginal")
    next_record = IdentityCheck("next-record-probability")

    times = list(range(1, n + 1))
    for k in range(1, n + 1):
        for tq in itertools.combinations(times, k):
            tk = tq[-1]
            # master list of weighted (perm, response combo) pairs
            master: list[tuple[tuple[int, ...], int, tuple[int, ...], Fraction]] = []
            for z, best in data:
                for zeta in itertools.product(range(1, M + 1), repeat=k):
                    w = Fraction(1, nfact)
                    for ti, m in zip(tq, zeta):
                        w *= p[m - 1] if best == ti else q[m - 1]
                        if not w:
                            break
                    if w:
                        master.append((z, best, zeta, w))

            # record-posterior at every t past the last query
            for t in range(tk + 1, n + 1):
                den: dict = {}
                num: dict = {}
                for z, best, zeta, w in master:
                    key = (z[:t], zeta)
                    den[key] = den.get(key, Fraction(0)) + w
                    if best == t:
                        num[key] = num.get(key, Fraction(0)) + w
                for key, d in den.items():
                    z_t = key[0][t - 1]
                    expected = Fraction(t, n) if z_t == 1 else Fraction(0)
                    cur_posterior.record(
                        f"tq={tq} zeta={key[1]} t={t}", expected, num.get(key, Fraction(0)) / d
                    )

            # queried-sample posterior and response marginal at t = tk
            den = {}
            num = {}
            mden: dict = {}
            mnum: dict = {}
            for z, best, zeta, w in master:
                key = (z[:tk], zeta)
                den[key] = den.get(key, Fraction(0)) + w
                if best == tk:
                    num[key] = num.get(key, Fraction(0)) + w
                if z[tk - 1] == 1:
                    mkey = (z[:tk], zeta[:-1])
                    mden[mkey] = mden.get(mkey, Fraction(0)) + w
                    row = mnum.setdefault(mkey, [Fraction(0)] * (M + 1))
                    row[zeta[-1]] += w
            for key, d in den.items():
                zk = key[1][-1]
                if key[0][tk - 1] == 1:
                    expected = Fraction(p[zk - 1] * tk, p[zk - 1] * tk + q[zk - 1] * (n - tk))
                else:
                    expected = Fraction(0)
                query_posterior.record(
                    f"tq={tq} zeta={key[1]}", expected, num.get(key, Fraction(0)) / d
                )
            for mkey, d in mden.items():
                for m in range(1, M + 1):
                    expected = p[m - 1] * Fraction(tk, n) + q[m - 1] * (1 - Fraction(tk, n))
                    response_marginal.record(
                        f"tq={tq} zeta_prefix={mkey[1]} m={m}", expected, mnum[mkey][m] / d
                    )

            # next-record probability for every t past the last query
            for t in range(tk + 1, n + 1):
                den = {}
                num = {}
                for z, best, zeta, w in master:
                    if z[tk - 1] != 1:
                        continue
                    key = (z[: t - 1], zeta)
                    den[key] = den.get(key, Fraction(0)) + w
                    if z[t - 1] == 1:
                        num[key] = num.get(key, Fraction(0)) + w
                for key, d in den.items():
                    zk = key[1][-1]
                    pk, qk = p[zk - 1], q[zk - 1]
                    ind = all(key[0][l] > 1 for l in range(tk, t - 1))
                    corr = Fraction(0)
                    if ind:
                        corr = Fraction((t - 1) * (pk - qk), pk * (t - 1) + qk * (n - t + 1))
                    expected = Fraction(1, t) * (1 - corr)
                    next_record.record(
                        f"tq={tq} zeta={key[1]} t={t}", expected, num.get(key, Fraction(0)) / d
                    )
    return LemmaReport(
        "lemma2", n, [cur_posterior, query_posterior, response_marginal, next_record]
    )


def random_exact_model(rng: random.Random, M: int, denominator: int = 24) -> ResponseModel:
    """Random response model with exact Fraction entries (suite generation)."""

    def dist() -> tuple[Fraction, ...]:
        cuts = sorted(rng.randint(0, denominator) for _ in range(M - 1))
        bounds = [0, *cuts, denominator]
        return tuple(
            Fraction(bounds[i + 1] - bounds[i], denominator) for i in range(M)
        )

    return validate_model(M, dist(), dist())
