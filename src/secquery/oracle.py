"""Exact small-scale verification oracles.

Everything here works by enumeration over all n! permutations (and, where the
expert is involved, over response branches weighted by p/q), in exact rational
arithmetic.  None of it reuses the solver's value recursion; these are the
independent checks the solver is validated against.  Likewise
``exact_success_probability`` walks a ``ThresholdSet`` on its own and imports
neither ``policy`` nor ``sim``, the two walkers it is checked against.

Branch weights are kept as Python integers: with D the common denominator of
p and q, a branch that used j queries weighs prod(p*D or q*D) over n!*D^j, so
sums and comparisons run on integer numerators over one shared denominator.
A ``Fraction`` is built only for a result, a reported deviation, or an
expected value: the paper's formula a sum is compared with, written in P, Q
and D.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial
from operator import add
from typing import Callable, Iterable, Sequence

from .model import ProblemSpec, ResponseModel
from .solver import ThresholdSet


class BudgetExceeded(RuntimeError):
    pass


# Hard caps so enumeration refuses oversized inputs instead of hanging.
MAX_ENUMERATION_N = 7
MAX_ENUMERATION_STATES = 10_000_000


def _matches(expected: Fraction, num: int, den: int) -> bool:
    """num/den == expected, by cross-multiplying integers."""
    return num * expected.denominator == expected.numerator * den


@dataclass
class IdentityCheck:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    worst_deviation: Fraction = Fraction(0)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, text: str) -> None:
        """Count one failed case; the first five failure texts are kept."""
        self.cases += 1
        if len(self.failures) < 5:
            self.failures.append(text)

    def record_ratio(
        self, describe: Callable[[], str], expected: Fraction, num: int, den: int
    ) -> None:
        """Check num/den == expected, for den > 0.

        Compares by cross-multiplying integers, so a match builds neither a
        Fraction nor the instance text; a mismatch reports the exact values.
        """
        if _matches(expected, num, den):
            self.cases += 1
            return
        actual = Fraction(num, den)
        self.worst_deviation = max(self.worst_deviation, abs(actual - expected))
        self.fail(f"{describe()}: expected {expected}, got {actual}")


@dataclass
class LemmaReport:
    lemma: str
    checks: list[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@cache
def _enumerate(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All permutations of 1..n as (rank stream, best arrival time).

    Relative ranks are recomputed here from their definition rather than
    taken from ``policy.relative_ranks``: the oracle is the independent
    reference the strategy code is checked against, so it shares none of it.
    Built once per n (n <= MAX_ENUMERATION_N): every oracle reads the same
    tuple, about 0.8 MB at n = 7.
    """
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        z = tuple(
            1 + sum(1 for l in range(i) if perm[l] < perm[i]) for i in range(n)
        )
        out.append((z, perm.index(1) + 1))
    return tuple(out)


def _guard(n: int) -> None:
    if n > MAX_ENUMERATION_N:
        raise BudgetExceeded(f"n={n} is above MAX_ENUMERATION_N={MAX_ENUMERATION_N}")


def exact_success_probability(spec: ProblemSpec, thresholds: ThresholdSet) -> Fraction:
    """Success probability of the given threshold strategy, by enumeration.

    Permutation-major: each of the n! rank streams carries weight 1/n!; the
    walk branches at every query, multiplying the branch weight by p(m) or
    q(m) according to whether the queried sample is the best.  Weights are
    integers over n!*D^K: a stream starts at D^K and each query trades one
    factor D for P(m) or Q(m).
    """
    _guard(spec.n)
    thresholds.check_fits(spec)
    n, K, M = spec.n, spec.K, spec.model.M
    D, P, Q = spec.model.integer_weights()
    unit = D**K
    total = 0
    gates, s = thresholds.gates, thresholds.s
    for z, best in _enumerate(n):
        stack: list[tuple[int, int, int]] = [(1, 1, unit)]
        while stack:
            t, k, w = stack.pop()
            # advance to the record stage k acts on: query k, or the final
            # stop at k = K+1
            while t <= n and not (z[t - 1] == 1 and t >= gates[k - 1]):
                t += 1
            if t > n:
                continue
            if k <= K:
                dist = P if t == best else Q
                w //= D  # exact: after k-1 queries w still carries D^(K-k+1)
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
    return Fraction(total, factorial(n) * unit)


def exhaustive_optimal(spec: ProblemSpec) -> Fraction:
    """Best success probability over all history-dependent deterministic policies.

    Backward induction on full observation histories (rank prefix plus query
    times and responses); actions at a record are stop, query (when budget
    remains, followed by a stop/continue decision per response), or skip.
    Queries and stops at non-records are pointless and excluded.  This never
    touches the solver's A/U reduction.
    """
    _guard(spec.n)
    n, K, M = spec.n, spec.K, spec.model.M
    D, P, Q = spec.model.integer_weights()
    data = _enumerate(n)
    unit = D**K
    states = 0

    # Values are kept unnormalized: W(history) = P(history) * V(history), so
    # branching is plain summation of child W's and no division is needed.
    # Each W is an integer over n!*D^K; a query trades one factor D of the
    # weight for P(m) or Q(m), so histories with different query counts
    # compare on that one scale.
    def after_rank(t: int, used: int, items: list[tuple[int, int]]) -> int:
        nonlocal states
        states += 1
        if states > MAX_ENUMERATION_STATES:
            raise BudgetExceeded(
                f"histories exceed MAX_ENUMERATION_STATES={MAX_ENUMERATION_STATES}"
            )
        zt = data[items[0][0]][0][t - 1]
        best_w = continue_value(t, used, items)
        if zt == 1:
            stop_mass = sum(w for i, w in items if data[i][1] == t)
            if stop_mass > best_w:
                best_w = stop_mass
            if used < K:
                w_query = 0
                for m in range(M):
                    sub = []
                    for i, w in items:
                        f = P[m] if data[i][1] == t else Q[m]
                        if f:
                            sub.append((i, w // D * f))  # exact: used < K
                    if not sub:
                        continue
                    stop_m = sum(w for i, w in sub if data[i][1] == t)
                    cont_m = continue_value(t, used + 1, sub)
                    w_query += max(stop_m, cont_m)
                if w_query > best_w:
                    best_w = w_query
        return best_w

    def continue_value(t: int, used: int, items: list[tuple[int, int]]) -> int:
        if t == n:
            return 0
        groups: dict[int, list[tuple[int, int]]] = {}
        for i, w in items:
            groups.setdefault(data[i][0][t], []).append((i, w))
        return sum(after_rank(t + 1, used, g) for g in groups.values())

    all_items = [(i, unit) for i in range(len(data))]
    return Fraction(continue_value(0, 0, all_items), factorial(n) * unit)


# -- distributional identity suites --------------------------------------------


def verify_lemma1(n: int) -> LemmaReport:
    """Exact distributional identities of the rank process.

    Checks, by full enumeration: every rank prefix has probability 1/t!; the
    next rank is uniform on 1..t given the past; the joint probability of a
    prefix with the best arriving now is 1/((t-1)! n) when z_t = 1; and with
    the best at an earlier time t1 it carries the indicator that z_{t1} = 1
    and every later rank in the prefix exceeds 1.
    """
    _guard(n)
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
            prefix_prob.fail(f"t={t}: {len(counts)} distinct prefixes, expected {factorial(t)}")
        prefix, uniform = Fraction(1, factorial(t)), Fraction(1, t)
        joint, zero = Fraction(1, factorial(t - 1) * n), Fraction(0)
        for key, c in counts.items():
            prefix_prob.record_ratio(lambda: f"t={t} prefix={key}", prefix, c, nfact)
            next_rank.record_ratio(
                lambda: f"t={t} prefix={key}", uniform, c, prev_counts[key[:-1]]
            )
            row = best_counts.get(key, [0] * (t + 1))
            for t1 in range(1, t + 1):
                ind = key[t1 - 1] == 1 and all(key[l] > 1 for l in range(t1, t))
                check = joint_now if t1 == t else joint_earlier
                check.record_ratio(
                    lambda: f"t={t} t1={t1} prefix={key}", joint if ind else zero, row[t1], nfact
                )
        prev_counts = counts
    return LemmaReport("lemma1", [prefix_prob, next_rank, joint_now, joint_earlier])


def _weigh(counts: list[int], columns: list[list[int]]) -> list[int] | None:
    """sum_j counts[j]*columns[j], combo by combo; None when every count is 0."""
    total = None
    for c, column in zip(counts, columns):
        if c == 1 and total is None:
            total = column
        elif c:
            scaled = [c * w for w in column]
            total = scaled if total is None else list(map(add, total, scaled))
    return total


def _conditional(
    check: IdentityCheck,
    rows: Iterable[tuple[tuple[int, ...], int, bool]],
    den_columns: list[list[int]],
    num_columns: list[list[int]],
    classify: Callable[[tuple[int, ...]], bool],
    expected: Sequence[Sequence[Fraction | None]],
    describe: Callable[[int], str],
) -> None:
    """Check P(event | key) = expected value for every key that has weight.

    ``rows`` holds one (rank prefix, j, event) per permutation, j the index
    of the query that hit the best (k if none did); a branch's weight
    depends on the permutation only through j.  So permutations are counted
    by (prefix, j), c_j in all and e_j with the event.  A key is (prefix, i),
    i a combo index, and weighs sum_j c_j*den_columns[j][i], of which
    sum_j e_j*num_columns[j][i] carries the event; ``describe(i)`` names it
    in a failure text.  Weights are integers over one shared denominator,
    which cancels from each ratio.  Key (prefix, i) expects
    ``expected[classify(prefix)][i]``: the formula reads the prefix through
    one boolean at most.  None marks a key that must carry no weight;
    meeting one is a failed case.

    Keys are checked prefix by prefix, in the order the rows first meet the
    prefixes, and by combo index within a prefix; keys without weight are
    skipped.  Only counts are kept, one pair of k+1 per prefix, and one
    prefix's weights at a time.

    Prefixes share their checks.  Every key of a prefix is decided by its
    class and its counts (c, e), so each such signature is decided once,
    every key cross-multiplied as in ``record_ratio``, into two bitmasks:
    the keys that carry weight and the keys that pass.  Each prefix counts
    its passing keys as cases and reports only its failing keys, one by
    one, through ``fail`` or ``record_ratio``.  At t = n each prefix is one
    permutation, so its c is a single 1 and e is c or 0: n! prefixes share
    2(k+1) signatures per class.
    """
    width = len(den_columns)
    counts: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for prefix, j, event in rows:
        if (c := counts.get(prefix)) is None:
            c = counts[prefix] = ([0] * width, [0] * width)
        c[0][j] += 1
        if event:
            c[1][j] += 1
    decided: dict[tuple, tuple[int, int]] = {}  # (class, *c, *e) -> (weighted, passing)
    nothing = [0] * len(den_columns[0])
    for prefix, (c, e) in counts.items():
        cls = classify(prefix)
        want = expected[cls]
        signature = (cls, *c, *e)
        if (masks := decided.get(signature)) is None:
            dens = _weigh(c, den_columns)
            weighed = zip(want, _weigh(e, num_columns) or nothing, dens)
            masks = decided[signature] = (
                sum(1 << i for i, den in enumerate(dens) if den),
                sum(
                    1 << i
                    for i, (x, num, den) in enumerate(weighed)
                    if den and x is not None and _matches(x, num, den)
                ),
            )
        weighted, passing = masks
        check.cases += passing.bit_count()
        if not (failing := weighted & ~passing):
            continue
        dens = _weigh(c, den_columns)
        nums = _weigh(e, num_columns) or nothing
        for i in range(failing.bit_length()):
            if not failing >> i & 1:
                continue
            if want[i] is None:
                check.fail(f"{describe(i)}: expected no weight on this key, got some")
            else:
                check.record_ratio(lambda: describe(i), want[i], nums[i], dens[i])


def verify_lemma2(n: int, model: ResponseModel) -> LemmaReport:
    """Exact posterior/response identities involving the expert.

    Enumerates permutations x response branches for every strictly increasing
    tuple of query times and checks: the current-sample posterior given ranks
    and responses (t/n at records, regardless of past responses); the queried
    sample's posterior given its response; the response marginal at a record;
    and the next-record probability with its dependence on the most recent
    response through the all-ranks-above-one indicator.

    For one tuple of k query times every branch weight is an integer over the
    shared denominator n!*D^k, which cancels from each conditional
    probability, so each is a ratio of integer sums.  The sums are taken
    over permutation counts, not branch by branch: see ``_conditional``.
    The expected values are the paper's formulas with p = P/D and q = Q/D.
    """
    _guard(n)
    nfact = factorial(n)
    M = model.M
    # At k = n query times the checks at t = n meet up to n!*M^n keys (one
    # per permutation and response combo), the most of any k and t; refuse
    # before enumerating any.
    if nfact * M**n > MAX_ENUMERATION_STATES:
        raise BudgetExceeded(f"n!*M^n = {nfact * M**n} branches, above MAX_ENUMERATION_STATES")
    data = _enumerate(n)
    D, P, Q = model.integer_weights()
    zero = Fraction(0)
    cur_posterior = IdentityCheck("record-posterior")
    query_posterior = IdentityCheck("queried-sample-posterior")
    response_marginal = IdentityCheck("response-marginal")
    next_record = IdentityCheck("next-record-probability")

    weights = [[1]]  # the one empty combo, before any query
    for k in range(1, n + 1):
        # A response combo's weight depends on the permutation only through
        # which query (if any) hit the best: weights[j][i] is combo i's when
        # the j-th did, weights[k][i] when none did.  In product order combo
        # i*M + m-1 extends combo i of k-1 queries by response m, weighed
        # P[m-1] if the k-th query hit and Q[m-1] if not.
        zetas = list(itertools.product(range(1, M + 1), repeat=k))
        *hit, none = weights
        weights = [
            *([w * Qm for w in column for Qm in Q] for column in hit),
            [w * Pm for w in none for Pm in P],
            [w * Qm for w in none for Qm in Q],
        ]
        # Key (zeta[:-1], m) weighs every last response and its event is the
        # response m, which every permutation can give; in product order the
        # M combos that share zeta[:-1] are adjacent.
        any_last = [[sum(w[i - i % M : i - i % M + M]) for i in range(len(w))] for w in weights]
        # Every expected value reads a combo's last response, as a level index.
        last = [zeta[-1] - 1 for zeta in zetas]
        zeros = [zero] * len(zetas)
        for tq in itertools.combinations(range(1, n + 1), k):
            tk = tq[-1]
            hits = [tq.index(best) if best in tq else k for _, best in data]

            # P(best = t | ranks to t, responses) at a record is
            # p(m)t / (p(m)t + q(m)(n-t)) for the sample queried at t = tk with
            # response m, and t/n for any later one, which is unqueried (p = q).
            # A level that never answers at a record gets None.
            for t in range(tk, n + 1):
                levels = zip(P, Q) if t == tk else [(1, 1)] * M
                posterior = [
                    Fraction(Pm * t, Pm * t + Qm * (n - t)) if Pm * t + Qm * (n - t) else None
                    for Pm, Qm in levels
                ]
                _conditional(
                    query_posterior if t == tk else cur_posterior,
                    ((z[:t], j, best == t) for (z, best), j in zip(data, hits)),
                    weights,
                    weights,
                    lambda prefix: prefix[t - 1] == 1,
                    (zeros, [posterior[m] for m in last]),
                    lambda i: f"tq={tq} zeta={zetas[i]}" + (f" t={t}" if t > tk else ""),
                )

            # P(response m | record at tk, ranks, earlier responses)
            # = p(m) tk/n + q(m) (1 - tk/n)
            marginal = [Fraction(Pm * tk + Qm * (n - tk), D * n) for Pm, Qm in zip(P, Q)]
            _conditional(
                response_marginal,
                ((z[:tk], j, True) for (z, _), j in zip(data, hits) if z[tk - 1] == 1),
                any_last,
                weights,
                lambda prefix: False,
                ([marginal[m] for m in last],),
                lambda i: f"tq={tq} zeta_prefix={zetas[i][:-1]} m={zetas[i][-1]}",
            )

            # P(z_t = 1 | record at tk, ranks to t-1, responses) is 1/t unless
            # no rank since tk is a record; then, for the last response m, it is
            # (1/t)(1 - (t-1)(p-q)/(p(t-1) + q(n-t+1))) = qn / (t(p(t-1) + q(n-t+1))).
            # Inert levels (p = q = 0) get None.
            for t in range(tk + 1, n + 1):
                uncorrected = Fraction(1, t)
                corrected = [
                    Fraction(Qm * n, t * (Pm * (t - 1) + Qm * (n - t + 1))) if Pm or Qm else None
                    for Pm, Qm in zip(P, Q)
                ]
                _conditional(
                    next_record,
                    (
                        (z[: t - 1], j, z[t - 1] == 1)
                        for (z, _), j in zip(data, hits)
                        if z[tk - 1] == 1
                    ),
                    weights,
                    weights,
                    lambda prefix: all(prefix[l] > 1 for l in range(tk, t - 1)),
                    ([uncorrected] * len(zetas), [corrected[m] for m in last]),
                    lambda i: f"tq={tq} zeta={zetas[i]} t={t}",
                )
    return LemmaReport(
        "lemma2", [cur_posterior, query_posterior, response_marginal, next_record]
    )


def random_exact_model(rng: random.Random, M: int, denominator: int = 24) -> ResponseModel:
    """Random response model with exact Fraction entries (suite generation)."""

    def dist() -> tuple[Fraction, ...]:
        cuts = sorted(rng.randint(0, denominator) for _ in range(M - 1))
        bounds = [0, *cuts, denominator]
        return tuple(
            Fraction(bounds[i + 1] - bounds[i], denominator) for i in range(M)
        )

    return ResponseModel(M, dist(), dist())
