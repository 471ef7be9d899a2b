"""Domain types, validation, and JSON config parsing.

A problem instance is a horizon ``n``, a query budget ``K`` and a response
model for the expert: when queried at a record time the expert answers with a
level in 1..M, drawn from ``p`` if the current sample is the best overall and
from ``q`` otherwise.  All types are immutable after construction.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from numbers import Rational
from pathlib import Path
from typing import Union

Number = Union[int, float, Fraction]

# Solver comparisons are threshold-sensitive, so sloppy float inputs are
# rejected early rather than normalized.
FLOAT_SUM_TOL = 1e-12

# Largest exponent magnitude a decimal literal may carry.  Fraction("1e-N")
# builds 10**N, so an 11-character literal can take minutes; a float already
# reads any exponent beyond about 330 as 0 or inf.
MAX_LITERAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)")

# Largest config file read, in bytes.  A config is O(M) bytes: 1 MiB holds
# about 2*10**4 levels of 20-character literals.  Reading no further keeps
# /dev/zero, a FIFO that never ends or a huge file from using up memory.
MAX_CONFIG_BYTES = 1 << 20


class ValidationError(ValueError):
    """Base class for invalid instance or config input."""


class LengthMismatch(ValidationError):
    pass


class ProbabilityOutOfRange(ValidationError):
    pass


class SumNotOne(ValidationError):
    """A response distribution does not sum to one; carries the deviation."""

    def __init__(self, which: str, total: Number) -> None:
        self.which = which
        self.deviation = float(total) - 1.0
        super().__init__(f"{which} sums to {total} (deviation {self.deviation:+.3e})")


class NumericMode(Enum):
    """Arithmetic used for value tables: IEEE doubles or exact rationals."""

    FLOAT64 = "float"
    EXACT_RATIONAL = "rational"


def _is_exact(x: Number) -> bool:
    return isinstance(x, Rational)


@dataclass(frozen=True)
class ResponseModel:
    """Expert response distributions over levels 1..M.

    ``p[m-1]`` is the probability of level m given the current sample is the
    best; ``q[m-1]`` the probability given it is not.  Entries may be ints,
    Fractions (exact) or floats.  A level with p(m)=q(m)=0 is legal but inert:
    it is never emitted.
    """

    M: int
    p: tuple[Number, ...]
    q: tuple[Number, ...]

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValidationError(f"M must be >= 1, got {self.M}")
        object.__setattr__(self, "p", tuple(self.p))
        object.__setattr__(self, "q", tuple(self.q))
        for name, vec in (("p", self.p), ("q", self.q)):
            if len(vec) != self.M:
                raise LengthMismatch(f"{name} has length {len(vec)}, expected M={self.M}")
            for m, x in enumerate(vec, start=1):
                if not (0 <= x <= 1):
                    raise ProbabilityOutOfRange(f"{name}({m}) = {x} not in [0,1]")
            total = sum(vec)
            if all(_is_exact(x) for x in vec):
                if total != 1:
                    raise SumNotOne(name, total)
            elif abs(total - 1.0) > FLOAT_SUM_TOL:
                raise SumNotOne(name, total)

    @property
    def exact(self) -> bool:
        """True when every entry is an int or Fraction."""
        return all(_is_exact(x) for x in self.p + self.q)

    def float_weights(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(p, q) as IEEE doubles."""
        return tuple(float(x) for x in self.p), tuple(float(x) for x in self.q)

    def integer_weights(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D, P, Q): the least common denominator D of p and q, P = p*D, Q = q*D.

        Built once per model and kept on it, so they go when the model goes:
        every exact solve and oracle of a ``verify`` run reads the same weights.
        """
        weights = vars(self).get("_integer_weights")
        if weights is None:
            p = [Fraction(x) for x in self.p]
            q = [Fraction(x) for x in self.q]
            D = lcm(*(x.denominator for x in p + q))
            weights = D, tuple(int(x * D) for x in p), tuple(int(x * D) for x in q)
            object.__setattr__(self, "_integer_weights", weights)
        return weights


def symmetric_binary_model(p: Number) -> ResponseModel:
    """Two-level model parametrized by a single reliability p.

    Level 1 means "best", level 2 means "not the best"; the expert is right
    with probability p in both states.  p=1 is the infallible expert, p=1/2
    the uninformative one.
    """
    return ResponseModel(2, (p, 1 - p), (1 - p, p))


@dataclass(frozen=True)
class ProblemSpec:
    """Instance definition: horizon n, query budget K, response model."""

    n: int
    K: int
    model: ResponseModel

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not (0 <= self.K <= self.n):
            raise ValidationError(f"K must satisfy 0 <= K <= n={self.n}, got {self.K}")


# -- JSON config -------------------------------------------------------------
#
# Schema: {"n": int, "K": int, "M": int, "p": [num...], "q": [num...]}
# plus optional "labels": [str...] of length M (checked, then ignored: not
# kept on the core types).  Numbers may be "a/b" strings, which are exact in
# rational mode.


def parse_prob(x: object, mode: NumericMode) -> Number:
    """Read one probability literal: a number, or a decimal or 'a/b' string.

    Strings are exact in rational mode and rounded once to float otherwise.
    A literal whose exponent exceeds MAX_LITERAL_EXPONENT is refused unparsed.
    """
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if exponent and float(exponent.group(1).replace("_", "")) > MAX_LITERAL_EXPONENT:
            raise ValidationError(
                f"probability entry {x!r} has an exponent beyond {MAX_LITERAL_EXPONENT}"
            )
        try:
            value = Fraction(x)
            return value if mode is NumericMode.EXACT_RATIONAL else float(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    elif isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        return x
    raise ValidationError(f"probability entry {x!r} is not a number or 'a/b' string")


def parse_config(text: str | bytes, mode: NumericMode = NumericMode.FLOAT64) -> ProblemSpec:
    """Parse a JSON config into a validated ProblemSpec.

    Decimal numbers are read like decimal strings, by ``parse_prob``: exactly
    in rational mode (0.9 becomes 9/10), rounded once to float otherwise.
    Bytes are decoded by ``json.loads`` as UTF-8, -16 or -32, whatever the
    locale, and undecodable bytes are refused like any other invalid JSON.
    """
    try:
        raw = json.loads(text, parse_float=str)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, long integer, deep nesting
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    for key in ("n", "K", "M", "p", "q"):
        if key not in raw:
            raise ValidationError(f"config missing required key {key!r}")
    n, K, M = raw["n"], raw["K"], raw["M"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, K, M)):
        raise ValidationError("n, K and M must be integers")
    if not isinstance(raw["p"], list) or not isinstance(raw["q"], list):
        raise ValidationError("p and q must be arrays")
    p = tuple(parse_prob(x, mode) for x in raw["p"])
    q = tuple(parse_prob(x, mode) for x in raw["q"])
    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ValidationError("labels must be an array of strings")
        if len(labels) != M:
            raise LengthMismatch(f"labels has length {len(labels)}, expected M={M}")
    model = ResponseModel(M, p, q)
    return ProblemSpec(n=n, K=K, model=model)


def read_config(path: str | Path, mode: NumericMode = NumericMode.FLOAT64) -> ProblemSpec:
    """parse_config of a file; one longer than MAX_CONFIG_BYTES is refused unparsed.

    Opened non-blocking, a FIFO with no writer reads as empty instead of
    waiting; reads then block, so a pipe on /dev/stdin is read whole.
    """
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as f:
        os.set_blocking(f.fileno(), True)
        raw = f.read(MAX_CONFIG_BYTES + 1)
    if len(raw) > MAX_CONFIG_BYTES:
        raise ValidationError(f"config {path} is longer than MAX_CONFIG_BYTES={MAX_CONFIG_BYTES}")
    return parse_config(raw, mode)

