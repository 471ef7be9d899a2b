"""Shared generators for randomized suites (exact models, dyadic floats)."""

import random

from secquery import ProblemSpec, ResponseModel, random_exact_model


def random_dyadic_model(rng: random.Random, M: int, bits: int = 20) -> ResponseModel:
    """Random model with dyadic-rational entries.

    Dyadic entries convert to float without rounding and sum to exactly 1.0
    in both arithmetics, so float-mode table properties hold without
    tolerance and float/rational solves see the same model.
    """
    return random_exact_model(rng, M, 1 << bits)


def as_float_model(model: ResponseModel) -> ResponseModel:
    return ResponseModel(
        model.M, tuple(float(x) for x in model.p), tuple(float(x) for x in model.q)
    )


def random_instance(rng: random.Random, max_n: int, max_k: int, max_m: int) -> ProblemSpec:
    n = rng.randint(2, max_n)
    K = rng.randint(0, min(max_k, n))
    M = rng.randint(2, max_m)
    return ProblemSpec(n, K, random_dyadic_model(rng, M))
