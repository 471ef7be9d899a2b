import types

import secquery


def test_public_api():
    # The sampler, trace, config-writer and enumeration-budget helpers are
    # gone; what bench/ and the reference tests use stays exported.
    public = sorted(
        name
        for name, value in vars(secquery).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == [
        "BudgetExceeded",
        "EpisodeOutcome",
        "Genie",
        "GenieExhausted",
        "HorizonMismatch",
        "LengthMismatch",
        "NotAPermutation",
        "NumericMode",
        "ProbabilityOutOfRange",
        "ProblemSpec",
        "RankStream",
        "ResponseModel",
        "ScriptedGenie",
        "SimConfig",
        "SimResult",
        "SumNotOne",
        "ThresholdSet",
        "ValidationError",
        "ValueTables",
        "classical_threshold",
        "compute_tables",
        "exact_success_probability",
        "exhaustive_optimal",
        "extract_thresholds",
        "hindsight_best",
        "monte_carlo",
        "parse_config",
        "pre_query_stop_thresholds",
        "random_exact_model",
        "read_config",
        "relative_ranks",
        "run_strategy",
        "symmetric_binary_model",
        "verify_lemma1",
        "verify_lemma2",
    ]
