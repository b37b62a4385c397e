"""The statistics of tests/distribution_gate.py, on samples made here."""

import random

from distribution_gate import compare


def _sample(seed: int, p_key: float = 0.8, scale: float = 1.0) -> dict:
    rng = random.Random(seed)
    return {"doc": {
        "app.a.outcome": ["key" if rng.random() < p_key else "no-key" for _ in range(200)],
        "app.a.elapsed_s": [rng.expovariate(1.0 / scale) for _ in range(200)],
    }}


def test_equal_samples_pass_untested():
    assert compare(_sample(1), _sample(1)) == []


def test_a_fresh_sample_of_the_same_distributions_passes():
    assert compare(_sample(1), _sample(2)) == []


def test_a_shifted_numeric_series_fails():
    (problem,) = compare(_sample(1), _sample(2, scale=1.5))
    assert problem.startswith("doc app.a.elapsed_s: p = ")


def test_shifted_outcome_counts_fail():
    (problem,) = compare(_sample(1), _sample(2, p_key=0.5))
    assert problem.startswith("doc app.a.outcome: p = ")


def test_a_series_or_document_on_one_side_only_fails():
    current = _sample(1)
    current["doc"]["sessions_Expired"] = [1.0] * 200
    assert compare(_sample(1), current) == ["doc sessions_Expired: p = 0"]
    assert compare(_sample(1), {}) == ["doc: in one sample only"]
