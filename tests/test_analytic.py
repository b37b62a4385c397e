"""Frozen closed-form values and properties of the analytic success models."""

from fractions import Fraction

import pytest

import oracles
from oneq.analytic import (
    p_block,
    p_succ_iid,
    qkd_match_success,
)


class TestBlockModel:
    def test_p_block_frozen(self):
        assert p_block(0.2, 0.1) == pytest.approx(0.72, abs=1e-15)
        assert p_block(0.0, 0.0) == 1.0
        assert p_block(1.0, 0.0) == 0.0

    def test_p_succ_iid_frozen(self):
        # 1 - (1 - 0.72)^3.
        assert p_succ_iid(0.2, 0.1, 3) == pytest.approx(0.978048, abs=1e-12)
        assert p_succ_iid(0.2, 0.1, 1) == pytest.approx(0.72, abs=1e-15)

    def test_p_succ_iid_monotone_in_k(self):
        vals = [p_succ_iid(0.3, 0.05, k) for k in range(1, 12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            p_block(1.2, 0.0)
        with pytest.raises(ValueError):
            p_succ_iid(0.5, 0.5, 0)


class TestMatchSuccess:
    def test_frozen_exact_value(self):
        # exhaustive enumeration over 2^10 sift outcomes gives 638/1024
        assert oracles.binom_tail_half(10, 5) == Fraction(638, 1024)
        assert qkd_match_success(10, 5, 1.0) == pytest.approx(638 / 1024, abs=1e-12)

    @pytest.mark.parametrize("n,k,p", [(6, 2, 0.8), (12, 7, 0.5), (9, 1, 0.33)])
    def test_against_enumeration_oracle(self, n, k, p):
        assert qkd_match_success(n, k, p) == pytest.approx(
            oracles.match_success(n, k, p / 2.0), abs=1e-12)

    def test_monotonicity(self):
        in_n = [qkd_match_success(n, 4, 0.9) for n in range(4, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(in_n, in_n[1:]))
        in_p = [qkd_match_success(10, 4, p) for p in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(in_p, in_p[1:]))

    def test_edges_and_validation(self):
        assert qkd_match_success(10, 0, 0.5) == 1.0
        assert qkd_match_success(10, 3, 0.0) == 0.0
        with pytest.raises(ValueError):
            qkd_match_success(5, 6, 0.5)
        with pytest.raises(ValueError):
            qkd_match_success(-1, 0, 0.5)
        with pytest.raises(ValueError):
            qkd_match_success(5, 2, 1.5)
