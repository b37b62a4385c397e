"""Closed-form success models used to cross-validate the simulator.

A classical data block is carried over one quantum block (error probability
p_err_q) plus one classical control exchange (p_err_c); the two failure
sources are independent.
"""

from __future__ import annotations

import math

__all__ = [
    "p_block",
    "p_succ_iid",
    "qkd_match_success",
]


def _check_prob(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def p_block(p_err_q: float, p_err_c: float) -> float:
    """Success probability of one block: (1 - p_err_q)(1 - p_err_c)."""
    return (1.0 - _check_prob(p_err_q, "p_err_q")) * (1.0 - _check_prob(p_err_c, "p_err_c"))


def p_succ_iid(p_err_q: float, p_err_c: float, k: int) -> float:
    """At-least-one-success probability over k iid blocks.

    Equals 1 - ((1 - p_err_c) * p_err_q + p_err_c)^k, the complement of all
    k blocks failing.
    """
    _check_prob(p_err_q, "p_err_q")
    _check_prob(p_err_c, "p_err_c")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    p_fail = (1.0 - p_err_c) * p_err_q + p_err_c
    return 1.0 - p_fail ** k


def qkd_match_success(n_pairs: int, k_target: int, p_deliver: float) -> float:
    """P[Binomial(n_pairs, p_deliver / 2) >= k_target].

    Each delivered pair survives sifting with probability 1/2 (independent
    uniform basis choices on both sides), so the number of key candidates is
    binomial with per-pair probability p_deliver / 2.
    """
    _check_prob(p_deliver, "p_deliver")
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be nonnegative, got {n_pairs}")
    if k_target < 0:
        raise ValueError(f"k_target must be nonnegative, got {k_target}")
    if k_target > n_pairs:
        raise ValueError(f"k_target {k_target} exceeds n_pairs {n_pairs}")
    if k_target == 0:
        return 1.0
    p = p_deliver * 0.5
    if p == 0.0:
        return 0.0
    return float(sum(
        math.comb(n_pairs, k) * p ** k * (1.0 - p) ** (n_pairs - k)
        for k in range(k_target, n_pairs + 1)
    ))
