"""Entanglement-based key distribution (BBM92 flavour).

Both parties measure each delivered pair in a uniformly random Z or X
basis, keep the rounds where the bases agreed (half of them on average),
sacrifice a sample of the sifted bits to estimate the error rate, and size
the final key with the usual binary-entropy penalty.

A Werner pair with parameter w disagrees on matched bases with probability
(1 - w) / 2, so the error-rate estimate doubles as a fidelity monitor: runs
whose estimate exceeds qber_abort are thrown away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .. import qcore, records
from ..protocol import (
    EntanglementRequest,
    SessionOutcome,
    Stack,
    check_request_bounds,
)

__all__ = [
    "QkdConfig",
    "QkdResult",
    "QkdApp",
    "binary_entropy",
    "key_length",
    "random_basis",
    "qber_trial",
    "simulate_match_rate",
]


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def key_length(n_sifted: int, qber: float) -> int:
    """Distillable bits from n sifted bits at the estimated error rate."""
    if n_sifted < 0:
        raise ValueError(f"n_sifted must be nonnegative, got {n_sifted}")
    return int(math.floor(n_sifted * max(0.0, 1.0 - 2.0 * binary_entropy(qber))))


def random_basis(rng) -> qcore.MeasurementBasis:
    return qcore.Z_BASIS if rng.random() < 0.5 else qcore.X_BASIS


def qber_trial(w: float, n_sifted: int, rng) -> float:
    """Measure freshly minted pairs until n_sifted basis matches occur.

    Runs the full random-basis protocol (mismatched rounds are discarded,
    exactly as the app does) and returns the observed error rate over the
    sifted rounds.
    """
    errors = 0
    kept = 0
    serial = 0
    while kept < n_sifted:
        serial += 1
        pair = qcore.WernerPair(id=f"t{serial}", holders=("a", "b"), w=w,
                                created_at=0.0, last_touched=0.0)
        basis_a = random_basis(rng)
        basis_b = random_basis(rng)
        bit_a, bit_b = qcore.measure_pair(pair, basis_a, basis_b, rng)
        if basis_a.kind != basis_b.kind:
            continue
        kept += 1
        if bit_a != bit_b:
            errors += 1
    return errors / n_sifted


def simulate_match_rate(n_pairs: int, k_target: int, p_deliver: float,
                        n_sessions: int, rng) -> float:
    """Fraction of sessions that sift at least k_target rounds.

    Session model: each of the n_pairs attempts delivers with probability
    p_deliver and a delivered round survives sifting iff the two basis
    draws agree.
    """
    hits = 0
    for _ in range(n_sessions):
        sifted = 0
        for _ in range(n_pairs):
            if rng.random() >= p_deliver:
                continue
            if random_basis(rng).kind == random_basis(rng).kind:
                sifted += 1
        if sifted >= k_target:
            hits += 1
    return hits / n_sessions


@dataclass(frozen=True)
class QkdConfig:
    """One BBM92 key-distribution app: its two UEs, batches and abort rules."""

    app_id: str = field(metadata={"key": "id"})
    alice: str
    bob: str
    n_pairs: int = 32
    rounds: int = 1
    min_fidelity: float = 0.8
    max_latency_s: float = 1.0
    sample_fraction: float = 0.1
    qber_abort: float = 0.11
    # 1 or more selects first-key mode; see QkdApp.run
    k_target: int = 0
    max_rounds: int = 10000

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be positive, got {self.n_pairs}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")
        if not 0.0 <= self.sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction out of range: {self.sample_fraction}")
        if not 0.0 <= self.qber_abort <= 1.0:
            raise ValueError(f"qber_abort out of range: {self.qber_abort}")
        if self.k_target < 0:
            raise ValueError(f"k_target must be nonnegative, got {self.k_target}")
        check_request_bounds(self.max_latency_s, self.min_fidelity)


@dataclass
class QkdResult:
    """How a QKD app ended, with its sifting, QBER and key counts."""

    app_id: str
    outcome: str
    sessions: int = 0
    pairs_measured: int = 0
    sifted_bits: int = 0
    sift_discard_rate: float = 0.0
    sampled_bits: int = 0
    disagreements: int = 0
    qber_estimate: float = 0.0
    key_bits: int = 0
    elapsed_s: float = 0.0
    alice_key: str = field(default="", repr=False)
    bob_key: str = field(default="", repr=False)


class QkdApp:
    """Drives sessions on the stack and turns delivered pairs into key bits."""

    def __init__(self, config: QkdConfig):
        self.config = config

    def run(self, stack: Stack):
        cfg = self.config
        sim = stack.sim
        t0 = sim.now
        records.app_start_qkd(sim.trace, sim.now, cfg.alice, app=cfg.app_id)
        ok_a = yield from stack.ensure_connected(cfg.alice)
        ok_b = yield from stack.ensure_connected(cfg.bob)
        if not (ok_a and ok_b):
            return self._finish(stack, QkdResult(cfg.app_id, "aborted-attach"), t0)

        basis_rng_a = sim.rng_stream(cfg.alice, "basis")
        basis_rng_b = sim.rng_stream(cfg.bob, "basis")

        # First-key mode keeps only the last batch and stops at the first
        # that sifts k_target bits alone, which makes the batch size a real
        # tuning knob.  Rounds mode (k_target 0) keeps every batch and
        # announces its bases once, after the last.
        first_key = cfg.k_target >= 1
        limit = cfg.max_rounds if first_key else cfg.rounds
        alice_bits: list[int] = []
        bob_bits: list[int] = []
        match_flags: list[bool] = []
        sessions = 0
        measured = 0
        outcome: Optional[str] = "exhausted"
        while sessions < limit:
            batch = yield from self._one_batch(stack, basis_rng_a, basis_rng_b)
            if batch is None:
                outcome = "aborted-session"
                break
            sessions += 1
            a, b, flags = batch
            measured += len(flags)
            if first_key:
                alice_bits, bob_bits, match_flags = a, b, flags
            else:
                alice_bits.extend(a)
                bob_bits.extend(b)
                match_flags.extend(flags)
                if sessions < limit:
                    continue
            ok = yield from self._announce_bases(stack, len(match_flags))
            if not ok:
                outcome = "aborted-classical"
                break
            if sum(match_flags) >= cfg.k_target:
                outcome = None
                break
        if outcome is None:
            result = self._distill(sim, alice_bits, bob_bits, match_flags)
        else:
            result = QkdResult(cfg.app_id, outcome)
        result.sessions = sessions
        result.pairs_measured = measured
        yield from self._exchange_sample(stack, result)  # an abort sampled nothing
        return self._finish(stack, result, t0)

    # -- building blocks -------------------------------------------------

    def _one_batch(self, stack: Stack, rng_a, rng_b):
        """One session of n_pairs; measures every delivered pair.

        Returns (alice_bits, bob_bits, match_flags) or None when the
        session was rejected outright.
        """
        cfg = self.config
        request = EntanglementRequest(
            requester=cfg.alice, target=cfg.bob,
            count=cfg.n_pairs, max_latency_s=cfg.max_latency_s,
            min_fidelity=cfg.min_fidelity,
        )
        session = yield from stack.entanglement_session(request)
        if session.outcome == SessionOutcome.REJECTED:
            return None
        alice_bits: list[int] = []
        bob_bits: list[int] = []
        flags: list[bool] = []
        for pair_id in session.delivered:
            basis_a = random_basis(rng_a)
            basis_b = random_basis(rng_b)
            bit_a, bit_b = stack.measure_stored_pair(pair_id, basis_a, basis_b)
            alice_bits.append(bit_a)
            bob_bits.append(bit_b)
            flags.append(basis_a.kind == basis_b.kind)
        return alice_bits, bob_bits, flags

    def _announce_bases(self, stack: Stack, n_rounds: int):
        bits = float(max(n_rounds, 1))
        ok = yield from stack.send_routed(self.config.alice, self.config.bob,
                                          "basis", bits=bits)
        if ok:
            ok = yield from stack.send_routed(self.config.bob, self.config.alice,
                                              "basis", bits=bits)
        return ok

    def _exchange_sample(self, stack: Stack, result: QkdResult):
        """Generator: Bob reports his sampled bits; a lost report voids the key."""
        if result.sampled_bits == 0:
            return
        ok = yield from stack.send_routed(self.config.bob, self.config.alice,
                                          "report", bits=float(result.sampled_bits))
        if not ok:
            result.outcome = "aborted-classical"
            result.key_bits, result.alice_key, result.bob_key = 0, "", ""

    def _distill(self, sim, alice_bits, bob_bits, match_flags) -> QkdResult:
        cfg = self.config
        sifted_a = [a for a, m in zip(alice_bits, match_flags) if m]
        sifted_b = [b for b, m in zip(bob_bits, match_flags) if m]
        n = len(match_flags)
        n_sift = len(sifted_a)
        discard_rate = 1.0 - n_sift / n if n else 0.0
        disagreements = sum(1 for a, b in zip(sifted_a, sifted_b) if a != b)

        sample_k = 0
        qber = 0.0
        if n_sift and cfg.sample_fraction > 0.0:
            sample_k = max(1, round(cfg.sample_fraction * n_sift))
            sample_k = min(sample_k, n_sift)
            sift_rng = sim.rng_stream(cfg.alice, "sift")  # opened only when it samples
            sample_idx = set(sift_rng.permutation(n_sift)[:sample_k])
            sample_err = sum(1 for i in sample_idx if sifted_a[i] != sifted_b[i])
            qber = sample_err / sample_k
            keep_a = [sifted_a[i] for i in range(n_sift) if i not in sample_idx]
            keep_b = [sifted_b[i] for i in range(n_sift) if i not in sample_idx]
        else:
            keep_a, keep_b = sifted_a, sifted_b

        if qber > cfg.qber_abort:
            return QkdResult(cfg.app_id, "aborted-qber", sifted_bits=n_sift,
                             sift_discard_rate=discard_rate, sampled_bits=sample_k,
                             disagreements=disagreements, qber_estimate=qber)
        k_bits = key_length(len(keep_a), qber)
        return QkdResult(
            cfg.app_id, "key" if k_bits > 0 else "no-key",
            sifted_bits=n_sift, sift_discard_rate=discard_rate,
            sampled_bits=sample_k, disagreements=disagreements, qber_estimate=qber,
            key_bits=k_bits,
            alice_key="".join(str(b) for b in keep_a[:k_bits]),
            bob_key="".join(str(b) for b in keep_b[:k_bits]),
        )

    def _finish(self, stack: Stack, result: QkdResult, t0: float) -> QkdResult:
        sim = stack.sim
        result.elapsed_s = sim.now - t0
        prefix = f"app.{self.config.app_id}"
        sim.metrics.set_gauge(f"{prefix}.key_bits", float(result.key_bits), unit="bit")
        sim.metrics.set_gauge(f"{prefix}.sifted_bits", float(result.sifted_bits),
                              unit="bit")
        sim.metrics.set_gauge(f"{prefix}.sift_discard_rate", result.sift_discard_rate)
        sim.metrics.set_gauge(f"{prefix}.qber", result.qber_estimate)
        sim.metrics.set_gauge(f"{prefix}.disagreements", float(result.disagreements))
        sim.metrics.set_gauge(f"{prefix}.elapsed_s", result.elapsed_s, unit="s")
        records.app_end_qkd(sim.trace, sim.now, self.config.alice, app=self.config.app_id,
                            outcome=result.outcome, key_bits=result.key_bits)
        return result
