"""Blind delegated computation on a measurement-based linear cluster.

The client never sends its computation angles phi_n.  Each server qubit is
remotely prepared by measuring the client half of a shared pair at a secret
angle theta_n, after which the client only announces

    delta_n = phi'_n - theta_n + pi * r_n      (mod 2 pi)

where phi'_n is the flow-adapted angle and r_n a secret outcome-flip bit.
With theta_n uniform on the eight-point grid {k pi/4} and r_n a fair coin,
delta_n is uniform and independent of the pattern, which is the whole
blindness argument; the chi-square helpers below make it testable.

All angles live on the eight-point grid and are carried as integers
(multiples of pi/4), so the blinding algebra is exact.

Each shot takes all its pairs in one session and, as in the protocol of
Broadbent, Fitzsimons and Kashefi, prepares every server qubit before the
first angle is announced.  Exact mode simulates the server's qubits as
statevectors: remote preparation collapses the server half of each pair,
the server links neighbours with CZ lazily (never holding more than two
qubits), and the client decodes outcomes through the byproduct frame

    angle:  lambda_n = (-1)^x phi_n
    frame:  (x, z) <- (b_n xor z, x)

with the logical result read off the last qubit at angle 0 and corrected
by the final z.  Parameterized mode skips the statevector and returns fair
outcome bits, which keeps timing and transcript statistics meaningful but
not the logical output distribution.

Since the server never holds more than two qubits, exact mode carries its
register as plain Python complex amplitudes (2 for one qubit, 4 for two)
rather than as arrays: CZ negates the |11> amplitude, and an equatorial
measurement of the front qubit at grid angle k pi/4 is the closed-form
projection H Rz(-k pi/4) with one uniform draw.  The tests check this
kernel against the statevector circuits of ``tests/oracles.py`` within
1e-12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

from .. import qcore, records
from ..protocol import Stack, check_request_bounds

__all__ = [
    "UbqcConfig",
    "UbqcResult",
    "UbqcApp",
    "ideal_chain_p_zero",
    "rsp_collapse",
    "blindness_pvalue",
]

GRID = 8  # angles are integer multiples of pi/4


def _angle(eighths: int) -> float:
    return (eighths % GRID) * math.pi / 4.0


_S = 1.0 / math.sqrt(2.0)
# e^{-i k pi/4}: H Rz(-k pi/4) has rows (1, +phase) / sqrt(2) and (1, -phase) / sqrt(2)
_PHASE = tuple(cmath.exp(-1j * _angle(k)) for k in range(GRID))
# Bell label (x, z) -> amplitudes of (X^x Z^z on qubit 0) |phi+>
_BELL = {(0, 0): (_S, 0j, 0j, _S), (0, 1): (_S, 0j, 0j, -_S),
         (1, 0): (0j, _S, _S, 0j), (1, 1): (0j, -_S, _S, 0j)}


def _measure_front(amps: tuple[complex, ...], eighths: int, rng) -> tuple[int, tuple[complex, ...]]:
    """Measure qubit 0 of a one- or two-qubit register at angle eighths * pi/4.

    Outcome 0 projects onto (|0> + e^{i theta}|1>)/sqrt(2).  Returns the bit
    and the normalized amplitudes of the qubit left, or () when none is.
    """
    phase = _PHASE[eighths % GRID]
    if len(amps) == 2:  # a lone qubit: no second qubit to carry
        a0, b0 = amps
        a1 = b1 = 0j
    else:
        a0, a1, b0, b1 = amps
    b0 *= phase
    b1 *= phase
    v0 = (a0 + b0) * _S
    v1 = (a1 + b1) * _S
    p0 = v0.real * v0.real + v0.imag * v0.imag + v1.real * v1.real + v1.imag * v1.imag
    outcome = int(rng.random() >= p0)
    p = p0
    if outcome:
        v0 = (a0 - b0) * _S
        v1 = (a1 - b1) * _S
        p = 1.0 - p0
    if p <= 0.0:
        raise ValueError("measured a zero-probability branch; state was inconsistent")
    if len(amps) == 2:
        return outcome, ()
    root = math.sqrt(p)
    return outcome, (v0 / root, v1 / root)


def ideal_chain_p_zero(phi_eighths: tuple[int, ...]) -> float:
    """P(logical bit = 0) for the noiseless chain computation.

    Each pattern angle contributes one step H Rz(-phi) to |+>, and the
    final qubit is read out along X.
    """
    a0 = a1 = complex(_S)
    for e in phi_eighths:
        b1 = a1 * _PHASE[e % GRID]
        a0, a1 = (a0 + b1) * _S, (a0 - b1) * _S
    return abs((a0 + a1) * _S) ** 2


def rsp_collapse(w: float, theta_eighths: int, rng) -> tuple[int, tuple[complex, complex]]:
    """Remote state preparation through one pair of mixture parameter w.

    Takes the shared state's Bell label from the Werner mixture, measures
    the client half at theta, and returns the outcome bit together with the
    collapsed server qubit's amplitudes (a0, a1).
    """
    return _measure_front(_BELL[qcore.sample_bell_label(w, rng)], theta_eighths, rng)


def blindness_pvalue(deltas_eighths) -> float:
    """Chi-square p-value for the announced angles being grid-uniform.

    The statistic has GRID - 1 = 7 degrees of freedom, and for odd degrees
    the upper tail is a finite sum (Abramowitz and Stegun 26.4.4-26.4.5)."""
    counts = [0] * GRID
    for d in deltas_eighths:
        counts[int(d) % GRID] += 1
    mean = sum(counts) / GRID
    if not mean:
        raise ValueError("no announced angles to test")
    x = sum((c - mean) ** 2 for c in counts) / mean
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(
        -x / 2.0) * (1.0 + x / 3.0 + x * x / 15.0)


@dataclass(frozen=True)
class UbqcConfig:
    """One blind-computation app: its client, server, angle pattern and shots."""

    app_id: str = field(metadata={"key": "id"})
    client: str
    server: str
    phi_eighths: tuple[int, ...]
    shots: int = 100
    exact: bool = True
    blinding: str = "uniform"  # or "none" for the unblinded baseline
    min_fidelity: float = 0.8
    max_latency_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.phi_eighths:
            raise ValueError("the pattern needs at least one angle")
        if any(not 0 <= e < GRID for e in self.phi_eighths):
            raise ValueError("pattern angles must be grid indices in 0..7")
        if self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        if self.blinding not in ("uniform", "none"):
            raise ValueError(f"unknown blinding mode {self.blinding!r}")
        check_request_bounds(self.max_latency_s, self.min_fidelity)


@dataclass
class UbqcResult:
    """How a blind-computation app ended, with its zero rate and pairs used."""

    app_id: str
    outcome: str
    shots_done: int = 0
    zeros: int = 0
    p_zero: float = 0.0
    pairs_consumed: int = 0
    mode: str = "exact"
    elapsed_s: float = 0.0
    deltas_eighths: tuple[int, ...] = field(default=(), repr=False)


class _ServerShot:
    """Server side of one shot: at most two live qubits at any time.

    The register is a tuple of 2 or 4 complex amplitudes, qubit 0 (the one
    measured next) being the leftmost label, or () when it holds no qubit.
    """

    def __init__(self, exact: bool, rng):
        self.exact = exact
        self.rng = rng
        self.reg: tuple[complex, ...] = ()

    def push(self, qubit: Optional[tuple[complex, complex]]) -> None:
        """Append a qubit and link it to the held one with CZ."""
        if not self.exact:
            return
        a0, a1 = qubit
        norm = math.sqrt(a0.real * a0.real + a0.imag * a0.imag
                         + a1.real * a1.real + a1.imag * a1.imag)
        if not abs(norm - 1.0) <= 1e-7:  # also rejects NaN
            raise ValueError(f"pushed qubit is not normalized (norm {norm})")
        if not self.reg:
            self.reg = (a0, a1)
        elif len(self.reg) == 2:
            c0, c1 = self.reg
            self.reg = (c0 * a0, c0 * a1, c1 * a0, -(c1 * a1))
        else:
            raise ValueError("the server holds at most two qubits")

    def measure_front(self, delta_eighths: int) -> int:
        if not self.exact:
            return int(self.rng.integers(0, 2))
        outcome, self.reg = _measure_front(self.reg, delta_eighths, self.rng)
        return outcome


class UbqcApp:
    """Client-side driver: prepares, blinds, delegates, and decodes."""

    def __init__(self, config: UbqcConfig):
        self.config = config

    def run(self, stack: Stack):
        cfg = self.config
        sim = stack.sim
        t0 = sim.now
        records.app_start_ubqc(sim.trace, sim.now, cfg.client, app=cfg.app_id)
        ok = yield from stack.ensure_connected(cfg.client, cfg.server)
        if not ok:
            return self._finish(stack, UbqcResult(cfg.app_id, "aborted-attach"), t0)

        theta_rng = sim.rng_stream(cfg.client, "ubqc-theta")
        r_rng = sim.rng_stream(cfg.client, "ubqc-r")
        client_meas = sim.rng_stream(cfg.client, "measurement")
        server_meas = sim.rng_stream(cfg.server, "measurement")

        zeros = 0
        shots_done = 0
        pairs = 0
        deltas: list[int] = []
        outcome = "done"
        for _ in range(cfg.shots):
            logical, used = yield from self._one_shot(
                stack, theta_rng, r_rng, client_meas, server_meas, deltas)
            pairs += used
            if logical is None:
                outcome = "starved"
                break
            shots_done += 1
            if logical == 0:
                zeros += 1
        result = UbqcResult(
            cfg.app_id, outcome, shots_done=shots_done, zeros=zeros,
            p_zero=zeros / shots_done if shots_done else 0.0, pairs_consumed=pairs,
            mode="exact" if cfg.exact else "parameterized",
            deltas_eighths=tuple(deltas),
        )
        return self._finish(stack, result, t0)

    def _prepare(self, stack: Stack, pair_id: str, theta_rng, client_meas):
        """Consume one pair and collapse its server half.

        Returns (theta_eff_eighths, server_qubit_amplitudes_or_None).
        """
        cfg = self.config
        pair = stack.consume_pair(pair_id, "rsp")
        theta8 = theta_rng.integers(0, GRID) if cfg.blinding == "uniform" else 0
        if cfg.exact:
            m, server_qubit = rsp_collapse(pair.w, theta8, client_meas)
        else:
            m, server_qubit = int(client_meas.integers(0, 2)), None
        return (theta8 + 4 * m) % GRID, server_qubit

    def _one_shot(self, stack: Stack, theta_rng, r_rng, client_meas,
                  server_meas, deltas: list[int]):
        """Generator: one blind computation.

        Returns (logical_bit_or_None, pairs_consumed); the bit is None when
        the shot could not finish.
        """
        cfg = self.config
        n_steps = len(cfg.phi_eighths) + 1  # pattern angles plus readout
        taken, _ = yield from stack.acquire_pairs(
            cfg.client, cfg.server, n_steps, cfg.min_fidelity, cfg.max_latency_s)
        if len(taken) < n_steps:
            for pair_id in taken:
                stack.discard_pair(pair_id, "shot-starved")
            return None, 0
        # Every server qubit is prepared at this one instant, before the
        # first angle is sent: a pair left stored across the sends below
        # could be refreshed away by a provisioner or taken by another app.
        thetas, qubits = zip(*(self._prepare(stack, pair_id, theta_rng, client_meas)
                               for pair_id in taken))
        server = _ServerShot(cfg.exact, server_meas)
        server.push(qubits[0])

        x = z = 0
        logical = 0
        for n, theta_eff8 in enumerate(thetas):
            if n + 1 < n_steps:
                server.push(qubits[n + 1])
            r = r_rng.getrandbits(1) if cfg.blinding == "uniform" else 0  # = integers(0, 2)
            if n < len(cfg.phi_eighths):
                phi8 = cfg.phi_eighths[n]
                lam8 = phi8 if x == 0 else (-phi8) % GRID
            else:
                lam8 = 0  # readout along X
            delta8 = (lam8 - theta_eff8 + 4 * r) % GRID
            deltas.append(delta8)
            ok = yield from stack.send_routed(cfg.client, cfg.server, "angle")
            if not ok:
                return None, n_steps
            s = server.measure_front(delta8)
            ok = yield from stack.send_routed(cfg.server, cfg.client, "outcome")
            if not ok:
                return None, n_steps
            b = s ^ r
            if n < len(cfg.phi_eighths):
                x, z = b ^ z, x
            else:
                logical = b ^ z
        return logical, n_steps

    def _finish(self, stack: Stack, result: UbqcResult, t0: float) -> UbqcResult:
        sim = stack.sim
        result.elapsed_s = sim.now - t0
        prefix = f"app.{self.config.app_id}"
        sim.metrics.set_gauge(f"{prefix}.p_zero", result.p_zero)
        sim.metrics.set_gauge(f"{prefix}.shots", float(result.shots_done))
        sim.metrics.set_gauge(f"{prefix}.pairs_consumed", float(result.pairs_consumed))
        sim.metrics.set_gauge(f"{prefix}.elapsed_s", result.elapsed_s, unit="s")
        records.app_end_ubqc(sim.trace, sim.now, self.config.client, app=self.config.app_id,
                             outcome=result.outcome, shots=result.shots_done)
        return result
