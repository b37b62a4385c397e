"""Distributed phase estimation with separable or GHZ-correlated probes.

Separable mode: every sensor interrogates the field with its own probe
qubit, so one shot yields one bit per sensor with

    P(0) = (1 + C cos phi) / 2,        C = exp(-tau / t2).

Pooling N sensors over M shots gives N * M independent bits and the
estimator standard error scales as 1 / sqrt(N M): the standard quantum
limit.  GHZ mode distributes one N-party resource per shot and reads the
parity, whose visibility oscillates N times faster,

    P(even) = (1 + w C cos(N phi)) / 2,

with w the delivered mixture parameter.

The reported uncertainty propagates the binomial error of the pooled
frequency through the arccos estimator (delta method); a batch-means
spread over shot chunks is included as a cross-check.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from .. import records
from ..errors import ConfigurationError
from ..protocol import Stack

__all__ = [
    "SensingConfig",
    "SensingResult",
    "SensingApp",
    "probe_probability",
    "parity_probability",
    "estimate_phase",
    "delta_method_se",
]

def _binomial_cdf(g: int, p: float) -> list[float]:
    """P(X <= k) for X ~ Binomial(g, p) and k = 0..g, the last entry set to 1
    so that every draw in [0, 1) falls inside."""
    cdf, total = [], 0.0
    for k in range(g + 1):
        total += math.comb(g, k) * p ** k * (1.0 - p) ** (g - k)
        cdf.append(total)
    cdf[-1] = 1.0
    return cdf


def probe_probability(phi: float, contrast: float) -> float:
    return 0.5 * (1.0 + contrast * math.cos(phi))


def parity_probability(phi: float, n_sensors: int, w: float, contrast: float) -> float:
    return 0.5 * (1.0 + w * contrast * math.cos(n_sensors * phi))


def estimate_phase(p_hat: float, visibility: float, scale: int = 1) -> float:
    """Invert p = (1 + V cos(scale * phi)) / 2 for phi in [0, pi/scale]."""
    if visibility <= 0.0:
        raise ValueError(f"visibility must be positive, got {visibility}")
    arg = (2.0 * p_hat - 1.0) / visibility
    arg = min(1.0, max(-1.0, arg))
    return math.acos(arg) / scale


def delta_method_se(p_hat: float, n_bits: int, visibility: float,
                    phi_hat: float, scale: int = 1) -> float:
    """Binomial error of p_hat propagated through the arccos inversion."""
    if n_bits <= 0:
        return math.inf
    se_p = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_bits)
    slope = 0.5 * visibility * scale * abs(math.sin(scale * phi_hat))
    if slope == 0.0:
        return math.inf
    return se_p / slope


@dataclass(frozen=True)
class SensingConfig:
    """One phase-sensing app: its fusion node, sensors, shots and noise."""

    app_id: str = field(metadata={"key": "id"})
    fusion: str
    sensors: tuple[str, ...]
    phi_true: float
    shots: int
    mode: str = "separable"  # or "ghz"
    tau_interrogate_s: float = 1e-3
    t2_s: float = 0.05
    reinit_delay_s: float = 1e-4
    max_latency_s: float = 0.5
    trace_reports: bool = False

    def __post_init__(self) -> None:
        if not self.sensors:
            raise ValueError("at least one sensor is required")
        if len(set(self.sensors)) != len(self.sensors):
            raise ValueError("sensor ids must be distinct")
        if self.mode not in ("separable", "ghz"):
            raise ValueError(f"unknown sensing mode {self.mode!r}")
        if self.mode == "ghz" and len(self.sensors) < 2:
            raise ValueError("ghz mode needs at least two sensors")
        if self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        for name in ("phi_true", "tau_interrogate_s", "t2_s", "reinit_delay_s",
                     "max_latency_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tau_interrogate_s <= 0.0 or self.t2_s <= 0.0:
            raise ValueError("tau_interrogate_s and t2_s must be positive")
        if self.reinit_delay_s < 0.0:
            raise ValueError(
                f"reinit_delay_s must be nonnegative, got {self.reinit_delay_s}")
        if self.max_latency_s <= 0.0:
            raise ValueError(f"max_latency_s must be positive, got {self.max_latency_s}")


@dataclass
class SensingResult:
    """How a sensing app ended, with its phase estimate and the bits it used."""

    app_id: str
    outcome: str
    mode: str = "separable"
    shots_done: int = 0
    bits_used: int = 0
    discarded: int = 0
    p_hat: float = 0.0
    phi_est: float = 0.0
    phi_std: float = 0.0
    phi_std_batch: float = 0.0
    visibility: float = 0.0
    mean_w: float = 1.0
    elapsed_s: float = 0.0


class SensingApp:
    """Runs the shot loop on the stack and fuses reports at the base station."""

    def __init__(self, config: SensingConfig):
        self.config = config
        self.contrast = math.exp(-config.tau_interrogate_s / config.t2_s)

    def run(self, stack: Stack):
        cfg = self.config
        sim = stack.sim
        t0 = sim.now
        records.app_start_sensing(sim.trace, sim.now, cfg.fusion, app=cfg.app_id, mode=cfg.mode)
        for s in cfg.sensors:
            if stack.topo.classical_link(s, cfg.fusion) is None:
                raise ConfigurationError(f"sensor {s} has no classical link to "
                                         f"{cfg.fusion}")
        w_sum = 0.0
        if cfg.mode == "ghz":
            for s in cfg.sensors:
                ok = yield from stack.ensure_connected(s, cfg.fusion)
                if not ok:
                    result = SensingResult(cfg.app_id, "aborted-attach", mode=cfg.mode)
                    return self._finish(stack, result, t0)
            per_shot, w_sum = yield from self._run_ghz(stack)
        else:
            per_shot = yield from self._run_separable(stack)
        return self._finish(stack, self._estimate(per_shot, w_sum), t0)

    # -- separable --------------------------------------------------------

    def _run_separable(self, stack: Stack):
        """Each shot's (zeros, bits used), sampled from the app's own stream.

        A shot reads only classical coverage, a pure function of time, and
        the app's stream, so nothing else in the run can observe the shots
        one by one.  The app keeps its own clock with the engine's float
        arithmetic and yields once at the end; with ``trace_reports`` it
        steps the engine along instead, so that report records keep their
        place in the trace.

        Per shot, each covered sensor whose report can either arrive or be
        lost draws its loss, in sensor order; then one draw reads the number
        of zeros among the g reports that arrived off the inverse CDF of
        Binomial(g, p0).  When the fusion station and every sensor are
        static, coverage and the reports sure to arrive are worked out once.
        """
        cfg = self.config
        sim = stack.sim
        topo = stack.topo
        rng = sim.rng_stream(cfg.fusion, f"sensing/{cfg.app_id}")
        p0 = probe_probability(cfg.phi_true, self.contrast)
        cdfs = [_binomial_cdf(g, p0) for g in range(len(cfg.sensors) + 1)]
        links = [topo.classical_link(s, cfg.fusion) for s in cfg.sensors]
        bits_report = stack.bits("report")
        latencies = [link.latency(bits_report) for link in links]
        step = cfg.reinit_delay_s + cfg.tau_interrogate_s

        def reports(t: float) -> tuple[list[bool], list[int], float, list[int]]:
            """Coverage at t, the sensors sure to report and the slowest of
            their latencies, and the sensors whose report may be lost."""
            cover = [topo.in_classical_coverage(s, cfg.fusion, t) for s in cfg.sensors]
            sure = [i for i, link in enumerate(links) if cover[i] and link.p_err_c == 0.0]
            maybe = [i for i, link in enumerate(links)
                     if cover[i] and 0.0 < link.p_err_c < 1.0]
            return cover, sure, max([latencies[i] for i in sure], default=0.0), maybe

        static = all(topo.nodes[n].mobility.kind == "static"
                     for n in (cfg.fusion,) + cfg.sensors)
        if static:
            cover, sure, sure_latency, maybe = reports(sim.now)

        draw, trace = rng.random, cfg.trace_reports
        per_shot: list[tuple[int, int]] = []
        t = sim.now
        for _ in range(cfg.shots):
            t += step
            if not static:
                cover, sure, sure_latency, maybe = reports(t)
            got, latency = sure, sure_latency
            if maybe:
                arrived = [i for i in maybe if links[i].delivered(draw())]
                got = sure + arrived
                latency = max([latency] + [latencies[i] for i in arrived])
            if trace:
                yield step
                for i, s in enumerate(cfg.sensors):
                    self._trace_report(sim, s, cover[i], i in got)
                if latency > 0.0:
                    yield latency
            t += latency
            g = len(got)
            per_shot.append((bisect.bisect_right(cdfs[g], draw()), g))
        if not trace:
            yield t - sim.now
        return per_shot

    # -- ghz ---------------------------------------------------------------

    def _run_ghz(self, stack: Stack):
        """One GHZ resource per shot; returns per_shot and the used shots' w sum.

        A shot yields its parity bit as (bit, 1), or (0, 0) when no resource
        arrives or any sensor's report is lost: the parity needs every bit.
        """
        cfg = self.config
        sim = stack.sim
        topo = stack.topo
        n = len(cfg.sensors)
        rng = sim.rng_stream(cfg.fusion, "sensing")
        w_sum = 0.0
        per_shot: list[tuple[int, int]] = []
        for _ in range(cfg.shots):
            yield cfg.reinit_delay_s
            ghz_id = yield from stack.ghz_session(cfg.fusion, cfg.sensors,
                                                  max_latency_s=cfg.max_latency_s)
            if ghz_id is None:
                per_shot.append((0, 0))
                continue
            yield cfg.tau_interrogate_s
            w_used = stack.age_pair(stack.ledger.live(ghz_id))
            stack.consume_pair(ghz_id, "sensing-parity")
            reported = True
            max_latency = 0.0
            for s in cfg.sensors:
                if not topo.in_classical_coverage(s, cfg.fusion, sim.now):
                    reported = False
                    if cfg.trace_reports:
                        self._trace_report(sim, s, False, False)
                    break
                delivered, latency = stack.transmit(s, cfg.fusion, "report")
                if cfg.trace_reports:
                    self._trace_report(sim, s, True, delivered)
                if not delivered:
                    reported = False
                    break
                max_latency = max(max_latency, latency)
            if max_latency > 0.0:
                yield max_latency
            if not reported:
                per_shot.append((0, 0))
                continue
            p_even = parity_probability(cfg.phi_true, n, w_used, self.contrast)
            per_shot.append((int(rng.random() < p_even), 1))
            w_sum += w_used
        return per_shot, w_sum

    # -- shared ------------------------------------------------------------

    def _estimate(self, per_shot: list[tuple[int, int]], w_sum: float) -> SensingResult:
        """The pooled estimate from each shot's (zeros or even parities, bits used).

        A separable shot can yield one bit per sensor; a GHZ shot one parity
        bit, at N times the phase and with the used shots' mean w in its
        visibility.
        """
        cfg = self.config
        ghz = cfg.mode == "ghz"
        scale = len(cfg.sensors) if ghz else 1
        used = sum(u for _, u in per_shot)
        discarded = len(per_shot) * (1 if ghz else len(cfg.sensors)) - used
        if used == 0:
            return SensingResult(cfg.app_id, "no-data", mode=cfg.mode,
                                 shots_done=len(per_shot), discarded=discarded)
        p_hat = sum(z for z, _ in per_shot) / used
        mean_w = w_sum / used if ghz else 1.0
        visibility = mean_w * self.contrast
        phi = estimate_phase(p_hat, visibility, scale)
        return SensingResult(
            cfg.app_id, "done", mode=cfg.mode, shots_done=len(per_shot),
            bits_used=used, discarded=discarded, p_hat=p_hat, phi_est=phi,
            phi_std=delta_method_se(p_hat, used, visibility, phi, scale),
            phi_std_batch=self._batch_se(per_shot, visibility, scale),
            visibility=visibility, mean_w=mean_w,
        )

    def _trace_report(self, sim, sensor: str, covered: bool, delivered: bool) -> None:
        if covered:
            records.sensing_report(sim.trace, sim.now, sensor, app=self.config.app_id,
                                   delivered=delivered)
        else:
            records.sensing_report_uncovered(sim.trace, sim.now, sensor,
                                             app=self.config.app_id)

    @staticmethod
    def _batch_se(per_shot: list[tuple[int, int]], visibility: float,
                  scale: int) -> float:
        """Spread of per-chunk estimates, as a cross-check on the delta method."""
        shots = [(z, u) for z, u in per_shot if u > 0]
        n_batches = min(20, len(shots))
        if n_batches < 2:
            return math.inf
        size = len(shots) // n_batches
        estimates = []
        for b in range(n_batches):
            chunk = shots[b * size:(b + 1) * size]
            z = sum(c[0] for c in chunk)
            u = sum(c[1] for c in chunk)
            if u == 0:
                continue
            estimates.append(estimate_phase(z / u, visibility, scale))
        if len(estimates) < 2:
            return math.inf
        mean = sum(estimates) / len(estimates)
        var = sum((e - mean) ** 2 for e in estimates) / (len(estimates) - 1)
        return math.sqrt(var / len(estimates))

    def _finish(self, stack: Stack, result: SensingResult, t0: float) -> SensingResult:
        sim = stack.sim
        result.elapsed_s = sim.now - t0
        prefix = f"app.{self.config.app_id}"
        sim.metrics.set_gauge(f"{prefix}.phi_est", result.phi_est, unit="rad")
        sim.metrics.set_gauge(f"{prefix}.phi_std", result.phi_std, unit="rad")
        sim.metrics.set_gauge(f"{prefix}.p_hat", result.p_hat)
        sim.metrics.set_gauge(f"{prefix}.bits_used", float(result.bits_used))
        sim.metrics.set_gauge(f"{prefix}.discarded", float(result.discarded))
        sim.metrics.set_gauge(f"{prefix}.elapsed_s", result.elapsed_s, unit="s")
        records.app_end_sensing(sim.trace, sim.now, self.config.fusion, app=self.config.app_id,
                                outcome=result.outcome, bits=result.bits_used)
        return result
