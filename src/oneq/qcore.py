"""Quantum resources: the Werner model, its Bell labels and one-qubit states.

Entangled resources are tracked with a single Werner-type parameter w.
A bipartite pair is the state

    rho(w) = w |phi+><phi+| + (1 - w) I/4,      0 <= w <= 1,

whose fidelity to |phi+> is F = (1 + 3w)/4.  Memory decoherence is an
exponential decay of w, evaluated lazily whenever a resource is touched.
Multi-party resources (GHZ class) use the analogous dephasing mixture:
ideal GHZ state with probability w, fully dephased otherwise.

rho(w) is also a mixture of the four Bell states, so an exact computation
through a pair samples one Bell label from it.  A payload teleported
through the pair is a one-qubit :class:`PureState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResourceError

__all__ = [
    "MeasurementBasis",
    "Z_BASIS",
    "X_BASIS",
    "WernerPair",
    "GhzResource",
    "fidelity_of",
    "decay",
    "touch",
    "measure_pair",
    "werner_bell_weights",
    "sample_bell_label",
    "PureState",
    "state_fidelity",
]


# ---------------------------------------------------------------------------
# Werner parameter arithmetic
# ---------------------------------------------------------------------------

def fidelity_of(w: float) -> float:
    """Fidelity of a Werner pair to |phi+>, F = (1 + 3w)/4."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {w}")
    return (1.0 + 3.0 * w) / 4.0


def decay(w0: float, dt: float, t_coh: float) -> float:
    """Werner parameter after dt seconds in a memory with coherence t_coh."""
    if not 0.0 <= w0 <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {w0}")
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if t_coh <= 0.0:
        raise ValueError(f"t_coh must be positive, got {t_coh}")
    return w0 * math.exp(-dt / t_coh)


# ---------------------------------------------------------------------------
# Measurement bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementBasis:
    """The Z or the X basis, the two a stored pair is measured in."""

    kind: str  # "Z" | "X"

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "X"):
            raise ValueError(f"unknown basis kind {self.kind!r}")


Z_BASIS = MeasurementBasis("Z")
X_BASIS = MeasurementBasis("X")


# ---------------------------------------------------------------------------
# Resources
# ---------------------------------------------------------------------------

@dataclass
class WernerPair:
    """One entangled pair shared by exactly two holders.

    w is the Werner parameter as of ``last_touched``; callers are expected to
    age it with :func:`touch` before use.  ``usable_at`` gates swap outputs on
    delivery of their classical correction.  ``measured`` is set by
    :func:`measure_pair` alone; whether a stored pair has ended is the
    protocol ledger's record.
    """

    id: str
    holders: tuple[str, str]
    w: float
    created_at: float
    last_touched: float = 0.0
    usable_at: float = 0.0
    measured: bool = False

    def __post_init__(self) -> None:
        if len(self.holders) != 2 or self.holders[0] == self.holders[1]:
            raise ValueError(f"a pair needs two distinct holders, got {self.holders}")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"Werner parameter must lie in [0, 1], got {self.w}")
        if self.last_touched < self.created_at:
            self.last_touched = self.created_at
        if self.usable_at < self.created_at:
            self.usable_at = self.created_at

    @property
    def fidelity(self) -> float:
        return fidelity_of(self.w)


@dataclass
class GhzResource:
    """GHZ-class resource over n >= 2 holders, dephasing-mixture parameter w.

    Like a pair, w is as of ``last_touched`` and is aged with :func:`touch`.
    """

    id: str
    holders: tuple[str, ...]
    w: float
    created_at: float
    last_touched: float = 0.0

    def __post_init__(self) -> None:
        if len(self.holders) < 2 or len(set(self.holders)) != len(self.holders):
            raise ValueError(f"GHZ holders must be distinct, got {self.holders}")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"Werner parameter must lie in [0, 1], got {self.w}")
        if self.last_touched < self.created_at:
            self.last_touched = self.created_at


def touch(pair: WernerPair | GhzResource, t: float, t_coh: float) -> float:
    """Age ``pair`` to time t against an effective coherence time, in place.

    ``pair`` may also be a GHZ resource.  Returns the updated Werner
    parameter.  t may not precede last_touched.
    """
    dt = t - pair.last_touched
    if dt < 0.0:
        raise ValueError(f"cannot touch pair {pair.id} backwards in time ({t} < {pair.last_touched})")
    if dt > 0.0:
        pair.w = decay(pair.w, dt, t_coh)
        pair.last_touched = t
    return pair.w


# ---------------------------------------------------------------------------
# Pair measurement in the parameterized model
# ---------------------------------------------------------------------------

def measure_pair(
    pair: WernerPair,
    basis_a: MeasurementBasis,
    basis_b: MeasurementBasis,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Measure both halves of a pair in Z or X bases, once.

    Equal bases give correlated bits: the outcomes disagree with probability
    (1 - w)/2, which is exactly the Born statistics of rho(w) in Z x Z or
    X x X.  Mixed bases give two independent fair bits.  Marginals are
    uniform in every case.
    """
    if pair.measured:
        raise ResourceError(f"pair {pair.id} was already measured")
    pair.measured = True
    bit_a = int(rng.random() < 0.5)
    if basis_a.kind == basis_b.kind:
        flip = int(rng.random() < (1.0 - pair.w) / 2.0)
        return bit_a, bit_a ^ flip
    return bit_a, int(rng.random() < 0.5)


def werner_bell_weights(w: float) -> list[float]:
    """Mixture weights of rho(w) over the Bell labels (x, z) in order
    (0,0), (0,1), (1,0), (1,1); the |phi+> component carries w + (1 - w)/4."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {w}")
    rest = (1.0 - w) / 4.0
    return [w + rest, rest, rest, rest]


def sample_bell_label(w: float, rng: np.random.Generator) -> tuple[int, int]:
    """Draw a Bell label (x, z) from the Werner mixture of rho(w)."""
    u = rng.random()
    acc = 0.0
    for label, p in zip(((0, 0), (0, 1), (1, 0), (1, 1)), werner_bell_weights(w)):
        acc += p
        if u < acc:
            return label
    return (1, 1)


# ---------------------------------------------------------------------------
# One-qubit states
# ---------------------------------------------------------------------------

class PureState:
    """Normalized pure state of one qubit, amplitudes (a0, a1) of |0> and |1>."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2:
            raise ValueError(f"a one-qubit state takes 2 amplitudes, got {amps.size}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= 1e-7:  # also rejects NaN
            raise ValueError(f"state is not normalized (norm {norm})")
        self.amplitudes = amps


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 of two one-qubit states."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
