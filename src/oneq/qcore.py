"""Quantum resources and the small statevector oracle.

Entangled resources are tracked with a single Werner-type parameter w.
A bipartite pair is the state

    rho(w) = w |phi+><phi+| + (1 - w) I/4,      0 <= w <= 1,

whose fidelity to |phi+> is F = (1 + 3w)/4.  Memory decoherence is an
exponential decay of w, evaluated lazily whenever a resource is touched.
Multi-party resources (GHZ class) use the analogous dephasing mixture:
ideal GHZ state with probability w, fully dephased otherwise.

The module also provides an exact pure-state simulator for a handful of
qubits (gates H, X, Z, CNOT, Rz).  It is the ground truth the parameterized
model is validated against, and it backs the exact execution modes of the
applications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ResourceError

__all__ = [
    "MAX_QUBITS",
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
    "oracle_apply",
    "oracle_measure",
    "bell_state",
    "equatorial_state",
    "state_fidelity",
]

# Largest register the oracle accepts.  65,536 amplitudes (1 MiB) at n = 16
# keep every exact-mode computation comfortably in memory.
MAX_QUBITS = 16

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

H_GATE = np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
X_GATE = np.array([[0, 1], [1, 0]], dtype=complex)
Z_GATE = np.array([[1, 0], [0, -1]], dtype=complex)
_FIXED_GATES = {"H": H_GATE, "X": X_GATE, "Z": Z_GATE}


def _rz(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def _split(amps: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """View of an n-qubit amplitude vector as (before, qubit, after) axes."""
    return amps.reshape(1 << qubit, 2, 1 << (n - 1 - qubit))


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
    """Z, X, or an equatorial basis {|0> + e^{i theta}|1>, |0> - e^{i theta}|1>}/sqrt(2)."""

    kind: str  # "Z" | "X" | "EQ"
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "X", "EQ"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))

    @staticmethod
    def equatorial(theta: float) -> "MeasurementBasis":
        return MeasurementBasis("EQ", theta)


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
    for basis in (basis_a, basis_b):
        if basis.kind not in ("Z", "X"):
            raise ValueError(f"measure_pair supports Z and X bases only, got {basis.kind}")
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
# Statevector oracle
# ---------------------------------------------------------------------------

class PureState:
    """Normalized pure state of n qubits, qubit 0 being the leftmost label.

    Amplitude index i corresponds to the computational basis ket whose
    qubit-k bit is (i >> (n - 1 - k)) & 1.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if amps.size != (1 << n):
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the oracle cap of {MAX_QUBITS}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= 1e-7:  # also rejects NaN
            raise ValueError(f"state is not normalized (norm {norm})")
        self.amplitudes = amps

    @property
    def n_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @staticmethod
    def zeros(n_qubits: int) -> "PureState":
        if n_qubits < 0 or n_qubits > MAX_QUBITS:
            raise ValueError(f"qubit count must lie in [0, {MAX_QUBITS}], got {n_qubits}")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return PureState(amps)

    def tensor(self, other: "PureState") -> "PureState":
        if self.n_qubits + other.n_qubits > MAX_QUBITS:
            raise ValueError("tensor product exceeds the oracle cap")
        return PureState(np.multiply.outer(self.amplitudes, other.amplitudes))


def _check_targets(state: PureState, targets: Sequence[int], arity: int) -> None:
    n = state.n_qubits
    if len(targets) != arity:
        raise ValueError(f"gate expects {arity} target(s), got {len(targets)}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {tuple(targets)}")
    for q in targets:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")


def oracle_apply(
    state: PureState,
    gate: str,
    targets: Sequence[int],
    theta: float | None = None,
) -> PureState:
    """Apply H, X, Z, Rz(theta), or CNOT and return the new state."""
    name = gate.upper()
    n = state.n_qubits
    if name in ("H", "X", "Z", "RZ"):
        _check_targets(state, targets, 1)
        if name == "RZ":
            if theta is None:
                raise ValueError("RZ requires theta")
            matrix = _rz(theta)
        else:
            matrix = _FIXED_GATES[name]
        (q,) = targets
        return PureState(np.matmul(matrix, _split(state.amplitudes, n, q)))
    if name == "CNOT":
        _check_targets(state, targets, 2)
        control, target = targets
        # new amplitudes are old[perm]: the target bit flips where the control is 1
        index = np.arange(1 << n)
        perm = index ^ (((index >> (n - 1 - control)) & 1) << (n - 1 - target))
        return PureState(state.amplitudes[perm])
    raise ValueError(f"unknown gate {gate!r}")


def oracle_measure(
    state: PureState,
    qubit: int,
    basis: MeasurementBasis,
    rng: np.random.Generator,
) -> tuple[int, PureState]:
    """Born-rule measurement of one qubit; the qubit is removed afterwards.

    For an equatorial basis the outcome 0 means projection onto
    (|0> + e^{i theta}|1>)/sqrt(2); X is the theta = 0 case.
    """
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    view = _split(state.amplitudes, n, qubit)
    if basis.kind != "Z":
        # H Rz(-theta) maps |+_theta> to |0> and |-_theta> to |1>
        view = np.matmul(H_GATE @ _rz(-basis.theta), view)
    zero = view[:, 0]
    p0 = float(np.vdot(zero, zero).real)
    outcome = int(rng.random() >= p0)
    branch = view[:, outcome]
    p = p0 if outcome == 0 else 1.0 - p0
    if p <= 0.0:
        raise ValueError("measured a zero-probability branch; state was inconsistent")
    return outcome, PureState(branch / math.sqrt(p))


def bell_state(x: int, z: int) -> PureState:
    """Bell state (X^x Z^z on qubit 0) |phi+>; (0, 0) is |phi+> itself."""
    if x not in (0, 1) or z not in (0, 1):
        raise ValueError(f"Bell label bits must be 0 or 1, got ({x}, {z})")
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = _INV_SQRT2
    state = PureState(amps)
    if z:
        state = oracle_apply(state, "Z", (0,))
    if x:
        state = oracle_apply(state, "X", (0,))
    return state


def equatorial_state(theta: float) -> PureState:
    """Single qubit (|0> + e^{i theta}|1>)/sqrt(2)."""
    return PureState(np.array([_INV_SQRT2, _INV_SQRT2 * np.exp(1j * theta)]))


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 for equally sized registers."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states act on different register sizes")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
