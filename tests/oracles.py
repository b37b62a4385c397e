"""Independent reference computations the tests freeze values against.

Everything here is derived from first principles with plain numpy and
fractions (density matrices, exhaustive enumeration, explicit statevector
circuits, finite differences).  Nothing imports the package under test, so
agreement between these numbers and the simulator is a genuine cross-check
rather than a tautology.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np

_SQ2 = 1.0 / math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2


def rz(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


def kron(*ops: np.ndarray) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def bell_vec(x: int, z: int) -> np.ndarray:
    """Bell state (X^x Z^z on the first qubit) |phi+>."""
    phi_plus = np.array([_SQ2, 0, 0, _SQ2], dtype=complex)
    op = np.linalg.matrix_power(X, x) @ np.linalg.matrix_power(Z, z)
    return kron(op, I2) @ phi_plus


def werner_rho(w: float) -> np.ndarray:
    phi = bell_vec(0, 0)
    return w * np.outer(phi, phi.conj()) + (1.0 - w) / 4.0 * np.eye(4)


def w_for_fidelity(f: float) -> float:
    """Werner parameter of the pair with fidelity F = (3w + 1)/4 to |phi+>."""
    return (4.0 * f - 1.0) / 3.0


# ---------------------------------------------------------------------------
# QBER from the Born rule
# ---------------------------------------------------------------------------

def _disagree_projector(basis_vecs: np.ndarray) -> np.ndarray:
    v0, v1 = basis_vecs
    p0 = np.outer(v0, v0.conj())
    p1 = np.outer(v1, v1.conj())
    return np.kron(p0, p1) + np.kron(p1, p0)


_Z_VECS = np.array([[1, 0], [0, 1]], dtype=complex)
_X_VECS = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)


def qber_oracle(w: float) -> float:
    """Matched-basis disagreement probability of rho(w), averaged over Z and X."""
    rho = werner_rho(w)
    pz = float(np.trace(rho @ _disagree_projector(_Z_VECS)).real)
    px = float(np.trace(rho @ _disagree_projector(_X_VECS)).real)
    return 0.5 * (pz + px)


# ---------------------------------------------------------------------------
# Exhaustive binomial enumeration
# ---------------------------------------------------------------------------

def binom_tail_half(n: int, k: int) -> Fraction:
    """P[Bin(n, 1/2) >= k] as an exact fraction."""
    total = sum(math.comb(n, i) for i in range(k, n + 1))
    return Fraction(total, 2 ** n)


def match_success(n: int, k: int, p: float) -> float:
    """P[Bin(n, p) >= k] by direct summation."""
    return float(sum(
        math.comb(n, i) * p ** i * (1.0 - p) ** (n - i) for i in range(k, n + 1)
    ))


def expected_time_to_key(n: int, k: int, tau: float, overhead: float) -> float:
    """Retry-until-success model: each batch costs n*tau + overhead and
    succeeds when at least k of n fair sift coins land heads."""
    p = float(binom_tail_half(n, k))
    return (n * tau + overhead) / p


# ---------------------------------------------------------------------------
# Entanglement swap, from the explicit 4-qubit circuit
# ---------------------------------------------------------------------------

def _apply_1q(state: np.ndarray, gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    tensor = state.reshape([2] * n)
    tensor = np.moveaxis(np.tensordot(gate, tensor, axes=([1], [qubit])), 0, qubit)
    return tensor.reshape(-1)


def _apply_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    tensor = state.reshape([2] * n)
    tensor = np.moveaxis(tensor, (control, target), (0, 1))
    flat = tensor.reshape(4, -1).copy()
    flat[[2, 3]] = flat[[3, 2]]
    tensor = np.moveaxis(flat.reshape([2] * n), (0, 1), (control, target))
    return tensor.reshape(-1)


def apply_cz(state: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """CZ composed from the base gate set (H on b, CNOT a->b, H on b)."""
    out = _apply_1q(state, H, b, n)
    out = _apply_cnot(out, a, b, n)
    return _apply_1q(out, H, b, n)


def _project(state: np.ndarray, qubit: int, outcome: int, n: int) -> tuple[float, np.ndarray]:
    tensor = np.moveaxis(state.reshape([2] * n), qubit, 0)
    branch = tensor[outcome].reshape(-1)
    prob = float(np.vdot(branch, branch).real)
    if prob > 0.0:
        branch = branch / math.sqrt(prob)
    return prob, branch


def swap_branches(label_left: tuple[int, int], label_right: tuple[int, int]):
    """All Bell-measurement branches of a swap at the middle station.

    Qubits are (A, B1, B2, C); the pairs are (A, B1) and (B2, C).  The BSM
    is CNOT(B1 -> B2), H(B1), then Z measurements of B1 and B2.  The
    standard correction X^{m2} Z^{m1} is applied to C.  Yields
    (probability, corrected_state_of_A_C) per branch.
    """
    state = np.kron(bell_vec(*label_left), bell_vec(*label_right))
    state = _apply_cnot(state, 1, 2, 4)
    state = _apply_1q(state, H, 1, 4)
    for m1, m2 in product((0, 1), repeat=2):
        p1, s1 = _project(state, 1, m1, 4)
        if p1 == 0.0:
            continue
        p2, s2 = _project(s1, 1, m2, 3)  # B2 moved up after B1 was removed
        if p2 == 0.0:
            continue
        out = s2
        if m2:
            out = _apply_1q(out, X, 1, 2)
        if m1:
            out = _apply_1q(out, Z, 1, 2)
        yield p1 * p2, out


def swap_outer_label(label_left: tuple[int, int], label_right: tuple[int, int]) -> tuple[int, int]:
    """Bell label of the post-swap outer pair; branch-independent by circuit."""
    found = None
    for prob, out in swap_branches(label_left, label_right):
        matches = [
            (x, z)
            for x, z in product((0, 1), repeat=2)
            if abs(abs(np.vdot(bell_vec(x, z), out)) - 1.0) < 1e-9
        ]
        if len(matches) != 1:
            raise AssertionError("swap branch is not a Bell state")
        if found is None:
            found = matches[0]
        elif found != matches[0]:
            raise AssertionError("swap output depends on the BSM branch")
    assert found is not None
    return found


SWAP_TABLE = {
    (l1, l2): swap_outer_label(l1, l2)
    for l1 in product((0, 1), repeat=2)
    for l2 in product((0, 1), repeat=2)
}


def _werner_weights(w: float) -> dict[tuple[int, int], float]:
    rest = (1.0 - w) / 4.0
    return {
        (0, 0): w + rest,
        (0, 1): rest,
        (1, 0): rest,
        (1, 1): rest,
    }


def swap_werner_exact(w1: float, w2: float) -> float:
    """Output Werner parameter of a swap, by convolving the Bell mixtures
    through SWAP_TABLE and reading the |phi+> weight back off."""
    out = {label: 0.0 for label in SWAP_TABLE.values()}
    for l1, p1 in _werner_weights(w1).items():
        for l2, p2 in _werner_weights(w2).items():
            out[SWAP_TABLE[(l1, l2)]] += p1 * p2
    return (4.0 * out[(0, 0)] - 1.0) / 3.0


def swap_werner_sampled(w1: float, w2: float, n: int, seed: int) -> float:
    """Monte-Carlo estimate of the same quantity by sampling input labels."""
    rng = np.random.default_rng(seed)
    labels = list(product((0, 1), repeat=2))
    weights1 = np.array([_werner_weights(w1)[l] for l in labels])
    weights2 = np.array([_werner_weights(w2)[l] for l in labels])
    draws1 = rng.choice(4, size=n, p=weights1)
    draws2 = rng.choice(4, size=n, p=weights2)
    hits = sum(
        1 for i1, i2 in zip(draws1, draws2)
        if SWAP_TABLE[(labels[i1], labels[i2])] == (0, 0)
    )
    return (4.0 * hits / n - 1.0) / 3.0


def swap_circuit_fidelity(w1: float, w2: float, n_runs: int, seed: int) -> float:
    """Mean outer-pair fidelity over full stochastic circuit runs: sample the
    two input labels, run the BSM circuit, sample a branch, correct, and
    compute |<phi+|out>|^2."""
    rng = np.random.default_rng(seed)
    labels = list(product((0, 1), repeat=2))
    weights1 = np.array([_werner_weights(w1)[l] for l in labels])
    weights2 = np.array([_werner_weights(w2)[l] for l in labels])
    phi = bell_vec(0, 0)
    total = 0.0
    for _ in range(n_runs):
        l1 = labels[rng.choice(4, p=weights1)]
        l2 = labels[rng.choice(4, p=weights2)]
        branches = list(swap_branches(l1, l2))
        probs = np.array([p for p, _ in branches])
        probs = probs / probs.sum()
        _, out = branches[rng.choice(len(branches), p=probs)]
        total += abs(np.vdot(phi, out)) ** 2
    return total / n_runs


# ---------------------------------------------------------------------------
# Measurement-chain computation, straight from the circuit model
# ---------------------------------------------------------------------------

def chain_p_zero(phis: list[float]) -> float:
    """P(logical 0) of the angle chain: |+> evolved by H Rz(-phi) per step,
    read out in the X basis."""
    state = np.array([_SQ2, _SQ2], dtype=complex)
    for phi in phis:
        state = H @ rz(-phi) @ state
    plus = np.array([_SQ2, _SQ2], dtype=complex)
    return float(abs(np.vdot(plus, state)) ** 2)


def mbqc_chain_p_zero(phis: list[float]) -> float:
    """Same quantity from the measurement-based side: an explicit cluster
    chain of len(phis)+1 qubits, adaptive angles, byproduct tracking, exact
    branch enumeration.  Independently validates both conventions."""
    n = len(phis) + 1
    state = np.full(2 ** n, (_SQ2) ** n, dtype=complex)  # |+>^n
    for a in range(n - 1):
        state = _apply_cz_chain(state, a, a + 1, n)
    total0 = 0.0
    stack = [(state, 0, 0, 0, 1.0)]  # remaining state, step, x frame, z frame, prob
    while stack:
        vec, step, fx, fz, prob = stack.pop()
        qubits_left = n - step
        if step == n - 1:
            # readout at angle 0 in the adapted frame
            for b in (0, 1):
                p, _ = _project_eq(vec, 0, 0.0, b, qubits_left)
                if p <= 0.0:
                    continue
                logical = b ^ fz
                if logical == 0:
                    total0 += prob * p
            continue
        angle = phis[step] if fx == 0 else -phis[step]
        for b in (0, 1):
            p, branch = _project_eq(vec, 0, angle, b, qubits_left)
            if p <= 0.0:
                continue
            stack.append((branch, step + 1, b ^ fz, fx, prob * p))
    return total0


def _apply_cz_chain(state: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    tensor = state.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[a] = 1
    idx[b] = 1
    tensor[tuple(idx)] *= -1.0
    return tensor.reshape(-1)


def _project_eq(state: np.ndarray, qubit: int, theta: float, outcome: int,
                n: int) -> tuple[float, np.ndarray]:
    """Project onto |+/-_theta> of one qubit and drop it."""
    work = _apply_1q(state, rz(-theta), qubit, n)
    work = _apply_1q(work, H, qubit, n)
    return _project(work, qubit, outcome, n)


# ---------------------------------------------------------------------------
# Phase estimation
# ---------------------------------------------------------------------------

def ramsey_p_zero(phi: float, contrast: float) -> float:
    return 0.5 * (1.0 + contrast * math.cos(phi))


def parity_p_even(n_parties: int, phi: float, visibility: float) -> float:
    return 0.5 * (1.0 + visibility * math.cos(n_parties * phi))


def fisher_se(p_of_phi, phi: float, n_bits: int, step: float = 1e-6) -> float:
    """Cramer-Rao bound for a Bernoulli probe, slope by central difference."""
    dp = (p_of_phi(phi + step) - p_of_phi(phi - step)) / (2.0 * step)
    p = p_of_phi(phi)
    info = dp * dp / (p * (1.0 - p))
    return 1.0 / math.sqrt(n_bits * info)


# ---------------------------------------------------------------------------
# Fidelity survival threshold, inverted numerically
# ---------------------------------------------------------------------------

def survival_time_bisect(w0: float, f_min: float, t_coh: float) -> float:
    """Time until (1 + 3 w0 e^{-t/t_coh})/4 first crosses f_min."""
    def fid(t: float) -> float:
        return (1.0 + 3.0 * w0 * math.exp(-t / t_coh)) / 4.0

    lo, hi = 0.0, t_coh
    while fid(hi) > f_min:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fid(mid) > f_min:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Waiting time of a chain swapped once every segment is held
# ---------------------------------------------------------------------------
#
# Segment i heralds at slot N_i ~ Geometric(p_i), independently, with Werner
# parameter w0_i, and then decays as exp(-t / tau_i).  With deterministic
# swaps the chain is measured at slot T = max_i N_i.  This is the
# deterministic-swap case of Shchukin, Schmidt and van Loock, PRA 100,
# 032322 (2019).

def chain_slot_pmf(ps: list[float], tol: float = 1e-15) -> list[float]:
    """[P(T = 1), P(T = 2), ...] from P(T <= n) = prod_i (1 - (1 - p_i)^n).

    The list ends once P(T > n) < tol.
    """
    pmf, below = [], 0.0
    while 1.0 - below >= tol:
        cdf = math.prod(1.0 - (1.0 - p) ** (len(pmf) + 1) for p in ps)
        pmf.append(cdf - below)
        below = cdf
    return pmf


def chain_mean_w_out(w0s: list[float], ps: list[float], delta: float,
                     taus: list[float], tol: float = 1e-15) -> float:
    """E[w_out] at the swap, for attempt period delta:

        E[w_out] = prod_i w0_i * sum_n (prod_i A_i(n) - prod_i B_i(n))
        A_i(n) = sum_{m=1..n}   p_i (1 - p_i)^(m-1) exp(-(n - m) delta / tau_i)
        B_i(n) = sum_{m=1..n-1} p_i (1 - p_i)^(m-1) exp(-(n - m) delta / tau_i)

    The n-th term is E[prod_i exp(-(T - N_i) delta / tau_i); T = n], and
    B_i(n) = exp(-delta / tau_i) A_i(n - 1).
    """
    decay = [math.exp(-delta / tau) for tau in taus]
    a = [0.0] * len(ps)
    total, n, tail = 0.0, 0, 1.0
    while tail >= tol:
        n += 1
        b = [a_i * r for a_i, r in zip(a, decay)]
        a = [b_i + p * (1.0 - p) ** (n - 1) for b_i, p in zip(b, ps)]
        total += math.prod(a) - math.prod(b)
        tail = 1.0 - math.prod(1.0 - (1.0 - p) ** n for p in ps)
    return math.prod(w0s) * total


# ---------------------------------------------------------------------------
# Cell coverage, from positions and pass windows at the queried time
# ---------------------------------------------------------------------------
#
# A node is a dict: {"kind": "QBS" | "CBS" | "SAT_QBS" | "QUE" | "CUE",
# "position": (x, y, z), "mobility": {"kind": "static"} | {"kind":
# "waypoint", "waypoints": [(t, (x, y, z)), ...]} | {"kind": "orbit",
# "pass_start": s, "pass_duration": d, "period": p}}.  cells maps a station
# id to (classical_radius, quantum_radius).  Nothing is remembered between
# calls: every answer is worked out again from the time it is asked for.

_STATIONS = ("QBS", "CBS", "SAT_QBS")


def node_position(node: dict, t: float) -> tuple[float, ...]:
    """Waypoint nodes move along straight segments and rest at both ends."""
    mobility = node["mobility"]
    if mobility["kind"] != "waypoint":
        return tuple(node["position"])
    points = mobility["waypoints"]
    if t <= points[0][0]:
        return tuple(points[0][1])
    for (t0, p0), (t1, p1) in zip(points, points[1:]):
        if t0 <= t <= t1:
            frac = (t - t0) / (t1 - t0)
            return tuple(a + frac * (b - a) for a, b in zip(p0, p1))
    return tuple(points[-1][1])


def node_in_view(node: dict, t: float) -> bool:
    """An orbit node is in view inside [s + k p, s + k p + d) for some k >= 0."""
    mobility = node["mobility"]
    if mobility["kind"] != "orbit":
        return True
    start, duration, period = (mobility["pass_start"], mobility["pass_duration"],
                               mobility["period"])
    last = max(math.floor((t - start) / period), 0)
    for k in range(max(last - 1, 0), last + 2):
        opens = start + k * period
        if opens <= t < opens + duration:
            return True
    return False


def in_disk(nodes: dict, cells: dict, ue: str, bs: str, t: float, quantum: bool) -> bool:
    if ue not in nodes or bs not in nodes:
        raise KeyError(ue if ue not in nodes else bs)
    if bs not in cells:
        return False
    radius = cells[bs][1 if quantum else 0]
    if radius <= 0.0 or not (node_in_view(nodes[bs], t) and node_in_view(nodes[ue], t)):
        return False
    return math.dist(node_position(nodes[ue], t), node_position(nodes[bs], t)) <= radius


def link_usable(nodes: dict, cells: dict, a: str, b: str, t: float, quantum: bool) -> bool:
    """A UE end must lie in the station's disk; any other pair needs both in view."""
    if a not in nodes or b not in nodes:
        raise KeyError(a if a not in nodes else b)
    a_station, b_station = (nodes[n]["kind"] in _STATIONS for n in (a, b))
    if b_station and not a_station:
        return in_disk(nodes, cells, a, b, t, quantum)
    if a_station and not b_station:
        return in_disk(nodes, cells, b, a, t, quantum)
    return node_in_view(nodes[a], t) and node_in_view(nodes[b], t)


# ---------------------------------------------------------------------------
# Separable sensing shots, one shot at a time
# ---------------------------------------------------------------------------

def separable_shots(rng, shots: int, p0: float, p_err: list[float],
                    latencies: list[float], step: float, t0: float,
                    coverage) -> tuple[list[tuple[int, int]], float]:
    """Each shot's (zeros, bits used) and the clock after the last shot.

    A shot takes ``step``.  Then each sensor that ``coverage(t)`` says is
    covered gets its report through: surely at p_err 0, never at p_err 1,
    and otherwise when one draw from ``rng`` is at least p_err.  The shot
    waits for the slowest report that got through.  One more draw u picks
    the number of zeros among the g reports: the least k whose binomial
    probability P(X <= k), summed term by term, exceeds u.
    """
    n = len(latencies)
    per_shot = []
    t = t0
    for _ in range(shots):
        t += step
        cover = coverage(t)
        got = [cover[j] and (p_err[j] == 0.0
                             or (p_err[j] < 1.0 and rng.random() >= p_err[j]))
               for j in range(n)]
        t += max((lat for lat, g in zip(latencies, got) if g), default=0.0)
        g = sum(got)
        u = rng.random()
        k, cumulative = 0, (1.0 - p0) ** g
        while k < g and u >= cumulative:
            k += 1
            cumulative += math.comb(g, k) * p0 ** k * (1.0 - p0) ** (g - k)
        per_shot.append((k, g))
    return per_shot, t
