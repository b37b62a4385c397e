"""Unit tests for the quantum resource primitives, and for the reference
statevector simulator of tests/oracles.py that the exact kernels are checked against."""

import math

import numpy as np
import pytest

import oracles
from oneq.errors import ResourceError
from oneq.qcore import (
    MeasurementBasis,
    PureState,
    WernerPair,
    X_BASIS,
    Z_BASIS,
    decay,
    fidelity_of,
    measure_pair,
    sample_bell_label,
    state_fidelity,
    touch,
    werner_bell_weights,
)


class TestWernerScalars:
    def test_fidelity_anchors(self):
        assert fidelity_of(1.0) == 1.0
        assert fidelity_of(0.0) == 0.25
        assert fidelity_of(0.6) == pytest.approx(0.7)

    @pytest.mark.parametrize("w", [0.0, 0.17, 0.5, 0.93, 1.0])
    def test_fidelity_roundtrip(self, w):
        assert oracles.w_for_fidelity(fidelity_of(w)) == pytest.approx(w, abs=1e-12)

    def test_decay_closed_form(self):
        assert decay(0.9, 0.5, 2.0) == pytest.approx(0.9 * math.exp(-0.25))
        assert decay(0.9, 0.0, 2.0) == 0.9

    def test_decay_monotone_in_dt(self):
        ws = [decay(1.0, dt, 0.7) for dt in np.linspace(0.0, 3.0, 50)]
        assert all(a >= b for a, b in zip(ws, ws[1:]))

    def test_decay_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            decay(1.2, 0.1, 1.0)
        with pytest.raises(ValueError):
            decay(0.5, -0.1, 1.0)
        with pytest.raises(ValueError):
            decay(0.5, 0.1, 0.0)

    def test_survival_threshold_frozen(self):
        # time for fidelity to fall from 1.0 to 0.8 at t_coh = 1 s; the
        # closed form is -ln((4*0.8 - 1)/3) and the frozen value comes from
        # an independent bisection of the same fidelity curve.
        t = oracles.survival_time_bisect(1.0, 0.8, 1.0)
        assert t == pytest.approx(0.3101549283, abs=1e-9)
        assert fidelity_of(decay(1.0, t, 1.0)) == pytest.approx(0.8, abs=1e-9)

    def test_touch_ages_in_place(self):
        pair = WernerPair(id="p", holders=("a", "b"), w=0.9, created_at=1.0)
        w1 = touch(pair, 1.5, 2.0)
        assert w1 == pytest.approx(0.9 * math.exp(-0.25))
        assert pair.w == w1 and pair.last_touched == 1.5
        assert touch(pair, 1.5, 2.0) == w1  # no time elapsed, no change
        with pytest.raises(ValueError):
            touch(pair, 1.0, 2.0)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            WernerPair(id="p", holders=("a", "a"), w=0.5, created_at=0.0)
        with pytest.raises(ValueError):
            WernerPair(id="p", holders=("a", "b"), w=1.5, created_at=0.0)
        pair = WernerPair(id="p", holders=("a", "b"), w=0.5, created_at=3.0)
        assert pair.usable_at == 3.0 and pair.last_touched == 3.0


class TestPairMeasurement:
    def test_consumes_exactly_once(self):
        rng = np.random.default_rng(0)
        pair = WernerPair(id="p", holders=("a", "b"), w=1.0, created_at=0.0)
        measure_pair(pair, Z_BASIS, Z_BASIS, rng)
        assert pair.measured
        with pytest.raises(ResourceError):
            measure_pair(pair, Z_BASIS, Z_BASIS, rng)

    def test_rejects_equatorial_basis(self):
        # a pair is measured in Z or X only; no other basis can be built
        with pytest.raises(ValueError):
            MeasurementBasis("EQ")

    @pytest.mark.parametrize("w", [0.7, 1.0])
    def test_same_basis_disagreement_matches_born_rule(self, w):
        rng = np.random.default_rng(11)
        n = 100_000
        disagree = 0
        for _ in range(n):
            pair = WernerPair(id="p", holders=("a", "b"), w=w, created_at=0.0)
            a, b = measure_pair(pair, Z_BASIS, Z_BASIS, rng)
            disagree += a ^ b
        expected = oracles.qber_oracle(w)
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
        assert abs(disagree / n - expected) <= 3 * sigma + 1e-9

    def test_mixed_bases_are_independent_fair_bits(self):
        rng = np.random.default_rng(12)
        n = 50_000
        bits = np.empty((n, 2), dtype=int)
        for i in range(n):
            pair = WernerPair(id="p", holders=("a", "b"), w=1.0, created_at=0.0)
            bits[i] = measure_pair(pair, Z_BASIS, X_BASIS, rng)
        for col in (0, 1):
            assert abs(bits[:, col].mean() - 0.5) <= 3 * 0.5 / math.sqrt(n)
        agree = (bits[:, 0] == bits[:, 1]).mean()
        assert abs(agree - 0.5) <= 3 * 0.5 / math.sqrt(n)


class TestBellMixture:
    def test_weights(self):
        weights = werner_bell_weights(0.8)
        assert weights[0] == pytest.approx(0.8 + 0.05)
        assert weights[1:] == pytest.approx([0.05, 0.05, 0.05])
        assert sum(weights) == pytest.approx(1.0)

    def test_sampled_frequencies(self):
        rng = np.random.default_rng(21)
        n = 100_000
        counts = {label: 0 for label in ((0, 0), (0, 1), (1, 0), (1, 1))}
        for _ in range(n):
            counts[sample_bell_label(0.8, rng)] += 1
        for label, p in zip(counts, werner_bell_weights(0.8)):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[label] / n - p) <= 4 * sigma


class TestPureState:
    def test_purestate_keeps_its_checks(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState([1.0, 1.0])
        with pytest.raises(ValueError, match="not normalized"):
            PureState([math.nan, 0.0])
        for size in (1, 3, 4):
            with pytest.raises(ValueError, match="one-qubit state takes 2 amplitudes"):
                PureState(np.ones(size) / math.sqrt(size))
        # The 1e-7 norm tolerance is unchanged.
        PureState(np.array([1.0 + 5e-8, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0 + 2e-7, 0.0]))

    def test_state_fidelity_edges(self):
        zero, one = PureState([1.0, 0.0]), PureState([0.0, 1.0])
        plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert state_fidelity(zero, one) == pytest.approx(0.0)
        assert state_fidelity(zero, plus) == pytest.approx(0.5)
        assert state_fidelity(plus, PureState(-plus.amplitudes)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The reference simulator against full matrices and explicit projectors
# ---------------------------------------------------------------------------

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def _on_qubit(op, qubit, n):
    """Full 2^n-column matrix acting as ``op`` on one qubit, identity elsewhere."""
    return oracles.kron(*[op if k == qubit else oracles.I2 for k in range(n)])


def _cnot_matrix(control, target, n):
    flipped = [P1 if k == control else oracles.X if k == target else oracles.I2
               for k in range(n)]
    return _on_qubit(P0, control, n) + oracles.kron(*flipped)


class TestKernelCrossCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_single_qubit_gates_match_full_matrices(self, n):
        amps = _random_state(n, 100 + n)
        theta = 0.7 + n
        for q in range(n):
            for matrix in (oracles.H, oracles.X, oracles.Z, oracles.rz(theta)):
                state = amps.copy()
                out = oracles._apply_1q(state, matrix, q, n)
                expected = _on_qubit(matrix, q, n) @ amps
                np.testing.assert_allclose(out, expected, atol=1e-12)
                np.testing.assert_array_equal(state, amps)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cnot_matches_full_matrix_on_every_ordered_pair(self, n):
        amps = _random_state(n, 200 + n)
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        for control, target in pairs:
            state = amps.copy()
            out = oracles._apply_cnot(state, control, target, n)
            expected = _cnot_matrix(control, target, n) @ amps
            np.testing.assert_allclose(out, expected, atol=1e-12)
            np.testing.assert_array_equal(state, amps)

    def test_cz_is_symmetric(self):
        amps = _random_state(3, 5)
        ab = oracles.apply_cz(amps, 0, 2, 3)
        ba = oracles.apply_cz(amps, 2, 0, 3)
        assert abs(np.vdot(ab, ba)) ** 2 == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_measure_matches_explicit_projectors(self, n):
        amps = _random_state(n, 300 + n)
        # None is the Z basis; an angle theta is {|0> +/- e^{i theta}|1>}/sqrt(2).
        for theta in [None] + [k * math.pi / 4 for k in range(8)]:
            if theta is None:
                vectors = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
            else:
                phase = np.exp(1j * theta)
                vectors = (np.array([1, phase]) / math.sqrt(2),
                           np.array([1, -phase]) / math.sqrt(2))
            for q in range(n):
                probs = []
                for outcome, vec in enumerate(vectors):
                    projector = _on_qubit(np.outer(vec, vec.conj()), q, n)
                    prob = float(np.vdot(amps, projector @ amps).real)
                    probs.append(prob)
                    # <vec| on qubit q keeps the other qubits in order.
                    bra = _on_qubit(vec.conj()[None, :], q, n)
                    post = bra @ amps / math.sqrt(prob)
                    if theta is None:
                        got, rest = oracles._project(amps, q, outcome, n)
                    else:
                        got, rest = oracles._project_eq(amps, q, theta, outcome, n)
                    assert got == pytest.approx(prob, abs=1e-12)
                    assert rest.size == 1 << (n - 1)
                    np.testing.assert_allclose(rest, post, atol=1e-12)
                assert sum(probs) == pytest.approx(1.0, abs=1e-12)
