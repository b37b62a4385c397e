"""Unit tests for the quantum resource primitives and the statevector oracle."""

import math

import numpy as np
import pytest

import oracles
from oneq.errors import ResourceError
from oneq.qcore import (
    MAX_QUBITS,
    MeasurementBasis,
    PureState,
    WernerPair,
    X_BASIS,
    Z_BASIS,
    apply_cz,
    bell_state,
    decay,
    equatorial_state,
    fidelity_of,
    ghz_state,
    measure_pair,
    oracle_apply,
    oracle_measure,
    sample_bell_label,
    state_fidelity,
    touch,
    w_for_fidelity,
    werner_bell_weights,
)


class TestWernerScalars:
    def test_fidelity_anchors(self):
        assert fidelity_of(1.0) == 1.0
        assert fidelity_of(0.0) == 0.25
        assert fidelity_of(0.6) == pytest.approx(0.7)

    @pytest.mark.parametrize("w", [0.0, 0.17, 0.5, 0.93, 1.0])
    def test_fidelity_roundtrip(self, w):
        assert w_for_fidelity(fidelity_of(w)) == pytest.approx(w, abs=1e-12)

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
        rng = np.random.default_rng(0)
        pair = WernerPair(id="p", holders=("a", "b"), w=1.0, created_at=0.0)
        with pytest.raises(ValueError):
            measure_pair(pair, MeasurementBasis.equatorial(0.3), Z_BASIS, rng)

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

    def test_bell_state_convention_matches_reference(self):
        # (x, z) means X^x Z^z on the first qubit; same table as the oracle
        # module builds its swap circuit from.
        for x in (0, 1):
            for z in (0, 1):
                mine = bell_state(x, z).amplitudes
                ref = oracles.bell_vec(x, z)
                assert abs(abs(np.vdot(mine, ref)) - 1.0) < 1e-12


class TestStatevector:
    def test_purestate_validation(self):
        with pytest.raises(ValueError):
            PureState([1.0, 0.0, 0.0])  # not a power of two
        with pytest.raises(ValueError):
            PureState([0.9, 0.1])  # not normalized
        assert abs(PureState.zeros(3).amplitudes[0]) ** 2 == 1.0

    def test_h_is_involutive(self):
        state = PureState.zeros(1)
        once = oracle_apply(state, "H", (0,))
        twice = oracle_apply(once, "H", (0,))
        assert state_fidelity(twice, state) == pytest.approx(1.0)

    def test_cnot_truth_table(self):
        # |10> -> |11>
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        out = oracle_apply(PureState(amps), "CNOT", (0, 1))
        assert abs(out.amplitudes[3]) ** 2 == pytest.approx(1.0)

    def test_rz_needs_theta_and_unknown_gate_rejected(self):
        state = PureState.zeros(1)
        with pytest.raises(ValueError):
            oracle_apply(state, "RZ", (0,))
        with pytest.raises(ValueError):
            oracle_apply(state, "SWAP", (0,))

    def test_cz_is_symmetric(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = PureState(amps)
        ab = apply_cz(state, 0, 2)
        ba = apply_cz(state, 2, 0)
        assert state_fidelity(ab, ba) == pytest.approx(1.0)

    def test_measure_removes_qubit_and_collapses(self):
        rng = np.random.default_rng(9)
        outcome, rest = oracle_measure(PureState.zeros(2), 0, Z_BASIS, rng)
        assert outcome == 0 and rest.n_qubits == 1

    def test_equatorial_eigenstate_is_deterministic(self):
        rng = np.random.default_rng(10)
        theta = 1.234
        state = equatorial_state(theta)
        for _ in range(20):
            outcome, _ = oracle_measure(state, 0, MeasurementBasis.equatorial(theta), rng)
            assert outcome == 0

    def test_born_statistics_match_probabilities(self):
        rng = np.random.default_rng(13)
        amps = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        state = PureState(amps)
        n = 20_000
        ones = sum(oracle_measure(state, 0, Z_BASIS, rng)[0] for _ in range(n))
        assert abs(ones / n - 0.64) <= 3 * math.sqrt(0.64 * 0.36 / n)

    def test_state_fidelity_edges(self):
        zero = PureState.zeros(1)
        one = oracle_apply(zero, "X", (0,))
        assert state_fidelity(zero, one) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            state_fidelity(zero, PureState.zeros(2))


class TestGhz:
    def test_ghz_state_amplitudes(self):
        state = ghz_state(3)
        probs = abs(state.amplitudes) ** 2
        assert probs[0] == pytest.approx(0.5)
        assert probs[-1] == pytest.approx(0.5)

    def test_x_reduce_statevector_semantics(self):
        # X-measuring one leg of a 3-party GHZ leaves |phi+> up to a Z
        # keyed by the outcome, which is what the correction bit encodes.
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(40):
            outcome, rest = oracle_measure(ghz_state(3), 0, X_BASIS, rng)
            target = bell_state(0, outcome)
            assert state_fidelity(rest, target) == pytest.approx(1.0)
            seen.add(outcome)
        assert seen == {0, 1}


# ---------------------------------------------------------------------------
# Statevector kernel against full matrices and explicit projectors
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


class _FixedDraw:
    """Stands in for a Generator: random() always returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestKernelCrossCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_single_qubit_gates_match_full_matrices(self, n):
        amps = _random_state(n, 100 + n)
        theta = 0.7 + n
        gates = [("H", None, oracles.H), ("X", None, oracles.X),
                 ("Z", None, oracles.Z), ("RZ", theta, oracles.rz(theta))]
        for q in range(n):
            for name, angle, matrix in gates:
                state = PureState(amps.copy())
                out = oracle_apply(state, name, (q,), theta=angle)
                expected = _on_qubit(matrix, q, n) @ amps
                np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
                np.testing.assert_array_equal(state.amplitudes, amps)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cnot_matches_full_matrix_on_every_ordered_pair(self, n):
        amps = _random_state(n, 200 + n)
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        for control, target in pairs:
            state = PureState(amps.copy())
            out = oracle_apply(state, "CNOT", (control, target))
            expected = _cnot_matrix(control, target, n) @ amps
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
            np.testing.assert_array_equal(state.amplitudes, amps)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_measure_matches_explicit_projectors(self, n):
        amps = _random_state(n, 300 + n)
        bases = [Z_BASIS, X_BASIS] + [MeasurementBasis.equatorial(k * math.pi / 4)
                                      for k in range(8)]
        for basis in bases:
            phase = np.exp(1j * basis.theta)
            if basis.kind == "Z":
                vectors = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
            else:
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
                    draw = 0.0 if outcome == 0 else np.nextafter(1.0, 0.0)
                    got, rest = oracle_measure(PureState(amps), q, basis, _FixedDraw(draw))
                    assert got == outcome
                    assert rest.n_qubits == n - 1
                    np.testing.assert_allclose(rest.amplitudes, post, atol=1e-12)
                assert sum(probs) == pytest.approx(1.0, abs=1e-12)
                # The outcome flips where the draw crosses P(0).
                for draw, outcome in ((probs[0] - 1e-9, 0), (probs[0] + 1e-9, 1)):
                    assert oracle_measure(PureState(amps), q, basis,
                                          _FixedDraw(draw))[0] == outcome

    def test_purestate_keeps_its_checks(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState([1.0, 1.0])
        with pytest.raises(ValueError, match="not normalized"):
            PureState([math.nan, 0.0])
        with pytest.raises(ValueError, match="power of two"):
            PureState(np.ones(6) / math.sqrt(6))
        over = np.zeros(1 << (MAX_QUBITS + 1), dtype=complex)
        over[0] = 1.0
        with pytest.raises(ValueError, match="cap"):
            PureState(over)
        # The 1e-7 norm tolerance is unchanged.
        PureState(np.array([1.0 + 5e-8, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0 + 2e-7, 0.0]))

    def test_tensor_products_are_validated(self):
        with pytest.raises(ValueError, match="cap"):
            PureState.zeros(MAX_QUBITS // 2 + 1).tensor(PureState.zeros(MAX_QUBITS // 2))
        unnormalised = PureState.zeros(1)
        unnormalised.amplitudes = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="not normalized"):
            unnormalised.tensor(PureState.zeros(1))
        ragged = PureState.zeros(1)
        ragged.amplitudes = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="power of two"):
            ragged.tensor(PureState.zeros(1))
        pair = PureState(_random_state(1, 1)).tensor(PureState(_random_state(2, 2)))
        np.testing.assert_allclose(
            pair.amplitudes, np.kron(_random_state(1, 1), _random_state(2, 2)), atol=1e-15)
