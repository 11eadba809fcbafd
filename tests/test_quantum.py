import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    ImpossibleBranchError,
    NonUnitaryError,
    SingleQubitState,
    TwoQubitState,
    apply_local,
    dark_state_phase,
    dual_basis_states,
    dual_projection_probability,
    evolution_unitary,
    haar_random_unitary,
    measure_dual,
    singlet_state,
)
from qclocksync.quantum import ClockSpecies, normalize_phase

SQ2 = 1.0 / math.sqrt(2.0)
CS = ClockSpecies("cs", 1.0)


class TestDualBasis:
    def test_phi_zero_matches_standard_pos_neg(self):
        pos, neg = dual_basis_states(0.0)
        np.testing.assert_allclose(pos.amps, [SQ2, SQ2], atol=1e-15)
        np.testing.assert_allclose(neg.amps, [SQ2, -SQ2], atol=1e-15)

    def test_phi_pi_pos_equals_neg_zero_up_to_phase(self):
        pos_pi, _ = dual_basis_states(math.pi)
        _, neg_0 = dual_basis_states(0.0)
        assert pos_pi.fidelity(neg_0) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_at_half_pi(self):
        pos, neg = dual_basis_states(math.pi / 2)
        assert abs(pos.overlap(neg)) < 1e-12
        assert pos.fidelity(pos) == pytest.approx(1.0, abs=1e-12)


def evolve(state, species, dt):
    """Free evolution of a single qubit by dt seconds, as the oracle evolves
    each party's qubit."""
    return SingleQubitState.from_array(evolution_unitary(species, dt) @ state.amps)


class TestEvolve:
    def test_identity_at_dt_zero(self):
        pos, _ = dual_basis_states(0.0)
        out = evolve(pos, CS, 0.0)
        np.testing.assert_allclose(out.amps, pos.amps)

    def test_full_period_up_to_global_phase(self):
        pos, _ = dual_basis_states(0.0)
        out = evolve(pos, CS, 2.0 * math.pi / CS.omega)
        assert out.fidelity(pos) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_squared_is_ramsey_cosine(self):
        pos, _ = dual_basis_states(0.0)
        for t in (0.1, 1.0, 2.7, 13.0):
            out = evolve(pos, CS, t)
            expected = 0.5 * (1.0 + math.cos(CS.omega * t))
            assert out.fidelity(pos) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_negative_dt_reverses(self):
        pos, _ = dual_basis_states(0.3)
        there = evolve(pos, CS, 1.7)
        back = evolve(there, CS, -1.7)
        assert back.fidelity(pos) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(-50.0, 50.0), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved(self, dt, phi):
        pos, _ = dual_basis_states(phi)
        out = evolve(pos, CS, dt)
        assert np.sum(np.abs(out.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestRamseyProbabilities:
    def test_trivial_points(self):
        pos, _ = dual_basis_states(0.0)
        assert evolve(pos, CS, 0.0).fidelity(pos) ** 2 == pytest.approx(1.0, abs=1e-15)
        half_period = evolve(pos, CS, math.pi / CS.omega)
        assert half_period.fidelity(pos) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_matches_state_vector_oracle(self):
        # Oracle: start in |pos_0>, evolve, project onto the dual basis rotated
        # so that measuring pos has phase lag equal to the requested offset;
        # the Ramsey law gives P(pos) = (1 + cos(omega t + offset))/2.
        rng = np.random.default_rng(123)
        for _ in range(200):
            omega = rng.uniform(0.1, 20.0)
            t = rng.uniform(0.0, 30.0)
            offset = rng.uniform(0.0, 2.0 * math.pi)
            species = ClockSpecies("x", omega)
            pos0, _ = dual_basis_states(0.0)
            state = evolve(pos0, species, t)
            pos_m, neg_m = dual_basis_states(-offset)
            p_oracle = abs(np.vdot(pos_m.amps, state.amps)) ** 2
            p0 = 0.5 * (1.0 + math.cos(omega * t + offset))
            assert p0 == pytest.approx(p_oracle, abs=1e-12)
            assert p_oracle + abs(np.vdot(neg_m.amps, state.amps)) ** 2 == \
                pytest.approx(1.0, abs=1e-15)


class TestSingletState:
    def test_eta_zero_amplitudes(self):
        s = singlet_state(0.0)
        np.testing.assert_allclose(s.amps, [0.0, SQ2, -SQ2, 0.0], atol=1e-15)

    def test_eta_pi_flips_sign(self):
        s = singlet_state(math.pi)
        np.testing.assert_allclose(s.amps, [0.0, SQ2, SQ2, 0.0], atol=1e-12)

    def test_dual_basis_form(self):
        # (|pos>_A|neg>_B - |neg>_A|pos>_B)/sqrt(2) is the same state for any
        # shared basis phase.
        for phi in (0.0, 0.9, math.pi, 5.0):
            pos, neg = dual_basis_states(phi)
            alt = SQ2 * (np.kron(pos.amps, neg.amps) - np.kron(neg.amps, pos.amps))
            fidelity = abs(np.vdot(alt, singlet_state(0.0).amps))
            assert fidelity == pytest.approx(1.0, abs=1e-12)


class TestApplyLocalAndDarkState:
    def test_identity(self):
        s = singlet_state(0.7)
        out = apply_local(s, np.eye(2), np.eye(2))
        np.testing.assert_allclose(out.amps, s.amps)

    def test_dark_state_invariance_random_unitaries(self):
        rng = np.random.default_rng(7)
        s = singlet_state(0.0)
        for _ in range(200):
            u = haar_random_unitary(rng)
            out = apply_local(s, u, u)
            assert out.fidelity(s) == pytest.approx(1.0, abs=1e-12)

    def test_eta_state_invariant_under_diagonal_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            eta = rng.uniform(0, 2 * math.pi)
            s = singlet_state(eta)
            u = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 2)))
            out = apply_local(s, u, u)
            assert out.fidelity(s) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryError):
            apply_local(singlet_state(), np.eye(2) * 1.5, np.eye(2))
        with pytest.raises(NonUnitaryError):
            dark_state_phase(np.ones((2, 2)))

    def test_dark_state_phase_examples(self):
        assert dark_state_phase(np.eye(2)) == pytest.approx(0.0, abs=1e-12)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert dark_state_phase(hadamard) == pytest.approx(math.pi, abs=1e-9)
        alpha, beta = 0.6, 2.1
        u = np.diag([np.exp(1j * alpha), np.exp(1j * beta)])
        assert dark_state_phase(u) == pytest.approx(
            normalize_phase(alpha + beta), abs=1e-12)

    def test_dark_state_phase_consistent_with_apply_local(self):
        rng = np.random.default_rng(9)
        s = singlet_state(0.0)
        for _ in range(50):
            u = haar_random_unitary(rng)
            phase = dark_state_phase(u)
            out = apply_local(s, u, u)
            np.testing.assert_allclose(out.amps, np.exp(1j * phase) * s.amps,
                                       atol=1e-12)


class TestMeasureDual:
    def test_collapse_branches_of_the_singlet(self):
        s = singlet_state(0.0)
        pos, neg = dual_basis_states(0.0)
        out, post = measure_dual(s, "A", 0.0, 0.3)
        assert out == "pos"
        expected = np.kron(pos.amps, neg.amps)
        assert abs(np.vdot(expected, post.amps)) == pytest.approx(1.0, abs=1e-12)
        out, post = measure_dual(s, "A", 0.0, 0.7)
        assert out == "neg"
        expected = np.kron(neg.amps, pos.amps)
        assert abs(np.vdot(expected, post.amps)) == pytest.approx(1.0, abs=1e-12)

    def test_pos_probability_is_half_for_any_eta_and_phi(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            s = singlet_state(rng.uniform(0, 2 * math.pi))
            phi = rng.uniform(0, 2 * math.pi)
            party = "A" if rng.random() < 0.5 else "B"
            assert dual_projection_probability(s, party, phi) == pytest.approx(
                0.5, abs=1e-12)

    def test_anti_correlation_in_shared_basis(self):
        # Both parties measuring the singlet in the same dual basis always see
        # opposite outcomes, for any shared phi.
        rng = np.random.default_rng(11)
        for _ in range(100):
            phi = rng.uniform(0, 2 * math.pi)
            out_a, post = measure_dual(singlet_state(0.0), "A", phi, rng.random())
            out_b, _ = measure_dual(post, "B", phi, rng.random())
            assert out_a != out_b

    def test_deterministic_given_draw(self):
        s = singlet_state(0.0)
        a = measure_dual(s, "B", 1.1, 0.25)
        b = measure_dual(s, "B", 1.1, 0.25)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1].amps, b[1].amps)

    def test_impossible_branch_rejected(self):
        pos, neg = dual_basis_states(0.0)
        # Alice almost exactly |pos>: the neg branch has probability ~9e-16,
        # below the representable floor, yet a draw just under 1 selects it.
        eps = 3e-8
        a = (pos.amps + eps * neg.amps) / math.sqrt(1 + eps**2)
        product = np.kron(a, neg.amps)
        state = TwoQubitState(product)
        with pytest.raises(ImpossibleBranchError):
            measure_dual(state, "A", 0.0, np.nextafter(1.0, 0.0))

    def test_basis_phase_covariance_of_marginal(self):
        # singlet marginals are phi-independent: P(pos) = 1/2 exactly
        for phi in np.linspace(0, 2 * math.pi, 17):
            assert dual_projection_probability(singlet_state(0.0), "B", phi) == \
                pytest.approx(0.5, abs=1e-12)


class TestValidation:
    def test_states_must_be_normalized(self):
        with pytest.raises(ValueError):
            SingleQubitState(1.0, 1.0)

    def test_species_must_have_positive_omega(self):
        with pytest.raises(ValueError):
            ClockSpecies("bad", -1.0)

    @pytest.mark.parametrize("name", ["", None, 3])
    def test_species_must_have_a_name(self, name):
        with pytest.raises(ValueError) as info:
            ClockSpecies(name, 1.0)
        assert info.value.param == "name"

    def test_basis_phase_normalized(self):
        assert normalize_phase(-0.5) == pytest.approx(2 * math.pi - 0.5)
        assert normalize_phase(2 * math.pi) == 0.0
