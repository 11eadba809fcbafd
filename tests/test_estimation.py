import math

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclocksync.ensemble import PopulationSeries
from qclocksync.errors import EstimationError, InconclusiveError, RankDeficientError
from qclocksync.estimation import (
    BeatSeries,
    _envelope_basis,
    _profile,
    _stationary_phases,
    beat_difference,
    envelope_phase,
    PhaseEstimate,
    estimate_phase,
    first_envelope_maximum,
    fit_phases,
)
from qclocksync.quantum import ClockSpecies, circular_difference

CS = ClockSpecies("cs", 3.0)


def _synthetic_series(omega, phase, times, batch=10_000, rng=None):
    """Counts drawn from (or, with rng=None, exactly equal to) the Ramsey law."""
    times = np.asarray(times, dtype=np.float64)
    p = 0.5 * (1.0 + np.cos(omega * times + phase))
    if rng is None:
        c_pos = p * batch
    else:
        c_pos = rng.binomial(batch, p).astype(np.float64)
    b = np.full_like(times, float(batch))
    return PopulationSeries(times, c_pos, b - c_pos, b)


def _beat_series(omega1, omega2, delta, times, batch=10_000, rng=None,
                 phase1=None, phase2=None):
    # delta is a shared per-party basis offset: it shifts both tones equally,
    # so it lives in the fast factor and leaves the beat envelope untouched
    if phase1 is None:
        phase1 = delta
    if phase2 is None:
        phase2 = delta
    s1 = _synthetic_series(omega1, phase1, times, batch, rng)
    s2 = _synthetic_series(omega2, phase2, times, batch, rng)
    return beat_difference(s1, s2)


class TestEstimatePhase:
    def test_noiseless_recovery(self):
        times = np.linspace(0.05, 4.0, 25)
        for phase in (0.0, 0.4, 1.234, math.pi, 5.9):
            series = _synthetic_series(CS.omega, phase, times)
            est = estimate_phase(series, CS)
            assert abs(circular_difference(est.phase, phase)) < 1e-9
            assert est.n_samples_used == 25

    def test_noisy_recovery_within_sigma(self):
        rng = np.random.default_rng(50)
        times = np.linspace(0.05, 4.0, 20)
        series = _synthetic_series(CS.omega, 1.234, times, batch=10_000, rng=rng)
        est = estimate_phase(series, CS)
        assert abs(circular_difference(est.phase, 1.234)) < 4 * est.sigma
        assert est.sigma < 0.01

    def test_coverage_is_calibrated(self):
        # reported sigma should be an honest 1-standard-error bar: the true
        # phase lands inside +/- sigma in roughly 68 percent of trials
        rng = np.random.default_rng(51)
        times = np.linspace(0.05, 4.0, 15)
        hits = 0
        trials = 1000
        for _ in range(trials):
            series = _synthetic_series(CS.omega, 0.9, times, batch=400, rng=rng)
            est = estimate_phase(series, CS)
            if abs(circular_difference(est.phase, 0.9)) < est.sigma:
                hits += 1
        assert 0.63 <= hits / trials <= 0.73

    def test_sigma_scales_as_inverse_sqrt_batch(self):
        rng = np.random.default_rng(52)
        times = np.linspace(0.05, 4.0, 15)
        sigmas = []
        for batch in (100, 10_000):
            series = _synthetic_series(CS.omega, 0.5, times, batch=batch, rng=rng)
            sigmas.append(estimate_phase(series, CS).sigma)
        ratio = sigmas[0] / sigmas[1]
        assert ratio == pytest.approx(10.0, rel=0.2)

    def test_consistent_across_batch_sizes(self):
        rng = np.random.default_rng(53)
        times = np.linspace(0.05, 4.0, 15)
        for batch in (100, 1_000, 10_000, 100_000):
            series = _synthetic_series(CS.omega, 2.2, times, batch=batch, rng=rng)
            est = estimate_phase(series, CS)
            assert abs(circular_difference(est.phase, 2.2)) < 5 * est.sigma

    def test_wraparound_phases(self):
        times = np.linspace(0.05, 4.0, 12)
        for phase in (2 * math.pi - 1e-3, 1e-3):
            series = _synthetic_series(CS.omega, phase, times)
            est = estimate_phase(series, CS)
            assert abs(circular_difference(est.phase, phase)) < 1e-9

    def test_requires_three_distinct_times(self):
        series = _synthetic_series(CS.omega, 0.1, [0.3, 0.9])
        with pytest.raises(RankDeficientError):
            estimate_phase(series, CS)

    def test_constant_series_rejected(self):
        # omega*t stepping by exactly 2*pi makes cos/sin columns constant
        times = np.arange(1, 6) * (2 * math.pi / CS.omega)
        series = _synthetic_series(CS.omega, 0.4, times)
        with pytest.raises(RankDeficientError):
            estimate_phase(series, CS)


def _plain_fit(series, omega):
    """oracle.estimate_phase's estimate, or the EstimationError it raises."""
    try:
        return oracle.estimate_phase(series, ClockSpecies("cs", omega))
    except EstimationError as exc:
        return exc


def _assert_same_fit(got, want):
    """got has want's bits, or is an error of want's type, message and param."""
    if isinstance(want, EstimationError):
        assert type(got) is type(want)
        assert (str(got), getattr(got, "param", None)) == (str(want), getattr(want, "param", None))
    else:
        assert type(got) is PhaseEstimate
        for name in ("phase", "sigma", "residual", "n_samples_used"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def _assert_stack_is_plain(series, omegas):
    fits = fit_phases(series, omegas)
    assert len(fits) == len(series)
    for one, omega, fit in zip(series, omegas, fits):
        want = _plain_fit(one, omega)
        _assert_same_fit(fit, want)
        try:  # the one-series form
            alone = estimate_phase(one, ClockSpecies("cs", omega))
        except EstimationError as exc:
            alone = exc
        _assert_same_fit(alone, want)


def _counts(times, batch, count_pos):
    b = np.broadcast_to(np.asarray(batch, dtype=np.float64), np.shape(times))
    c = np.broadcast_to(np.asarray(count_pos, dtype=np.float64), np.shape(times))
    return PopulationSeries(times, c, b - c, b)


class TestFitPhases:
    """fit_phases stacks series of one length into one solve; every fit must
    have the bits, and every failure the type and message, of the plain
    per-series fit in tests/oracle.py."""

    def test_sweep_sized_stack_is_plain(self):
        # a baseline-sweep cell: 20 runs x 2 parties, 10 points of 500 pairs
        rng = np.random.default_rng(90)
        times = np.linspace(0.0, 6.0, 10)
        series = [_synthetic_series(1.0, rng.uniform(0, 2 * math.pi), times + shift, 500, rng)
                  for shift in (0.0, 3.3e-6) for _ in range(20)]
        _assert_stack_is_plain(series, [1.0] * 40)

    def test_mixed_stack_is_plain(self):
        rng = np.random.default_rng(91)
        times = np.linspace(0.05, 4.0, 12)
        good = [_synthetic_series(omega, rng.uniform(0, 2 * math.pi), times, batch, rng)
                for omega, batch in ((3.0, 400), (1.3, 50), (2.2, 5000))]
        series = [
            good[0],
            _synthetic_series(3.0, 0.1, [0.3, 0.9]),  # 2 distinct times
            _counts(np.repeat([0.3, 0.9], 6), 400, 100.0),  # 12 points, 2 distinct
            _counts(times, np.where(np.arange(12) == 5, 0, 400), 0.0),  # an empty batch
            good[1],
            # omega * t stepping by 2 pi: constant cos and sin columns
            _synthetic_series(3.0, 0.4, np.arange(1, 13) * (2 * math.pi / 3.0)),
            _counts(times, 400, 0.0),  # no pos counts: amplitude exactly zero
            _counts(np.array([]), 400, 0.0),  # no points at all
            _synthetic_series(3.0, 0.7, np.linspace(0.05, 4.0, 25)),  # a length of its own
            good[2],
        ]
        omegas = [3.0, 3.0, 3.0, 3.0, 1.3, 3.0, 3.0, 3.0, 3.0, 2.2]
        fits = fit_phases(series, omegas)
        assert [type(f).__name__ for f in fits] == [
            "PhaseEstimate", "RankDeficientError", "RankDeficientError", "EstimationError",
            "PhaseEstimate", "RankDeficientError", "EstimationError", "RankDeficientError",
            "PhaseEstimate", "PhaseEstimate"]
        _assert_stack_is_plain(series, omegas)

    def test_empty_call(self):
        assert fit_phases([], []) == []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(
        st.sampled_from([1.0, 3.0, 2 * math.pi]),
        st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0, 1.7, 2.0, 3.5]),
                           st.integers(0, 60), st.just(0.0) | st.floats(0.0, 1.0)),
                 max_size=7)), max_size=12))
    def test_any_stack_is_plain(self, runs):
        # few sample times, so repeated and whole-period times are common, and
        # pos fractions of 0, so zero-amplitude series are too
        series, omegas = [], []
        for omega, points in runs:
            batch = np.array([p[1] for p in points], dtype=np.float64)
            count_pos = np.floor(batch * np.array([p[2] for p in points]))
            series.append(_counts(np.array([p[0] for p in points]), batch, count_pos))
            omegas.append(omega)
        _assert_stack_is_plain(series, omegas)


class TestBeatDifference:
    def test_requires_identical_grids(self):
        s1 = _synthetic_series(1.0, 0.0, [0.1, 0.2, 0.3])
        s2 = _synthetic_series(1.0, 0.0, [0.1, 0.2, 0.4])
        with pytest.raises(EstimationError):
            beat_difference(s1, s2)

    def test_antisymmetry(self):
        times = np.linspace(0.1, 2.0, 9)
        s1 = _synthetic_series(1.0, 0.2, times)
        s2 = _synthetic_series(1.5, 0.9, times)
        fwd = beat_difference(s1, s2)
        rev = beat_difference(s2, s1)
        np.testing.assert_allclose(fwd.diff, -rev.diff)
        np.testing.assert_allclose(fwd.sigma, rev.sigma)

    def test_matches_product_identity(self):
        # cos x - cos y = -2 sin((x+y)/2) sin((x-y)/2); with p = (1+cos)/2 the
        # difference halves that
        omega1, omega2, phase = 2.0, 2.4, 0.3
        times = np.linspace(0.05, 8.0, 40)
        beats = _beat_series(omega1, omega2, phase, times)
        w_e = (omega1 - omega2) / 2.0
        w_f = (omega1 + omega2) / 2.0
        expected = -np.sin(w_f * times + phase) * np.sin(w_e * times)
        np.testing.assert_allclose(beats.diff, expected, atol=1e-12)

    def test_sigma_propagates_in_quadrature(self):
        times = [0.1, 0.2, 0.3]
        batch = np.array([100.0, 100.0, 100.0])
        s1 = PopulationSeries(times, [50, 50, 50], [50, 50, 50], batch)
        beats = beat_difference(s1, s1)
        single = math.sqrt(((50 + 0.5) / 101) * (1 - (50 + 0.5) / 101) / 100)
        np.testing.assert_allclose(beats.sigma, math.sqrt(2) * single, rtol=1e-12)


OMEGA1, OMEGA2 = 2.0, 2.2  # delta_omega = 0.2, first envelope max at 5 pi


class TestEnvelopePhase:
    def test_noiseless_envelope_phase_is_zero(self):
        times = np.linspace(0.02, 25.0, 600)
        beats = _beat_series(OMEGA1, OMEGA2, 0.7, times)
        est = envelope_phase(beats, OMEGA1, OMEGA2)
        assert min(est.phase, math.pi - est.phase) < 1e-6

    def test_delta_immunity_noiseless(self):
        # the fitted envelope phase must not move with the basis-phase offset
        times = np.linspace(0.02, 25.0, 600)
        phases = []
        for delta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            beats = _beat_series(OMEGA1, OMEGA2, delta, times)
            phases.append(envelope_phase(beats, OMEGA1, OMEGA2).phase)
        folded = [min(p, math.pi - p) for p in phases]
        assert max(folded) < 1e-6

    def test_noisy_coverage(self):
        rng = np.random.default_rng(60)
        times = np.linspace(0.02, 25.0, 250)
        hits = 0
        trials = 300
        for _ in range(trials):
            beats = _beat_series(OMEGA1, OMEGA2, 0.4, times, batch=2_000, rng=rng)
            est = envelope_phase(beats, OMEGA1, OMEGA2)
            err = min(est.phase, math.pi - est.phase)
            if err < est.sigma:
                hits += 1
        assert 0.58 <= hits / trials <= 0.78

    def test_under_resolved_grid_rejected(self):
        times = np.linspace(0.5, 25.0, 20)  # spacing > pi/(omega1+omega2)
        beats = _beat_series(OMEGA1, OMEGA2, 0.0, times)
        with pytest.raises(EstimationError):
            envelope_phase(beats, OMEGA1, OMEGA2)

    def test_identical_frequencies_rejected(self):
        times = np.linspace(0.02, 25.0, 600)
        beats = _beat_series(OMEGA1, OMEGA2, 0.0, times)
        with pytest.raises(EstimationError):
            envelope_phase(beats, 2.0, 2.0)

    def test_pure_noise_is_inconclusive(self):
        rng = np.random.default_rng(61)
        times = np.linspace(0.02, 25.0, 250)
        diff = rng.normal(0.0, 0.005, times.shape[0]).clip(-1, 1)
        beats = BeatSeries(times, diff, np.full(times.shape[0], 0.005))
        with pytest.raises(InconclusiveError):
            envelope_phase(beats, OMEGA1, OMEGA2)


FAST_GRID = np.linspace(0.0, math.pi, 97)[:-1]  # a reference grid of fast phases


def _per_point_solves(beats, omega1, omega2):
    """Reference: chi2 and (P, Q) from one direct weighted least-squares
    solve per grid point; inf and NaN where the design is rank deficient."""
    linear_fit = oracle.envelope_subproblem(beats, omega1, omega2)
    chis, betas = [], []
    for psi in FAST_GRID:
        try:
            beta, _cov, chi2 = linear_fit(psi)
        except RankDeficientError:
            beta, chi2 = (math.nan, math.nan), math.inf
        chis.append(chi2)
        betas.append(beta)
    return np.array(chis), np.array(betas)


def _gram(beats, omega1, omega2):
    """envelope_phase's Gram matrix, moment vector and yy for beats."""
    basis, yw = _envelope_basis(beats, omega1, omega2)
    return basis.T @ basis, basis.T @ yw, float(yw @ yw)


def _grid_profile(beats, omega1, omega2):
    """The reference grid's chi2 and (P, Q) from envelope_phase's closed-form
    profile, in one array pass."""
    chi2, p_coef, q_coef = _profile(*_gram(beats, omega1, omega2), FAST_GRID)
    return chi2, np.stack([p_coef, q_coef], axis=-1)


def _noisy_beats(seed, batch):
    rng = np.random.default_rng(seed)
    omega1 = rng.uniform(1.5, 2.5)
    omega2 = omega1 + rng.uniform(0.15, 0.25)
    times = np.linspace(0.2, 1.5 * math.pi / (omega2 - omega1), 400)
    return _beat_series(omega1, omega2, rng.uniform(0, 2 * math.pi), times, batch, rng), \
        omega1, omega2


def _near_floor_beats(seed):
    # envelope amplitude 2-6 x the per-point sigma, around the 3 x floor cut
    rng = np.random.default_rng(seed)
    times = np.linspace(0.02, 25.0, 400)
    sigma = 0.05
    w_e, w_f = (OMEGA2 - OMEGA1) / 2.0, (OMEGA1 + OMEGA2) / 2.0
    clean = (rng.uniform(2.0, 6.0) * sigma * np.sin(w_e * times + rng.uniform(0, math.pi))
             * np.sin(w_f * times + rng.uniform(0, 2 * math.pi)))
    diff = np.clip(clean + rng.normal(0.0, sigma, times.shape[0]), -1.0, 1.0)
    return BeatSeries(times, diff, np.full(times.shape[0], sigma))


class TestProfileGrid:
    def _assert_grid_matches(self, beats, omega1, omega2):
        ref, ref_beta = _per_point_solves(beats, omega1, omega2)
        vec, beta = _grid_profile(beats, omega1, omega2)
        assert not np.isnan(vec).any()
        np.testing.assert_allclose(vec, ref, rtol=1e-10, atol=0.0)
        assert np.argmin(vec) == np.argmin(ref)
        # rtol on the vector (P, Q): a coefficient near 0 has no relative
        # accuracy of its own, since both fits round at the amplitude's scale
        full = np.isfinite(ref)
        err = np.linalg.norm(beta[full] - ref_beta[full], axis=-1)
        assert np.all(err <= 1e-10 * np.linalg.norm(ref_beta[full], axis=-1))

    @pytest.mark.parametrize("batch", [20, 50, 500])
    def test_noisy_grid_equals_per_point_solves(self, batch):
        for seed in range(70):
            self._assert_grid_matches(*_noisy_beats(8000 + 100 * batch + seed, batch))

    def test_noiseless_grid_equals_per_point_solves(self):
        times = np.linspace(0.02, 25.0, 600)
        self._assert_grid_matches(_beat_series(OMEGA1, OMEGA2, 0.7, times), OMEGA1, OMEGA2)

    def test_near_noise_floor_grid_equals_per_point_solves(self):
        for seed in range(40):
            self._assert_grid_matches(_near_floor_beats(9000 + seed), OMEGA1, OMEGA2)

    def test_degenerate_series_is_rank_deficient_everywhere(self):
        # all times 0: the se column vanishes, so every grid point's normal
        # matrix is singular and its closed-form chi2 is 0/0; none is NaN
        beats = BeatSeries(np.zeros(8), np.full(8, 0.1), np.full(8, 0.01))
        assert np.all(np.isposinf(_grid_profile(beats, OMEGA1, OMEGA2)[0]))
        assert np.all(np.isposinf(_per_point_solves(beats, OMEGA1, OMEGA2)[0]))
        with pytest.raises(RankDeficientError):
            envelope_phase(beats, OMEGA1, OMEGA2)


def _profile_grid_series():
    """The 251 series TestProfileGrid checks, as (beats, omega1, omega2)."""
    for batch in (20, 50, 500):
        for seed in range(70):
            yield _noisy_beats(8000 + 100 * batch + seed, batch)
    yield _beat_series(OMEGA1, OMEGA2, 0.7, np.linspace(0.02, 25.0, 600)), OMEGA1, OMEGA2
    for seed in range(40):
        yield _near_floor_beats(9000 + seed), OMEGA1, OMEGA2


DENSE_GRID = np.linspace(0.0, math.pi, 4097)[:-1]


def _outcome(fit, *args):
    try:
        return fit(*args)
    except (EstimationError, InconclusiveError) as exc:
        return exc


class TestEnvelopeReference:
    def test_closed_form_fit_is_close_to_per_point_fit(self):
        """envelope_phase against the per-point-solve fit of the oracle: the
        same outcome, estimates that differ by last-bit chi2 noise, and a
        fast phase at the profile's global minimum."""
        for beats, omega1, omega2 in _profile_grid_series():
            got = _outcome(envelope_phase, beats, omega1, omega2)
            want = _outcome(oracle.envelope_phase, beats, omega1, omega2)
            assert type(got) is type(want)
            # no point of a dense grid lies below the least chi2 among the
            # stationary phases, which envelope_phase takes
            gram, moment, yy = _gram(beats, omega1, omega2)
            dense_min = np.min(_profile(gram, moment, yy, DENSE_GRID)[0])
            fitted = np.min(_profile(gram, moment, yy, _stationary_phases(gram, moment))[0])
            assert fitted <= dense_min + 1e-12 * yy
            if not isinstance(want, PhaseEstimate):
                continue
            assert got.residual <= dense_min + 1e-12 * yy
            shift = circular_difference(got.phase, want.phase, period=math.pi)
            assert abs(shift) <= 1e-6 * want.sigma
            assert got.sigma == pytest.approx(want.sigma, rel=1e-7, abs=0.0)
            assert 0.0 <= got.residual
            assert abs(got.residual - want.residual) <= 1e-9 * yy
            assert got.n_samples_used == want.n_samples_used


class TestFirstEnvelopeMaximum:
    def test_noiseless_position(self):
        times = np.linspace(0.02, 25.0, 600)
        beats = _beat_series(OMEGA1, OMEGA2, 0.9, times)
        t_max, sigma = first_envelope_maximum(beats, OMEGA1, OMEGA2)
        assert t_max == pytest.approx(math.pi / 0.2, abs=1e-6)
        assert t_max == pytest.approx(15.707963, abs=1e-5)

    def test_scaling_with_delta_omega(self):
        for d_omega in (0.1, 0.2, 0.5):
            omega2 = OMEGA1 + d_omega
            stop = 1.3 * math.pi / d_omega
            times = np.linspace(0.02, stop, 900)
            beats = _beat_series(OMEGA1, omega2, 0.3, times)
            t_max, _ = first_envelope_maximum(beats, OMEGA1, omega2)
            assert t_max == pytest.approx(math.pi / d_omega, rel=1e-6)

    def test_noisy_within_sigma(self):
        rng = np.random.default_rng(62)
        times = np.linspace(0.02, 25.0, 250)
        hits = 0
        trials = 100
        for _ in range(trials):
            beats = _beat_series(OMEGA1, OMEGA2, 0.5, times, batch=5_000, rng=rng)
            t_max, sigma = first_envelope_maximum(beats, OMEGA1, OMEGA2)
            if abs(t_max - math.pi / 0.2) < 3 * sigma:
                hits += 1
        assert hits >= 95

    def test_window_must_bracket_the_maximum(self):
        times = np.linspace(0.02, 10.0, 300)  # ends before t = 5 pi
        beats = _beat_series(OMEGA1, OMEGA2, 0.0, times)
        with pytest.raises(InconclusiveError):
            first_envelope_maximum(beats, OMEGA1, OMEGA2)


class TestBeatSeriesValidation:
    def test_rejects_out_of_range_diff(self):
        with pytest.raises(ValueError):
            BeatSeries([0.0], [1.5], [0.1])

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            BeatSeries([0.0], [0.5], [-0.1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            BeatSeries([0.0, 1.0], [0.5], [0.1])

    # NaN passes both range checks; unchecked, it failed in envelope_phase
    # as a bare ValueError from normalize_phase
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, column, bad):
        columns = [np.linspace(0.0, 10.0, 200), np.full(200, 0.1), np.full(200, 0.01)]
        columns[column][7] = bad
        with pytest.raises(ValueError, match="finite"):
            BeatSeries(*columns)
