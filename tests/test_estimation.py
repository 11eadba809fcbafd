import math

import numpy as np
import pytest

from qclocksync.ensemble import PopulationSeries
from qclocksync.errors import EstimationError, InconclusiveError, RankDeficientError
from qclocksync.estimation import (
    BeatSeries,
    _beat_weights,
    _bounded_brent,
    _profile_chi2,
    _weighted_lstsq,
    beat_difference,
    envelope_phase,
    estimate_phase,
    first_envelope_maximum,
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


FAST_GRID = np.linspace(0.0, math.pi, 97)[:-1]  # envelope_phase's psi_fast grid


def _per_point_chi2(beats, omega1, omega2):
    """Reference: one direct weighted least-squares solve per grid point."""
    w_e, w_f = abs(omega1 - omega2) / 2.0, (omega1 + omega2) / 2.0
    t, w = beats.times, _beat_weights(beats)
    ce, se = np.cos(w_e * t), np.sin(w_e * t)
    chis = []
    for psi in FAST_GRID:
        s = np.sin(w_f * t + psi)
        try:
            chis.append(_weighted_lstsq(np.column_stack([ce * s, se * s]), beats.diff, w)[2])
        except RankDeficientError:
            chis.append(math.inf)
    return np.array(chis)


def _grid_chi2(beats, omega1, omega2):
    """The grid as envelope_phase profiles it, in one array pass."""
    w_e, w_f = abs(omega1 - omega2) / 2.0, (omega1 + omega2) / 2.0
    t = beats.times
    return _profile_chi2(np.cos(w_e * t), np.sin(w_e * t), w_f * t, beats.diff,
                         _beat_weights(beats), FAST_GRID)


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
        ref = _per_point_chi2(beats, omega1, omega2)
        vec = _grid_chi2(beats, omega1, omega2)
        assert not np.isnan(vec).any()
        np.testing.assert_allclose(vec, ref, rtol=1e-10, atol=0.0)
        assert np.argmin(vec) == np.argmin(ref)

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
        assert np.all(np.isposinf(_grid_chi2(beats, OMEGA1, OMEGA2)))
        assert np.all(np.isposinf(_per_point_chi2(beats, OMEGA1, OMEGA2)))
        with pytest.raises(RankDeficientError):
            envelope_phase(beats, OMEGA1, OMEGA2)


def _polish_problem(beats, omega1, omega2):
    """envelope_phase's polish: its chi2 closure and the bracket of +-1 grid
    step around the grid's argmin."""
    w_e, w_f = abs(omega1 - omega2) / 2.0, (omega1 + omega2) / 2.0
    t, w = beats.times, _beat_weights(beats)
    ce, se = np.cos(w_e * t), np.sin(w_e * t)

    def chi2(psi_fast):
        s = np.sin(w_f * t + psi_fast)
        try:
            return _weighted_lstsq(np.column_stack([ce * s, se * s]), beats.diff, w)[2]
        except RankDeficientError:
            return math.inf

    k = int(np.argmin(_grid_chi2(beats, omega1, omega2)))
    step = FAST_GRID[1] - FAST_GRID[0]
    return chi2, FAST_GRID[k] - step, FAST_GRID[k] + step


class TestBoundedBrent:
    def _assert_same_as_scipy(self, f, a, b):
        """_bounded_brent evaluates f at scipy's points and returns its bits."""
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        ours, theirs = [], []
        x = _bounded_brent(lambda v: ours.append(v) or f(v), a, b, xatol=1e-12)
        with np.errstate(invalid="ignore"):  # scipy's parabola through inf values
            res = minimize_scalar(lambda v: theirs.append(float(v)) or f(v), bounds=(a, b),
                                  method="bounded", options={"xatol": 1e-12})
        assert x.hex() == float(res.x).hex()
        assert [v.hex() for v in ours] == [v.hex() for v in theirs]

    @pytest.mark.parametrize("batch", [20, 50, 500])
    def test_noisy_profiles(self, batch):
        for seed in range(10):
            self._assert_same_as_scipy(*_polish_problem(*_noisy_beats(8000 + 100 * batch + seed,
                                                                       batch)))

    def test_near_noise_floor_profiles(self):
        for seed in range(10):
            self._assert_same_as_scipy(*_polish_problem(_near_floor_beats(9000 + seed),
                                                        OMEGA1, OMEGA2))

    @pytest.mark.parametrize("f", [
        lambda x: (x - 0.3) ** 2, lambda x: 1.0, lambda x: x, lambda x: -x,
        lambda x: abs(x - 0.1234), lambda x: math.cos(7.0 * x),
        lambda x: math.inf if x < 0.2 else (x - 0.25) ** 2,
    ], ids=["quadratic", "flat", "min-at-lower-bound", "min-at-upper-bound", "kink",
            "several-minima", "inf-below-0.2"])
    def test_plain_functions(self, f):
        for a, b in ((-1.0, 1.0), (0.0, math.pi / 48), (0.2, 0.2 + 1e-9), (-3.0, 2.5)):
            self._assert_same_as_scipy(f, np.float64(a), np.float64(b))


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
