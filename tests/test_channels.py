import math

import numpy as np
import pytest

from qclocksync.channels import (
    SPEED_OF_LIGHT,
    ChannelModel,
    MediumModel,
    deliver,
    es_rms_error,
)
from oracle import einstein_sync


class TestChannelModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(base_delay=-1.0)
        with pytest.raises(ValueError):
            ChannelModel(jitter_sigma=-0.1)
        with pytest.raises(ValueError):
            ChannelModel(loss_probability=1.5)
        # max(0.0, nan) is 0.0, so a NaN delay would otherwise act as none
        for field in ("base_delay", "jitter_sigma"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    ChannelModel(**{field: value})

    def test_ideal_channel_is_instant(self):
        rng = np.random.default_rng(0)
        assert deliver(ChannelModel(), 3.0, rng) == 3.0

    def test_fixed_delay(self):
        rng = np.random.default_rng(0)
        assert deliver(ChannelModel(base_delay=2.5), 1.0, rng) == 3.5

    def test_total_loss(self):
        rng = np.random.default_rng(1)
        ch = ChannelModel(loss_probability=1.0)
        assert all(deliver(ch, 0.0, rng) is None for _ in range(20))

    def test_delivery_never_precedes_send(self):
        # jitter far larger than the base delay still cannot go backwards
        rng = np.random.default_rng(2)
        ch = ChannelModel(base_delay=0.01, jitter_sigma=10.0)
        for _ in range(500):
            t = deliver(ch, 5.0, rng)
            assert t is not None and t >= 5.0

    def test_jitter_statistics(self):
        rng = np.random.default_rng(3)
        ch = ChannelModel(base_delay=100.0, jitter_sigma=2.0)
        delays = np.array([deliver(ch, 0.0, rng) for _ in range(5000)])
        assert np.mean(delays) == pytest.approx(100.0, abs=0.2)
        assert np.std(delays) == pytest.approx(2.0, abs=0.2)

    def test_stream_shape_stable_across_settings(self):
        # a lossy channel consumes the same number of draws as a clean one,
        # so downstream draws line up regardless of channel settings
        def tail_draw(loss):
            rng = np.random.default_rng(4)
            deliver(ChannelModel(loss_probability=loss), 0.0, rng)
            return rng.random()
        assert tail_draw(0.0) == tail_draw(1.0)

    def test_loss_rate(self):
        rng = np.random.default_rng(5)
        ch = ChannelModel(loss_probability=0.3)
        lost = sum(deliver(ch, 0.0, rng) is None for _ in range(10_000))
        assert abs(lost / 10_000 - 0.3) < 0.02


class TestMediumModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MediumModel(distance=0.0)
        with pytest.raises(ValueError):
            MediumModel(distance=1.0, mean_index=0.9)
        with pytest.raises(ValueError):
            MediumModel(distance=1.0, index_fluctuation_sigma=-1.0)
        # max(1.0, nan) is 1.0 but np.maximum(nan, 1.0) is nan: a NaN index
        # would split einstein_sync from es_rms_error
        for field in ("distance", "mean_index", "index_fluctuation_sigma"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    MediumModel(**{"distance": 1.0, field: value})


class TestEinsteinSync:
    def test_quiet_medium_is_exact(self):
        rng = np.random.default_rng(6)
        medium = MediumModel(distance=1e6, mean_index=1.0003)
        for offset in (0.0, 1.7, -0.4):
            assert einstein_sync(medium, rng, true_offset=offset) == 0.0

    def test_one_light_second_scale(self):
        # sanity scale: index asymmetry of order sigma over one light second
        # gives errors of order sigma seconds / 2 per leg difference
        rng = np.random.default_rng(7)
        medium = MediumModel(distance=SPEED_OF_LIGHT, mean_index=1.0,
                             index_fluctuation_sigma=0.0)
        assert einstein_sync(medium, rng) == 0.0
        # with fluctuations: rms error is sigma * d / (c * sqrt(2))
        medium = MediumModel(distance=SPEED_OF_LIGHT, mean_index=1.5,
                             index_fluctuation_sigma=1e-3)
        rms = es_rms_error(medium, 20_000, np.random.default_rng(8))
        assert rms == pytest.approx(1e-3 / math.sqrt(2), rel=0.05)

    def test_rms_error_monotone_in_sigma(self):
        medium_grid = [MediumModel(distance=1e7, mean_index=1.2,
                                   index_fluctuation_sigma=s)
                       for s in (1e-6, 1e-5, 1e-4, 1e-3)]
        rms = [es_rms_error(m, 3000, np.random.default_rng(9)) for m in medium_grid]
        assert all(a < b for a, b in zip(rms, rms[1:]))

    def test_rms_error_scales_with_distance(self):
        rms = []
        for d in (1e5, 1e6, 1e7):
            medium = MediumModel(distance=d, mean_index=1.1,
                                 index_fluctuation_sigma=1e-4)
            rms.append(es_rms_error(medium, 5000, np.random.default_rng(10)))
        assert rms[1] == pytest.approx(10 * rms[0], rel=0.1)
        assert rms[2] == pytest.approx(10 * rms[1], rel=0.1)


# (medium, n_trials, true_offset, seed): a vacuum floor that bites
# (sigma 0.5), mean_index > 1, offsets that round, a quiet medium, one trial
BASELINE_CASES = [
    (MediumModel(distance=1e7, index_fluctuation_sigma=1e-4), 1000, 0.0, 11),
    (MediumModel(distance=3e6, mean_index=1.3, index_fluctuation_sigma=2e-3), 500, 0.25, 12),
    (MediumModel(distance=SPEED_OF_LIGHT, index_fluctuation_sigma=0.5), 777, -3.0, 13),
    (MediumModel(distance=1e3, mean_index=1.0003), 50, 1.7, 14),
    (MediumModel(distance=2e5, mean_index=1.1, index_fluctuation_sigma=1e-5), 1, 0.0, 15),
]


class TestEsRmsError:
    @pytest.mark.parametrize("medium,n_trials,offset,seed", BASELINE_CASES,
                             ids=["vacuum", "dense-offset", "floor", "quiet", "one-trial"])
    def test_equals_per_trial_loop(self, medium, n_trials, offset, seed):
        rng_loop, rng_array = np.random.default_rng(seed), np.random.default_rng(seed)
        errs = [einstein_sync(medium, rng_loop, offset) for _ in range(n_trials)]
        expected = float(np.sqrt(np.mean(np.square(errs))))
        assert es_rms_error(medium, n_trials, rng_array, offset) == expected
        # the stream ends where the loop leaves it, so later draws line up
        assert rng_array.random() == rng_loop.random()

    def test_golden_values(self):
        # the values of the per-trial loop this function replaced
        golden = [(1.3489173995967913e-06, 0.6493085296091757),
                  (1.4157567293595812e-05, 0.007505975658738895),
                  (0.19801784754610385, 0.9672188062035122),
                  (0.0, 0.07669703905237013),
                  (1.648891736095049e-09, 0.571597257033731)]
        for (medium, n_trials, offset, seed), (rms, next_draw) in zip(BASELINE_CASES, golden):
            rng = np.random.default_rng(seed)
            assert es_rms_error(medium, n_trials, rng, offset) == rms
            assert rng.random() == next_draw
