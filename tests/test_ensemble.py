import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import (
    apply_local,
    dual_projection_probability,
    evolution_unitary,
    measure_dual,
    singlet_state,
)
from qclocksync.ensemble import (
    TYPE_I,
    TYPE_II,
    Ensemble,
    PopulationSeries,
    SamplingSchedule,
    SubensembleHandle,
    alice_collapse_all,
    pos_probability,
    sample_batch,
    select_subensemble,
)
from qclocksync.errors import BudgetError, ProtocolOrderError
from qclocksync.quantum import ClockSpecies

CS = ClockSpecies("cs", 2.0)


def _collapsed(n=100, eta=0.0, t0=0.0, phi_a=0.0, seed=1):
    ens = Ensemble(n, CS, eta)
    rng = np.random.default_rng(seed)
    t1 = alice_collapse_all(ens, t0, phi_a, rng)
    return ens, t1, np.flatnonzero(~ens.type_i) + 1


class TestLifecycle:
    def test_fresh_ensemble_is_all_idle(self):
        ens = Ensemble(5, CS)
        assert ens.type_i is None
        assert not ens.consumed.any()
        assert ens.n_pairs == 5
        assert math.isnan(ens.t0)

    def test_collapse_partitions_labels(self):
        ens, t1, t2 = _collapsed(n=1000)
        # the returned labels are the Type-I mask's positions + 1, ascending
        assert np.all(np.diff(t1) > 0)
        assert len(t1) + len(t2) == 1000
        assert set(t1).isdisjoint(t2)
        assert ens.type_i.dtype == bool and ens.type_i.shape == (1000,)
        assert np.all(ens.type_i[np.asarray(t1) - 1])
        assert not np.any(ens.type_i[np.asarray(t2) - 1])
        assert not ens.consumed.any()
        assert ens.t0 == 0.0

    def test_collapse_split_is_balanced(self):
        _, t1, t2 = _collapsed(n=100_000, seed=5)
        # binomial(1e5, 1/2): 5 sigma is about 790
        assert abs(len(t1) - 50_000) < 800

    def test_double_collapse_rejected(self):
        ens, _, _ = _collapsed()
        with pytest.raises(ProtocolOrderError):
            alice_collapse_all(ens, 1.0, 0.0, np.random.default_rng(2))

    # one uniform per pair, in label order: the mask, the labels and the
    # generator's final state are those of one rng.random(N) call
    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 24581])
    def test_collapse_draws_one_uniform_per_pair(self, n):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        ens = Ensemble(n, CS)
        labels = alice_collapse_all(ens, 0.0, 0.0, rng)
        mask = ref.random(n) < 0.5
        np.testing.assert_array_equal(ens.type_i, mask)
        np.testing.assert_array_equal(labels, np.flatnonzero(mask) + 1)
        assert labels.dtype == np.int64
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_collapse_is_deterministic_in_the_seed(self):
        _, a1, a2 = _collapsed(n=500, seed=42)
        _, b1, b2 = _collapsed(n=500, seed=42)
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)

    def test_unknown_label_rejected(self):
        # the label range is checked before the collapse is
        ens = Ensemble(4, CS)
        with pytest.raises(KeyError):
            select_subensemble(ens, [0])
        with pytest.raises(KeyError):
            select_subensemble(ens, [5])


class TestSelection:
    def test_selection_requires_collapse(self):
        ens = Ensemble(10, CS)
        with pytest.raises(ProtocolOrderError):
            select_subensemble(ens, [1, 2, 3])

    def test_selection_sorts_labels(self):
        ens, t1, _ = _collapsed()
        handle = select_subensemble(ens, list(reversed(list(t1))))
        assert list(handle.labels) == sorted(t1)

    def test_selection_does_not_reveal_hidden_type(self):
        # a party cannot distinguish Type I from Type II locally, so any
        # collapsed labels, of either type or of both, can be selected
        ens, t1, t2 = _collapsed()
        for labels in (t1, t2, np.concatenate([t2[:5], t1[:5]])):
            handle = select_subensemble(ens, labels)
            assert list(handle.labels) == sorted(labels)

    def test_out_of_range_labels_rejected(self):
        ens, _, _ = _collapsed(n=10)
        with pytest.raises(KeyError):
            select_subensemble(ens, [3, 11])
        with pytest.raises(KeyError):
            select_subensemble(ens, [0, 3])
        with pytest.raises(ValueError, match="repeated pair label 3"):
            select_subensemble(ens, [3, 3, 5])
        assert not ens.consumed.any()


class TestSampling:
    def test_sampling_consumes_pairs(self):
        ens, t1, _ = _collapsed(n=2000)
        handle = select_subensemble(ens, t1)
        rng = np.random.default_rng(3)
        n_pos, n = sample_batch(handle, 0.5, 10, "A", 0.0, rng)
        assert n == 10
        assert 0 <= n_pos <= 10
        consumed = handle.labels[:10]
        assert np.all(ens.consumed[consumed - 1])
        assert np.count_nonzero(ens.consumed) == 10
        # the next batch takes the next labels in order
        sample_batch(handle, 0.6, 10, "A", 0.0, rng)
        assert np.all(ens.consumed[handle.labels[10:20] - 1])
        assert np.count_nonzero(ens.consumed) == 20

    def test_consumed_pairs_cannot_be_resampled(self):
        ens, t1, _ = _collapsed(n=400)
        handle = select_subensemble(ens, t1)
        rng = np.random.default_rng(4)
        sample_batch(handle, 0.5, 5, "A", 0.0, rng)
        fresh = select_subensemble(ens, handle.labels[:5])
        with pytest.raises(ProtocolOrderError):
            sample_batch(fresh, 1.0, 5, "A", 0.0, rng)

    def test_budget_enforced(self):
        ens, t1, _ = _collapsed(n=100)
        handle = select_subensemble(ens, t1)
        rng = np.random.default_rng(5)
        sample_batch(handle, 0.1, len(t1) - 1, "A", 0.0, rng)
        state = rng.bit_generator.state
        with pytest.raises(BudgetError):
            sample_batch(handle, 0.2, 2, "A", 0.0, rng)
        # the refused batch consumes no pair and draws nothing
        assert np.count_nonzero(ens.consumed) == len(t1) - 1
        assert rng.bit_generator.state == state
        assert sample_batch(handle, 0.2, 1, "A", 0.0, rng)[1] == 1

    def test_series_counts_conserve_batch_size(self):
        ens, t1, _ = _collapsed(n=4000, seed=9)
        handle = select_subensemble(ens, t1)
        schedule = SamplingSchedule((0.2, 0.4, 0.6), 100)
        rng = np.random.default_rng(6)
        counts = [sample_batch(handle, t, schedule.batch_size, "A", 0.0, rng)
                  for t in schedule.times]
        assert [n for _, n in counts] == [100, 100, 100]
        assert all(0 <= n_pos <= n for n_pos, n in counts)
        assert np.count_nonzero(ens.consumed) == 300

    def test_sampling_deterministic_in_the_seed(self):
        def run():
            ens, t1, _ = _collapsed(n=4000, seed=10)
            handle = select_subensemble(ens, t1)
            rng = np.random.default_rng(11)
            return [sample_batch(handle, t, 200, "B", 0.3, rng)
                    for t in np.linspace(0.1, 2.0, 8)]
        assert run() == run()


class TestClosedFormOracle:
    def _oracle_p_pos(self, party, pair_type, omega, tau, phi_a, eta, phi_meas):
        """Brute-force state-vector computation of the same probability."""
        species = ClockSpecies("o", omega)
        s = singlet_state(eta)
        # Alice collapses at t0 in basis phi_a; pick a draw that forces the
        # requested branch (pos -> Type I, neg -> Type II, each P = 1/2)
        draw = 0.25 if pair_type == TYPE_I else 0.75
        outcome, post = measure_dual(s, "A", phi_a, draw)
        assert outcome == ("pos" if pair_type == TYPE_I else "neg")
        u = evolution_unitary(species, tau)
        evolved = apply_local(post, u, u)
        return dual_projection_probability(evolved, party, phi_meas)

    def test_matches_state_vector_everywhere(self):
        rng = np.random.default_rng(20)
        for _ in range(150):
            party = "A" if rng.random() < 0.5 else "B"
            pair_type = TYPE_I if rng.random() < 0.5 else TYPE_II
            omega = rng.uniform(0.1, 10.0)
            tau = rng.uniform(0.0, 20.0)
            phi_a = rng.uniform(0, 2 * math.pi)
            eta = rng.uniform(0, 2 * math.pi)
            phi_m = rng.uniform(0, 2 * math.pi)
            closed = pos_probability(party, pair_type, omega, tau, phi_a, eta, phi_m)
            oracle = self._oracle_p_pos(party, pair_type, omega, tau, phi_a, eta, phi_m)
            assert closed == pytest.approx(oracle, abs=1e-12)

    def test_tau_zero_same_basis_is_deterministic(self):
        # immediately after collapse, remeasuring in the same basis repeats
        # the collapse outcome for Alice and anticorrelates for Bob (eta = 0)
        assert pos_probability("A", TYPE_I, 1.0, 0.0, 0.7, 0.0, 0.7) == 1.0
        assert pos_probability("A", TYPE_II, 1.0, 0.0, 0.7, 0.0, 0.7) == 0.0
        assert pos_probability("B", TYPE_I, 1.0, 0.0, 0.7, 0.0, 0.7) == 0.0
        assert pos_probability("B", TYPE_II, 1.0, 0.0, 0.7, 0.0, 0.7) == 1.0

    def test_eta_shifts_bob_only(self):
        kw = dict(pair_type=TYPE_I, omega=1.3, tau=2.0, collapse_phi=0.4,
                  phi_meas=1.1)
        a0 = pos_probability("A", eta=0.0, **kw)
        a1 = pos_probability("A", eta=1.9, **kw)
        assert a0 == a1
        b0 = pos_probability("B", eta=0.0, **kw)
        b1 = pos_probability("B", eta=1.9, **kw)
        assert b0 != pytest.approx(b1)

    def test_type_populations_are_complementary(self):
        for party in ("A", "B"):
            p1 = pos_probability(party, TYPE_I, 1.0, 0.8, 0.2, 0.5, 1.0)
            p2 = pos_probability(party, TYPE_II, 1.0, 0.8, 0.2, 0.5, 1.0)
            assert p1 + p2 == pytest.approx(1.0, abs=1e-12)

    def test_empirical_fraction_tracks_closed_form(self):
        ens, t1, _ = _collapsed(n=120_000, eta=0.6, phi_a=0.2, seed=30)
        handle = select_subensemble(ens, t1)
        batch = 20_000
        t = 0.9
        n_pos, n = sample_batch(handle, t, batch, "B", 1.3,
                                np.random.default_rng(31))
        p_expected = pos_probability("B", TYPE_I, CS.omega, t, 0.2, 0.6, 1.3)
        sigma = math.sqrt(p_expected * (1 - p_expected) / batch)
        assert abs(n_pos / n - p_expected) < 5 * sigma


class TestSamplingSchedule:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            SamplingSchedule((1.0, 1.0), 10)
        with pytest.raises(ValueError):
            SamplingSchedule((2.0, 1.0), 10)

    def test_rejects_empty_or_bad_batch(self):
        with pytest.raises(ValueError):
            SamplingSchedule((), 10)
        with pytest.raises(ValueError):
            SamplingSchedule((1.0,), 0)


class TestPopulationSeries:
    def test_counts_must_balance(self):
        with pytest.raises(ValueError):
            PopulationSeries([0.0], [3], [4], [10])
        with pytest.raises(ValueError):
            PopulationSeries([0.0], [-1], [11], [10])

    @staticmethod
    def _assert_csv_holds(path, series, comment):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if comment is not None:
            assert rows.pop(0) == [f"# {comment}"]
        assert rows[0] == ["t_seconds", "count_pos", "count_neg", "batch_size"]
        columns = np.array(rows[1:], dtype=np.float64).T
        for column, want in zip(columns, (series.times, series.count_pos,
                                          series.count_neg, series.batch_size)):
            np.testing.assert_array_equal(column, want)

    def test_csv_round_trip_exact(self, tmp_path):
        series = PopulationSeries([0.1, 0.2, 0.30000000000000004],
                                  [7, 3, 10], [3, 7, 0], [10, 10, 10])
        path = tmp_path / "series.csv"
        series.to_csv(path, header_comment="alice cs")
        self._assert_csv_holds(path, series, "alice cs")
        # integral counts are written as integers, times by repr
        assert path.read_text().splitlines()[2] == "0.1,7,3,10"

    def test_csv_round_trip_float_counts(self, tmp_path):
        series = PopulationSeries([0.0, 1.0], [2.5, 9.0], [7.5, 1.0], [10, 10])
        path = tmp_path / "series.csv"
        series.to_csv(path)
        self._assert_csv_holds(path, series, None)

    def test_p_hat(self):
        series = PopulationSeries([0.0], [30], [70], [100])
        np.testing.assert_allclose(series.p_hat(), [0.3])

    @staticmethod
    def _assert_writes_as_csv_writer(tmp_path, series, comment):
        fast, plain = tmp_path / "fast.csv", tmp_path / "plain.csv"
        series.to_csv(fast, header_comment=comment)
        oracle.series_to_csv(series, plain, header_comment=comment)
        assert fast.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("comment", [None, "", "qclocksync seeds: quantum=1, \"é\" %s"])
    def test_csv_bytes_are_csv_writers(self, tmp_path, comment):
        # float counts, a negative zero, a huge integral float and a subnormal
        series = PopulationSeries([-0.0, 0.1, 1e300, 5e-324, 2.5],
                                  [2.5, -0.0, 1e300, 0.0, 1.0 / 3.0],
                                  [7.5, 10.0, 0.0, 3.0, 2.0 / 3.0],
                                  [10, 10, 1e300, 3, 1.0])
        self._assert_writes_as_csv_writer(tmp_path, series, comment)
        empty = PopulationSeries([], [], [], [])
        self._assert_writes_as_csv_writer(tmp_path, empty, comment)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(0.0, 1e300), st.floats(0.0, 1e300)), max_size=8))
    def test_csv_bytes_are_csv_writers_for_any_series(self, tmp_path_factory, points):
        series = PopulationSeries([p[0] for p in points], [p[1] for p in points],
                                  [p[2] for p in points], [p[1] + p[2] for p in points])
        self._assert_writes_as_csv_writer(tmp_path_factory.mktemp("csv"), series, "c")


class TestSampleBatchIsThePlainForm:
    """sample_batch, which indexes the label-indexed masks with its labels,
    gives the counts, the consumed pairs and the rng end state of the plain
    form in tests/oracle.py, which shifts every label to a 0-based index."""

    @staticmethod
    def _twins(n=50_000):
        ensembles = [_collapsed(n=n, eta=0.4, t0=0.25, phi_a=1.1, seed=21)[0]
                     for _ in range(2)]
        return ensembles, [np.random.default_rng(22) for _ in range(2)]

    @staticmethod
    def _assert_same(ensembles, rngs):
        np.testing.assert_array_equal(ensembles[0].consumed, ensembles[1].consumed)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_mixed_type_batches_of_both_parties(self):
        ensembles, rngs = self._twins()
        # every label: a handle whose batches hold Type-I and Type-II pairs
        handles = [select_subensemble(e, np.arange(1, e.n_pairs + 1)) for e in ensembles]
        calls = [(0.5, 1, "A", 0.0), (0.75, 50, "B", 2.0), (1.0, 20_000, "A", 0.3),
                 (1.25, 1, "B", -4.0), (1.5, 50, "A", 7.0), (1.75, 20_000, "B", 1.0)]
        counts = [[fn(h, *call, rng) for call in calls]
                  for fn, h, rng in zip((sample_batch, oracle.sample_batch), handles, rngs)]
        assert counts[0] == counts[1]
        assert [n for _, n in counts[0]] == [c[1] for c in calls]
        self._assert_same(ensembles, rngs)

        # a budget overrun draws and consumes nothing in either
        for fn, h, rng in zip((sample_batch, oracle.sample_batch), handles, rngs):
            with pytest.raises(BudgetError):
                fn(h, 2.0, 20_000, "A", 0.0, rng)
        self._assert_same(ensembles, rngs)
        tails = [fn(h, 2.0, 9_898, "B", 0.5, rng)
                 for fn, h, rng in zip((sample_batch, oracle.sample_batch), handles, rngs)]
        assert tails[0] == tails[1]
        self._assert_same(ensembles, rngs)
        assert ensembles[0].consumed.all()

    def test_each_subensemble_of_its_party(self):
        ensembles, rngs = self._twins(n=4_001)
        counts = []
        for ens, fn, rng in zip(ensembles, (sample_batch, oracle.sample_batch), rngs):
            type_i = np.flatnonzero(ens.type_i) + 1
            type_ii = np.flatnonzero(~ens.type_i) + 1
            alice, bob = select_subensemble(ens, type_i), select_subensemble(ens, type_ii)
            counts.append([fn(h, t, 50, party, 0.2, rng)
                           for t in np.linspace(0.3, 3.0, 20)
                           for h, party in ((alice, "A"), (bob, "B"))])
        assert counts[0] == counts[1]
        self._assert_same(ensembles, rngs)

    def test_refused_batches_draw_nothing(self):
        ensembles, rngs = self._twins(n=400)
        for ens, fn, rng in zip(ensembles, (sample_batch, oracle.sample_batch), rngs):
            handle = select_subensemble(ens, np.arange(1, 11))
            fn(handle, 0.5, 5, "A", 0.0, rng)
            with pytest.raises(ProtocolOrderError):  # labels 1..5 are consumed
                fn(select_subensemble(ens, np.arange(1, 6)), 1.0, 5, "A", 0.0, rng)
            with pytest.raises(ProtocolOrderError):  # no collapse yet
                fn(SubensembleHandle(Ensemble(10, CS), np.arange(1, 11)), 1.0, 5, "B", 0.0,
                   rng)
        self._assert_same(ensembles, rngs)


class TestNoSignalling:
    def test_bob_marginal_uniform_before_message(self):
        # without the label partition, Bob's pooled outcome fraction is 1/2
        # regardless of Alice's basis phase: pooled over types the cosines cancel
        for phi_a in (0.0, 0.9, 2.5):
            ens, _, _ = _collapsed(n=40_000, phi_a=phi_a, seed=40)
            handle = select_subensemble(ens, np.arange(1, ens.n_pairs + 1))
            n_pos, n = sample_batch(handle, 0.7, 40_000, "B", 0.0,
                                    np.random.default_rng(41))
            assert abs(n_pos / n - 0.5) < 5 * math.sqrt(0.25 / n)
