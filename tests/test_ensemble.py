"""Averaging, voting, ring buffer, and running-mean tests.

Streaming teacher states are checked against materialized brute-force
means at every step, and the flat-vector averages against the per-tensor
loops they replaced, bit for bit.
"""

import copy

import numpy as np
import pytest

from selfdistill.autodiff import Tensor
from selfdistill.data import Batch
from selfdistill.encoder import ModelConfig, ParameterSet, init_params
from selfdistill.ensemble import (
    CheckpointRing,
    RunningMean,
    average_parameters,
    ring_push,
    running_mean_update,
    voted_predict,
    window_mean,
)
from selfdistill.errors import ShapeError, UsageError

from test_acceptance import STABILITY_MODEL

CFG = ModelConfig(vocab_size=60, max_len=8, dim=8, n_layers=1, n_heads=2,
                  ffn_dim=16, n_classes=2, dropout_p=0.0)


def random_set(rng) -> ParameterSet:
    base = init_params(CFG, seed=0)
    for _, t in base.items():
        t.data[...] = rng.normal(0, 1, t.data.shape)
    return base


def scale_set(ps: ParameterSet, c: float) -> ParameterSet:
    out = ps.copy()
    for _, t in out.items():
        t.data *= c
    return out


def sets_equal(a: ParameterSet, b: ParameterSet, atol=0.0) -> bool:
    return all(np.allclose(a[n].data, b[n].data, atol=atol, rtol=0.0)
               for n in a)


class TestAverageParameters:
    def test_mean_of_equal_sets(self):
        rng = np.random.default_rng(0)
        ps = random_set(rng)
        avg = average_parameters([ps.copy() for _ in range(4)])
        assert sets_equal(avg, ps)  # exact for 4 identical members

    def test_cancellation(self):
        rng = np.random.default_rng(1)
        ps = random_set(rng)
        avg = average_parameters([ps, scale_set(ps, -1.0)])
        assert all(np.array_equal(avg[n].data, np.zeros_like(avg[n].data))
                   for n in avg)

    def test_against_brute_force_elementwise_mean(self):
        rng = np.random.default_rng(2)
        sets = [random_set(rng) for _ in range(5)]
        avg = average_parameters(sets)
        for name in avg:
            oracle = sum(s[name].data for s in sets) / 5.0
            np.testing.assert_allclose(avg[name].data, oracle, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        sets = [random_set(rng) for _ in range(4)]
        a = average_parameters(sets)
        b = average_parameters(sets[::-1])
        assert sets_equal(a, b, atol=1e-12)

    def test_commutes_with_scalar_scaling(self):
        rng = np.random.default_rng(4)
        sets = [random_set(rng) for _ in range(3)]
        c = 2.5
        scaled_avg = average_parameters([scale_set(s, c) for s in sets])
        avg_scaled = scale_set(average_parameters(sets), c)
        assert sets_equal(scaled_avg, avg_scaled, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_numpys_stacked_mean_bit_for_bit(self, n):
        """Members of mixed magnitudes, whose sum rounds differently in
        another order, and n identical members. One, two or four of those
        average to the member exactly; eight need not (3x rounds)."""
        rng = np.random.default_rng(30 + n)
        sets = [scale_set(random_set(rng), 10.0 ** (i - 3)) for i in range(n)]
        for members in (sets, [sets[0]] * n):
            oracle = np.mean(np.stack([s.flat for s in members]), axis=0)
            assert average_parameters(members).flat.tobytes() == oracle.tobytes()
        if n in (1, 2, 4):
            assert (average_parameters([sets[0]] * n).flat.tobytes()
                    == sets[0].flat.tobytes())

    def test_empty_list_rejected(self):
        with pytest.raises(UsageError):
            average_parameters([])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        other_cfg = ModelConfig(vocab_size=60, max_len=8, dim=4, n_layers=1,
                                n_heads=2, ffn_dim=16, n_classes=2,
                                dropout_p=0.0)
        with pytest.raises(ShapeError):
            average_parameters([random_set(rng), init_params(other_cfg, 0)])


class TestVotedPredict:
    def batch(self, rng, b=6):
        ids = rng.integers(4, CFG.vocab_size, size=(b, 6))
        ids[:, 0] = 2
        return Batch(token_ids=ids, mask=np.ones((b, 6)),
                     labels=rng.integers(0, 2, b))

    def test_single_model_degenerates_to_plain_prediction(self):
        from selfdistill.encoder import predict_proba
        rng = np.random.default_rng(6)
        ps = random_set(rng)
        batch = self.batch(rng)
        summed, labels = voted_predict([ps], batch, CFG)
        probs = predict_proba(ps, batch, CFG)
        np.testing.assert_array_equal(summed, probs)
        np.testing.assert_array_equal(labels, np.argmax(probs, axis=1))

    def test_hand_arithmetic(self):
        # probs [0.6, 0.4] and [0.3, 0.7] -> sums [0.9, 1.1] -> class 1
        total = np.array([[0.6, 0.4]]) + np.array([[0.3, 0.7]])
        np.testing.assert_allclose(total, [[0.9, 1.1]])
        assert np.argmax(total, axis=1)[0] == 1

    def test_against_brute_force_voting_oracle(self):
        from selfdistill.encoder import predict_proba
        rng = np.random.default_rng(7)
        members = [random_set(rng) for _ in range(3)]
        batch = self.batch(rng, b=12)
        summed, labels = voted_predict(members, batch, CFG)
        materialized = np.stack(
            [predict_proba(m, batch, CFG) for m in members], axis=0)
        np.testing.assert_array_equal(summed, materialized.sum(axis=0))
        np.testing.assert_array_equal(labels,
                                      np.argmax(materialized.sum(axis=0), axis=1))

    def test_identical_members_keep_single_model_argmax(self):
        from selfdistill.encoder import predict_proba
        rng = np.random.default_rng(8)
        ps = random_set(rng)
        batch = self.batch(rng, b=16)
        _, labels = voted_predict([ps.copy() for _ in range(4)], batch, CFG)
        single = np.argmax(predict_proba(ps, batch, CFG), axis=1)
        np.testing.assert_array_equal(labels, single)

    def test_tie_breaks_to_lowest_class_index(self):
        assert int(np.argmax(np.array([0.5, 0.5]))) == 0

    def test_mismatched_members_rejected(self):
        rng = np.random.default_rng(20)
        other_cfg = ModelConfig(vocab_size=60, max_len=8, dim=4, n_layers=1,
                                n_heads=2, ffn_dim=16, n_classes=2,
                                dropout_p=0.0)
        with pytest.raises(ShapeError):
            voted_predict([random_set(rng), init_params(other_cfg, 0)],
                          self.batch(rng), CFG)

    def test_empty_member_list_rejected(self):
        batch = self.batch(np.random.default_rng(21))
        with pytest.raises(UsageError, match="empty"):
            voted_predict([], batch, CFG)


class TestCheckpointRing:
    @pytest.mark.parametrize("k", range(1, 5))
    def test_fifo_semantics(self, k):
        """After every push the ring holds the last k snapshots, oldest
        first, as a plain list that drops its head would."""
        rng = np.random.default_rng(9)
        ring = CheckpointRing(k)
        model: list[ParameterSet] = []
        for _ in range(2 * k + 1):
            snap = random_set(rng)
            ring_push(ring, snap)
            model = (model + [snap])[-k:]
            held = ring.snapshots()
            assert len(ring) == len(held) == len(model)
            assert all(got.flat.tobytes() == expect.flat.tobytes()
                       for got, expect in zip(held, model))

    @pytest.mark.parametrize("with_mean", [False, True])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_runs_are_the_held_rows_in_place_oldest_first(self, k, with_mean):
        """After every push, the runs are at most two slices of the K slot
        rows that list the held snapshots oldest first, without the newest
        when it is skipped, and never the mean row."""
        rng = np.random.default_rng(k)
        ring = CheckpointRing(k, with_mean=with_mean)
        assert ring.runs() == [] and ring.runs(skip_newest=True) == []
        model: list[ParameterSet] = []
        for _ in range(2 * k + 2):
            snap = random_set(rng)
            ring_push(ring, snap)
            model = (model + [snap])[-k:]
            for skip in (False, True):
                runs = ring.runs(skip_newest=skip)
                assert len(runs) <= 2
                assert all(np.shares_memory(run, ring.rows[:k])
                           for run in runs)
                if with_mean:
                    assert not any(np.shares_memory(run, ring.rows[k:])
                                   for run in runs)
                rows = [row.tobytes() for run in runs for row in run]
                held = model[:-1] if skip else model
                assert rows == [ps.flat.tobytes() for ps in held]
        # 2k + 2 pushes leave the oldest held snapshot in slot 2 % k
        assert len(ring.runs()) == (1 if k <= 2 else 2)

    def test_push_into_empty(self):
        rng = np.random.default_rng(10)
        ring = CheckpointRing(4)
        ring_push(ring, random_set(rng))
        assert len(ring) == 1

    def test_insertion_counter_ignores_evictions(self):
        rng = np.random.default_rng(11)
        ring = CheckpointRing(2)
        for _ in range(7):
            ring_push(ring, random_set(rng))
        assert ring.insertions == 7
        assert len(ring) == 2

    def test_window_mean_single_snapshot(self):
        rng = np.random.default_rng(12)
        ring = CheckpointRing(5)
        ps = random_set(rng)
        ring_push(ring, ps.copy())
        assert sets_equal(window_mean(ring), ps)

    def test_window_mean_matches_average_parameters(self):
        rng = np.random.default_rng(13)
        ring = CheckpointRing(3)
        for _ in range(3):
            ring_push(ring, random_set(rng))
        a = window_mean(ring)
        b = average_parameters(ring.snapshots())
        assert sets_equal(a, b)  # definitional equivalence, same code path

    def test_long_stream_matches_brute_force_of_retained(self):
        rng = np.random.default_rng(14)
        ring = CheckpointRing(5)
        recent = []
        for i in range(1000):
            s = random_set(rng)
            ring_push(ring, s)
            recent.append(s)
            recent = recent[-5:]
        mean = window_mean(ring)
        for name in mean:
            oracle = np.mean(np.stack([s[name].data for s in recent]), axis=0)
            np.testing.assert_allclose(mean[name].data, oracle, atol=1e-12)

    def test_empty_window_mean_rejected(self):
        with pytest.raises(UsageError):
            window_mean(CheckpointRing(2))


class TestRunningMean:
    def test_first_push_equals_snapshot(self):
        rng = np.random.default_rng(15)
        ps = random_set(rng)
        rm = running_mean_update(RunningMean(), ps)
        assert rm.count == 1
        assert sets_equal(rm.mean, ps)

    def test_scalar_stream_1_2_3(self):
        def const_set(v):
            t = Tensor(np.array([v]))
            return ParameterSet({"x": t})

        rm = RunningMean()
        for v in (1.0, 2.0, 3.0):
            running_mean_update(rm, const_set(v))
        assert rm.mean["x"].data[0] == pytest.approx(2.0, abs=1e-15)
        assert rm.count == 3

    def test_500_snapshots_match_full_list_mean(self):
        rng = np.random.default_rng(16)
        rm = RunningMean()
        all_snaps = []
        for _ in range(500):
            s = random_set(rng)
            running_mean_update(rm, s)
            all_snaps.append(s)
        for name in rm.mean:
            oracle = np.mean(np.stack([s[name].data for s in all_snaps]), axis=0)
            np.testing.assert_allclose(rm.mean[name].data, oracle, rtol=1e-6,
                                       atol=1e-9)


class TestFlatMatchesPerTensorLoops:
    """200 snapshots on the acceptance layout (31 tensors, two groups)."""

    @staticmethod
    def stream(n=200):
        rng = np.random.default_rng(21)
        base = init_params(STABILITY_MODEL, seed=0)
        for _ in range(n):
            snap = base.copy()
            for _, t in snap.items():
                t.data[...] = rng.normal(0, 1, t.data.shape)
            yield snap

    def test_window_mean_equals_per_tensor_np_mean(self):
        ring, recent = CheckpointRing(5), []
        for snap in self.stream():
            ring_push(ring, snap)
            recent = (recent + [snap])[-5:]
            mean = window_mean(ring)
            for name in mean:
                reference = np.mean(
                    np.stack([s[name].data for s in recent], axis=0), axis=0)
                np.testing.assert_array_equal(mean[name].data, reference)

    def test_running_mean_update_equals_per_tensor_update(self):
        rm, reference, count = RunningMean(), None, 0
        for snap in self.stream():
            running_mean_update(rm, snap)
            count += 1
            if reference is None:
                reference = {n: t.data.copy() for n, t in snap.items()}
            else:
                for name, m in reference.items():
                    m += (snap[name].data - m) / count
            for name, m in reference.items():
                np.testing.assert_array_equal(rm.mean[name].data, m)


class TestTeacherStateInHalves:
    """A step worker and the training process share a teacher state's rows
    and each writes the entries ``[lo, hi)`` of them. At every split point
    of a 17-entry layout, the two halves give the bytes of one
    whole-vector call: every slot, the mean and the counts, through the
    ring's warm-in and its evictions. Neither half writes an entry of the
    other's."""

    @staticmethod
    def stream(n):
        rng = np.random.default_rng(40)
        # mixed magnitudes, whose sums round differently in another order
        return [ParameterSet({
            "a.W": Tensor(rng.normal(0.0, 10.0 ** (i % 4 - 2), (3, 4))),
            "b.b": Tensor(rng.normal(0.0, 1.0, 5))}) for i in range(n)]

    @staticmethod
    def halves(held, h):
        """``held`` as the training process keeps it, writing ``[0, h)``,
        and a copy over the same rows as the worker keeps it."""
        worker = copy.deepcopy(held)
        worker.move_to(held.rows, h)
        held.lo, held.hi = 0, h
        return held, worker

    @staticmethod
    def in_turn(halves, update):
        """``update`` each half, the lower first, as the processes would;
        neither may touch the other's entries."""
        for half, other in zip(halves, halves[::-1]):
            before = half.rows.copy()
            update(half)
            assert (half.rows[:, other.lo:other.hi].tobytes()
                    == before[:, other.lo:other.hi].tobytes())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ring_push_and_window_mean(self, k):
        snaps = self.stream(k + 3)
        for h in range(snaps[0].flat.size + 1):
            # the first snapshot goes in whole, before the worker starts
            whole = ring_push(CheckpointRing(k), snaps[0])
            window_mean(whole)
            split = ring_push(CheckpointRing(k), snaps[0])
            window_mean(split)
            halves = self.halves(split, h)
            for snap in snaps[1:]:
                ring_push(whole, snap)
                window_mean(whole)
                self.in_turn(halves, lambda half: window_mean(
                    ring_push(half, snap)))
                assert split.rows.tobytes() == whole.rows.tobytes()
                for half in halves:
                    assert ([s.flat.tobytes() for s in half.snapshots()]
                            == [s.flat.tobytes() for s in whole.snapshots()])
                    assert half.insertions == whole.insertions
                    assert len(half) == len(whole)

    def test_running_mean_update(self):
        snaps = self.stream(6)
        for h in range(snaps[0].flat.size + 1):
            whole = running_mean_update(RunningMean(), snaps[0])
            split = running_mean_update(RunningMean(), snaps[0])
            halves = self.halves(split, h)
            for snap in snaps[1:]:
                running_mean_update(whole, snap)
                self.in_turn(halves, lambda half: running_mean_update(
                    half, snap))
                assert split.rows.tobytes() == whole.rows.tobytes()
                assert halves[1].mean.flat.tobytes() == whole.mean.flat.tobytes()
                assert halves[0].count == halves[1].count == whole.count

    @pytest.mark.parametrize("pushes", [1, 3, 5, 7])
    def test_move_to_keeps_the_ring_order_and_the_mean(self, pushes):
        """Moved while warming in, full or wrapped, the ring holds the same
        snapshots in the same order, and the next push evicts the oldest
        one once it is full."""
        *snaps, newest = self.stream(pushes + 1)
        ring = CheckpointRing(3)
        for snap in snaps:
            ring_push(ring, snap)
        before = [s.flat.tobytes() for s in ring.snapshots()]
        mean = window_mean(ring).flat.copy()
        rows = np.empty_like(ring.rows)
        ring.move_to(rows)
        assert all(s.flat.base is rows for s in ring.snapshots())
        assert [s.flat.tobytes() for s in ring.snapshots()] == before
        assert ring.mean.flat.tobytes() == mean.tobytes()
        ring_push(ring, newest)
        assert [s.flat.tobytes() for s in ring.snapshots()] == (
            before + [newest.flat.tobytes()])[-3:]
        assert ring.snapshots()[-1].flat.base is rows

    def test_a_sdv_ring_keeps_no_mean_row(self):
        ring = ring_push(CheckpointRing(2, with_mean=False),
                         self.stream(1)[0])
        assert ring.rows.shape[0] == 2 and ring.mean is None
        with pytest.raises(UsageError, match="no mean row"):
            window_mean(ring)
