"""Tests for the training loop, optimizer, data, and training-time hooks."""

import numpy as np
import pytest

from repro.nn.data import SyntheticDataset, synthetic_images
from repro.nn.fpmath import EngineConfig, MatmulEngine
from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.nn.sakr import sakr_accumulator_bits, sakr_accumulator_profile
from repro.nn.training import TraceRecorder, Trainer


def _mlp(engine, rng, classes=3):
    return Sequential(
        [
            Flatten(),
            Dense(64, 32, engine, rng, name="fc1"),
            ReLU(),
            Dense(32, classes, engine, rng, name="fc2"),
        ]
    )


class TestSyntheticData:
    def test_deterministic(self):
        d1 = synthetic_images(seed=3)
        d2 = synthetic_images(seed=3)
        assert np.array_equal(d1.train_x, d2.train_x)
        assert np.array_equal(d1.train_y, d2.train_y)

    def test_split_sizes(self):
        data = synthetic_images(classes=3, samples_per_class=100, test_fraction=0.2)
        assert len(data.test_y) == 60
        assert len(data.train_y) == 240

    def test_all_classes_present(self):
        data = synthetic_images(classes=5, samples_per_class=50)
        assert set(np.unique(data.train_y)) == set(range(5))

    def test_normalized(self):
        data = synthetic_images(seed=1)
        full = np.concatenate([data.train_x, data.test_x])
        assert abs(full.mean()) < 0.05
        assert full.std() == pytest.approx(1.0, abs=0.05)

    def test_batches_cover_everything(self, rng):
        data = synthetic_images(classes=2, samples_per_class=40)
        batches = data.batches(16, rng)
        total = sum(len(y) for _, y in batches)
        assert total == len(data.train_y)


class TestSGD:
    def test_plain_step(self):
        param = np.array([1.0, 2.0])
        grad = np.array([0.5, -0.5])
        SGD(lr=0.1, momentum=0.0).step([(param, grad)])
        assert np.allclose(param, [0.95, 2.05])

    def test_momentum_accumulates(self):
        param = np.array([0.0])
        grad = np.array([1.0])
        opt = SGD(lr=1.0, momentum=0.5)
        opt.step([(param, grad)])
        assert param[0] == -1.0
        opt.step([(param, grad)])
        assert param[0] == -2.5  # velocity 1.5

    def test_weight_decay(self):
        param = np.array([10.0])
        grad = np.array([0.0])
        SGD(lr=0.1, momentum=0.0, weight_decay=0.1).step([(param, grad)])
        assert param[0] == pytest.approx(9.9)


class TestTrainer:
    def test_training_learns(self):
        data = synthetic_images(classes=3, samples_per_class=80, seed=5)
        rng = np.random.default_rng(0)
        net = _mlp(MatmulEngine(), rng)
        trainer = Trainer(net, SGD(lr=0.1), batch_size=32, seed=1)
        history = trainer.fit(data, epochs=6)
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.final_test_accuracy > 0.8

    def test_deterministic_runs(self):
        data = synthetic_images(classes=2, samples_per_class=40, seed=5)

        def run():
            rng = np.random.default_rng(0)
            net = _mlp(MatmulEngine(), rng, classes=2)
            trainer = Trainer(net, SGD(lr=0.05), batch_size=16, seed=1)
            return trainer.fit(data, epochs=3)

        h1, h2 = run(), run()
        assert h1.train_loss == h2.train_loss
        assert h1.test_accuracy == h2.test_accuracy

    def test_recorder_snapshots(self):
        data = synthetic_images(classes=2, samples_per_class=30, seed=5)
        rng = np.random.default_rng(0)
        net = _mlp(MatmulEngine(), rng, classes=2)
        trainer = Trainer(net, SGD(lr=0.05), batch_size=16, seed=1)
        recorder = TraceRecorder(epochs=(0, 2))
        trainer.fit(data, epochs=3, recorder=recorder)
        assert set(recorder.snapshots) == {0, 2}
        weights = recorder.tensor_across_layers(0, "W")
        assert weights.size == 64 * 32 + 32 * 2
        grads = recorder.tensor_across_layers(2, "G")
        assert grads.size > 0

    def test_hooks_called(self):
        data = synthetic_images(classes=2, samples_per_class=30, seed=5)
        rng = np.random.default_rng(0)
        net = _mlp(MatmulEngine(), rng, classes=2)
        trainer = Trainer(net, SGD(lr=0.05), batch_size=16, seed=1)
        seen = []
        trainer.fit(data, epochs=2, hooks=[lambda e, n: seen.append(e)])
        assert seen == [0, 1]


class TestSakr:
    def test_monotone_in_reduction(self):
        widths = [sakr_accumulator_bits(n) for n in (8, 64, 512, 4096)]
        assert widths == sorted(widths)

    def test_capped_at_hardware_width(self):
        assert sakr_accumulator_bits(2**40) == 12

    def test_floor(self):
        assert sakr_accumulator_bits(1) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            sakr_accumulator_bits(0)

    def test_profile(self):
        profile = sakr_accumulator_profile({"a": 64, "b": 4096})
        assert profile["a"] < profile["b"]
        assert set(profile) == {"a", "b"}
