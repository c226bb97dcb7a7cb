"""Tests for the checkpoint subsystem (serialisation, manager, faults)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import testing
from repro.ckpt import (
    Checkpoint,
    CheckpointError,
    CheckpointManager,
    checksum,
    config_fingerprint,
    decode_state,
    encode_state,
    read_checkpoint,
    resolve_resume,
    rng_state,
    set_rng_state,
)
from repro.nn import SGD, Adam, CosineAnnealing, Parameter


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    testing.reset()


class TestSerialize:
    def test_roundtrip_nested_tree(self):
        state = {
            "arrays": {"w": np.arange(12.0).reshape(3, 4), "i": np.arange(5)},
            "scalars": [1, 2.5, True, None, "text"],
            "tuple": (1, (2, 3)),
            "empty": {},
        }
        out = decode_state(encode_state(state))
        np.testing.assert_array_equal(out["arrays"]["w"], state["arrays"]["w"])
        assert out["arrays"]["i"].dtype == state["arrays"]["i"].dtype
        assert out["scalars"] == state["scalars"]
        assert out["tuple"] == (1, (2, 3))
        assert out["empty"] == {}

    def test_float_bits_survive(self):
        values = np.array([1e-308, np.pi, -0.0, 1.0 / 3.0])
        out = decode_state(encode_state({"v": values, "s": float(np.pi)}))
        assert out["v"].tobytes() == values.tobytes()
        assert out["s"] == float(np.pi)

    def test_numpy_scalars_become_python(self):
        out = decode_state(
            encode_state({"f": np.float64(0.25), "i": np.int64(7), "b": np.bool_(True)})
        )
        assert out == {"f": 0.25, "i": 7, "b": True}

    def test_rng_state_roundtrip_bit_exact(self):
        rng = np.random.default_rng(123)
        rng.integers(0, 100, size=17)  # advance mid-stream
        saved = decode_state(encode_state({"rng": rng_state(rng)}))["rng"]
        expected = rng.integers(0, 1 << 40, size=8)
        fresh = np.random.default_rng(0)
        set_rng_state(fresh, saved)
        np.testing.assert_array_equal(
            fresh.integers(0, 1 << 40, size=8), expected
        )

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            encode_state({"bad": object()})
        with pytest.raises(TypeError, match="keys must be str"):
            encode_state({1: "x"})

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ValueError):
            decode_state(b"definitely not an npz archive")


class TestConfigFingerprint:
    def test_stable_and_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_optimisation_fields(self):
        assert config_fingerprint({"lr": 1e-3}) != config_fingerprint({"lr": 1e-2})

    def test_volatile_fields_ignored(self):
        assert config_fingerprint(
            {"lr": 1e-3, "epochs": 10, "verbose": True, "resume_from": "auto"}
        ) == config_fingerprint({"lr": 1e-3, "epochs": 99, "verbose": False})

    def test_default_train_configs_keep_their_fingerprints(self):
        """Snapshots written while the train configs still carried the
        execution-mode fields (fused kernels on/off, data-parallel
        worker count and backend; all excluded from the digest then)
        must keep resuming: the fingerprints of the default configs are
        pinned to the values those versions computed."""
        from repro.core import IMCATConfig, IMCATTrainConfig
        from repro.models import TrainConfig

        assert config_fingerprint(IMCATTrainConfig()) == "95316c802629df5a"
        assert config_fingerprint(TrainConfig()) == "a6c22db955afccb0"
        # The composite digests the trainers store in every snapshot.
        assert config_fingerprint(
            IMCATTrainConfig(),
            IMCATConfig(),
            {"kind": "imcat", "backbone": "LightGCN"},
        ) == "11f19ec1bf8b5473"
        assert config_fingerprint(
            TrainConfig(), {"kind": "bpr", "model": "BPRMF"}
        ) == "43297b4efd27773c"


class TestOptimizerState:
    def _params(self):
        rng = np.random.default_rng(0)
        return [Parameter(rng.normal(size=(4, 3))), Parameter(rng.normal(size=(2,)))]

    def _step(self, optimizer, params, seed):
        rng = np.random.default_rng(seed)
        for param in params:
            param.grad = rng.normal(size=param.data.shape)
        optimizer.step()

    @pytest.mark.parametrize("factory", [
        lambda ps: Adam(ps, lr=1e-2, weight_decay=1e-3),
        lambda ps: SGD(ps, lr=1e-2, momentum=0.9),
    ])
    def test_resumed_trajectory_matches(self, factory):
        params_a = self._params()
        opt_a = factory(params_a)
        for seed in range(4):
            self._step(opt_a, params_a, seed)

        params_b = self._params()
        opt_b = factory(params_b)
        for seed in range(2):
            self._step(opt_b, params_b, seed)
        saved = decode_state(encode_state({
            "optimizer": opt_b.state_dict(),
            "params": [p.data.copy() for p in params_b],
        }))

        params_c = self._params()
        opt_c = factory(params_c)
        for param, array in zip(params_c, saved["params"]):
            param.data[...] = array
        opt_c.load_state_dict(saved["optimizer"])
        for seed in range(2, 4):
            self._step(opt_c, params_c, seed)
        for final, resumed in zip(params_a, params_c):
            np.testing.assert_array_equal(final.data, resumed.data)

    def test_shape_mismatch_rejected(self):
        opt = Adam(self._params())
        state = opt.state_dict()
        state["m"][0] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="optimizer state mismatch"):
            opt.load_state_dict(state)

    def test_scheduler_state_roundtrip(self):
        opt = Adam(self._params(), lr=1e-2)
        sched = CosineAnnealing(opt, total_epochs=10)
        for _ in range(4):
            sched.step()
        saved = sched.state_dict()
        opt2 = Adam(self._params(), lr=1e-2)
        sched2 = CosineAnnealing(opt2, total_epochs=10)
        opt2.load_state_dict(opt.state_dict())
        sched2.load_state_dict(saved)
        assert sched2.step() == sched.step()
        assert opt2.lr == opt.lr


class TestCheckpointManager:
    def _state(self, step, fill):
        return {"step": step, "weights": np.full((4, 4), float(fill))}

    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(self._state(3, 1.5), step=3, metric=0.4)
        found = manager.load_latest()
        assert isinstance(found, Checkpoint)
        assert found.step == 3 and found.metric == 0.4
        np.testing.assert_array_equal(
            found.state["weights"], np.full((4, 4), 1.5)
        )

    def test_atomic_write_no_partial_file(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(self._state(1, 1.0), step=1)
        with pytest.raises(testing.SimulatedCrash):
            with testing.CrashPoint(testing.CKPT_BEFORE_REPLACE):
                manager.save(self._state(2, 2.0), step=2)
        # The torn write left only a temp file; the manifest still points
        # at the previous snapshot and loading falls back to it.
        fresh = CheckpointManager(str(tmp_path))
        assert [entry["step"] for entry in fresh.entries()] == [1]
        assert fresh.load_latest().step == 1
        assert not any(
            name.endswith(".tmp") for name in os.listdir(tmp_path)
        ), "stale temp files must be cleaned on manager startup"

    def test_retention_keeps_last_n_plus_best(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep_last=2)
        metrics = [0.1, 0.9, 0.3, 0.2, 0.4]
        for step, metric in enumerate(metrics, start=1):
            manager.save(self._state(step, step), step=step, metric=metric)
        steps = [entry["step"] for entry in manager.entries()]
        assert steps == [2, 4, 5]  # newest two plus the best (0.9 at step 2)
        files = {entry["file"] for entry in manager.entries()}
        on_disk = {n for n in os.listdir(tmp_path) if n.endswith(".npz")}
        assert files == on_disk

    def test_corrupt_newest_falls_back_with_warning(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep_last=5)
        manager.save(self._state(1, 1.0), step=1)
        with testing.FaultyWrites(testing.CKPT_PAYLOAD_WRITE, mode="garble"):
            manager.save(self._state(2, 2.0), step=2)
        with pytest.warns(RuntimeWarning, match="checksum"):
            found = manager.load_latest()
        assert found.step == 1

    def test_truncated_newest_falls_back(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep_last=5)
        manager.save(self._state(1, 1.0), step=1)
        with testing.FaultyWrites(
            testing.CKPT_PAYLOAD_WRITE, mode="truncate", fraction=0.25
        ):
            manager.save(self._state(2, 2.0), step=2)
        with pytest.warns(RuntimeWarning, match="checksum"):
            found = manager.load_latest()
        assert found.step == 1

    def test_all_corrupt_returns_none(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        with testing.FaultyWrites(testing.CKPT_PAYLOAD_WRITE, mode="garble"):
            manager.save(self._state(1, 1.0), step=1)
        with pytest.warns(RuntimeWarning):
            assert manager.load_latest() is None

    def test_manifest_checksums_verify_against_disk(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep_last=4)
        for step in range(1, 4):
            manager.save(self._state(step, step), step=step)
        for entry in manager.entries():
            with open(tmp_path / entry["file"], "rb") as handle:
                assert checksum(handle.read()) == entry["sha256"]

    def test_corrupt_manifest_rebuilt_from_scan(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(self._state(1, 1.0), step=1)
        manager.save(self._state(2, 2.0), step=2)
        with open(tmp_path / "manifest.json", "w", encoding="utf-8") as handle:
            handle.write("{not json at all")
        with pytest.warns(RuntimeWarning, match="manifest"):
            rebuilt = CheckpointManager(str(tmp_path))
        assert rebuilt.load_latest().step == 2

    def test_manifest_is_json_readable(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(self._state(1, 1.0), step=1, metric=0.5)
        with open(manager.manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["checkpoints"][0]["metric"] == 0.5


class TestResolveResume:
    def test_none_is_fresh_start(self):
        assert resolve_resume(None) is None

    def test_auto_without_manager_rejected(self):
        with pytest.raises(CheckpointError, match="auto"):
            resolve_resume("auto")

    def test_auto_on_empty_directory_is_fresh_start(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        assert resolve_resume("auto", manager) is None

    def test_auto_finds_latest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({"step": 5, "tag": "latest"}, step=5)
        assert resolve_resume("auto", manager)["tag"] == "latest"

    def test_explicit_directory(self, tmp_path):
        CheckpointManager(str(tmp_path)).save({"step": 1, "tag": "dir"}, step=1)
        assert resolve_resume(str(tmp_path))["tag"] == "dir"

    def test_explicit_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            resolve_resume(str(tmp_path))

    def test_explicit_file(self, tmp_path):
        path = CheckpointManager(str(tmp_path)).save({"step": 2, "tag": "f"}, step=2)
        assert read_checkpoint(path)["tag"] == "f"
        assert resolve_resume(path)["tag"] == "f"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            resolve_resume(str(tmp_path / "nope.npz"))


class TestFaultHarness:
    def test_crashpoint_counts_hits(self):
        with testing.CrashPoint("site:x", at=3) as crash:
            testing.check("site:x")
            testing.check("site:x")
            with pytest.raises(testing.SimulatedCrash):
                testing.check("site:x")
        assert crash.hits == 3 and crash.triggered
        testing.check("site:x")  # disarmed after exit

    def test_crashpoint_other_sites_unaffected(self):
        with testing.CrashPoint("site:x"):
            testing.check("site:y")

    def test_faulty_writes_targets_nth_write(self):
        payload = bytes(range(256)) * 8
        with testing.FaultyWrites("io:x", mode="truncate", at=2, fraction=0.5) as fw:
            first = testing.filter_bytes("io:x", payload)
            second = testing.filter_bytes("io:x", payload)
        assert first == payload
        assert len(second) == len(payload) // 2
        assert fw.corrupted

    def test_garble_changes_bytes_but_not_length(self):
        payload = bytes(range(256)) * 8
        with testing.FaultyWrites("io:x", mode="garble", seed=1):
            garbled = testing.filter_bytes("io:x", payload)
        assert len(garbled) == len(payload)
        assert garbled != payload
