"""The durable-I/O seam's recorder + the every-prefix durability matrix."""

import pytest

from repro.devtools.doublerun import (
    MODELS,
    crash_state,
    durability_run,
    materialize,
)
from repro.storage import RecordingIO, SimulatedCrash, StorageEngine
from repro.storage.durable import PLAIN, torn_offset
from repro.storage.segments import MANIFEST_NAME, Manifest, store_manifest

from tests.chaos.conftest import build_tiny_cloud


def tree(root):
    """Every file's bytes (None: a directory) under ``root``."""
    return {path.relative_to(root).as_posix():
            None if path.is_dir() else path.read_bytes()
            for path in root.rglob("*")}


def resumed(result):
    return [c for c in result.cases if c.rounds_resumed is not None]


def exercise(io, root):
    """A little of everything the seam offers, against ``root``."""
    io.makedirs(root / "a" / "b")
    io.atomic_write(root / "a" / "b" / "f", b"payload")
    io.append(root / "log", b"one\n")
    io.append(root / "log", b"two\n")
    io.atomic_write(root / "f", b"first")
    io.atomic_write(root / "f", b"second")
    io.unlink(root / "a" / "b" / "f")


class TestRecordingIO:
    def test_cut_at_operation_k_fires_once(self, tmp_path):
        recorder = RecordingIO(cut=2)
        recorder.create(tmp_path / "t", b"x")
        recorder.fsync(tmp_path / "t")
        with pytest.raises(SimulatedCrash) as excinfo:
            recorder.rename(tmp_path / "t", tmp_path / "f")
        assert (excinfo.value.index, excinfo.value.kind) == (2, "rename")
        assert [op.kind for op in recorder.log] == ["create", "fsync"]
        assert recorder.fired.kind == "rename"
        # a dead process writes nothing more, and the cut stays where it fell
        with pytest.raises(SimulatedCrash):
            recorder.append(tmp_path / "g", b"late")
        assert recorder.fired.kind == "rename"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t"]

    def test_torn_append_persists_the_seeded_prefix(self, tmp_path):
        data = bytes(range(100))
        recorder = RecordingIO(cut=1, seed=5)
        recorder.create(tmp_path / "wal", b"abc")
        with pytest.raises(SimulatedCrash):
            recorder.append(tmp_path / "wal", data)
        torn = torn_offset(len(data), 5, 1)
        assert 0 <= torn < len(data)
        assert (tmp_path / "wal").read_bytes() == b"abc" + data[:torn]
        # the built process-death state of the same cut is that file
        assert crash_state(recorder.log + [recorder.fired], tmp_path, 1,
                           MODELS[0], seed=5) == {"wal": b"abc" + data[:torn]}

    def test_unarmed_recorder_changes_nothing(self, tmp_path):
        plain, recorded = tmp_path / "plain", tmp_path / "recorded"
        plain.mkdir()
        recorded.mkdir()
        recorder = RecordingIO()
        exercise(PLAIN, plain)
        exercise(recorder, recorded)
        assert tree(recorded) == tree(plain)
        assert recorder.fired is None
        # the log alone rebuilds the directory, file for file
        rebuilt = materialize(crash_state(recorder.log, recorded,
                                          len(recorder.log), MODELS[0]),
                              tmp_path / "rebuilt")
        assert tree(rebuilt) == tree(recorded)

    def test_seeded_torn_offset_is_deterministic(self):
        assert torn_offset(100, 7, 3) == torn_offset(100, 7, 3)
        offsets = {torn_offset(100, 7, index) for index in range(50)}
        assert len(offsets) > 1 and all(0 <= o < 100 for o in offsets)
        assert torn_offset(0, 7, 3) == 0 and torn_offset(1, 7, 3) == 0

    def test_power_loss_keeps_only_what_was_fsynced(self, tmp_path):
        recorder = RecordingIO()
        exercise(recorder, tmp_path)
        log = recorder.log
        # every publish ended with a directory fsync; the log was never
        # fsynced (a seeded prefix of it survives), nor was the unlink
        state = crash_state(log, tmp_path, len(log), MODELS[1])
        assert state["f"] == b"second" and state["a/b/f"] == b"payload"
        assert b"one\ntwo\n".startswith(state["log"])
        assert not any(name.endswith(".tmp") for name in state)
        # cut before the first directory fsync: nothing was made durable
        first_sync = [op.kind for op in log].index("fsync_dir")
        assert crash_state(log, tmp_path, first_sync, MODELS[1]) == {}

    def test_cut_write_keeps_original_and_gc_takes_temp(self, tmp_path):
        store_manifest(tmp_path, Manifest(version=3))
        # operations: create temp, fsync, rename, fsync directory
        with pytest.raises(SimulatedCrash):
            store_manifest(tmp_path, Manifest(version=4), RecordingIO(cut=2))
        assert (tmp_path / f".{MANIFEST_NAME}.tmp").exists()
        assert StorageEngine(tmp_path).manifest.version == 3
        assert not any(p.name.startswith(".") for p in tmp_path.iterdir())


class TestDurabilityMatrix:
    """Cut the collection service after every durable operation, under
    process death and under power loss; recovery must land on a committed
    round byte-identical to the uninterrupted run (the acceptance gate).
    A durable service always carries the lake and the run ends with a
    lake compaction, so every run covers storage, lake and compaction."""

    def test_every_window_recovers_byte_identical(self):
        result = durability_run(rounds=2, checkpoint_every=1,
                                instance_types=None,
                                cloud_factory=build_tiny_cloud)
        assert result.complete
        for model in MODELS:
            points = [c for c in result.cases if c.model == model]
            assert len(points) == result.operations + 1
            # one resume per operation kind, every kind reached
            assert len({c.kind for c in resumed(result)
                        if c.model == model}) == 7
        for case in result.cases:
            assert case.identical, case.summary()
        assert result.identical

    def test_durability_under_chaos_faults(self):
        # gap records and retry bookkeeping ride the WAL like any write
        result = durability_run(rounds=2, checkpoint_every=1,
                                instance_types=None,
                                chaos_profile="moderate", chaos_seed=3,
                                cloud_factory=build_tiny_cloud)
        assert result.identical, result.summary()

    def test_wal_crash_loses_at_most_the_inflight_round(self):
        result = durability_run(rounds=3, checkpoint_every=2,
                                instance_types=None,
                                cloud_factory=build_tiny_cloud)
        death = [c for c in result.cases if c.model == MODELS[0]]
        # process death: recovery keeps exactly the completed commits
        for case in death:
            assert case.rounds_recovered == case.wal_commits, case.summary()
        last = max(c.cut for c in death
                   if c.kind == "append" and c.wal_commits == 2)
        inflight = death[last]
        assert inflight.rounds_recovered == 2  # only round 3 is lost
        assert death[last + 1].rounds_recovered == 3
        # power loss: the WAL is never fsynced, so it rolls back to the
        # last checkpoint (round 2) or to a torn prefix past it
        power = [c for c in result.cases if c.model == MODELS[1]]
        assert {c.rounds_recovered for c in power[last:]} <= {2, 3}
        assert any(p.rounds_recovered < d.rounds_recovered
                   for p, d in zip(power, death))
        # every restart collects the rest and ends where the reference did
        for case in resumed(result):
            assert case.identical, case.summary()
            assert case.rounds_recovered + case.rounds_resumed == 3

    def test_lake_matrix_crosses_midnight_and_resumes(self):
        """Keyframe + delta layout under every crash point: the run
        crosses a UTC midnight half-way with two rounds kept hot, so
        restarts re-collect the new day's keyframe, re-seed the differ
        from keyframe + deltas and replay evictions from the WAL tail;
        then the compaction folds the finished day."""
        result = durability_run(rounds=4, checkpoint_every=2,
                                instance_types=None,
                                cloud_factory=build_tiny_cloud)
        assert result.identical, result.summary()
        for case in resumed(result):
            assert case.rounds_recovered + case.rounds_resumed == 4
        death = [c for c in result.cases if c.model == MODELS[0]]
        # a cut in the new day's keyframe file (round 3) keeps the old
        # day's two rounds; the restart re-collects the keyframe
        days = sorted(c.path for c in death
                      if c.kind == "mkdir" and c.path.count("/") == 3)
        assert len(days) == 2
        keyframe = death[min(c.cut for c in death if c.kind == "create"
                             and c.path.startswith(days[1] + "/.round-"))]
        assert keyframe.rounds_recovered == 2
        # cuts inside the compaction land on either side of it, never
        # in between, under both models
        for model in MODELS:
            tail = [c for c in result.cases if c.model == model
                    and c.rounds_recovered == 4]
            assert {c.lake for c in tail} == {"", "compacted"}
