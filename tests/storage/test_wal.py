"""WAL unit tests: framing, group commit, torn tails, real corruption."""

import pytest

from repro.devtools.doublerun import MODELS, crash_state, materialize
from repro.storage import CorruptWalError, RecordingIO, WalWriter, read_wal
from repro.storage.wal import (
    decode_line,
    encode_record,
    list_wal_files,
    wal_file_name,
    wal_file_number,
)


def write_op(writer, value, time=0.0):
    return writer.append({"op": "write", "table": "t", "measure": "m",
                          "dims": {"k": "x"}, "value": value, "time": time})


class TestFraming:
    def test_encode_decode_round_trip(self):
        line = encode_record(7, {"op": "write", "value": 3})
        record = decode_line(line)
        assert record == {"seq": 7, "op": "write", "value": 3}

    def test_decode_rejects_missing_terminator(self):
        line = encode_record(1, {"op": "commit"})
        assert decode_line(line[:-1]) is None

    def test_decode_rejects_bad_checksum(self):
        line = bytearray(encode_record(1, {"op": "commit", "round": 1}))
        line[-3] ^= 0x01  # flip a payload byte, keep the crc
        assert decode_line(bytes(line)) is None

    def test_decode_rejects_garbage(self):
        assert decode_line(b"not a wal line\n") is None
        assert decode_line(b"zzzzzzzz {}\n") is None
        assert decode_line(b"00000000 [1,2]\n") is None

    def test_file_name_round_trip(self):
        assert wal_file_number(wal_file_name(42)) == 42
        assert wal_file_number("seg-00000001-t-L0.jsonl") is None
        assert wal_file_number("wal-abc.log") is None


class TestGroupCommit:
    def test_appends_invisible_until_commit(self, tmp_path):
        writer = WalWriter(tmp_path)
        write_op(writer, 1)
        write_op(writer, 2)
        assert writer.pending == 2
        replay = read_wal(tmp_path)
        assert replay.operations == []
        assert replay.rounds == 0

        writer.commit(1, 10.0)
        assert writer.pending == 0
        replay = read_wal(tmp_path)
        assert [op["value"] for op in replay.operations] == [1, 2]
        assert replay.rounds == 1
        assert replay.commits[0]["time"] == 10.0
        assert replay.last_seq == 3

    def test_uncommitted_batch_discarded(self, tmp_path):
        writer = WalWriter(tmp_path)
        write_op(writer, 1)
        writer.commit(1, 10.0)
        write_op(writer, 2)
        write_op(writer, 3)
        # simulate a crash before commit: the batch never reached disk
        replay = read_wal(tmp_path)
        assert [op["value"] for op in replay.operations] == [1]
        assert replay.uncommitted_records == 0  # never written at all

    def test_commit_written_without_marker_is_discarded(self, tmp_path):
        # a batch that reaches the file but whose marker line is torn off
        writer = WalWriter(tmp_path)
        write_op(writer, 1)
        writer.commit(1, 10.0)
        write_op(writer, 2)
        marker_seq = writer.commit(2, 20.0)
        path = tmp_path / wal_file_name(1)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))  # drop the round-2 marker
        replay = read_wal(tmp_path)
        assert [op["value"] for op in replay.operations] == [1]
        assert replay.rounds == 1
        assert replay.uncommitted_records == 1
        assert replay.last_seq < marker_seq

    def test_after_seq_skips_checkpointed_prefix(self, tmp_path):
        writer = WalWriter(tmp_path)
        write_op(writer, 1)
        horizon = writer.commit(1, 10.0)
        write_op(writer, 2)
        writer.commit(2, 20.0)
        replay = read_wal(tmp_path, after_seq=horizon)
        assert [op["value"] for op in replay.operations] == [2]
        assert replay.rounds == 1


class TestTornTail:
    def test_torn_final_line_is_forgiven(self, tmp_path):
        writer = WalWriter(tmp_path)
        write_op(writer, 1)
        writer.commit(1, 10.0)
        path = tmp_path / wal_file_name(1)
        with path.open("ab") as fh:
            fh.write(encode_record(3, {"op": "write"})[:10])  # torn write
        replay = read_wal(tmp_path)
        assert [op["value"] for op in replay.operations] == [1]
        assert replay.torn_lines == 1

    def test_invalid_line_before_valid_ones_raises(self, tmp_path):
        writer = WalWriter(tmp_path)
        write_op(writer, 1)
        writer.commit(1, 10.0)
        write_op(writer, 2)
        writer.commit(2, 20.0)
        path = tmp_path / wal_file_name(1)
        lines = path.read_bytes().splitlines(keepends=True)
        corrupt = bytearray(lines[1])
        corrupt[-3] ^= 0x01
        path.write_bytes(lines[0] + bytes(corrupt) + b"".join(lines[2:]))
        with pytest.raises(CorruptWalError):
            read_wal(tmp_path)

    def test_sequence_gap_raises(self, tmp_path):
        writer = WalWriter(tmp_path)
        write_op(writer, 1)
        writer.commit(1, 10.0)
        write_op(writer, 2)
        writer.commit(2, 20.0)
        path = tmp_path / wal_file_name(1)
        lines = path.read_bytes().splitlines(keepends=True)
        del lines[1]  # excise a middle record; later seqs now gap
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptWalError):
            read_wal(tmp_path)


class TestSegmentation:
    def test_rolls_to_new_files_and_replays_across_them(self, tmp_path):
        writer = WalWriter(tmp_path, segment_bytes=200)
        for value in range(8):
            write_op(writer, value)
            writer.commit(value + 1, float(value))
        files = list_wal_files(tmp_path)
        assert len(files) > 1
        replay = read_wal(tmp_path)
        assert [op["value"] for op in replay.operations] == list(range(8))
        assert replay.rounds == 8
        assert replay.max_file_number == files[-1][0]

    def test_power_loss_leaves_a_committed_prefix(self, tmp_path):
        # a roll fsyncs the finished file: otherwise a power loss can tear
        # an older file ahead of valid records in a newer one
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        recorder = RecordingIO()
        writer = WalWriter(log_dir, segment_bytes=200, io=recorder)
        for value in range(8):
            write_op(writer, value)
            writer.commit(value + 1, float(value))
            recorder.fsync_dir(log_dir)  # as a checkpoint's publish does
        log = recorder.log
        for cut in range(len(log) + 1):
            crashed = materialize(crash_state(log, log_dir, cut, MODELS[1]),
                                  tmp_path / "crash")
            replay = read_wal(crashed)
            assert [op["value"] for op in replay.operations] == \
                list(range(replay.rounds)), cut

    def test_reopen_appends_instead_of_clobbering(self, tmp_path):
        writer = WalWriter(tmp_path)
        write_op(writer, 1)
        writer.commit(1, 10.0)
        replay = read_wal(tmp_path)
        writer = WalWriter(tmp_path, number=replay.max_file_number,
                           next_seq=replay.last_seq + 1)
        write_op(writer, 2)
        writer.commit(2, 20.0)
        replay = read_wal(tmp_path)
        assert [op["value"] for op in replay.operations] == [1, 2]
        assert replay.rounds == 2
