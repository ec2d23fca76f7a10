"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def content_digest_lines(out):
    return [line for line in out.splitlines()
            if line.startswith("content digest: ")]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.algorithm == "exact"
        assert args.seed == 0


class TestCommands:
    def test_plan(self, capsys):
        assert main(["plan", "--algorithm", "ffd"]) == 0
        out = capsys.readouterr().out
        assert "packed queries" in out
        assert "9299" in out.replace(",", "")

    def test_collect_restricted(self, capsys):
        code = main(["collect", "--types", "m5.large", "c5.xlarge",
                     "--rounds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "round 0" in out and "round 1" in out
        assert len(content_digest_lines(out)) == 1

    def test_collect_refuses_unknown_types(self, capsys):
        assert main(["collect", "--types", "m5.large", "nope.xlarge"]) == 2
        assert "unknown instance type(s): nope.xlarge" in \
            capsys.readouterr().err

    def test_query(self, capsys):
        assert main(["query", "--type", "m5.large",
                     "--region", "us-east-1", "--zone", "us-east-1a"]) == 0
        out = capsys.readouterr().out
        assert "sps:" in out
        assert "spot_price:" in out

    def test_analyze_small(self, capsys):
        code = main(["analyze", "--days", "3", "--pool-types", "2",
                     "--group-by", "region", "--agg", "mean,count",
                     "--limit", "4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("sps (sps.sps), 3 day(s), ")
        assert " group(s) x 3 bucket(s)" in lines[0]
        assert lines[1].split() == ["region", "bucket_start", "mean", "count"]
        assert len(lines) == 2 + 4 + 1  # header x2, --limit rows, counters
        assert lines[-1].startswith("analytics: 1 query(ies), ")

    def test_collect_with_data_dir_then_recover(self, capsys, tmp_path):
        data_dir = str(tmp_path / "data")
        code = main(["collect", "--types", "m5.large", "--rounds", "2",
                     "--data-dir", data_dir, "--checkpoint-every", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "storage:" in out and "rounds committed" in out
        assert (tmp_path / "data" / "MANIFEST").exists()

        # a restart resumes from the recovered timeline
        code = main(["collect", "--types", "m5.large", "--rounds", "1",
                     "--data-dir", data_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered 2 committed round(s)" in out
        collected = content_digest_lines(out)

        code = main(["recover", "--data-dir", data_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 committed round(s)" in out
        assert "sps:" in out and "retention keep-all" in out
        # recovery rebuilds exactly what the collecting process held
        assert len(collected) == 1
        assert content_digest_lines(out) == collected

    def test_recover_missing_directory_is_empty_not_error(self, capsys,
                                                          tmp_path):
        # recover on a fresh (empty) directory reports zero state, exit 0
        assert main(["recover", "--data-dir", str(tmp_path / "nope")]) == 0
        assert "0 committed round(s)" in capsys.readouterr().out

    def test_recover_corrupt_wal_exits_one(self, capsys, tmp_path):
        from repro.storage.wal import encode_record

        data = tmp_path / "data"
        data.mkdir()
        # an invalid line FOLLOWED by a valid record is real corruption
        # (not a forgivable torn tail)
        (data / "wal-00000001.log").write_bytes(
            b"00000000 garbage\n"
            + encode_record(1, {"op": "commit", "round": 1, "time": 0.0}))
        assert main(["recover", "--data-dir", str(data)]) == 1
        assert "recovery failed" in capsys.readouterr().err

    def test_recover_corrupt_manifest_exits_one(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "MANIFEST").write_text('{"format": 1, "versi')  # torn
        assert main(["recover", "--data-dir", str(data)]) == 1
        assert "recovery failed: CorruptManifestError" in \
            capsys.readouterr().err

    def test_lake_stats_says_what_a_day_is_made_of(self, capsys, tmp_path):
        data_dir = str(tmp_path / "data")
        assert main(["collect", "--types", "m5.large", "--rounds", "3",
                     "--data-dir", data_dir]) == 0
        capsys.readouterr()
        assert main(["lake", "stats", "--data-dir", data_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "3 partition(s), 3 round(s) over 1 day(s)" in lines[0]
        assert len(lines) == 2 and lines[1].startswith(
            "  2022/01/01: 3 round(s); 1 keyframe (")
        # at this scale nothing changes in twenty minutes: empty deltas
        assert ", 2 delta (0 rows, " in lines[1]
        assert lines[1].endswith(", 0 day (0 rows, 0 bytes)")

        assert main(["lake", "compact", "--include-active",
                     "--data-dir", data_dir]) == 0
        capsys.readouterr()
        assert main(["lake", "stats", "--data-dir", data_dir]) == 0
        day_line = capsys.readouterr().out.splitlines()[1]
        assert "3 round(s); 0 keyframe (0 rows, 0 bytes), 0 delta " in day_line
        assert ", 1 day (" in day_line

    def test_lake_stats_splits_each_kind_into_header_and_columns(
            self, capsys, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["collect", "--types", "m5.large", "--rounds", "3",
                     "--data-dir", str(data_dir)]) == 0
        capsys.readouterr()
        assert main(["lake", "stats", "--data-dir", str(data_dir)]) == 0
        day_line = capsys.readouterr().out.splitlines()[1]
        for kind, files in (("keyframe", ["round-1640995200.seg"]),
                            ("delta", ["round-1640995800.seg",
                                       "round-1640996400.seg"])):
            raws = [(data_dir / "lake" / "2022" / "01" / "01" / name
                     ).read_bytes() for name in files]
            # a header is the magic, its u32 length and the JSON itself
            header = sum(12 + int.from_bytes(raw[8:12], "little")
                         for raw in raws)
            size = sum(map(len, raws))
            assert f"{len(files)} {kind} (" in day_line
            assert f" rows, {size} bytes = {header} header + " \
                   f"{size - header} columns)" in day_line
        assert day_line.endswith(", 0 day (0 rows, 0 bytes)")

    @pytest.mark.parametrize("entry_format", [1, 2, None])
    def test_recover_refuses_older_segment_formats(self, capsys, tmp_path,
                                                   entry_format):
        data = tmp_path / "data"
        assert main(["collect", "--types", "m5.large", "--rounds", "1",
                     "--data-dir", str(data), "--checkpoint-every", "1"]) == 0
        manifest = json.loads((data / "MANIFEST").read_text())
        for table in manifest["tables"].values():
            for entry in table["segments"]:
                entry.pop("format")
                if entry_format is not None:
                    entry["format"] = entry_format
        (data / "MANIFEST").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["recover", "--data-dir", str(data)]) == 1
        # the version gate fires on the manifest entry, before the (v3)
        # file is read at all
        err = capsys.readouterr().err
        assert err.startswith("recovery failed: CorruptSegmentError: ")
        assert f"has unsupported format {entry_format or 1}" in err

    def test_recover_refuses_an_older_lake_format(self, capsys, tmp_path):
        data = tmp_path / "data"
        assert main(["collect", "--types", "m5.large", "--rounds", "1",
                     "--data-dir", str(data)]) == 0
        path = data / "lake" / "LAKE_MANIFEST"
        path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                        format=1)))
        capsys.readouterr()
        assert main(["recover", "--data-dir", str(data)]) == 1
        assert "recovery failed: LakeFormatError: unsupported lake " \
               "manifest format 1" in capsys.readouterr().err
        assert main(["lake", "stats", "--data-dir", str(data)]) == 1

    def test_query_bad_region(self, capsys):
        assert main(["query", "--type", "m5.large",
                     "--region", "us-east-1",
                     "--zone", ""]) == 0  # zone optional -> region payload

    def test_experiment_small(self, capsys):
        assert main(["experiment", "--per-combo", "5"]) == 0
        out = capsys.readouterr().out
        assert "H-H" in out and "not-fulfilled" in out


class TestLintCommand:
    @pytest.fixture()
    def dirty_file(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text("import random\nx = random.random()\n")
        return path

    def test_shipped_tree_is_clean_exit_zero(self, capsys):
        src = REPO_ROOT / "src" / "repro"
        assert main(["lint", str(src)]) == 0
        assert "spotlint: clean" in capsys.readouterr().out

    def test_findings_exit_one_text(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out and "dirty.py:2" in out

    def test_format_json(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["finding_count"] == 1
        assert payload["findings"][0]["rule"] == "DET002"

    def test_rules_filter(self, dirty_file, capsys):
        # only DET003 requested -> the DET002 violation is out of scope
        assert main(["lint", str(dirty_file), "--rules", "DET003"]) == 0
        payload_ok = capsys.readouterr().out
        assert "spotlint: clean" in payload_ok
        assert main(["lint", str(dirty_file),
                     "--rules", "DET002,DET003"]) == 1

    def test_unknown_rule_is_usage_error(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--rules", "NOPE99"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.txt")]) == 2

    def test_bad_format_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--format", "yaml"])
        assert exc.value.code == 2

    def test_suppression_visible_with_flag(self, tmp_path, capsys):
        path = tmp_path / "quiet.py"
        path.write_text("import random\n"
                        "x = random.random()  "
                        "# spotlint: disable=DET002 -- fixture\n")
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--show-suppressed"]) == 0
        assert "[suppressed]" in capsys.readouterr().out
