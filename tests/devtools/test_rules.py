"""Fixture-snippet suite: one positive and one negative case per rule."""

import textwrap

from repro.devtools import LintConfig, lint_source, make_rules


def lint(source, package="", module=None, codes=None, config=None):
    """Lint a dedented snippet, returning the list of finding rule codes."""
    module = module or (f"repro.{package}.snippet" if package
                        else "repro.snippet")
    result = lint_source(textwrap.dedent(source), package=package,
                         module=module, config=config,
                         rules=make_rules(codes))
    assert not result.parse_errors
    return result


def codes_of(result):
    return [f.rule for f in result.findings]


class TestDET001WallClock:
    def test_positive_time_time_in_clocked_package(self):
        result = lint("""
            import time

            def stamp():
                return time.time()
            """, package="cloudsim", codes=["DET001"])
        assert codes_of(result) == ["DET001"]
        assert "simulation Clock" in result.findings[0].message

    def test_positive_datetime_now(self):
        result = lint("""
            from datetime import datetime

            def stamp():
                return datetime.now().timestamp()
            """, package="timeseries", codes=["DET001"])
        assert codes_of(result) == ["DET001"]

    def test_negative_sim_clock_and_conversions(self):
        result = lint("""
            from datetime import datetime, timezone

            def stamp(clock):
                now = clock.now()
                return datetime.fromtimestamp(now, tz=timezone.utc)
            """, package="cloudsim", codes=["DET001"])
        assert codes_of(result) == []

    def test_negative_outside_clocked_packages(self):
        result = lint("""
            import time

            def stamp():
                return time.time()
            """, package="analysis", codes=["DET001"])
        assert codes_of(result) == []


class TestDET002UnseededRandomness:
    def test_positive_global_prng_and_entropy(self):
        result = lint("""
            import os
            import random
            import uuid

            def draw():
                a = random.random()
                b = random.choice([1, 2])
                c = os.urandom(8)
                d = uuid.uuid4()
                return a, b, c, d
            """, codes=["DET002"])
        assert codes_of(result) == ["DET002"] * 4

    def test_positive_unseeded_constructors(self):
        result = lint("""
            import random
            import numpy as np

            def make():
                return random.Random(), np.random.default_rng()
            """, codes=["DET002"])
        assert codes_of(result) == ["DET002"] * 2

    def test_positive_numpy_module_level(self):
        result = lint("""
            import numpy as np

            def shuffle(xs):
                np.random.shuffle(xs)
            """, codes=["DET002"])
        assert codes_of(result) == ["DET002"]

    def test_negative_seeded_generators(self):
        result = lint("""
            import random
            import numpy as np
            from repro._util import stable_rng

            def make(seed):
                rng = np.random.default_rng(seed)
                other = random.Random(42)
                third = stable_rng("part", seed)
                return rng.choice([1, 2]), other.random(), third
            """, codes=["DET002"])
        assert codes_of(result) == []


class TestDET003OrderingHazards:
    def test_positive_set_iteration(self):
        result = lint("""
            def emit(items):
                out = []
                for name in set(items):
                    out.append(name)
                return out
            """, codes=["DET003"])
        assert codes_of(result) == ["DET003"]

    def test_positive_set_into_consumer_and_hash(self):
        result = lint("""
            def emit(xs):
                ordered = list(set(xs))
                key = hash("stable?")
                return ordered, key
            """, codes=["DET003"])
        assert sorted(codes_of(result)) == ["DET003", "DET003"]

    def test_positive_set_literal_comprehension(self):
        result = lint("""
            def emit(a, b):
                return [x for x in {a, b}]
            """, codes=["DET003"])
        assert codes_of(result) == ["DET003"]

    def test_negative_sorted_and_membership(self):
        result = lint("""
            import hashlib

            def emit(items, seen):
                out = [x for x in sorted(set(items)) if x not in seen]
                digest = hashlib.blake2b(b"x").hexdigest()
                for name in sorted({"b", "a"}):
                    out.append(name)
                return out, digest
            """, codes=["DET003"])
        assert codes_of(result) == []


class TestQUO001QuotaBypass:
    def test_positive_engine_access(self):
        result = lint("""
            def probe(cloud, itype, region, zone, ts):
                sps = cloud.placement.zone_score(itype, region, zone, ts)
                price = cloud.pricing.spot_price(itype, region, ts, zone)
                return sps, price
            """, package="core", codes=["QUO001"])
        assert codes_of(result) == ["QUO001"] * 2

    def test_positive_self_cloud_and_construction(self):
        result = lint("""
            from repro.cloudsim import PricingEngine

            class Probe:
                def peek(self, itype, region, ts):
                    engine = PricingEngine(self.cloud.market)
                    return self.cloud.advisor.interruption_ratio(
                        itype, region, ts)
            """, package="experiments", codes=["QUO001"])
        # market access, engine construction, advisor access
        assert codes_of(result) == ["QUO001"] * 3

    def test_negative_client_surface_and_unrelated_attrs(self):
        result = lint("""
            class Collector:
                def collect(self, client, record):
                    rows = client.get_spot_placement_scores(
                        ["m5.large"], ["us-east-1"])
                    self.advisor.write(record)  # archive table, not engine
                    return rows
            """, package="core", codes=["QUO001"])
        assert codes_of(result) == []

    def test_negative_inside_cloudsim(self):
        result = lint("""
            def internal(cloud, ts):
                return cloud.placement.score_query([], [], ts)
            """, package="cloudsim", codes=["QUO001"])
        assert codes_of(result) == []


class TestLAY001Layering:
    def test_positive_leaf_imports_upward(self):
        result = lint("""
            from repro.core.archive import SpotLakeArchive
            """, package="timeseries", module="repro.timeseries.snippet",
            codes=["LAY001"])
        assert codes_of(result) == ["LAY001"]
        assert "'timeseries' may not import from 'core'" \
            in result.findings[0].message

    def test_positive_relative_upward_import(self):
        result = lint("""
            from ..analysis.scores import interruption_free_score
            """, package="cloudsim", module="repro.cloudsim.snippet",
            codes=["LAY001"])
        assert codes_of(result) == ["LAY001"]

    def test_positive_root_package_import(self):
        result = lint("""
            from repro import SpotLakeService
            """, package="apps", module="repro.apps.snippet",
            codes=["LAY001"])
        assert codes_of(result) == ["LAY001"]
        assert "repro root" in result.findings[0].message

    def test_positive_undeclared_package(self):
        result = lint("""
            import json
            """, package="newpkg", module="repro.newpkg.snippet",
            codes=["LAY001"])
        assert codes_of(result) == ["LAY001"]
        assert "not declared" in result.findings[0].message

    def test_negative_allowed_imports(self):
        result = lint("""
            import numpy as np
            from repro.cloudsim import SimulatedCloud
            from ..timeseries import Record
            from .._util import stable_hash
            from ..scoring import categorize
            from .archive import SpotLakeArchive
            """, package="core", module="repro.core.snippet",
            codes=["LAY001"])
        assert codes_of(result) == []

    def test_negative_package_init_relative_import(self):
        # ``from .record import X`` inside repro/timeseries/__init__.py
        result = lint("""
            from .record import Record
            from .._util import stable_hash
            """, package="timeseries",
            module="repro.timeseries.__init__", codes=["LAY001"])
        assert codes_of(result) == []


class TestCLK001ClockFlow:
    def test_positive_wall_clock_timestamp(self):
        result = lint("""
            import time

            def archive_now(archive):
                archive.append("price", [("m5.large", "us-east-1",
                                          "use1-az1", 1.0, time.time())])
            """, package="apps", codes=["CLK001"])
        assert codes_of(result) == ["CLK001"]
        assert "append" in result.findings[0].message

    def test_positive_nested_in_record_write(self):
        result = lint("""
            from datetime import datetime

            def bad(table, Record, dims):
                table.write(Record.make(dims, "sps", 3.0,
                                        datetime.utcnow().timestamp()))
            """, package="core", codes=["CLK001"])
        assert codes_of(result) == ["CLK001"]

    def test_negative_sim_clock_timestamp(self):
        result = lint("""
            def good(archive, clock):
                now = clock.now()
                archive.append("price", [("m5.large", "us-east-1",
                                          "use1-az1", 1.0, now)])
            """, package="core", codes=["CLK001"])
        assert codes_of(result) == []

    def test_negative_list_append_is_not_an_archive(self):
        result = lint("""
            import time

            def stamp(samples):
                samples.append(time.time())
            """, package="analysis", codes=["CLK001"])
        assert codes_of(result) == []

    def test_negative_file_write_is_not_a_table(self):
        result = lint("""
            import time

            def log_line(fh):
                fh.write(f"{time.time()}\\n")
            """, package="analysis", codes=["CLK001"])
        assert codes_of(result) == []


class TestFrameworkPlumbing:
    def test_at_least_six_rules_registered(self):
        from repro.devtools import registered_codes
        codes = registered_codes()
        assert len(codes) >= 6
        for expected in ("DET001", "DET002", "DET003", "QUO001",
                         "LAY001", "CLK001"):
            assert expected in codes

    def test_unknown_rule_code_raises(self):
        import pytest
        with pytest.raises(KeyError):
            make_rules(["NOPE99"])

    def test_parse_error_reported_not_raised(self):
        result = lint_source("def broken(:\n", path="bad.py")
        assert result.parse_errors
        assert not result.clean

    def test_per_package_disable(self):
        config = LintConfig(per_package_disable={"multicloud": ("QUO001",)})
        src = "def f(cloud, t):\n    return cloud.pricing.spot_price(t)\n"
        flagged = lint_source(src, package="apps",
                              module="repro.apps.x", config=config,
                              rules=make_rules(["QUO001"]))
        silenced = lint_source(src, package="multicloud",
                               module="repro.multicloud.x", config=config,
                               rules=make_rules(["QUO001"]))
        assert [f.rule for f in flagged.findings] == ["QUO001"]
        assert silenced.findings == []
