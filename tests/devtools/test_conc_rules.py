"""CONC001-003 + FLOW001 on seeded known-bad (and known-good) fixtures."""

import textwrap

from repro.devtools import lint_source, make_rules
from repro.devtools.config import LintConfig


def lint(source, codes, module="repro.core.snippet", package="core",
         config=None):
    return lint_source(textwrap.dedent(source), module=module,
                       package=package, config=config,
                       rules=make_rules(codes))


class TestConc001SharedWrite:
    BAD = """
        from concurrent.futures import ThreadPoolExecutor

        class Collector:
            def run(self, spans):
                with ThreadPoolExecutor() as pool:
                    pool.map(self.materialize, spans)

            def materialize(self, span):
                self.rows[span] = 1          # shared dict write
                self.count += 1              # shared attribute write
        """

    def test_unlocked_worker_mutation_fires(self):
        result = lint(self.BAD, ["CONC001"])
        assert [f.rule for f in result.findings] == ["CONC001", "CONC001"]
        assert "pool worker" in result.findings[0].message
        # the message names the dispatch site so the report is actionable
        assert ":7" in result.findings[0].message

    def test_lock_guard_silences(self):
        result = lint("""
            from concurrent.futures import ThreadPoolExecutor

            class Collector:
                def run(self, spans):
                    with ThreadPoolExecutor() as pool:
                        pool.map(self.materialize, spans)

                def materialize(self, span):
                    with self._lock:
                        self.rows[span] = 1
            """, ["CONC001"])
        assert result.findings == []

    def test_transitive_callee_checked(self):
        result = lint("""
            from concurrent.futures import ThreadPoolExecutor

            class Collector:
                def run(self, spans):
                    with ThreadPoolExecutor() as pool:
                        pool.map(self.materialize, spans)

                def materialize(self, span):
                    self.finish(span)

                def finish(self, span):
                    self.done.append(span)
            """, ["CONC001"])
        assert [f.rule for f in result.findings] == ["CONC001"]
        assert "finish" in result.findings[0].message

    def test_local_state_is_fine(self):
        result = lint("""
            from concurrent.futures import ThreadPoolExecutor

            class Collector:
                def run(self, spans):
                    with ThreadPoolExecutor() as pool:
                        return list(pool.map(self.materialize, spans))

                def materialize(self, span):
                    rows = []
                    rows.append(span)
                    return rows
            """, ["CONC001"])
        assert result.findings == []

    def test_untreaded_mutation_is_fine(self):
        result = lint("""
            class Collector:
                def merge(self, span):
                    self.rows[span] = 1
            """, ["CONC001"])
        assert result.findings == []


class TestConc002LockRelease:
    def test_bare_acquire_fires(self):
        result = lint("""
            def grab(lock):
                lock.acquire()
                do_work()
                lock.release()
            """, ["CONC002"])
        assert [f.rule for f in result.findings] == ["CONC002"]
        assert "with" in result.findings[0].message

    def test_try_finally_release_ok(self):
        result = lint("""
            def grab(self):
                self._lock.acquire()
                try:
                    do_work()
                finally:
                    self._lock.release()
            """, ["CONC002"])
        assert result.findings == []

    def test_finally_on_different_lock_fires(self):
        result = lint("""
            def grab(self):
                self._lock.acquire()
                try:
                    do_work()
                finally:
                    self._other_lock.release()
            """, ["CONC002"])
        assert [f.rule for f in result.findings] == ["CONC002"]

    def test_with_statement_never_fires(self):
        result = lint("""
            def grab(self):
                with self._lock:
                    do_work()
            """, ["CONC002"])
        assert result.findings == []

    def test_non_lock_receiver_ignored(self):
        result = lint("""
            def grab(sem):
                sem.acquire()
            """, ["CONC002"])
        assert result.findings == []


class TestConc003GlobalGuard:
    def test_unguarded_watched_global_fires(self):
        result = lint("""
            CACHE = {}

            def remember(key, value):
                CACHE[key] = value
            """, ["CONC003"])
        assert [f.rule for f in result.findings] == ["CONC003"]
        assert "repro.core.snippet.CACHE" in result.findings[0].message

    def test_lock_guard_silences(self):
        result = lint("""
            import threading

            CACHE = {}
            _LOCK = threading.Lock()

            def remember(key, value):
                with _LOCK:
                    CACHE[key] = value
            """, ["CONC003"])
        assert result.findings == []

    def test_module_level_init_is_fine(self):
        result = lint("""
            CACHE = {}
            CACHE["seed"] = 1
            """, ["CONC003"])
        assert result.findings == []

    def test_class_attribute_store_fires(self):
        result = lint("""
            class Cache:
                _shared = None

                @classmethod
                def shared(cls):
                    if cls._shared is None:
                        cls._shared = cls()
                    return cls._shared
            """, ["CONC003"])
        assert [f.rule for f in result.findings] == ["CONC003"]
        assert "cls._shared" in result.findings[0].message

    def test_local_shadow_not_flagged(self):
        result = lint("""
            CACHE = {}

            def remember(key, value):
                CACHE = {}
                CACHE[key] = value
            """, ["CONC003"])
        assert result.findings == []

    def test_config_extra_globals(self):
        config = LintConfig(rule_options={
            "conc003": {"globals": ["repro.core.snippet.registry"]}})
        result = lint("""
            registry = {}

            def register(key, value):
                registry[key] = value
            """, ["CONC003"], config=config)
        assert [f.rule for f in result.findings] == ["CONC003"]


class TestFlow001LogThenApply:
    def test_ungated_apply_fires(self):
        result = lint("""
            class Collector:
                def collect(self):
                    self.store.table("sps").append_many(self.points)
            """, ["FLOW001"])
        assert [f.rule for f in result.findings] == ["FLOW001"]
        assert "log-then-apply" in result.findings[0].message

    def test_gated_apply_ok(self):
        result = lint("""
            class Collector:
                def collect(self):
                    self.engine.log_points("sps", self.points)
                    self.store.table("sps").append_many(self.points)
            """, ["FLOW001"])
        assert result.findings == []

    def test_archive_append_is_an_entry_point(self):
        # ``x.append(...)`` never resolves through the call graph (it is
        # a builtin-collection method name), so the archive's write API
        # is rooted by qualname
        result = lint("""
            class SpotLakeArchive:
                def append(self, dataset, rows):
                    self.store.table(dataset).append_many(rows)
            """, ["FLOW001"])
        assert [f.rule for f in result.findings] == ["FLOW001"]

    def test_apply_through_helper_checked(self):
        result = lint("""
            class Collector:
                def collect(self):
                    self._apply()

                def _apply(self):
                    self.store.table("sps").write(self.record)
            """, ["FLOW001"])
        assert [f.rule for f in result.findings] == ["FLOW001"]
        # the message reconstructs the path from the entry point
        assert "collect" in result.findings[0].message

    def test_unreachable_apply_not_checked(self):
        result = lint("""
            class Tool:
                def backfill(self):
                    self.store.table("sps").append_many(self.points)
            """, ["FLOW001"])
        assert result.findings == []

    def test_outside_configured_packages_not_checked(self):
        result = lint("""
            class Collector:
                def collect(self):
                    self.store.table("sps").append_many(self.points)
            """, ["FLOW001"], module="repro.storage.snippet",
            package="storage")
        assert result.findings == []

    def test_gate_after_apply_still_fires(self):
        result = lint("""
            class Collector:
                def collect(self):
                    self.store.table("sps").append_many(self.points)
                    self.engine.log_points("sps", self.points)
            """, ["FLOW001"])
        assert [f.rule for f in result.findings] == ["FLOW001"]
