"""The project call graph: resolution, reachability, seeds, globals."""

import ast
import textwrap

from repro.devtools.callgraph import CallGraph


def build(**modules):
    """CallGraph from {dotted_module: source} keyword arguments."""
    entries = []
    for module, source in modules.items():
        package = module.split(".")[1] if module.count(".") > 1 else ""
        entries.append((f"{module.replace('.', '/')}.py", module, package,
                        ast.parse(textwrap.dedent(source))))
    return CallGraph.build(entries)


class TestResolution:
    def test_module_function_call(self):
        graph = build(**{"repro.core.a": """
            def helper():
                pass

            def main():
                helper()
            """})
        assert graph.callees("repro.core.a.main") == ("repro.core.a.helper",)

    def test_self_method_call(self):
        graph = build(**{"repro.core.a": """
            class Svc:
                def run(self):
                    self.step()

                def step(self):
                    pass
            """})
        assert graph.callees("repro.core.a.Svc.run") == \
            ("repro.core.a.Svc.step",)

    def test_imported_alias_call(self):
        graph = build(**{
            "repro.core.a": """
                from repro.core.b import worker

                def main():
                    worker()
                """,
            "repro.core.b": """
                def worker():
                    pass
                """,
        })
        assert graph.callees("repro.core.a.main") == ("repro.core.b.worker",)

    def test_relative_import_resolves(self):
        graph = build(**{
            "repro.core.a": """
                from .b import worker

                def main():
                    worker()
                """,
            "repro.core.b": """
                def worker():
                    pass
                """,
        })
        assert graph.callees("repro.core.a.main") == ("repro.core.b.worker",)

    def test_name_match_fallback_skips_builtin_methods(self):
        graph = build(**{"repro.core.a": """
            class Store:
                def append(self, x):
                    pass

            def main(rows):
                rows.append(1)
            """})
        # rows.append must NOT wire to Store.append: builtin-collection
        # method names never resolve through the name fallback
        assert graph.callees("repro.core.a.main") == ()

    def test_name_match_fallback_for_project_names(self):
        graph = build(**{"repro.core.a": """
            class Engine:
                def materialize(self):
                    pass

            def main(engine):
                engine.materialize()
            """})
        assert graph.callees("repro.core.a.main") == \
            ("repro.core.a.Engine.materialize",)

    def test_nested_function_and_lambda_registered(self):
        graph = build(**{"repro.core.a": """
            def outer():
                def inner():
                    pass
                fn = lambda x: x
                inner()
            """})
        assert "repro.core.a.outer.inner" in graph.functions
        assert any(".outer.<lambda>:" in q for q in graph.functions)
        assert graph.callees("repro.core.a.outer") == \
            ("repro.core.a.outer.inner",)


class TestReachability:
    GRAPH = {
        "repro.core.a": """
            def entry():
                middle()

            def middle():
                leaf()

            def leaf():
                pass

            def orphan():
                pass
            """,
    }

    def test_transitive_closure(self):
        graph = build(**self.GRAPH)
        reached = graph.reachable(["repro.core.a.entry"])
        assert "repro.core.a.leaf" in reached
        assert "repro.core.a.orphan" not in reached

    def test_call_path_is_shortest(self):
        graph = build(**self.GRAPH)
        path = graph.call_path(["repro.core.a.entry"], "repro.core.a.leaf")
        assert path == ["repro.core.a.entry", "repro.core.a.middle",
                        "repro.core.a.leaf"]

    def test_functions_matching_whole_segments(self):
        graph = build(**self.GRAPH)
        assert graph.functions_matching("entry") == ["repro.core.a.entry"]
        assert graph.functions_matching("try") == []  # not a suffix match


class TestPoolSeeds:
    def test_submit_target_and_closure_are_threaded(self):
        graph = build(**{"repro.core.a": """
            from concurrent.futures import ThreadPoolExecutor

            def work(x):
                step()

            def step():
                pass

            def main():
                with ThreadPoolExecutor() as pool:
                    pool.submit(work, 1)
            """})
        threaded = graph.threaded_functions()
        assert "repro.core.a.work" in threaded
        assert "repro.core.a.step" in threaded  # transitive callee
        assert "repro.core.a.main" not in threaded
        assert threaded["repro.core.a.work"].where().endswith(":12")

    def test_map_with_lambda_target(self):
        graph = build(**{"repro.core.a": """
            from concurrent.futures import ThreadPoolExecutor

            class Engine:
                def run(self, spans):
                    self.pool.map(lambda s: self.materialize(s), spans)

                def materialize(self, s):
                    pass
            """})
        threaded = graph.threaded_functions()
        assert "repro.core.a.Engine.materialize" in threaded
        assert any("<lambda>" in q for q in threaded)

    def test_no_seeds_without_futures_import(self):
        graph = build(**{"repro.core.a": """
            def main(pool):
                pool.submit(work)

            def work():
                pass
            """})
        assert graph.threaded_functions() == {}


class TestWatchedGlobals:
    def test_mutable_caps_global_is_watched(self):
        graph = build(**{"repro.core.a": """
            CACHE = {}
            _REGISTRY = []
            LIMIT = 10
            import threading
            _LOCK = threading.Lock()
            """})
        watched = graph.watched_globals()["repro.core.a"]
        assert "CACHE" in watched and "_REGISTRY" in watched
        assert "LIMIT" not in watched   # immutable scalar
        assert "_LOCK" not in watched   # locks are the guards

    def test_imported_alias_of_watched_global(self):
        graph = build(**{
            "repro.core.a": """
                STATS = {}
                """,
            "repro.core.b": """
                from repro.core.a import STATS as S
                """,
        })
        names = graph.watched_names_for("repro.core.b")
        assert names == {"S": "repro.core.a.STATS"}
