"""LintConfig: the built-in settings and the per-package disables."""

import textwrap

from repro.devtools import LintConfig, lint_source, make_rules
from repro.devtools.config import (
    DEFAULT_CLOCKED_PACKAGES,
    DEFAULT_LAYERING_DAG,
)


class TestLintConfigApi:
    def test_rule_enabled_default_everything(self):
        config = LintConfig()
        assert config.rule_enabled("DET001", "cloudsim")
        assert config.rule_enabled("ANYTHING", "core")

    def test_defaults_are_the_built_in_settings(self):
        config = LintConfig()
        assert config.clocked_packages == DEFAULT_CLOCKED_PACKAGES
        assert dict(config.layering_dag) == DEFAULT_LAYERING_DAG
        # the persistence layers are clocked and layered like the rest
        assert {"storage", "lake"} <= set(config.clocked_packages)
        assert DEFAULT_LAYERING_DAG["lake"] == ("timeseries", "storage")

    def test_multicloud_is_exempt_from_quo001(self):
        config = LintConfig()
        assert config.rule_enabled("QUO001", "core")
        # multicloud adapters are each vendor's raw dataset surface
        assert not config.rule_enabled("QUO001", "multicloud")

    def test_select_narrows_globally(self):
        source = textwrap.dedent("""
            import random
            import time

            def stamp():
                return time.time(), random.random()
            """)
        full = lint_source(source, module="repro.core.x", package="core")
        assert {f.rule for f in full.findings} == {"DET001", "DET002"}
        narrowed = lint_source(source, module="repro.core.x", package="core",
                               rules=make_rules(["DET002"]))
        assert narrowed.rules_run == ["DET002"]
        assert [f.rule for f in narrowed.findings] == ["DET002"]
