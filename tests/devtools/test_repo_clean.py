"""Tier-1 gate: the shipped tree must be spotlint-clean.

This is the test the whole subsystem exists for -- any wall-clock leak,
unseeded draw, quota bypass or layering violation introduced by a future
PR fails the suite here, with the offending file:line in the report.
Every check runs on the built-in configuration (``LintConfig()``); no
file beside the tree configures the linter.
"""

from pathlib import Path

from repro.devtools import LintConfig, lint_paths, registered_codes
from repro.devtools.reporters import render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_tree_is_spotlint_clean():
    assert SRC.is_dir(), f"missing source tree {SRC}"
    result = lint_paths([SRC], LintConfig())
    assert result.files_checked > 50
    assert result.clean, "\n" + render_text(result)


def test_every_shipped_rule_ran():
    result = lint_paths([SRC / "cli.py"], LintConfig())
    assert set(result.rules_run) == set(registered_codes())
    assert len(result.rules_run) >= 6
    # the spotconc interprocedural rules patrol the whole tree
    for code in ("CONC001", "CONC002", "CONC003", "FLOW001"):
        assert code in result.rules_run


def test_layering_dag_matches_design_inventory():
    """The configured DAG covers exactly the packages on disk.

    DESIGN.md's system inventory lists the subpackages; a package added to
    the tree without a DAG entry would be flagged file-by-file by LAY001
    ("not declared"), and a stale DAG entry would silently allow imports
    from a package that no longer exists.
    """
    config = LintConfig()
    on_disk = {p.name for p in SRC.iterdir()
               if p.is_dir() and (p / "__init__.py").exists()}
    assert set(config.layering_dag) == on_disk
    # leaves substitute external systems and must import no repro package
    for leaf in ("cloudsim", "solver", "timeseries", "mlcore"):
        assert config.layering_dag[leaf] == ()
    # nothing may import devtools; devtools never appears as a dependency
    for pkg, allowed in config.layering_dag.items():
        assert "devtools" not in allowed


def test_suppressions_are_justified():
    """Every inline suppression in the tree carries a `--` reason."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "spotlint: disable=" not in line:
                continue
            stripped = line.lstrip()
            # trailing short-form markers may lean on a standalone block
            # directly above; standalone directives must carry the reason
            if stripped.startswith("#") and "--" not in line:
                offenders.append(f"{path}:{lineno}")
    assert not offenders, f"suppressions without a reason: {offenders}"
