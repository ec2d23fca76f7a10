"""spotlint: AST-based invariant checking for the SpotLake reproduction.

The language cannot enforce the properties the reproduction rests on --
seed/clock determinism of the simulated substrate, the paper's SPS query
quota, the package layering of DESIGN.md -- so this package checks them
statically at lint time:

=======  ==============================================================
DET001   wall-clock reads where the simulation Clock is the time source
DET002   unseeded / process-global randomness
DET003   PYTHONHASHSEED-dependent ordering escaping into output
QUO001   dataset reads bypassing the quota-enforcing Ec2Client
LAY001   imports violating the declared package DAG
CLK001   archive writes timestamped from the host wall clock
=======  ==============================================================

Run it via ``python -m repro.cli lint src/repro`` or programmatically via
:func:`lint_paths`.  A runtime companion, :mod:`repro.devtools.doublerun`,
executes a seeded collection round twice and byte-compares the archive
snapshots.
"""

from .config import LintConfig
from .engine import discover_files, lint_paths, lint_source
from .findings import Finding, LintResult
from .registry import FileContext, Rule, make_rules, registered_codes, rule
from .reporters import render_json, render_text, write_report

__all__ = [
    "LintConfig",
    "discover_files", "lint_paths", "lint_source",
    "Finding", "LintResult",
    "FileContext", "Rule", "make_rules", "registered_codes", "rule",
    "render_json", "render_text", "write_report",
]
