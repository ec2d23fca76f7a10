"""BENCHMARK.json says what the code emits, inside the driver's limits."""

import json
import re

import pytest
from conftest import ROOT

from spotbench import layers, spec
from spotbench.sizes import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_declared_shape_is_inside_the_contract():
    declared = spec.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": 0.25}]
    assert isinstance(declared["run_seconds"], int)
    assert len(json.dumps(declared)) < 64 * 1024


def test_every_wrapped_span_feeds_a_metric():
    fed = {arg if isinstance(arg, str) else arg[1]
           for _n, _u, _b, rule, arg in layers.PER_LAYER
           if rule != layers.COUNT}
    wrapped = {span for _m, _c, _a, span in layers.WRAPS}
    wrapped |= {"core.parallel.materialize", "core.serving.get"}
    assert wrapped == fed


def test_checked_in_file_matches_the_code():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this tree")
    assert json.loads(path.read_text()) == spec.benchmark_json()
