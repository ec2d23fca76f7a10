"""Property: ``Response.json`` renders what the sanitized copy renders.

The render tries the body as it is and copies it through ``_sanitize``
(non-finite floats become ``null``) only when ``json`` refuses it.  Over
nested dicts, lists and tuples with finite and non-finite floats and
string and non-string keys, the bytes -- or the exception type -- must
be those of always sanitizing first.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serving import Response, _sanitize

NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False), NON_FINITE)

KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                 st.floats(allow_nan=False, allow_infinity=False),
                 NON_FINITE, st.none())

BODIES = st.dictionaries(
    st.text(max_size=3),
    st.recursive(LEAVES, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        # one key type per dict, so most examples sort and render
        st.dictionaries(st.text(max_size=3), children, max_size=4)),
        max_leaves=12),
    max_size=4)


def _render(render, body):
    try:
        return render(body)
    except Exception as exc:  # noqa: BLE001 -- the type is the result
        return type(exc)


def test_nan_renders_as_null():
    body = {"value": math.nan, "rows": ({"v": -math.inf}, 1.5)}
    assert Response(200, body).json() == \
        '{"rows": [{"v": null}, 1.5], "value": null}'


@settings(max_examples=300, deadline=None)
@given(body=BODIES)
def test_render_equals_sanitized_render(body):
    expected = _render(lambda b: json.dumps(
        _sanitize(b), sort_keys=True, allow_nan=False), body)
    assert _render(lambda b: Response(200, b).json(), body) == expected
