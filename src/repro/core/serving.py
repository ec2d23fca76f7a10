"""Serving layer: the API-gateway/Lambda-like front of SpotLake (Figure 2).

A user's HTTP-style request (path + query parameters) is routed by the
:class:`ApiGateway` to a handler function that reads the archive and
returns a JSON-able dict -- the same serverless shape as the real service
(API Gateway -> Lambda -> Timestream).  Parameter validation errors map to
status 400, unknown routes to 404, handler crashes to a 500 envelope.

The read path is built for repeated dashboard-style traffic:

* record scans go through the archive's generation-stamped
  :class:`~repro.timeseries.cache.QueryCache`, and the *rendered* response
  rows are memoized under the same invalidation rule, so a repeated
  history query costs a dict probe plus a page slice;
* all ``/…/history`` routes paginate via ``limit`` and an opaque
  ``next_token`` cursor that is stable across later writes (it encodes
  the last row's sort position, not an offset);
* every dispatch is recorded in a :class:`~.metrics.MetricsRegistry`
  surfaced at ``/metrics``.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..timeseries.vector import AGGREGATES, AggSpec
from .archive import (
    ADVISOR_TABLE,
    DIM_REGION,
    DIM_TYPE,
    DIM_ZONE,
    IF_SCORE_MEASURE,
    INTERRUPTION_RATIO_MEASURE,
    PRICE_MEASURE,
    PRICE_TABLE,
    SAVINGS_MEASURE,
    SPS_MEASURE,
    SPS_TABLE,
    SpotLakeArchive,
)
from .metrics import MetricsRegistry

#: Sort position of one history row: (time, measure, dimension items).
#: ``Table.scan`` output is strictly increasing under this comparator
#: (stable time sort over series in (measure, dimensions) order), which
#: is what makes the pagination cursor stable across later writes.
CursorPos = Tuple[float, str, Tuple[Tuple[str, str], ...]]

_CURSOR_VERSION = 1


def _sanitize(value):
    """Map non-finite floats to None so the payload is spec-valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


@dataclass
class Response:
    """An HTTP-ish response envelope."""

    status: int
    body: dict

    def json(self) -> str:
        # allow_nan=False guarantees we never emit the bare NaN/Infinity
        # literals standards-compliant parsers reject; _sanitize maps any
        # non-finite measure to null first so serialization cannot fail.
        return json.dumps(_sanitize(self.body), sort_keys=True,
                          allow_nan=False)


class BadRequest(ValueError):
    """Raised by handlers on invalid query parameters."""


class NotFound(LookupError):
    """Raised by handlers when the addressed resource does not exist."""


#: Parameters every paginated history route accepts.
_HISTORY_COMMON_PARAMS = ("start", "end", "limit", "next_token")


def _validate_params(params: Dict[str, str], allowed) -> None:
    """Reject parameters no branch of the handler would read.

    A misspelled dimension filter (``instancetype=...``) would otherwise
    silently match *everything* -- the most dangerous possible default
    for a dataset API -- so unknown names are 400s, listed explicitly.
    """
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise BadRequest(
            "unknown parameter(s): " + ", ".join(repr(p) for p in unknown)
            + "; expected any of: " + ", ".join(repr(p) for p in
                                                sorted(allowed)))


def _require(params: Dict[str, str], key: str) -> str:
    value = params.get(key)
    if not value:
        raise BadRequest(f"missing required parameter {key!r}")
    return value


def _finite(raw: str, name: str) -> float:
    """Parse a finite timestamp; NaN/±inf are 400s, not silent matches."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise BadRequest(f"invalid {name!r} timestamp: {raw!r}") from exc
    if not math.isfinite(value):
        raise BadRequest(f"non-finite {name!r} timestamp: {raw!r}")
    return value


def _time_range(params: Dict[str, str]) -> Tuple[float, float]:
    start = _finite(_require(params, "start"), "start")
    end = _finite(_require(params, "end"), "end")
    if end < start:
        raise BadRequest("end precedes start")
    return start, end


def _parse_limit(params: Dict[str, str]) -> Optional[int]:
    raw = params.get("limit")
    if raw is None:
        return None
    try:
        limit = int(raw)
    except ValueError as exc:
        raise BadRequest(f"invalid 'limit': {raw!r}") from exc
    if limit < 1:
        raise BadRequest("'limit' must be a positive integer")
    return limit


def encode_cursor(pos: CursorPos) -> str:
    """Opaque, stable pagination token for the row at ``pos``."""
    payload = {"v": _CURSOR_VERSION, "t": pos[0], "m": pos[1],
               "d": [list(item) for item in pos[2]]}
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return base64.urlsafe_b64encode(raw.encode("utf-8")).decode("ascii")


def decode_cursor(token: str) -> CursorPos:
    """Inverse of :func:`encode_cursor`; malformed tokens are 400s."""
    try:
        raw = base64.urlsafe_b64decode(token.encode("ascii"))
        payload = json.loads(raw.decode("utf-8"))
        if payload["v"] != _CURSOR_VERSION:
            raise BadRequest(f"unsupported cursor version {payload['v']!r}")
        return (float(payload["t"]), str(payload["m"]),
                tuple((str(k), str(v)) for k, v in payload["d"]))
    except BadRequest:
        raise
    except (ValueError, KeyError, TypeError, UnicodeDecodeError,
            binascii.Error) as exc:
        raise BadRequest(f"malformed 'next_token': {exc}") from exc


#: dataset name -> (table, allowed measures (first is the default),
#: dimension constants the dataset's series carry)
_ANALYTICS_DATASETS: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {
    "sps": (SPS_TABLE, (SPS_MEASURE,), (DIM_TYPE, DIM_REGION, DIM_ZONE)),
    "advisor": (ADVISOR_TABLE,
                (IF_SCORE_MEASURE, INTERRUPTION_RATIO_MEASURE,
                 SAVINGS_MEASURE),
                (DIM_TYPE, DIM_REGION)),
    "price": (PRICE_TABLE, (PRICE_MEASURE,),
              (DIM_TYPE, DIM_REGION, DIM_ZONE)),
}

#: query-parameter name of each filterable/groupable dimension
_DIM_PARAMS: Tuple[Tuple[str, str], ...] = (
    (DIM_TYPE, "instance_type"), (DIM_REGION, "region"), (DIM_ZONE, "zone"))


def _encode_agg_cursor(label: Tuple[str, ...], bucket_start: float) -> str:
    """Pagination token for an /analytics row: (group label, bucket)."""
    payload = {"v": _CURSOR_VERSION, "k": "analytics", "g": list(label),
               "b": bucket_start}
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return base64.urlsafe_b64encode(raw.encode("utf-8")).decode("ascii")


def _decode_agg_cursor(token: str) -> Tuple[Tuple[str, ...], float]:
    """Inverse of :func:`_encode_agg_cursor`; malformed tokens are 400s."""
    try:
        raw = base64.urlsafe_b64decode(token.encode("ascii"))
        payload = json.loads(raw.decode("utf-8"))
        if payload["v"] != _CURSOR_VERSION or payload["k"] != "analytics":
            raise BadRequest("cursor is not an analytics cursor")
        return (tuple(str(v) for v in payload["g"]), float(payload["b"]))
    except BadRequest:
        raise
    except (ValueError, KeyError, TypeError, UnicodeDecodeError,
            binascii.Error) as exc:
        raise BadRequest(f"malformed 'next_token': {exc}") from exc


class LambdaHandlers:
    """The archive-reading functions behind each route."""

    def __init__(self, archive: SpotLakeArchive):
        self.archive = archive
        # fallback rows memo for cache-disabled archives: nothing is
        # memoized, rows are rendered per request
        self._render_calls = 0
        self._render_lock = threading.Lock()

    # -- history -------------------------------------------------------------

    def _rendered_rows(self, table: str, measure: str,
                       filters: Dict[str, str], start: float,
                       end: float) -> Tuple[List[dict], List[CursorPos]]:
        """All rendered rows + their cursor positions for one query slice.

        Memoized in the table's query cache (same generation-stamp rule as
        the records themselves), so repeated dashboard queries skip both
        the scan and the row rendering.
        """
        def render() -> Tuple[List[dict], List[CursorPos]]:
            with self._render_lock:
                self._render_calls += 1
            records = self.archive.history(table, measure, filters,
                                           start, end)
            rows = [{"time": r.time, "value": r.value, **r.dimension_dict}
                    for r in records]
            positions = [(r.time, r.measure_name, r.dimensions)
                         for r in records]
            return rows, positions

        cache = self.archive.query_cache(table)
        if cache is None:
            return render()
        return cache.derived("rows", measure, filters, (start, end), render)

    def _history_payload(self, table: str, measure: str,
                         params: Dict[str, str],
                         dims: List[str],
                         extra_params: Tuple[str, ...] = ()) -> dict:
        dim_params = [param for dim, param in
                      ((DIM_TYPE, "instance_type"), (DIM_REGION, "region"),
                       (DIM_ZONE, "zone")) if dim in dims]
        _validate_params(params, (*_HISTORY_COMMON_PARAMS, *dim_params,
                                  *extra_params))
        start, end = _time_range(params)
        limit = _parse_limit(params)
        token = params.get("next_token")
        filters = {}
        for dim, param in ((DIM_TYPE, "instance_type"),
                           (DIM_REGION, "region"),
                           (DIM_ZONE, "zone")):
            if dim in dims and params.get(param):
                filters[dim] = params[param]
        rows, positions = self._rendered_rows(table, measure, filters,
                                              start, end)
        begin = bisect_right(positions, decode_cursor(token)) if token else 0
        page = rows[begin:begin + limit] if limit is not None else rows[begin:]
        next_pos = begin + len(page)
        next_token = (encode_cursor(positions[next_pos - 1])
                      if page and next_pos < len(rows) else None)
        return {
            "measure": measure,
            "count": len(page),
            "total": len(rows),
            "rows": page,
            "next_token": next_token,
        }

    def sps_history(self, params: Dict[str, str]) -> dict:
        """GET /sps/history -- placement score change points."""
        return self._history_payload(SPS_TABLE, SPS_MEASURE, params,
                                     [DIM_TYPE, DIM_REGION, DIM_ZONE])

    def advisor_history(self, params: Dict[str, str]) -> dict:
        """GET /advisor/history -- interruption-free score change points."""
        measure = params.get("measure", IF_SCORE_MEASURE)
        if measure not in (IF_SCORE_MEASURE, INTERRUPTION_RATIO_MEASURE,
                           SAVINGS_MEASURE):
            raise BadRequest(f"unknown advisor measure {measure!r}")
        return self._history_payload(ADVISOR_TABLE, measure, params,
                                     [DIM_TYPE, DIM_REGION],
                                     extra_params=("measure",))

    def price_history(self, params: Dict[str, str]) -> dict:
        """GET /price/history -- spot price change points."""
        return self._history_payload(PRICE_TABLE, PRICE_MEASURE, params,
                                     [DIM_TYPE, DIM_REGION, DIM_ZONE])

    # -- point reads ---------------------------------------------------------

    def latest(self, params: Dict[str, str]) -> dict:
        """GET /latest -- current value of all three datasets for a pool."""
        itype = _require(params, "instance_type")
        region = _require(params, "region")
        zone = params.get("zone")
        at = _finite(_require(params, "at"), "at")
        payload: dict = {
            "instance_type": itype,
            "region": region,
            "if_score": self.archive.if_score_at(itype, region, at),
            "savings": self.archive.savings_at(itype, region, at),
        }
        if zone:
            payload["zone"] = zone
            payload["sps"] = self.archive.sps_at(itype, region, zone, at)
            payload["spot_price"] = self.archive.price_at(itype, region, zone, at)
        return payload

    def stats(self, params: Dict[str, str]) -> dict:
        """GET /stats -- archive ingestion statistics."""
        return self.archive.stats()

    # -- cold-tier round browsing ---------------------------------------------

    def rounds(self, date: str, params: Dict[str, str]) -> dict:
        """GET /rounds/<YYYY-MM-DD> -- archived rounds of one lake day.

        Without ``at``: the day's archived round commit times.  With
        ``at=<time>``: additionally the wide merged per-pool rows of that
        round (the paper's merged record shape), paged by ``limit`` and
        ``offset``.  404 when the service runs without a cold lake tier.
        """
        lake = self.archive.lake
        if lake is None:
            raise NotFound("this deployment has no cold lake tier")
        _validate_params(params, ("at", "limit", "offset"))
        parts = date.split("-")
        if len(parts) != 3 or [len(p) for p in parts] != [4, 2, 2] or \
                not all(p.isdigit() for p in parts):
            raise BadRequest(f"invalid date {date!r}; expected YYYY-MM-DD")
        times = lake.rounds_on(date)
        payload: dict = {"date": date, "rounds": times, "count": len(times)}
        raw_at = params.get("at")
        if raw_at:
            at = _finite(raw_at, "at")
            if at not in times:
                raise NotFound(f"no archived round at t={raw_at} on {date}")
            limit = _parse_limit(params)
            offset = 0
            raw_offset = params.get("offset")
            if raw_offset is not None:
                try:
                    offset = int(raw_offset)
                except ValueError as exc:
                    raise BadRequest(
                        f"invalid 'offset': {raw_offset!r}") from exc
                if offset < 0:
                    raise BadRequest("'offset' must be >= 0")
            total, page = lake.round_snapshot(at, offset, limit)
            payload["round"] = {
                "time": at,
                "total": total,
                "count": len(page),
                "offset": offset,
                "rows": page,
            }
        return payload

    # -- analytics -----------------------------------------------------------

    def _analytics_rows(self, spec: AggSpec, param_of: Dict[str, str],
                        ) -> Tuple[List[dict],
                                   List[Tuple[Tuple[str, ...], float]]]:
        """Rendered aggregate rows + their cursor positions for one spec.

        Rows are ordered by (group label, bucket start) and carry only
        populated cells (observed rows, or step-function cover for
        ``twa_mean``), so sparse group/bucket grids stay small.  The
        rendering is memoized in the table's query cache under the same
        generation-stamp rule as record scans; the engine result behind
        it has its own memo, so only the first request per generation
        touches the kernels.
        """
        def render() -> Tuple[List[dict],
                              List[Tuple[Tuple[str, ...], float]]]:
            result = self.archive.analytics.run(spec)
            tables = result.tables
            edges = result.edges
            count = result.count
            cover = result.cover
            rows: List[dict] = []
            positions: List[Tuple[Tuple[str, ...], float]] = []
            for g, label in enumerate(result.group_labels):
                group_dims = {param_of[dim]: label[i]
                              for i, dim in enumerate(spec.group_by)}
                for b in range(result.n_buckets):
                    populated = count[g, b] > 0 or (
                        cover is not None and cover[g, b] > 0)
                    if not populated:
                        continue
                    row = dict(group_dims)
                    row["bucket_start"] = float(edges[b])
                    row["bucket_end"] = float(edges[b + 1])
                    for agg in spec.aggregates:
                        cell = tables[agg][g, b]
                        # count-like aggregates are integer tables; keep
                        # them integers in the JSON payload
                        row[agg] = (int(cell)
                                    if agg in ("count", "change_count")
                                    else float(cell))
                    rows.append(row)
                    positions.append((label, float(edges[b])))
            return rows, positions

        cache = self.archive.query_cache(spec.table)
        if cache is None:
            return render()
        return cache.derived(
            "analytics", spec.measure, dict(spec.filters) or None,
            (spec.start, spec.end, spec.bucket_seconds, spec.group_by,
             spec.aggregates), render)

    def analytics(self, params: Dict[str, str]) -> dict:
        """GET /analytics -- bucketed group-by aggregates over both tiers."""
        dataset = _require(params, "dataset")
        entry = _ANALYTICS_DATASETS.get(dataset)
        if entry is None:
            raise BadRequest(
                f"unknown dataset {dataset!r}; expected one of: "
                + ", ".join(repr(d) for d in sorted(_ANALYTICS_DATASETS)))
        table, measures, dims = entry
        dim_param = {dim: param for dim, param in _DIM_PARAMS if dim in dims}
        _validate_params(params, ("dataset", "measure", "bucket", "group_by",
                                  "agg", *_HISTORY_COMMON_PARAMS,
                                  *dim_param.values()))
        measure = params.get("measure", measures[0])
        if measure not in measures:
            raise BadRequest(
                f"unknown {dataset!r} measure {measure!r}; expected one "
                "of: " + ", ".join(repr(m) for m in measures))
        start, end = _time_range(params)
        bucket: Optional[float] = None
        raw_bucket = params.get("bucket")
        if raw_bucket is not None:
            bucket = _finite(raw_bucket, "bucket")
            if bucket <= 0:
                raise BadRequest("'bucket' must be a positive number "
                                 "of seconds")
        param_dim = {param: dim for dim, param in dim_param.items()}
        group_by: List[str] = []
        raw_group = params.get("group_by")
        if raw_group:
            for name in raw_group.split(","):
                dim = param_dim.get(name.strip())
                if dim is None:
                    raise BadRequest(
                        f"cannot group {dataset!r} by {name.strip()!r}; "
                        "expected any of: "
                        + ", ".join(repr(p) for p in sorted(param_dim)))
                group_by.append(dim)
        aggregates = ("mean", "count")
        raw_agg = params.get("agg")
        if raw_agg:
            parsed = tuple(a.strip() for a in raw_agg.split(","))
            unknown = [a for a in parsed if a not in AGGREGATES]
            if unknown:
                raise BadRequest(
                    "unknown aggregate(s): "
                    + ", ".join(repr(a) for a in unknown)
                    + "; expected any of: "
                    + ", ".join(repr(a) for a in AGGREGATES))
            aggregates = parsed
        filters = {dim: params[param]
                   for dim, param in dim_param.items() if params.get(param)}
        limit = _parse_limit(params)
        token = params.get("next_token")
        spec = AggSpec.make(table, measure, start, end, bucket_seconds=bucket,
                            group_by=group_by, aggregates=aggregates,
                            filters=filters)
        param_of = {dim: param for dim, param in _DIM_PARAMS}
        rows, positions = self._analytics_rows(spec, param_of)
        begin = (bisect_right(positions, _decode_agg_cursor(token))
                 if token else 0)
        page = rows[begin:begin + limit] if limit is not None else rows[begin:]
        next_pos = begin + len(page)
        next_token = (_encode_agg_cursor(*positions[next_pos - 1])
                      if page and next_pos < len(rows) else None)
        return {
            "dataset": dataset,
            "measure": measure,
            "start": start,
            "end": end,
            "bucket_seconds": bucket,
            "group_by": [dim_param[d] for d in group_by],
            "aggregates": list(aggregates),
            "count": len(page),
            "total": len(rows),
            "rows": page,
            "next_token": next_token,
        }


class ApiGateway:
    """Routes paths to Lambda handlers, mapping errors to status codes.

    Every dispatch (including 404s and crashes) is recorded in the
    metrics registry; ``/metrics`` serves the live snapshot plus the
    archive's cache counters.
    """

    def __init__(self, archive: SpotLakeArchive,
                 metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.handlers = LambdaHandlers(archive)
        self._routes: Dict[str, Callable[[Dict[str, str]], dict]] = {
            "/sps/history": self.handlers.sps_history,
            "/advisor/history": self.handlers.advisor_history,
            "/price/history": self.handlers.price_history,
            "/latest": self.handlers.latest,
            "/stats": self.handlers.stats,
            "/analytics": self.handlers.analytics,
            "/metrics": self._metrics_payload,
        }

    def _metrics_payload(self, params: Dict[str, str]) -> dict:
        """GET /metrics -- serving observability snapshot."""
        payload = self.metrics.snapshot()
        payload["cache"] = self.handlers.archive.cache_stats()
        payload["analytics"] = self.handlers.archive.analytics.stats()
        return payload

    def routes(self) -> List[str]:
        return sorted([*self._routes, "/rounds/<date>"])

    def get(self, path: str, params: Optional[Dict[str, str]] = None,
            tenant: Optional[str] = None) -> Response:
        """Dispatch a GET request.

        The whole dispatch -- route resolution included -- runs inside
        the error envelope: a crash *before* a route is resolved (e.g.
        an unhashable path object blowing up the route lookup) still
        yields a counted 500 under the shared ``<unknown>`` label
        instead of escaping with no envelope and no metrics sample,
        and a crash after resolution keeps its real route label.
        """
        started = self.metrics.clock()
        # one shared label keeps route cardinality in /metrics bounded;
        # it sticks until a real route is resolved so pre-resolution
        # crashes are still attributed somewhere
        route = "<unknown>"
        try:
            handler = self._routes.get(path)
            operand: Optional[str] = None
            if handler is None and isinstance(path, str) and \
                    path.startswith("/rounds/"):
                # the one parameterized route; the shared "<date>" label
                # keeps per-day paths from exploding /metrics cardinality
                route = "/rounds/<date>"
                operand = path[len("/rounds/"):]
                handler = self.handlers.rounds
            if handler is None:
                response = Response(404, {"error": f"no route {path!r}"})
            else:
                if operand is None:
                    route = path
                try:
                    body = (handler(params or {}) if operand is None
                            else handler(operand, params or {}))
                    response = Response(200, body)
                except BadRequest as exc:
                    response = Response(400, {"error": str(exc)})
                except NotFound as exc:
                    response = Response(404, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 -- the 500 envelope
            response = Response(500, {
                "error": "internal server error",
                "exception": type(exc).__name__,
            })
        rows = response.body.get("count") if response.status == 200 else 0
        self.metrics.observe(route, response.status,
                             rows if isinstance(rows, int) else 0,
                             self.metrics.clock() - started,
                             tenant=tenant)
        return response
