"""Typed request/response layer of the serving API.

An :class:`EmbedRequest` describes one city's embedding demand — its
views, the embedding dtype the caller wants back, and an optional region
subset.  The :class:`~repro.serving.service.EmbeddingService` answers it
with an :class:`EmbedResponse` carrying the embeddings plus full
provenance: which shape bucket served it, whether the compiled plan was
a cache hit or paid a record epoch, how much padding the co-batch
wasted, and the wall-clock split between queue wait and compute.

:class:`FlushPolicy` is the scheduler's knob set: bucket edges quantize
``n_regions`` into co-batching groups, ``max_batch`` caps how many
requests one flush fuses into a single ``(b, n, d)`` pass, and
``max_wait`` bounds how long a queued request may age before
:meth:`~repro.serving.service.EmbeddingService.poll` flushes its bucket
regardless of fill.

:class:`AdmissionError` is the typed rejection every admission gate
raises — oversize requests, view mismatches and (at the network
frontend) load shedding — so callers and the wire protocol can
distinguish "this request can never be served" from "retry later"
(``retry_after``).

The ``*_to_wire`` / ``*_from_wire`` functions are the JSON codecs of
the newline-delimited socket protocol (:mod:`repro.serving.frontend`).
Every matrix on the wire — request view matrices and response
embeddings — is one array object ``{"dtype": "<f8" | "<f4", "shape":
[rows, cols], "data": <base64>}`` whose ``data`` is the matrix's raw
little-endian bytes in row-major order.  View matrices travel as
float64 and embeddings in their own dtype, so both survive the socket
**bit-identically**.  Decoding validates everything a peer controls —
dtype allow-list, non-negative integer shape, byte count, strict
base64 — and a request that fails any check (nested-list matrices
included) is a typed :class:`AdmissionError` (``"bad_request"``).
"""

from __future__ import annotations

import base64
import itertools
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..data.city import SyntheticCity
from ..data.features import ViewSet

__all__ = [
    "AdmissionError",
    "EmbedRequest",
    "EmbedResponse",
    "EmbedTicket",
    "FlushPolicy",
    "ServingUnavailable",
    "default_bucket_edges",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
]

_REQUEST_IDS = itertools.count(1)


class AdmissionError(ValueError):
    """A request rejected at an admission gate, before it was queued.

    ``reason`` is a stable machine-readable tag:

    - ``"oversize"`` — ``n_regions`` exceeds the service/frontend
      capacity (or the scheduler's largest bucket edge); the request can
      never be served by this deployment;
    - ``"view_mismatch"`` — view names/widths incompatible with the
      serving model;
    - ``"overload"`` — the target bucket's queue is at its depth limit;
      the request *would* be servable — retry after ``retry_after``
      seconds (the load-shedding hint a frontend turns into a
      ``Retry-After``-style field).

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the untyped rejection keep working.
    """

    def __init__(self, message: str, *, reason: str = "invalid",
                 retry_after: float | None = None):
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class ServingUnavailable(RuntimeError):
    """A request that was *admitted* but could not be served.

    The typed counterpart of :class:`AdmissionError` for failures that
    happen after the admission gates: the fleet is fully down (no live
    worker and no respawn budget), a dispatched batch exhausted its
    retry attempts, a batch missed its deadline, or the frontend was
    stopped with the request still in flight.  Unlike an admission
    rejection nothing about the *request* is wrong — the same request
    retried against a healthy deployment serves bit-identically (the
    exact-recovery guarantee the chaos tests assert).

    ``retry_after`` is the load-shedding-style hint: a float when the
    condition is expected to clear (a respawn is in flight, the batch
    deadline passed but the fleet is alive), ``None`` when the
    deployment is gone for good.  It travels the wire as the
    ``"unavailable"`` error tag, which
    :class:`~repro.serving.frontend.FrontendClient` turns back into
    this exception (and optionally retries with backoff).
    """

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


def default_bucket_edges(n_max: int) -> tuple[int, ...]:
    """Halving grid ``(…, n_max/4, n_max/2, n_max)``: ragged traffic is
    grouped with requests within 2x of its size, while full-size
    requests keep a dedicated bucket for the unpadded fast path."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    edges = [n_max]
    while edges[-1] > 8:
        edges.append(edges[-1] // 2)
    return tuple(sorted(edges))


@dataclass(frozen=True)
class FlushPolicy:
    """Scheduler flush knobs (see module docstring)."""

    max_batch: int = 8
    max_wait: float = 0.05
    bucket_edges: tuple[int, ...] | None = None   # None -> halving grid

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")
        if self.bucket_edges is not None:
            edges = tuple(sorted(int(e) for e in self.bucket_edges))
            if not edges or edges[0] < 1:
                raise ValueError(f"bucket edges must be positive, got {edges}")
            object.__setattr__(self, "bucket_edges", edges)


class EmbedRequest:
    """One city's embedding demand.

    Parameters
    ----------
    views:
        The city's :class:`~repro.data.features.ViewSet` (or a
        :class:`~repro.data.city.SyntheticCity`, whose ``views()`` are
        taken).  View names must match the service's; region count and
        view widths may be smaller (the scheduler pads them).
    dtype:
        dtype of the returned embeddings; also a co-batching key — the
        scheduler never fuses requests of different dtypes into one
        batch.  ``None`` means the service's model dtype.
    region_subset:
        Optional region indices to return (in the requested order); the
        full city still flows through the model — attention is global —
        but the response carries only these rows.
    name:
        Label for provenance; defaults to the city's name when the
        request was built from a :class:`SyntheticCity`.
    """

    def __init__(self, views: "ViewSet | SyntheticCity",
                 dtype: "np.dtype | str | None" = None,
                 region_subset: Sequence[int] | None = None,
                 name: str = ""):
        if isinstance(views, SyntheticCity):
            name = name or views.name
            views = views.views()
        self.views = views
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self.region_subset = (None if region_subset is None
                              else [int(i) for i in region_subset])
        if self.region_subset is not None:
            bad = [i for i in self.region_subset
                   if not 0 <= i < views.n_regions]
            if bad:
                raise ValueError(
                    f"region_subset indices {bad} out of range for a city "
                    f"with {views.n_regions} regions")
        self.name = name
        self.request_id = next(_REQUEST_IDS)

    @property
    def n_regions(self) -> int:
        return self.views.n_regions

    def __repr__(self) -> str:
        return (f"EmbedRequest(id={self.request_id}, name={self.name!r}, "
                f"n={self.n_regions}, dtype={self.dtype})")


@dataclass
class EmbedResponse:
    """Embeddings plus provenance for one served request.

    ``plan_event`` records how the compiled plan behind the serving
    batch was obtained: ``"hit"`` (live resident plan), ``"spec"``
    (relowered from a cached spec, no record), ``"disk"`` (spec loaded
    from the on-disk cache, no record), ``"record"`` (paid a record
    epoch) or ``"eager"`` (service running uncompiled).
    ``padding_waste`` is the padded fraction of the batch that served
    this request: ``1 − Σ n_i / (b · n_max)``.
    """

    request_id: int
    name: str
    embeddings: np.ndarray
    bucket_id: str
    n_regions: int
    batch_size: int
    padded: bool
    padding_waste: float
    plan_event: str
    wait_seconds: float
    compute_seconds: float


@dataclass
class EmbedTicket:
    """Handle returned by :meth:`EmbeddingService.submit`; ``response``
    is filled when the scheduler flushes the request's bucket.

    ``submitted_at`` is the service clock (``time.monotonic`` unless the
    service was built with an injected ``clock=``, and caller-overridable
    per call via ``submit(now=...)``).  Age-based flush decisions *and*
    the response's ``wait_seconds`` provenance are both measured on this
    one clock, so a test or replay harness that injects time sees
    consistent waits instead of a mix of fake and real clocks.
    """

    request: EmbedRequest
    bucket_id: str
    submitted_at: float
    response: EmbedResponse | None = None

    @property
    def done(self) -> bool:
        return self.response is not None


# ----------------------------------------------------------------------
# Wire codecs (the NDJSON socket protocol's payload layer)
# ----------------------------------------------------------------------

#: Array dtypes the wire carries, by code.  Codes name the byte order
#: explicitly, so the payload means the same bytes on every host.
_WIRE_DTYPES = {code: np.dtype(code) for code in ("<f8", "<f4")}


def _matrix_to_wire(matrix: np.ndarray, dtype=None) -> dict:
    """Encode a 2-D float matrix (cast to ``dtype`` if given) as a wire
    array object: raw little-endian row-major bytes in base64."""
    matrix = np.asarray(matrix, dtype=dtype)
    code = matrix.dtype.newbyteorder("<").str
    if code not in _WIRE_DTYPES or matrix.ndim != 2:
        raise ValueError(f"cannot put a {matrix.ndim}-D {matrix.dtype} "
                         f"array on the wire (2-D {sorted(_WIRE_DTYPES)})")
    data = np.ascontiguousarray(matrix, dtype=code)
    return {"dtype": code, "shape": list(matrix.shape),
            "data": base64.b64encode(data).decode("ascii")}


def _matrix_from_wire(wire) -> np.ndarray:
    """Decode a wire array object into an owned, writable native-order
    matrix.  Anything a peer could get wrong raises ``TypeError`` /
    ``ValueError``."""
    if not isinstance(wire, dict):
        raise TypeError(f"array field must be an object with dtype, shape "
                        f"and data, got {type(wire).__name__}")
    code = wire.get("dtype")
    if not isinstance(code, str) or code not in _WIRE_DTYPES:
        raise ValueError(f"array dtype {code!r} not in "
                         f"{sorted(_WIRE_DTYPES)}")
    shape = wire.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(s) is int and s >= 0 for s in shape)):
        raise ValueError(f"array shape must be two integers >= 0, "
                         f"got {shape!r}")
    dtype = _WIRE_DTYPES[code]
    data = base64.b64decode(wire.get("data"), validate=True)
    if len(data) != shape[0] * shape[1] * dtype.itemsize:
        raise ValueError(f"array data holds {len(data)} bytes, shape "
                         f"{shape} of {code} needs "
                         f"{shape[0] * shape[1] * dtype.itemsize}")
    # astype copies: the result owns its buffer (never a read-only view
    # of the decoded bytes) and is in native byte order.
    return np.frombuffer(data, dtype=dtype).reshape(shape).astype(
        dtype.newbyteorder("="))


def request_to_wire(request: EmbedRequest) -> dict:
    """Encode a request for the socket protocol (``op: "embed"``).

    Only the serving-relevant fields travel: normalized view matrices,
    dtype, region subset and name.  ``raw`` count matrices are a
    training-loss input and never cross the serving wire.
    """
    return {
        "op": "embed",
        "name": request.name,
        "dtype": str(request.dtype) if request.dtype is not None else None,
        "region_subset": request.region_subset,
        "views": {
            "names": list(request.views.names),
            "matrices": [_matrix_to_wire(m, np.float64)
                         for m in request.views.matrices],
        },
    }


def request_from_wire(payload: dict) -> EmbedRequest:
    """Decode an ``op: "embed"`` payload back into an :class:`EmbedRequest`.

    Malformed payloads raise :class:`AdmissionError` (``reason
    "bad_request"``) so a frontend can answer with a typed rejection
    instead of a stack trace.
    """
    try:
        views_payload = payload["views"]
        views = ViewSet(
            names=tuple(views_payload["names"]),
            matrices=[_matrix_from_wire(m).astype(np.float64, copy=False)
                      for m in views_payload["matrices"]])
        request = EmbedRequest(views, dtype=payload.get("dtype"),
                               region_subset=payload.get("region_subset"),
                               name=payload.get("name", ""))
        if (request.dtype is not None and
                request.dtype.newbyteorder("<").str not in _WIRE_DTYPES):
            raise ValueError(f"embedding dtype {request.dtype} cannot "
                             f"travel the wire")
        return request
    except AdmissionError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise AdmissionError(f"malformed embed payload: {exc}",
                             reason="bad_request") from exc


def response_to_wire(response: EmbedResponse) -> dict:
    """Encode a served response (``ok: true``) for the socket protocol;
    the embeddings travel in their own dtype."""
    wire = {f.name: getattr(response, f.name) for f in fields(response)}
    wire["embeddings"] = _matrix_to_wire(response.embeddings)
    wire["ok"] = True
    return wire


def response_from_wire(payload: dict) -> EmbedResponse:
    """Decode an ``ok: true`` payload back into an :class:`EmbedResponse`."""
    provenance = {k: payload[k] for k in (
        "request_id", "name", "bucket_id", "n_regions", "batch_size",
        "padded", "padding_waste", "plan_event", "wait_seconds",
        "compute_seconds")}
    return EmbedResponse(embeddings=_matrix_from_wire(payload["embeddings"]),
                         **provenance)
