"""Inference requests and their lifecycle records.

A :class:`Request` is one user inference call: a model, a (possibly
padded) input length, and an arrival time.  The serving simulators fill
in a :class:`RequestRecord` as the request moves through the dynamic
batcher, the dispatch queue, and a device -- the record carries every
timestamp the tail-latency analysis needs.

Streams exist in two interchangeable representations:

* a list of :class:`Request` objects, consumed by the per-request
  reference event loop (:class:`repro.serving.scheduler.
  GenerativeServingSimulator`, or :class:`repro.serving.scheduler.
  ServingSimulator` for prefill traffic);
* a :class:`RequestTable` -- the same stream as struct-of-arrays numpy
  columns, consumed by the columnar fast path
  (:mod:`repro.serving.engine`).

``RequestTable.from_requests`` / ``RequestTable.to_requests`` convert
losslessly between the two.

Autoregressive (generative) traffic adds an ``output_len`` per request:
the prompt (``valid_len`` tokens) is processed by one *prefill* step
that emits the first token, then each further token is one *decode*
step over a context grown by one.  ``output_len == 1`` degenerates to
the historical single-forward-pass request, and a table without the
``output_len`` column is exactly the legacy prefill-only stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.models.zoo import ModelSpec


@dataclass
class Request:
    """One inference request in the arrival stream.

    Attributes
    ----------
    request_id:
        Unique, monotonically increasing within a stream.
    arrival_s:
        Arrival time in seconds from the start of the simulation.
    spec:
        The model this request runs (drawn from the stream's mix).
    valid_len:
        Non-padded tokens in this request's input (drawn around the
        model's mean padding ratio, like the workload generator does).
        For generative requests this is the *prompt* length.
    output_len:
        Tokens the request generates.  ``1`` (the default) is the
        legacy prefill-only request: one forward pass, one result.
        ``k > 1`` adds ``k - 1`` decode steps, each re-entering the
        batcher with context grown by one token; the final context
        ``valid_len + output_len - 1`` must fit in ``spec.seq_len``.
    deadline_s:
        Optional completion deadline in seconds *relative to arrival*.
        Only the fault layer reads it: a lost request is dropped
        instead of retried once its next retry would land past
        ``arrival_s + deadline_s``.  ``None`` (the default) never
        drops.
    """

    request_id: int
    arrival_s: float
    spec: ModelSpec
    valid_len: int
    output_len: int = 1
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if not math.isfinite(self.arrival_s):
            raise ValueError("arrival_s must be finite")
        if self.valid_len < 1:
            raise ValueError("valid_len must be positive")
        if self.valid_len > self.spec.seq_len:
            raise ValueError("valid_len exceeds the model's seq_len")
        if self.output_len < 1:
            raise ValueError("output_len must be positive")
        if self.valid_len + self.output_len - 1 > self.spec.seq_len:
            raise ValueError("valid_len + output_len - 1 exceeds the model's seq_len")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive")


@dataclass
class RequestRecord:
    """Lifecycle timestamps for one completed request (seconds)."""

    request: Request
    #: When the dynamic batcher sealed this request's batch.
    batched_s: float = 0.0
    #: When a device started executing the batch.
    service_start_s: float = 0.0
    #: When the batch (and hence the request) finished.
    finish_s: float = 0.0
    #: Size of the batch the request rode in.
    batch_size: int = 1
    #: Device that executed the batch.
    device_id: int = -1
    #: Dispatch attempts this request needed (1 without faults; the
    #: fault layer counts one per lost batch plus the success).
    attempts: int = 1

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.finish_s - self.request.arrival_s

    @property
    def batching_wait_s(self) -> float:
        """Time spent waiting in the batcher before the batch sealed."""
        return self.batched_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Arrival to service start (batching + dispatch queueing)."""
        return self.service_start_s - self.request.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.service_start_s


@dataclass
class Batch:
    """A group of compatible requests dispatched as one unit."""

    batch_id: int
    requests: list = field(default_factory=list)
    #: When the batcher sealed the batch (size or wait trigger).
    sealed_s: float = 0.0

    def __post_init__(self):
        if not self.requests:
            raise ValueError("a batch needs at least one request")
        specs = {r.spec.name for r in self.requests}
        if len(specs) > 1:
            raise ValueError(f"mixed-model batch: {sorted(specs)}")

    @property
    def spec(self) -> ModelSpec:
        return self.requests[0].spec

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def max_valid_len(self) -> int:
        """Dynamic batching pads every member to the longest input."""
        return max(r.valid_len for r in self.requests)


def has_duplicate_ids(request_id: np.ndarray) -> bool:
    """Whether any id in ``request_id`` occurs more than once.

    Streams usually carry strictly increasing ids, which one adjacent
    compare proves unique; any other order is sorted and compared
    adjacently.  Both are cheaper than ``np.unique``, which hashes
    integer input.
    """
    if request_id.size < 2:
        return False
    if np.all(request_id[1:] > request_id[:-1]):
        return False
    ordered = np.sort(request_id)
    return bool(np.any(ordered[1:] == ordered[:-1]))


#: Each :class:`RequestTable` column's dtype, in field order; the
#: columnar engine hands the same columns back in its results.
_COLUMN_DTYPES = {
    "request_id": np.int64,
    "arrival_s": np.float64,
    "spec_idx": np.int64,
    "valid_len": np.int64,
    "output_len": np.int64,
    "deadline_s": np.float64,
}


def _column(name: str, value, dtype) -> np.ndarray:
    """``value`` as a 1-d ``dtype`` column, or a ValueError naming it.

    An integer column takes whole-valued floats, but never truncates a
    fraction (nor casts a NaN or an infinity) into an integer.
    """
    raw = np.asarray(value)
    if raw.ndim != 1:
        raise ValueError(f"column {name} must be 1-d, got shape {raw.shape}")
    if dtype is np.int64 and raw.dtype.kind == "f":
        if not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise ValueError(f"column {name} must hold whole numbers")
    return raw.astype(dtype, copy=False)


@dataclass
class RequestTable:
    """A request stream as struct-of-arrays numpy columns.

    The columnar twin of a ``list[Request]``: row ``i`` of every column
    describes one request, and ``specs[spec_idx[i]]`` is its model.
    This is the representation the fast serving engine
    (:mod:`repro.serving.engine`) consumes -- generation, batch
    formation, cost lookup, and metrics all stay in vectorized numpy
    instead of touching per-request Python objects.

    Columns are validated on construction (1-d and of equal lengths,
    whole numbers in the integer columns, finite ``arrival_s``,
    positive ``valid_len`` within each spec's ``seq_len``, in-range
    ``spec_idx``) so the engine can trust them without re-checking per
    row.  An array that already has its column's dtype is kept, not
    copied.  A run over a table already in (arrival, id) order -- as
    generated tables and stream chunks are -- hands back read-only
    views of these arrays as its result's request columns
    (:func:`~repro.serving.engine.simulate_table`), so a later write to
    the table shows through the result; :meth:`slice` copies when
    isolation is wanted.
    """

    #: Distinct model specs; ``spec_idx`` indexes into this list.
    specs: List[ModelSpec]
    request_id: np.ndarray
    arrival_s: np.ndarray
    spec_idx: np.ndarray
    valid_len: np.ndarray
    #: Generated tokens per request (``None`` -> legacy prefill-only
    #: stream; every request is one forward pass).
    output_len: Optional[np.ndarray] = None
    #: Per-request completion deadline, seconds relative to arrival
    #: (``None`` -> no deadlines; ``inf`` rows mean no deadline).
    #: Only the fault layer reads this column.
    deadline_s: Optional[np.ndarray] = None

    def __post_init__(self):
        for name, dtype in _COLUMN_DTYPES.items():
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, _column(name, value, dtype))
        n = self.request_id.size
        for name in ("arrival_s", "spec_idx", "valid_len"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} length != request_id length")
        if self.output_len is not None and self.output_len.size != n:
            raise ValueError("column output_len length != request_id length")
        if self.deadline_s is not None:
            if self.deadline_s.size != n:
                raise ValueError("column deadline_s length != request_id length")
            if n and not np.all(self.deadline_s > 0):
                raise ValueError("deadline_s must be positive")
        if n == 0:
            return
        if not np.all(np.isfinite(self.arrival_s)):
            raise ValueError("arrival_s must be finite")
        if not self.specs:
            raise ValueError("a non-empty table needs at least one spec")
        seen: dict = {}
        for spec in self.specs:
            # Batching keys on the model *name* (the reference batcher
            # merges same-name queues), so two specs may share a name
            # only if they are the same model.
            if seen.setdefault(spec.name, spec) != spec:
                raise ValueError(f"conflicting specs share the name {spec.name!r}")
        if self.spec_idx.min() < 0 or self.spec_idx.max() >= len(self.specs):
            raise ValueError("spec_idx out of range")
        if self.valid_len.min() < 1:
            raise ValueError("valid_len must be positive")
        seq_lens = np.array([s.seq_len for s in self.specs], dtype=np.int64)
        if np.any(self.valid_len > seq_lens[self.spec_idx]):
            raise ValueError("valid_len exceeds the model's seq_len")
        if self.output_len is not None:
            if self.output_len.min() < 1:
                raise ValueError("output_len must be positive")
            final_ctx = self.valid_len + self.output_len - 1
            if np.any(final_ctx > seq_lens[self.spec_idx]):
                raise ValueError(
                    "valid_len + output_len - 1 exceeds the model's seq_len"
                )

    def __len__(self) -> int:
        return int(self.request_id.size)

    @property
    def is_generative(self) -> bool:
        """Whether this stream carries decode work (an output_len column)."""
        return self.output_len is not None

    # ------------------------------------------------------------------
    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "RequestTable":
        """Columnarize an object stream (specs dedup by model name)."""
        specs: List[ModelSpec] = []
        index: dict = {}
        spec_idx = np.empty(len(requests), dtype=np.int64)
        for i, r in enumerate(requests):
            at = index.get(r.spec.name)
            if at is None:
                at = index[r.spec.name] = len(specs)
                specs.append(r.spec)
            spec_idx[i] = at
        # The columns stay absent for pure prefill / no-deadline
        # streams so legacy round-trips keep producing legacy tables.
        output_len = None
        if any(r.output_len != 1 for r in requests):
            output_len = np.array([r.output_len for r in requests], dtype=np.int64)
        deadline_s = None
        if any(r.deadline_s is not None for r in requests):
            deadline_s = np.array(
                [np.inf if r.deadline_s is None else r.deadline_s for r in requests],
                dtype=np.float64,
            )
        return cls(
            specs=specs,
            request_id=np.array([r.request_id for r in requests], dtype=np.int64),
            arrival_s=np.array([r.arrival_s for r in requests], dtype=np.float64),
            spec_idx=spec_idx,
            valid_len=np.array([r.valid_len for r in requests], dtype=np.int64),
            output_len=output_len,
            deadline_s=deadline_s,
        )

    def to_requests(self) -> List[Request]:
        """Materialize the object stream (exact same values row-wise)."""
        out = self.output_len
        dl = self.deadline_s
        return [
            Request(
                request_id=int(self.request_id[i]),
                arrival_s=float(self.arrival_s[i]),
                spec=self.specs[int(self.spec_idx[i])],
                valid_len=int(self.valid_len[i]),
                output_len=1 if out is None else int(out[i]),
                deadline_s=(
                    None
                    if dl is None or not np.isfinite(dl[i])
                    else float(dl[i])
                ),
            )
            for i in range(len(self))
        ]

    def head(self, count: int) -> "RequestTable":
        """The first ``count`` rows (a prefix of the stream)."""
        if count < 1:
            raise ValueError("count must be positive")
        if count > len(self):
            raise ValueError(f"count {count} exceeds the table's {len(self)} rows")
        return self.slice(0, count)

    def slice(self, lo: int, hi: int) -> "RequestTable":
        """Rows ``[lo, hi)`` as an independent (copied) table.

        The chunked drivers cut one stream into consecutive slices;
        copies keep a chunk alive without pinning the parent columns.
        """
        if not 0 <= lo < hi <= len(self):
            raise ValueError(f"slice [{lo}, {hi}) out of range for {len(self)} rows")
        out = self.output_len
        dl = self.deadline_s
        return RequestTable(
            specs=self.specs,
            request_id=self.request_id[lo:hi].copy(),
            arrival_s=self.arrival_s[lo:hi].copy(),
            spec_idx=self.spec_idx[lo:hi].copy(),
            valid_len=self.valid_len[lo:hi].copy(),
            output_len=None if out is None else out[lo:hi].copy(),
            deadline_s=None if dl is None else dl[lo:hi].copy(),
        )
