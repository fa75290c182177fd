"""Deterministic sim-time request tracing, Chrome-trace exportable.

An opt-in :class:`TraceRecorder` collects request/batch lifecycle spans
from either serving path -- the per-request reference event loop
(:class:`~repro.serving.scheduler.GenerativeServingSimulator`, which
:class:`~repro.serving.scheduler.ServingSimulator` wraps) or the
columnar fast engine (:func:`~repro.serving.engine.simulate_table`).
Every timestamp is **simulation** time (the deterministic clock both
engines already agree on bitwise), never wall clock, so two runs of
the same seed -- at any ``--jobs`` value, on either engine -- produce
byte-identical trace files.

Each sampled request contributes three complete ("X") spans on its own
track: ``queue`` (arrival -> batch sealed), ``dispatch`` (sealed ->
service start), ``compute`` (service start -> finish); each batch a
sampled request rode in contributes one device-track span.  Generative
requests add a fourth ``decode`` span (first token -> last token,
tagged with the generated-token count) so the decode phase reads as
its own region inside ``compute``.  The export
(:meth:`TraceRecorder.to_chrome_trace` / :meth:`~TraceRecorder.write`)
is the Chrome trace-event JSON format, directly loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Sampling (:class:`TraceConfig`) keeps tracing usable on 200k+-request
streams: record the stream *head* (the warm-up transient, usually the
interesting part) plus an optional request-id *stride* for an unbiased
sample of steady state.  Sampling keys on the request id -- a property
of the stream, not of scheduling -- so the sampled set is identical
across engines and runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

#: Microseconds per simulation second (Chrome trace ``ts``/``dur`` unit).
_US = 1e6


@dataclass(frozen=True)
class TraceConfig:
    """Which requests get spans.

    ``head`` records every request id below it; ``stride`` additionally
    records every ``stride``-th id (0 disables striding).  ``head=0,
    stride=1`` records everything.
    """

    head: int = 512
    stride: int = 0

    def __post_init__(self):
        if self.head < 0:
            raise ValueError("head must be non-negative")
        if self.stride < 0:
            raise ValueError("stride must be non-negative")

    def wants(self, request_id: int) -> bool:
        """Should this request's lifecycle be recorded?"""
        if request_id < self.head:
            return True
        return self.stride > 0 and request_id % self.stride == 0

    def mask(self, request_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`wants` over a request-id column."""
        ids = np.asarray(request_ids)
        mask = ids < self.head
        if self.stride > 0:
            mask |= ids % self.stride == 0
        return mask


#: Synthetic pids grouping the two track families in trace viewers.
_REQUEST_PID = 1
_DEVICE_PID = 2


class TraceRecorder:
    """Collects lifecycle spans; exports deterministic Chrome JSON.

    Both serving paths feed the same call -- :meth:`add_request`, once
    per completed request in record order -- and the recorder derives
    the device-track batch spans itself (a batch is fully determined by
    any member's record: two batches can never share a device and a
    start instant).  The export sorts spans by value, so the emission
    order never leaks into the file: identical simulations yield
    byte-identical traces no matter which engine produced them.
    """

    def __init__(self, config: TraceConfig = TraceConfig()):
        self.config = config
        self._request_events: List[Tuple] = []
        #: (request_id, model, first_token_s, finish_s, tokens)
        self._decode_events: List[Tuple] = []
        #: (device_id, start_s, finish_s) -> (model, batch_size)
        self._batches: Dict[Tuple[int, float, float], Tuple[str, int]] = {}
        #: (device_id, down_s, up_s) -- fleet-level, never sampled out.
        self._fault_events: List[Tuple[int, float, float]] = []
        #: (request_id, model, at_s, attempt)
        self._retry_events: List[Tuple[int, str, float, int]] = []

    # ------------------------------------------------------------------
    @property
    def sampled_requests(self) -> int:
        return len(self._request_events) // 3

    @property
    def sampled_batches(self) -> int:
        return len(self._batches)

    @property
    def sampled_decode_phases(self) -> int:
        return len(self._decode_events)

    @property
    def recorded_outages(self) -> int:
        return len(self._fault_events)

    @property
    def sampled_retries(self) -> int:
        return len(self._retry_events)

    def add_request(
        self,
        request_id: int,
        model: str,
        arrival_s: float,
        batched_s: float,
        service_start_s: float,
        finish_s: float,
        device_id: int,
        batch_size: int,
    ) -> None:
        """Record one completed request's lifecycle (if sampled)."""
        if not self.config.wants(request_id):
            return
        tid = int(request_id)
        self._request_events.append(
            ("queue", tid, arrival_s, batched_s - arrival_s, model)
        )
        self._request_events.append(
            ("dispatch", tid, batched_s, service_start_s - batched_s, model)
        )
        self._request_events.append(
            ("compute", tid, service_start_s, finish_s - service_start_s, model)
        )
        self._batches[(int(device_id), service_start_s, finish_s)] = (
            model,
            int(batch_size),
        )

    def add_decode_phase(
        self,
        request_id: int,
        model: str,
        first_token_s: float,
        finish_s: float,
        tokens: int,
    ) -> None:
        """Record one request's decode phase (if sampled and generative).

        ``tokens`` is the generated-token count beyond the first
        (``output_len - 1``); prefill-only requests (``tokens == 0``)
        have no decode phase and add no span.
        """
        if tokens <= 0 or not self.config.wants(request_id):
            return
        self._decode_events.append(
            (int(request_id), model, first_token_s, finish_s, int(tokens))
        )

    def add_device_fault(self, device_id: int, down_s: float, up_s: float) -> None:
        """Record one device outage window as a device-track span.

        Outages are fleet-level facts, not per-request ones, so they
        bypass request sampling: every injected outage that overlaps
        the run appears in the trace.
        """
        self._fault_events.append((int(device_id), float(down_s), float(up_s)))

    def add_retry(
        self, request_id: int, model: str, at_s: float, attempt: int
    ) -> None:
        """Record one retry re-admission (if the request is sampled).

        ``at_s`` is when the retried request re-enters its queue (fail
        time plus backoff); ``attempt`` is the dispatch attempt the
        re-admission begins (2 for the first retry).
        """
        if not self.config.wants(request_id):
            return
        self._retry_events.append((int(request_id), model, float(at_s), int(attempt)))

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """The run as a Chrome trace-event JSON object (Perfetto-ready)."""
        events: List[dict] = []
        for name, tid, start_s, dur_s, model in self._request_events:
            events.append(
                {
                    "name": name,
                    "cat": "request",
                    "ph": "X",
                    "ts": start_s * _US,
                    "dur": dur_s * _US,
                    "pid": _REQUEST_PID,
                    "tid": tid,
                    "args": {"model": model},
                }
            )
        for tid, model, first_token_s, finish_s, tokens in self._decode_events:
            events.append(
                {
                    "name": "decode",
                    "cat": "request",
                    "ph": "X",
                    "ts": first_token_s * _US,
                    "dur": (finish_s - first_token_s) * _US,
                    "pid": _REQUEST_PID,
                    "tid": tid,
                    "args": {"model": model, "tokens": tokens},
                }
            )
        for (device_id, start_s, finish_s), (model, size) in self._batches.items():
            events.append(
                {
                    "name": f"batch {model}",
                    "cat": "batch",
                    "ph": "X",
                    "ts": start_s * _US,
                    "dur": (finish_s - start_s) * _US,
                    "pid": _DEVICE_PID,
                    "tid": device_id,
                    "args": {"model": model, "size": size},
                }
            )
        for device_id, down_s, up_s in self._fault_events:
            events.append(
                {
                    "name": "outage",
                    "cat": "fault",
                    "ph": "X",
                    "ts": down_s * _US,
                    "dur": (up_s - down_s) * _US,
                    "pid": _DEVICE_PID,
                    "tid": device_id,
                    "args": {"down_s": down_s, "up_s": up_s},
                }
            )
        for tid, model, at_s, attempt in self._retry_events:
            # Attempt in the name keeps sort keys unique even when two
            # retries of one request land on the same instant.
            events.append(
                {
                    "name": f"retry #{attempt}",
                    "cat": "fault",
                    "ph": "X",
                    "ts": at_s * _US,
                    "dur": 0.0,
                    "pid": _REQUEST_PID,
                    "tid": tid,
                    "args": {"model": model, "attempt": attempt},
                }
            )
        # Value-sort so insertion order (an engine implementation
        # detail) never reaches the file.
        events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"], e["dur"]))
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
            for pid, label in (
                (_REQUEST_PID, "requests"),
                (_DEVICE_PID, "devices"),
            )
        ]
        return {
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulation",
                "sampled_requests": self.sampled_requests,
                "sampled_batches": self.sampled_batches,
                "sampled_decode_phases": self.sampled_decode_phases,
                "recorded_outages": self.recorded_outages,
                "sampled_retries": self.sampled_retries,
            },
            "traceEvents": metadata + events,
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Serialize deterministically to ``path``; returns the path.

        Sorted keys, fixed separators, and ``repr``-exact floats: two
        identical simulations write byte-identical files.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_chrome_trace(), sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        return path
