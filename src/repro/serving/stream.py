"""Chunked request-stream generation for out-of-core serving runs.

:class:`RequestStream` yields :class:`~repro.serving.requests.
RequestTable` chunks whose concatenation is **bitwise identical** to
one whole-stream :func:`~repro.serving.arrivals.generate_request_table`
call with the same arguments, while holding only O(chunk) rows at any
moment.  That is what lets a 10^7--10^8 request run flow through
:func:`~repro.serving.engine.simulate_stream` and
:func:`~repro.serving.metrics.summarize_stream` under a fixed memory
budget.

The whole-stream generator consumes one ``np.random.Generator`` in
three strict phases -- (1) arrival timestamps, (2) weighted model
picks, (3) one uniform jitter draw over the padded-spec rows in
request order.  Chunked emission must interleave the phases per chunk,
so it cannot share a single generator; instead the stream advances a
generator through each phase boundary once up front (O(chunk) memory:
draws are burned chunk-wise, never materialized) and replays each
phase from its own cloned generator.  numpy's ``Generator`` draws
consume the underlying bit stream identically whether drawn whole or
in chunks, so each phase's chunked draws -- and therefore the emitted
columns -- match the monolithic call bit for bit.  ``tests/
test_serving_stream.py`` pins this across processes, mixes, seeds,
and chunk sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.serving.arrivals import (
    ArrivalProcess,
    ModelMix,
    _check_generator_args,
    _clone_generator,
    _normalize_mix,
    sample_output_lens,
)
from repro.serving.batching import _require_integer
from repro.serving.requests import RequestTable

#: Default rows per emitted chunk: large enough to keep the engine's
#: per-chunk vector work dominant, small enough that one chunk's
#: columns stay a few MB.
DEFAULT_CHUNK_SIZE = 65536


@dataclass
class RequestStream:
    """A lazily generated, re-iterable chunked request stream.

    Same parameters as :func:`~repro.serving.arrivals.
    generate_request_table`; every :meth:`chunks` call restarts from
    the seed and yields the identical chunk sequence, and
    concatenating the chunks reproduces the whole-stream table
    bitwise.  ``materialize()`` does exactly that (for tests and
    small runs -- it defeats the purpose at out-of-core scale).
    """

    process: ArrivalProcess
    mix: ModelMix
    count: int
    seed: int = 0
    start_id: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Generative streams only: mean of the geometric output-length
    #: draw (phase 4).  ``None`` keeps the legacy prefill-only stream.
    mean_output_tokens: float = None

    def __post_init__(self):
        _check_generator_args(self.count, self.start_id, self.mean_output_tokens)
        _require_integer("chunk_size", self.chunk_size)
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self._specs, self._weights = _normalize_mix(self.mix)

    @property
    def specs(self) -> List:
        """The normalized spec list every emitted chunk carries."""
        return self._specs

    def _chunk_sizes(self) -> Iterator[int]:
        remaining = self.count
        while remaining:
            m = min(self.chunk_size, remaining)
            yield m
            remaining -= m

    def chunks(self) -> Iterator[RequestTable]:
        """Yield the stream as consecutive ``RequestTable`` chunks."""
        rng = np.random.default_rng(self.seed)
        # Phase 1 (arrivals): the cursor contract advances rng to the
        # exact state the whole-stream draw would leave, and replays
        # the timestamps incrementally from a clone.
        arrivals = self.process.cursor(self.count, rng)
        picks_rng = _clone_generator(rng)
        # Phase 2 (model picks): burn the choice draws chunk-wise to
        # reach the phase-3 state; chunked draws consume the identical
        # underlying bit stream.
        n_specs = len(self._specs)
        for m in self._chunk_sizes():
            rng.choice(n_specs, size=m, p=self._weights)

        seq_lens = np.array([s.seq_len for s in self._specs], dtype=np.int64)
        paddings = np.array([s.padding_ratio for s in self._specs], dtype=np.float64)
        if self.mean_output_tokens is None:
            jitter_rng = rng
            out_rng = None
        else:
            # Phase 3 (length jitter): replay from a clone while rng
            # burns through it -- the jitter draw count per chunk
            # depends on the model picks, so the burn replays those
            # from a second clone -- leaving rng at the phase-4 state
            # (output lengths).
            jitter_rng = _clone_generator(rng)
            picks_burn = _clone_generator(picks_rng)
            for m in self._chunk_sizes():
                picks = picks_burn.choice(n_specs, size=m, p=self._weights)
                n_j = int(np.count_nonzero(paddings[picks] > 0.0))
                if n_j:
                    rng.uniform(-0.05, 0.05, size=n_j)
            out_rng = rng
        lo = 0
        for m in self._chunk_sizes():
            times = arrivals.take(m)
            picks = picks_rng.choice(n_specs, size=m, p=self._weights)
            # Per-chunk replay of generate_request_table's vectorized
            # length jitter: phase 3 is one uniform draw over the
            # jittered rows in request order, so the chunk's share is
            # exactly the next n_jittered values of that stream.
            picked_padding = paddings[picks]
            valid = seq_lens[picks].copy()
            jittered = picked_padding > 0.0
            n_jittered = int(np.count_nonzero(jittered))
            if n_jittered:
                jitter = jitter_rng.uniform(-0.05, 0.05, size=n_jittered)
                ratio = np.clip(picked_padding[jittered] + jitter, 0.0, 0.95)
                drawn = np.round(valid[jittered] * (1.0 - ratio))
                valid[jittered] = np.maximum(2, drawn.astype(np.int64))
            output_len = None
            if out_rng is not None:
                # Phase 4 replay: one uniform per request, so the
                # chunk's share is exactly the next m draws.
                output_len = sample_output_lens(
                    out_rng.uniform(size=m),
                    self.mean_output_tokens,
                    seq_lens[picks] - valid + 1,
                )
            yield RequestTable(
                specs=self._specs,
                request_id=self.start_id
                + lo
                + np.arange(m, dtype=np.int64),
                arrival_s=np.asarray(times, dtype=np.float64),
                spec_idx=np.asarray(picks, dtype=np.int64),
                valid_len=valid,
                output_len=output_len,
            )
            lo += m

    def __iter__(self) -> Iterator[RequestTable]:
        return self.chunks()

    def materialize(self) -> RequestTable:
        """Concatenate every chunk into one whole-stream table."""
        parts = list(self.chunks())
        output_len = None
        if self.mean_output_tokens is not None:
            output_len = np.concatenate([p.output_len for p in parts])
        return RequestTable(
            specs=self._specs,
            request_id=np.concatenate([p.request_id for p in parts]),
            arrival_s=np.concatenate([p.arrival_s for p in parts]),
            spec_idx=np.concatenate([p.spec_idx for p in parts]),
            valid_len=np.concatenate([p.valid_len for p in parts]),
            output_len=output_len,
        )
