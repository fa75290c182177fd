"""Request arrival processes: Poisson, bursty (MMPP), and trace replay.

Each process produces deterministic-under-seed arrival timestamps;
:func:`generate_request_table` turns them into a columnar
:class:`~repro.serving.requests.RequestTable` by drawing models from a
weighted mix and padded input lengths around each model's mean padding
ratio (matching ``repro.workloads.generator``).  Poisson and trace
arrivals and every per-request column are vectorized -- one
``rng.uniform`` draw covers every request whose spec jitters its
padding.  The MMPP is a sequential walk (each draw's role depends on
the phase the previous draws left), but it reads its exponentials from
blocks drawn in one call rather than one scalar draw per arrival.
Generation consumes the generator in exactly the order the historical
per-request loop did, so a given seed yields the same stream
bit-for-bit.  :func:`generate_requests` materializes the same table as
:class:`Request` objects for the per-request reference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.models.zoo import ModelSpec, get_model
from repro.serving.batching import _require_integer
from repro.serving.requests import Request, RequestTable


def _clone_generator(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator at exactly ``rng``'s current state."""
    clone = np.random.default_rng()
    clone.bit_generator.state = rng.bit_generator.state
    return clone


def _positive_finite(x) -> bool:
    """``0 < x < inf``; false for NaN, which fails every comparison."""
    return 0 < x < math.inf


#: Draws consumed per burst when a cursor advances a generator without
#: materializing the whole stream.
_ADVANCE_CHUNK = 65536

#: Standard exponentials an MMPP walk draws per refill of its buffer.
_DRAW_BLOCK = 4096


def _skip_exponentials(rng: np.random.Generator, count: int) -> None:
    """Advance ``rng`` past ``count`` exponential draws in bounded chunks.

    Every exponential draw, scaled or not, whole-array or scalar,
    consumes the bit stream of one ``standard_exponential`` element.
    """
    while count:
        m = min(_ADVANCE_CHUNK, count)
        rng.standard_exponential(m)
        count -= m


class ArrivalCursor:
    """Incremental view of one ``arrival_times`` draw.

    ``take(m)`` returns the next ``m`` timestamps; the concatenation of
    all takes is bitwise identical to the single whole-stream
    ``arrival_times`` call the cursor stands in for, regardless of how
    the takes are sized.
    """

    def take(self, m: int) -> np.ndarray:
        raise NotImplementedError


class _MaterializedCursor(ArrivalCursor):
    """Fallback cursor: the whole stream drawn up front, served in slices.

    Trivially exact, but O(stream) memory -- processes that matter for
    out-of-core runs override :meth:`ArrivalProcess.cursor` with an
    O(chunk) implementation.
    """

    def __init__(self, times: np.ndarray):
        self._times = times
        self._pos = 0

    def take(self, m: int) -> np.ndarray:
        if self._pos + m > self._times.size:
            raise ValueError("cursor exhausted")
        out = self._times[self._pos : self._pos + m]
        self._pos += m
        return out


class _PoissonCursor(ArrivalCursor):
    def __init__(self, rng: np.random.Generator, scale: float):
        self._rng = rng
        self._scale = scale
        self._carry = 0.0

    def take(self, m: int) -> np.ndarray:
        gaps = self._rng.exponential(self._scale, size=m)
        # Seeding the cumsum with the previous chunk's last timestamp
        # continues the exact left fold a whole-stream np.cumsum runs
        # (0.0 + x == x for the first chunk).
        times = np.cumsum(np.concatenate(([self._carry], gaps)))[1:]
        self._carry = float(times[-1])
        return times


class _BurstyCursor(ArrivalCursor):
    """The MMPP walk of :class:`BurstyProcess`, over buffered draws.

    The first draw is the calm phase's dwell.  Each later draw ``e`` is
    a gap ``scale * e`` at the current phase's ``1/rate``: an arrival
    if it lands before the next switch, else the walk jumps to the
    switch, flips phase and spends the following draw on the new
    phase's dwell, ``t + dwell * e``.  That is the arithmetic of one
    scalar ``rng.exponential(scale)`` call per draw, which numpy
    computes as ``scale * standard_exponential()``, so the timestamps
    are byte-identical to such a loop.

    ``rng`` belongs to the walk: it is drawn ``_DRAW_BLOCK`` standard
    exponentials at a time as Python floats, so it runs ahead of the
    walk.  ``draws`` counts the draws the walk has used; a caller
    advances its own generator by that many.
    """

    def __init__(self, process: "BurstyProcess", rng: np.random.Generator):
        self._rng = rng
        self._scales = (1.0 / process.calm_rate_rps, 1.0 / process.burst_rate_rps)
        self._dwells = (process.calm_dwell_s, process.burst_dwell_s)
        self._buffer = iter(())
        self.draws = 0
        self._t = 0.0
        self._state = 0
        self._next_switch = 0.0
        self._dwell_due = True

    def take(self, m: int) -> np.ndarray:
        times = np.empty(m)
        self.walk(m, times)
        return times

    def walk(self, m: int, out=None) -> None:
        """Advance by ``m`` arrivals, written to ``out[:m]`` if given.

        Arrivals go to ``out`` one buffer block at a time, so the walk
        holds O(block) Python floats whether or not it keeps them.
        """
        scales, dwells = self._scales, self._dwells
        t, state, next_switch = self._t, self._state, self._next_switch
        dwell_due = self._dwell_due
        scale = scales[state]
        lo = 0
        # A round of at most m - lo draws cannot overshoot m, and one
        # that comes up short has emptied the buffer.  A take ends on
        # an arrival, so only a fresh walk has a dwell due here: it
        # draws that first dwell even when m == 0, as the scalar loop
        # did.
        while lo < m or dwell_due:
            want = max(m - lo, 1)
            kept = []
            keep = kept.append
            spent = 0
            for e in islice(self._buffer, want):
                if dwell_due:
                    next_switch = t + dwells[state] * e
                    dwell_due = False
                    spent += 1
                elif t + (gap := scale * e) >= next_switch:
                    t = next_switch
                    state ^= 1
                    scale = scales[state]
                    dwell_due = True
                    spent += 1
                else:
                    t += gap
                    keep(t)
            n = len(kept)
            if out is not None:
                out[lo : lo + n] = kept
            lo += n
            self.draws += n + spent
            if n + spent < want:
                self._buffer = iter(
                    self._rng.standard_exponential(_DRAW_BLOCK).tolist()
                )
        self._t, self._state, self._next_switch = t, state, next_switch
        self._dwell_due = dwell_due


class _TraceCursor(ArrivalCursor):
    def __init__(self, gaps: np.ndarray, time_scale: float):
        self._gaps = gaps
        self._scale = time_scale
        self._pos = 0
        self._carry = 0.0

    def take(self, m: int) -> np.ndarray:
        idx = (self._pos + np.arange(m, dtype=np.int64)) % self._gaps.size
        gaps = self._gaps[idx] * self._scale
        times = np.cumsum(np.concatenate(([self._carry], gaps)))[1:]
        self._pos += m
        self._carry = float(times[-1])
        return times


class ArrivalProcess:
    """Base class: a stream of arrival timestamps (seconds)."""

    #: Short name used in experiment tables.
    name = "abstract"

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def cursor(self, count: int, rng: np.random.Generator) -> ArrivalCursor:
        """An incremental cursor over this process's next ``count`` draws.

        Contract: ``rng`` is left in exactly the state a whole-stream
        ``arrival_times(count, rng)`` call would leave it (so the
        caller's later draws are unaffected), and the cursor replays
        those same ``count`` timestamps bitwise through ``take``.  The
        base implementation materializes the stream (O(count) memory);
        the built-in processes override it with O(chunk) cursors.
        """
        return _MaterializedCursor(self.arrival_times(count, rng))

    @property
    def mean_rate_rps(self) -> float:
        """Long-run offered load in requests per second."""
        raise NotImplementedError


@dataclass
class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals at a constant mean rate."""

    rate_rps: float
    name = "poisson"

    def __post_init__(self):
        if not _positive_finite(self.rate_rps):
            raise ValueError("rate_rps must be positive and finite")

    def arrival_times(self, count, rng):
        gaps = rng.exponential(1.0 / self.rate_rps, size=count)
        return np.cumsum(gaps)

    def cursor(self, count, rng):
        replay = _clone_generator(rng)
        # Advance rng past the whole phase-1 draw without materializing
        # it: chunked draws consume the identical underlying stream.
        _skip_exponentials(rng, count)
        return _PoissonCursor(replay, 1.0 / self.rate_rps)

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps


@dataclass
class BurstyProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (calm/burst phases).

    Dwell times in each state are exponential; arrivals within a state
    are Poisson at that state's rate.  At a state switch the residual
    inter-arrival gap is redrawn from the new state's rate, which is
    exact for exponential gaps (memorylessness).
    """

    calm_rate_rps: float
    burst_rate_rps: float
    calm_dwell_s: float = 1.0
    burst_dwell_s: float = 0.25
    name = "bursty"

    def __post_init__(self):
        rates = (self.calm_rate_rps, self.burst_rate_rps)
        dwells = (self.calm_dwell_s, self.burst_dwell_s)
        if not all(map(_positive_finite, rates)):
            raise ValueError("rates must be positive and finite")
        if not all(map(_positive_finite, dwells)):
            raise ValueError("dwell times must be positive and finite")

    def arrival_times(self, count, rng):
        walk = _BurstyCursor(self, _clone_generator(rng))
        times = walk.take(count)
        _skip_exponentials(rng, walk.draws)
        return times

    def cursor(self, count, rng):
        replay = _BurstyCursor(self, _clone_generator(rng))
        # How many draws the stream uses depends on every one of them,
        # so advancing rng takes a walk over the whole stream: O(count)
        # time, but O(block) memory, as the burn keeps no times.
        burn = _BurstyCursor(self, _clone_generator(rng))
        burn.walk(count)
        _skip_exponentials(rng, burn.draws)
        return replay

    @property
    def mean_rate_rps(self) -> float:
        # Time-weighted mean of the two phases.
        total = self.calm_dwell_s + self.burst_dwell_s
        return (
            self.calm_rate_rps * self.calm_dwell_s
            + self.burst_rate_rps * self.burst_dwell_s
        ) / total


@dataclass
class TraceProcess(ArrivalProcess):
    """Replay recorded inter-arrival gaps, cycling when exhausted."""

    inter_arrival_s: Sequence[float]
    #: Time-axis scale; 0.5 replays the trace at twice the speed.
    time_scale: float = 1.0
    name = "trace"

    def __post_init__(self):
        gaps = np.asarray(self.inter_arrival_s, dtype=np.float64)
        if gaps.size == 0:
            raise ValueError("trace must contain at least one gap")
        if not np.all((gaps >= 0) & (gaps < np.inf)):
            raise ValueError("inter-arrival gaps must be finite and non-negative")
        if not _positive_finite(self.time_scale):
            raise ValueError("time_scale must be positive and finite")
        self._gaps = gaps

    def arrival_times(self, count, rng):
        reps = -(-count // self._gaps.size)
        gaps = np.tile(self._gaps, reps)[:count] * self.time_scale
        return np.cumsum(gaps)

    def cursor(self, count, rng):
        # Trace replay draws nothing from rng; the cursor just walks
        # the recorded gaps modularly.
        return _TraceCursor(self._gaps, self.time_scale)

    @property
    def mean_rate_rps(self) -> float:
        mean_gap = float(np.mean(self._gaps)) * self.time_scale
        return 1.0 / mean_gap if mean_gap > 0 else float("inf")

    @classmethod
    def from_rate_profile(
        cls,
        rates_rps: Sequence[float],
        requests_per_segment: int,
        time_scale: float = 1.0,
    ) -> "TraceProcess":
        """Synthesize a replayable trace from a piecewise rate profile.

        Each profile segment contributes ``requests_per_segment`` gaps
        of ``1/rate`` seconds -- a deterministic stand-in for a recorded
        production trace (e.g. a diurnal load curve).
        """
        if requests_per_segment < 1:
            raise ValueError("requests_per_segment must be positive")
        gaps: List[float] = []
        for rate in rates_rps:
            if not _positive_finite(rate):
                raise ValueError("profile rates must be positive and finite")
            gaps.extend([1.0 / rate] * requests_per_segment)
        return cls(inter_arrival_s=gaps, time_scale=time_scale)


#: A model mix: either spec/name -> weight, or a bare spec (weight 1).
ModelMix = Union[
    ModelSpec,
    str,
    Dict[Union[ModelSpec, str], float],
    Sequence[Tuple[Union[ModelSpec, str], float]],
]


def _normalize_mix(mix: ModelMix) -> Tuple[List[ModelSpec], np.ndarray]:
    if isinstance(mix, (ModelSpec, str)):
        pairs = [(mix, 1.0)]
    elif isinstance(mix, dict):
        pairs = list(mix.items())
    else:
        pairs = list(mix)
    if not pairs:
        raise ValueError("model mix must not be empty")
    specs = [m if isinstance(m, ModelSpec) else get_model(m) for m, _ in pairs]
    weights = np.array([w for _, w in pairs], dtype=np.float64)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("mix weights must be non-negative and sum > 0")
    return specs, weights / weights.sum()


def sample_valid_len(spec: ModelSpec, rng: np.random.Generator) -> int:
    """Draw one request's non-padded length around the model's mean.

    Mirrors the jitter the calibrated workload generator applies to the
    padding ratio, so serving traffic and figure workloads agree.
    """
    if spec.padding_ratio <= 0.0:
        return spec.seq_len
    jitter = rng.uniform(-0.05, 0.05)
    ratio = float(np.clip(spec.padding_ratio + jitter, 0.0, 0.95))
    return max(2, int(round(spec.seq_len * (1.0 - ratio))))


def _check_mean_output_tokens(mean_output_tokens) -> None:
    """Written so that NaN fails it; ``inf`` would make every request
    one token long."""
    if not 1.0 <= mean_output_tokens < math.inf:
        raise ValueError(
            f"mean_output_tokens must be finite and >= 1, got {mean_output_tokens!r}"
        )


def _check_generator_args(count, start_id, mean_output_tokens) -> None:
    """The argument checks of both request generators."""
    _require_integer("count", count)
    if count < 1:
        raise ValueError("count must be positive")
    _require_integer("start_id", start_id)
    if mean_output_tokens is not None:
        _check_mean_output_tokens(mean_output_tokens)


def sample_output_lens(
    u: np.ndarray, mean_output_tokens: float, cap: np.ndarray
) -> np.ndarray:
    """Geometric output lengths from uniform draws, clipped per request.

    Inverse-CDF sampling of a geometric distribution with mean
    ``mean_output_tokens`` (success probability ``p = 1/mean``):
    ``1 + floor(log1p(-u) / log1p(-p))``.  Working from explicit
    ``rng.uniform`` draws (rather than ``rng.geometric``) keeps the
    draw count exactly one-per-request, so the chunked stream generator
    replays the phase bitwise at any chunk size.  ``cap`` is the
    per-request hard ceiling ``seq_len - valid_len + 1`` (the final
    decode context must fit the model's window).
    """
    _check_mean_output_tokens(mean_output_tokens)
    p = 1.0 / mean_output_tokens
    if p >= 1.0:
        lens = np.ones(u.shape, dtype=np.int64)
    else:
        lens = 1 + np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64)
    return np.minimum(np.maximum(lens, 1), cap)


def generate_request_table(
    process: ArrivalProcess,
    mix: ModelMix,
    count: int,
    seed: int = 0,
    start_id: int = 0,
    mean_output_tokens: float = None,
    deadline_range_s: Tuple[float, float] = None,
) -> RequestTable:
    """Vectorized stream generation into a columnar request table.

    Deterministic under ``seed`` and bit-identical to the historical
    per-request loop: the length jitter is drawn as **one**
    ``rng.uniform`` over exactly the requests whose spec jitters its
    padding (``padding_ratio > 0``), in request order -- the same draw
    sequence ``sample_valid_len`` consumed one call at a time, so
    every pre-vectorization golden stream is unchanged.

    ``mean_output_tokens`` switches the stream generative: a fourth RNG
    phase (drawn strictly *after* the prefill phases, so prefill-only
    streams stay byte-identical) samples each request's output length
    from a geometric with that mean, clipped to the model window
    (``valid_len + output_len - 1 <= seq_len``).

    ``deadline_range_s=(lo, hi)`` adds a fifth phase -- again drawn
    strictly after every earlier phase, preserving their draw order --
    sampling each request's completion deadline uniformly from
    ``[lo, hi)`` seconds after arrival (the fault layer's drop bound;
    see :class:`~repro.serving.requests.Request`).
    """
    _check_generator_args(count, start_id, mean_output_tokens)
    rng = np.random.default_rng(seed)
    specs, weights = _normalize_mix(mix)
    times = np.asarray(process.arrival_times(count, rng), dtype=np.float64)
    picks = rng.choice(len(specs), size=count, p=weights)

    seq_lens = np.array([s.seq_len for s in specs], dtype=np.int64)
    paddings = np.array([s.padding_ratio for s in specs], dtype=np.float64)
    picked_padding = paddings[picks]
    valid = seq_lens[picks].copy()
    jittered = picked_padding > 0.0
    n_jittered = int(np.count_nonzero(jittered))
    if n_jittered:
        jitter = rng.uniform(-0.05, 0.05, size=n_jittered)
        ratio = np.clip(picked_padding[jittered] + jitter, 0.0, 0.95)
        drawn = np.round(valid[jittered] * (1.0 - ratio))
        valid[jittered] = np.maximum(2, drawn.astype(np.int64))
    output_len = None
    if mean_output_tokens is not None:
        u = rng.uniform(size=count)
        output_len = sample_output_lens(
            u, mean_output_tokens, seq_lens[picks] - valid + 1
        )
    deadline_s = None
    if deadline_range_s is not None:
        lo, hi = deadline_range_s
        if not 0 < lo <= hi:
            raise ValueError("deadline_range_s must satisfy 0 < lo <= hi")
        deadline_s = rng.uniform(lo, hi, size=count)
    return RequestTable(
        specs=specs,
        request_id=start_id + np.arange(count, dtype=np.int64),
        arrival_s=times,
        spec_idx=np.asarray(picks, dtype=np.int64),
        valid_len=valid,
        output_len=output_len,
        deadline_s=deadline_s,
    )


def generate_requests(
    process: ArrivalProcess,
    mix: ModelMix,
    count: int,
    seed: int = 0,
    start_id: int = 0,
    mean_output_tokens: float = None,
    deadline_range_s: Tuple[float, float] = None,
) -> List[Request]:
    """Materialize ``count`` requests from an arrival process and a mix.

    Deterministic under ``seed``: the same call always yields identical
    timestamps, model draws, and input lengths.  Thin object view over
    :func:`generate_request_table` (one source of truth for the draw
    sequence).
    """
    return generate_request_table(
        process,
        mix,
        count,
        seed=seed,
        start_id=start_id,
        mean_output_tokens=mean_output_tokens,
        deadline_range_s=deadline_range_s,
    ).to_requests()
