"""Generative decode study: SPRINT pruning vs autoregressive growth.

Not a paper figure -- the ROADMAP's continuous-batching extension of
the serving study.  Each point offers the same *token* load (arrival
rate = ``token_rate_rps / mean_output_tokens``) while the mean output
length sweeps from prefill-dominated traffic (short outputs: every
token pays a full prompt pass) to decode-dominated traffic (long
outputs: most tokens are single-step decodes over a grown attention
context).  Per execution mode it reports time-to-first-token,
time-between-tokens, tokens/s, and energy/token -- the decode-phase
interaction SPRINT's pruning targets: the per-token attention share
grows with context, and pruning flattens exactly that term.

The sweep is shardable from day one: every (mode, mean output length)
point is an independent :class:`~repro.experiments.serving.
ServingPoint` on the runtime's WorkUnit protocol
(``plan``/``prime``/``clear_primed``), grouped by mode so a worker
shard warms exactly one shared cost model.  Streams are seeded by a
stable hash of (experiment seed, mean output length) -- never by
worker identity -- so artifacts are byte-identical at every ``--jobs``
value.

Every point runs through the event-driven columnar decode engine
(:func:`repro.serving.engine.simulate_table` feeds generative tables
to the decode core of :mod:`repro.serving.decode`), pinned
bitwise-equal to the :class:`~repro.serving.scheduler.
GenerativeServingSimulator` reference loop (``engine="reference"``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Sequence

from repro.core.system import ExecutionMode
from repro.experiments.primed import Primed
from repro.experiments.serving import (
    DEFAULT_MODES,
    ServingPoint,
    ServingStudy,
    simulate_point,
)
from repro.serving.metrics import ServingReport

#: The decode-growth axis: mean output tokens per request, prefill-
#: dominated (2) through decode-dominated (64).
DEFAULT_MEAN_OUTPUT_LENS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
#: Offered token throughput, held constant across the sweep so points
#: differ only in how those tokens split into requests.
DEFAULT_TOKEN_RATE_RPS = 400.0
DEFAULT_REQUESTS_PER_POINT = 1500


def stream_seed(seed: int, mean_output_tokens: float) -> int:
    """Deterministic stream seed for one (experiment, output-length)
    point.  The mode is excluded: every mode faces byte-identical
    traffic at each point, keeping the cross-mode comparison fair."""
    digest = hashlib.sha256(
        f"{seed}:decode:{mean_output_tokens!r}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # non-negative 63-bit


@dataclass(frozen=True)
class DecodeRow:
    """One (mode, mean output length) point of the sweep."""

    mode: str
    mean_output_tokens: float
    offered_rps: float
    token_rate_rps: float
    tokens_per_s: float
    utilization: float
    ttft_p50_ms: float
    ttft_p99_ms: float
    tbt_p50_ms: float
    tbt_p99_ms: float
    energy_uj_per_token: float
    mean_step_batch: float


@dataclass(frozen=True, kw_only=True)
class DecodeExperiment(ServingStudy):
    """The iso-token-load decode sweep over execution modes.

    Parameters
    ----------
    model:
        Zoo model every request runs.  The default (``BERT-B``) has a
        padded-length prompt distribution, leaving ``seq_len -
        valid_len`` tokens of context headroom for output growth;
        zero-padding models (``ViT-B``, ``GPT-2-L``) cap at one output
        token and degenerate to prefill-only traffic.
    engine:
        ``"fast"`` (default) routes each point through the columnar
        decode engine; ``"reference"`` walks the per-request
        continuous-batching event loop.  Identical reports either way.
        ``"stream"`` runs generative chunks out-of-core (see
        :func:`~repro.experiments.serving.simulate_point`).
    """

    study: ClassVar[str] = "decode"
    num_devices: int = 1
    max_wait_ms: float = 2.0

    def point(
        self,
        mode: ExecutionMode,
        mean_output_tokens: float,
        token_rate_rps: float,
        num_requests: int,
    ) -> ServingPoint:
        """The work unit for one sweep point of this experiment."""
        return self._point(
            f"{mode.value}-{mean_output_tokens:g}tok",
            mode,
            pattern="poisson",
            rate_rps=token_rate_rps / mean_output_tokens,
            num_requests=num_requests,
            stream_seed=stream_seed(self.seed, mean_output_tokens),
            mean_output_tokens=mean_output_tokens,
            num_devices=self.num_devices,
        )

    def points(
        self,
        mean_output_lens: Sequence[float] = DEFAULT_MEAN_OUTPUT_LENS,
        modes: Sequence[ExecutionMode] = DEFAULT_MODES,
        token_rate_rps: float = DEFAULT_TOKEN_RATE_RPS,
        requests_per_point: int = DEFAULT_REQUESTS_PER_POINT,
    ) -> List[ServingPoint]:
        """The sweep's points, in row order."""
        if any(mean_out < 1.0 for mean_out in mean_output_lens):
            raise ValueError(
                "mean_output_lens must all be >= 1 token, got "
                f"{tuple(mean_output_lens)}"
            )
        return [
            self.point(mode, mean_out, token_rate_rps, requests_per_point)
            for mode in modes
            for mean_out in mean_output_lens
        ]

    def simulate(
        self,
        mode: ExecutionMode,
        mean_output_tokens: float,
        token_rate_rps: float,
        num_requests: int,
    ) -> ServingReport:
        """One point, summarized (columnar decode engine by default)."""
        return simulate_point(
            self.point(mode, mean_output_tokens, token_rate_rps, num_requests)
        )

    def run(
        self, token_rate_rps: float = DEFAULT_TOKEN_RATE_RPS, **grid
    ) -> List[DecodeRow]:
        """One row per point of ``points(token_rate_rps, **grid)``."""
        rows: List[DecodeRow] = []
        for point in self.points(token_rate_rps=token_rate_rps, **grid):
            report = _PRIMED.result(point)
            rows.append(
                DecodeRow(
                    mode=point.mode,
                    mean_output_tokens=point.mean_output_tokens,
                    offered_rps=report.offered_rps,
                    token_rate_rps=token_rate_rps,
                    tokens_per_s=report.tokens_per_s,
                    utilization=report.utilization,
                    ttft_p50_ms=report.ttft.p50_s * 1e3,
                    ttft_p99_ms=report.ttft.p99_s * 1e3,
                    tbt_p50_ms=report.tbt.p50_s * 1e3,
                    tbt_p99_ms=report.tbt.p99_s * 1e3,
                    energy_uj_per_token=report.energy_uj_per_token,
                    mean_step_batch=report.mean_batch_size,
                )
            )
        return rows


_PRIMED = Primed()
prime = _PRIMED.prime
clear_primed = _PRIMED.clear_primed


def plan(**kwargs) -> List[ServingPoint]:
    """Work units a same-argument :func:`run` consumes (for sharding)."""
    experiment, grid = DecodeExperiment.split(kwargs)
    return experiment.points(**grid)


# ----------------------------------------------------------------------
# runner-compatible module-level API
# ----------------------------------------------------------------------
def run(**kwargs) -> List[DecodeRow]:
    experiment, grid = DecodeExperiment.split(kwargs)
    return experiment.run(**grid)


def format_table(rows: Sequence[DecodeRow]) -> str:
    lines = [
        "Decode study: SPRINT pruning vs autoregressive growth "
        "(iso token load)",
        f"{'mode':<13} {'out':>5} {'req/s':>7} {'tok/s':>8} {'util':>6} "
        f"{'TTFT p50':>9} {'TTFT p99':>9} {'TBT p50':>8} {'TBT p99':>8} "
        f"{'uJ/tok':>9} {'batch':>6}",
    ]
    for r in rows:
        lines.append(
            f"{r.mode:<13} {r.mean_output_tokens:>5.0f} "
            f"{r.offered_rps:>7.1f} {r.tokens_per_s:>8.1f} "
            f"{r.utilization:>6.1%} {r.ttft_p50_ms:>9.2f} "
            f"{r.ttft_p99_ms:>9.2f} {r.tbt_p50_ms:>8.3f} "
            f"{r.tbt_p99_ms:>8.3f} {r.energy_uj_per_token:>9.1f} "
            f"{r.mean_step_batch:>6.2f}"
        )
    # Headline: SPRINT's advantage per decode-growth point.
    by_point: Dict[float, Dict[str, DecodeRow]] = {}
    for r in rows:
        by_point.setdefault(r.mean_output_tokens, {})[r.mode] = r
    for mean_out in sorted(by_point):
        base = by_point[mean_out].get(ExecutionMode.BASELINE.value)
        sprint = by_point[mean_out].get(ExecutionMode.SPRINT.value)
        if base is None or sprint is None:
            continue
        tok_ratio = (
            sprint.tokens_per_s / base.tokens_per_s
            if base.tokens_per_s > 0
            else float("inf")
        )
        tbt_ratio = (
            base.tbt_p50_ms / sprint.tbt_p50_ms
            if sprint.tbt_p50_ms > 0
            else float("inf")
        )
        lines.append(
            f"sprint vs baseline @ {mean_out:.0f} out-tokens: "
            f"{tok_ratio:.2f}x tokens/s, {tbt_ratio:.2f}x faster TBT p50, "
            f"{base.energy_uj_per_token / sprint.energy_uj_per_token:.2f}x "
            f"energy/token"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
