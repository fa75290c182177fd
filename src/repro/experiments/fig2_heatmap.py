"""Figure 2 (qualitative): render a query-key keep mask as ASCII art.

The paper's Figure 2 shows the CoLA example: blue unpruned squares with
strong vertical-stripe structure (shared important keys), plus the grey
masked band from padding.  This module renders the same picture from a
calibrated synthetic workload, so the spatial-locality story is visible
at a glance.
"""

from __future__ import annotations

from repro.workloads.generator import WorkloadSample, generate_workload

#: Glyphs: kept / pruned / padded (the paper's blue / white / grey).
KEPT, PRUNED, PADDED = "#", ".", " "


def render_mask(
    sample: WorkloadSample, max_side: int = 64
) -> str:
    """ASCII rendering of one sample's keep mask (downsampled)."""
    keep = sample.keep_mask
    s = sample.seq_len
    stride = max(1, s // max_side)
    rows = []
    for qi in range(0, s, stride):
        cells = []
        for ki in range(0, s, stride):
            if qi >= sample.valid_len or ki >= sample.valid_len:
                cells.append(PADDED)
            elif keep[qi, ki]:
                cells.append(KEPT)
            else:
                cells.append(PRUNED)
        rows.append("".join(cells))
    return "\n".join(rows)


def run(
    seq_len: int = 128,
    pruning_rate: float = 0.746,
    padding_ratio: float = 0.3,
    locality: float = 0.8,
    seed: int = 2,
) -> WorkloadSample:
    workload = generate_workload(
        seq_len, pruning_rate, padding_ratio=padding_ratio,
        num_samples=1, locality=locality, seed=seed,
    )
    return workload.samples[0]


def format_table(sample: WorkloadSample) -> str:
    header = (
        "Figure 2 (qualitative): keep mask -- '#' kept, '.' pruned, "
        "' ' padded\n"
        f"(s={sample.seq_len}, valid={sample.valid_len}, "
        f"pruning rate={sample.pruning_rate:.1%})\n"
    )
    return header + render_mask(sample)


def main() -> None:  # pragma: no cover
    print(format_table(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
