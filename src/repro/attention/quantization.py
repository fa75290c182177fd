"""Quantization utilities for SPRINT's mixed analog/digital datapath.

SPRINT stores key vectors as 8-bit integers split into a 4-bit MSB part
(programmed into transposable MLC ReRAM cells, used for the approximate
in-memory dot product) and a 4-bit LSB part (standard ReRAM, fetched only
for the unpruned vectors so the on-chip accelerator can recompute scores
in full 8-bit precision).  Eq. 3 of the paper quantizes the in-memory
score itself to ``b`` bits before the threshold comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SMALLEST_SCALE = float(np.finfo(np.float64).smallest_subnormal)


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus the scale that maps them back to real values.

    ``codes`` are signed integers in ``[-2**(bits-1), 2**(bits-1) - 1]``,
    except at one bit, where :func:`symmetric_quantize` stores the sign:
    codes in ``{-1, 0, 1}`` (0 only for an exact zero) and ``scale`` the
    largest magnitude.  ``scale`` is the real value of one code step, so
    ``dequantize(q) == q.codes * q.scale``.
    """

    codes: np.ndarray
    scale: float
    bits: int

    @property
    def level_count(self) -> int:
        return 2 ** self.bits


def symmetric_quantize(x: np.ndarray, bits: int) -> QuantizedTensor:
    """Symmetric linear quantization of ``x`` to signed ``bits``-bit codes.

    The scale is chosen from the maximum absolute value so zero is exactly
    representable, matching the straightforward post-training quantization
    the paper applies (no fine-tuning of the quantized values, section VII).
    At ``bits == 1`` the codes are the signs of ``x``, in ``{-1, 0, 1}``
    rather than the signed one-bit range ``[-1, 0]``, at a scale of the
    largest magnitude.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if bits == 1:
        # Sign-only representation: the single bit distinguishes
        # positive from negative at full scale (severely coarse, the
        # leftmost point of the paper's Figure 5 sweep).
        scale = max_abs if max_abs > 0 else 1.0
        codes = np.where(x >= 0, 1, -1).astype(np.int32)
        codes[x == 0] = 0
        return QuantizedTensor(codes=codes, scale=scale, bits=bits)
    q_max = 2 ** (bits - 1) - 1
    # A subnormal maximum can underflow ``max_abs / q_max`` to 0.0; the
    # smallest positive double keeps the scale, and every code, finite.
    scale = max(max_abs / q_max, _SMALLEST_SCALE) if max_abs > 0 else 1.0
    codes = np.clip(np.round(x / scale), -q_max - 1, q_max).astype(np.int32)
    return QuantizedTensor(codes=codes, scale=scale, bits=bits)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map integer codes back to real values."""
    return q.codes.astype(np.float64) * q.scale


def split_msb_lsb(codes: np.ndarray, bits: int = 8, msb_bits: int = 4):
    """Split signed ``bits``-bit codes into MSB and LSB integer parts.

    Returns ``(msb, lsb)`` such that ``msb * 2**lsb_bits + lsb == codes``.
    ``msb`` is signed (arithmetic shift) and is what SPRINT programs into
    the transposable ReRAM; ``lsb`` is unsigned in ``[0, 2**lsb_bits)``.
    """
    if not 0 < msb_bits < bits:
        raise ValueError("msb_bits must be in (0, bits)")
    codes = np.asarray(codes)
    if np.any(codes > 2 ** (bits - 1) - 1) or np.any(codes < -(2 ** (bits - 1))):
        raise ValueError(f"codes out of signed {bits}-bit range")
    lsb_bits = bits - msb_bits
    msb = codes >> lsb_bits  # arithmetic shift: floor division by 2**lsb_bits
    lsb = codes & ((1 << lsb_bits) - 1)
    return msb, lsb


def combine_msb_lsb(
    msb: np.ndarray, lsb: np.ndarray, bits: int = 8, msb_bits: int = 4
) -> np.ndarray:
    """Inverse of :func:`split_msb_lsb`."""
    lsb_bits = bits - msb_bits
    return (np.asarray(msb) << lsb_bits) + np.asarray(lsb)


def quantize_scores(scores: np.ndarray, bits: int) -> np.ndarray:
    """Quantize attention scores to ``b`` bits, returning *real* values.

    This models ``Score^b_R`` in Eq. 3: the limited-precision in-memory
    score compared against the learned threshold.  The analog column
    current spans the observed score range, so quantization is *affine*
    over ``[min, max]`` with ``2**b`` uniformly spaced levels -- at
    ``b = 1`` the representable values collapse to the range endpoints,
    which over-prunes aggressively (the cliff on the left of Figure 5).
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        return scores.copy()
    lo = float(np.min(scores))
    hi = float(np.max(scores))
    if hi <= lo:
        return scores.copy()
    levels = 2 ** bits - 1
    step = (hi - lo) / levels
    return lo + np.round((scores - lo) / step) * step
