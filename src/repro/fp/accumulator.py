"""Extended-precision accumulation, exactly as the FPRaker PE performs it.

The PE accumulates the products of 8 bfloat16 pairs into a register with
an extended significand: 1 hidden bit, 9 bits of extended precision (the
chunk-based accumulation scheme of Sakr et al. with chunk size 64) and 3
bits for round-to-nearest-even -- 12 fractional bits after the binary
point, plus 4 integer bits to absorb carries, 16 bits in total.

This module provides the *golden reference* for that arithmetic using
exact Python integers.  The FPRaker PE functional model
(:mod:`repro.core.pe`) must match it bit for bit when out-of-bounds
skipping is disabled, and within one accumulator ulp when enabled.

Glossary used throughout:

* a ``Product`` is the exact product of two bfloat16 operands: the two
  8-bit significands multiply into a 16-bit integer ``P`` in
  ``[2^14, 2^16)`` standing for the value ``P * 2^-14`` in ``[1, 4)``,
  scaled by ``2^(Ae+Be)``;
* the *grid* of an accumulation round is ``2^(emax - frac_bits)``:
  every participating value is aligned (RNE) onto it before the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import codec
from repro.fp.bfloat16 import bf16_fields
from repro.fp.softfloat import BFLOAT16, FloatFormat, quantize

_BF16_MAN_BITS = BFLOAT16.man_bits  # 7
_PRODUCT_FRAC_BITS = 2 * _BF16_MAN_BITS  # 14: P * 2^-14 in [1, 4)

# Sentinel exponent for an empty (zero) accumulator; any real exponent of
# a bfloat16 product is far above this.
ZERO_EXP = -(10**9)


@dataclass(frozen=True)
class Product:
    """Exact product of two bfloat16 operands.

    Attributes:
        sign: +1 or -1 (ignored when ``is_zero``).
        exp: ``Ae + Be``, the exponent scaling the ``[1, 4)`` significand.
        sig: 16-bit significand integer ``P`` (value ``P * 2^-14``).
        is_zero: True when either operand is zero.
    """

    sign: int
    exp: int
    sig: int
    is_zero: bool = False

    def value(self) -> float:
        """Exact float value of the product."""
        if self.is_zero:
            return 0.0
        return self.sign * self.sig * 2.0 ** (self.exp - _PRODUCT_FRAC_BITS)


def exact_product(a: float, b: float) -> Product:
    """Form the exact :class:`Product` of two bfloat16-representable scalars.

    Args:
        a: first operand (representable in bfloat16).
        b: second operand (representable in bfloat16).

    Returns:
        The exact product in (sign, exp, sig) form.
    """
    sa, ea, ma, za = bf16_fields(a)
    sb, eb, mb, zb = bf16_fields(b)
    if bool(za) or bool(zb):
        return Product(sign=1, exp=0, sig=0, is_zero=True)
    sign = -1 if int(sa) ^ int(sb) else 1
    return Product(sign=sign, exp=int(ea) + int(eb), sig=int(ma) * int(mb))


@dataclass(frozen=True)
class AccumulatorSpec:
    """Geometry of the extended accumulator.

    Attributes:
        frac_bits: fractional bits after the binary point (paper: 12 =
            9 extended + 3 rounding).  This is also the out-of-bounds
            threshold: aligned term weights beyond ``frac_bits`` positions
            below ``emax`` cannot affect the stored value.
        int_bits: integer bits above the binary point (paper: 4,
            absorbing the worst-case carry of 8 products).
        chunk_size: number of MACs accumulated before the running value
            is flushed into the higher-precision outer sum (Sakr et al.,
            chunk size 64).
    """

    frac_bits: int = field(default=12, metadata={"minimum": 0})
    int_bits: int = field(default=4, metadata={"minimum": 0})
    chunk_size: int = field(default=64, metadata={"minimum": 1})

    def __post_init__(self) -> None:
        """Reject a field of the wrong type or out of its bounds."""
        codec.check(self)

    @property
    def total_bits(self) -> int:
        """Total significand storage width (paper: 16)."""
        return self.frac_bits + self.int_bits

    @property
    def ob_threshold(self) -> int:
        """Alignment distance beyond which a term is out of bounds."""
        return self.frac_bits


def rne_shift_right(value: int, shift: int) -> int:
    """Arithmetic right shift of a signed integer with round-to-nearest-even.

    Args:
        value: signed integer.
        shift: non-negative shift distance.

    Returns:
        ``round(value / 2**shift)`` with ties to even.
    """
    if shift <= 0:
        return value << (-shift)
    magnitude = abs(value)
    quotient = magnitude >> shift
    remainder = magnitude & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if remainder > half or (remainder == half and (quotient & 1)):
        quotient += 1
    return -quotient if value < 0 else quotient


class ExtendedAccumulator:
    """The FPRaker accumulator register, modelled exactly.

    State is the pair ``(eacc, sig)`` where the held value equals
    ``sig * 2^(eacc - frac_bits)`` and ``|sig|`` is normalized into
    ``[2^frac_bits, 2^(frac_bits+1))`` (or ``sig == 0``).

    The accumulation of a group of products follows the PE's three
    blocks: the maximum exponent ``emax`` over the products and the
    accumulator is found, every participant is aligned onto the grid
    ``2^(emax - frac_bits)`` with RNE, the aligned integers are summed
    exactly, and the result is renormalized with RNE.
    """

    def __init__(self, spec: AccumulatorSpec | None = None) -> None:
        self.spec = spec if spec is not None else AccumulatorSpec()
        self.eacc: int = ZERO_EXP
        self.sig: int = 0

    def reset(self) -> None:
        """Clear the register to zero."""
        self.eacc = ZERO_EXP
        self.sig = 0

    @property
    def is_zero(self) -> bool:
        """Whether the register holds zero."""
        return self.sig == 0

    def value(self) -> float:
        """Current held value at full extended precision."""
        if self.sig == 0:
            return 0.0
        return self.sig * 2.0 ** (self.eacc - self.spec.frac_bits)

    def read_bf16(self) -> float:
        """Read the register out as bfloat16 (RNE to 7 significand bits)."""
        return float(quantize(self.value(), BFLOAT16, overflow="sat"))

    def accumulate(self, products: list[Product]) -> None:
        """Accumulate one group of exact products (one PE round).

        Args:
            products: the group's products (zeros allowed, any length --
                the PE uses groups of 8).
        """
        live = [p for p in products if not p.is_zero and p.sig != 0]
        if not live and self.sig == 0:
            return
        emax = max([p.exp for p in live] + ([self.eacc] if self.sig else []))
        contributions = [
            (p.sign * p.sig, p.exp - _PRODUCT_FRAC_BITS) for p in live
        ]
        self.accumulate_exact(contributions, emax)

    def accumulate_exact(
        self,
        contributions: list[tuple[int, int]],
        emax: int,
    ) -> None:
        """Accumulate exact values ``m * 2^e`` under the round's ``emax``.

        This is the normative rounding path shared by the reference and
        the term-serial PE: each contribution is aligned (RNE) onto the
        grid ``2^(emax - frac_bits)``, the aligned integers are summed
        exactly together with the aligned register, and the sum is
        renormalized with RNE.

        Args:
            contributions: list of ``(m, e)`` signed-integer mantissa and
                power-of-two exponent pairs (``m`` may be zero).
            emax: the round's maximum exponent (must be at least the
                leading exponent of every contribution and of the held
                value, as the exponent block guarantees).
        """
        frac = self.spec.frac_bits
        total = 0
        for m, e in contributions:
            if m == 0:
                continue
            # Align m * 2^e onto the grid 2^(emax - frac).
            total += rne_shift_right(m, (emax - frac) - e)
        if self.sig:
            total += rne_shift_right(self.sig, emax - self.eacc)
        elif total == 0:
            return
        self._store_normalized(total, emax)

    def _store_normalized(self, total: int, emax: int) -> None:
        """Normalize ``total`` (on grid ``2^(emax-frac)``) into the register."""
        frac = self.spec.frac_bits
        if total == 0:
            self.eacc = ZERO_EXP
            self.sig = 0
            return
        magnitude = abs(total)
        msb = magnitude.bit_length() - 1  # position relative to the grid lsb
        shift = msb - frac
        if shift > 0:
            rounded = rne_shift_right(total, shift)
            # Rounding may carry out and denormalize again.
            if abs(rounded) >= (1 << (frac + 1)):
                rounded = rne_shift_right(rounded, 1)
                shift += 1
            self.sig = rounded
        else:
            self.sig = total << (-shift)
        self.eacc = emax + shift


class ChunkAccumulator:
    """Chunk-based accumulation (Sakr et al.) around the extended register.

    MACs are accumulated in the reduced-precision
    :class:`ExtendedAccumulator`; every ``chunk_size`` MACs the register
    is flushed into an outer sum kept at fp32 precision.  This is the
    accumulation scheme both FPRaker and the paper's optimized baseline
    use, ensuring training convergence within 0.5 % of FP32 on ImageNet.
    """

    def __init__(self, spec: AccumulatorSpec | None = None) -> None:
        self.spec = spec if spec is not None else AccumulatorSpec()
        self.inner = ExtendedAccumulator(self.spec)
        self.outer: float = 0.0
        self._macs_in_chunk = 0

    def reset(self) -> None:
        """Clear all state."""
        self.inner.reset()
        self.outer = 0.0
        self._macs_in_chunk = 0

    def add_group(self, products: list[Product]) -> None:
        """Accumulate a group of products, flushing chunks as needed.

        Args:
            products: one PE round's exact products.
        """
        self.inner.accumulate(products)
        self._macs_in_chunk += len(products)
        if self._macs_in_chunk >= self.spec.chunk_size:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        self.outer = float(
            quantize(self.outer + self.inner.value(), _FP32_FMT, overflow="sat")
        )
        self.inner.reset()
        self._macs_in_chunk = 0

    def result(self) -> float:
        """Final accumulated value (outer sum plus the open chunk)."""
        return float(
            quantize(self.outer + self.inner.value(), _FP32_FMT, overflow="sat")
        )

    def result_bf16(self) -> float:
        """Final value rounded to bfloat16, as written back to memory."""
        return float(quantize(self.result(), BFLOAT16, overflow="sat"))


_FP32_FMT = FloatFormat(exp_bits=8, man_bits=23, name="fp32")


def dot_reference(
    a: np.ndarray,
    b: np.ndarray,
    spec: AccumulatorSpec | None = None,
    group: int = 8,
) -> float:
    """Reference dot product under the paper's accumulation arithmetic.

    Quantizes both vectors to bfloat16, forms exact products in groups of
    ``group`` and chunk-accumulates them.  This is the numerical
    behaviour of the *bit-parallel baseline* PE; FPRaker must reproduce
    it (it only skips work that cannot change this result).

    Args:
        a: first vector.
        b: second vector (same length).
        spec: accumulator geometry (default: the paper's).
        group: MACs per accumulation round (default 8, one PE group).

    Returns:
        The accumulated dot product as a float.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    from repro.fp.bfloat16 import bf16_quantize

    aq = np.atleast_1d(bf16_quantize(a))
    bq = np.atleast_1d(bf16_quantize(b))
    acc = ChunkAccumulator(spec)
    for start in range(0, aq.size, group):
        chunk_a = aq[start : start + group]
        chunk_b = bq[start : start + group]
        products = [exact_product(x, y) for x, y in zip(chunk_a, chunk_b)]
        acc.add_group(products)
    return acc.result()
