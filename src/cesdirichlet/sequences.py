"""Finitely supported coefficient sequences and their sequence-space norms.

A ``CoeffSeq`` stores sparse complex coefficients (a_n) indexed from 1;
its subclass ``PrimeCoeffs`` stores real ones on consecutive primes,
its support decoded from a ``kernels.PrimeTable`` rather than stored.
``Reader`` reads either kind in order, each support entry once, for
each index of ``series.product_blocks``.
The norms implemented here:

* ``ces_norm``   -- (sum_n ((1/n) sum_{k<=n} |a_k|)^p)^(1/p), returned as a
                    certified enclosure since the outer sum is infinite even
                    for finite support,
* ``lp_norm``    -- the ordinary little-ell-p norm (exact finite sum),
* ``dq_norm``    -- (sum_n sup_{k>=n} |b_k|^q)^(1/q), the dual-side norm built
                    from the least decreasing majorant (exact for finite
                    support),
* ``ar_norm``    -- the weighted absolute sum  sum |a_n| n^-r,
* ``hardy_ratio``-- the averaging-operator ratio, bounded by p/(p-1),
* ``m_n_functionals_p2`` -- the two quadratic-form functionals equivalent to
                    the p = 2 norm.

``ces_norm`` costs O(support), whatever the largest index: the Cesaro
mean A(n)/n has a constant numerator between support indices, so the
sum over n collapses, by parts, to one certified Hurwitz zeta value
(``kernels.hurwitz_zeta``) per support index.  ``ces_norm_stream`` sums
over blocks of at most ``BLOCK`` = 2^15 support entries with A(n)
carried between them, so a sequence may arrive block by block and never
be stored; ``ces_norm`` is that sum over its own blocks.  Each block's
|a| is transformed in place, and while the next block is built only the
previous block's index and |a| arrays are still held.  Every norm
scales |a| by a power of two first, so only a norm beyond the float64
range raises, or a modulus beyond it (which finite parts may have).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .enclosure import LIB, TINY, U, Enclosure, gamma, pairwise_depth, ulp_down, ulp_up
from .errors import DomainError, ResourceLimitError
from .kernels import PrimeTable, hurwitz_zeta

_MN_SUPPORT_GUARD = 10_000

# Support entries per block of the Cesaro sum and of
# ``series.product_blocks``; the partition fixes the rounding of both.
BLOCK = 1 << 15


@dataclass(frozen=True)
class Exponent:
    """An exponent 1 < p < inf and its conjugate q = p / (p - 1), so that
    1/p + 1/q = 1; q is derived, not given."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise DomainError(f"p must lie in (1, inf), got {self.p}")
        object.__setattr__(self, "q", self.p / (self.p - 1.0))

    @classmethod
    def from_p(cls, p: float) -> "Exponent":
        return cls(float(p))


class CoeffSeq:
    """Sparse complex sequence: strictly increasing indices >= 1, finite
    nonzero values.

    Values are complex128, except where a trusted builder passes
    ``_validated=True`` with real float64 values (a product with a
    ``PrimeCoeffs``, or moduli); every consumer reads them through abs,
    products or ``real``/``imag``, so both kinds behave the same.  Either
    array may be a read-only view.  The support is reached only through
    ``idx``, ``read`` and ``rank``; the rest is written on top of them
    and ``val``, and ``Reader`` reads both kinds in order.
    """

    __slots__ = ("idx", "val")

    def __init__(self, idx: np.ndarray, val: np.ndarray, _validated: bool = False):
        if not _validated:
            try:
                idx = np.asarray(idx, dtype=np.int64)
            except OverflowError:
                raise DomainError("coefficient indices must fit in int64") from None
            val = np.asarray(val, dtype=np.complex128)
            if idx.ndim != 1 or val.ndim != 1 or idx.size != val.size:
                raise DomainError("indices and values must be 1-d arrays of equal length")
            if not np.all(np.isfinite(val)):
                raise DomainError("coefficient values must be finite (no NaN or infinity)")
            if idx.size:
                if idx.min() < 1:
                    raise DomainError("coefficient indices must be >= 1")
                order = np.argsort(idx, kind="stable")
                idx, val = idx[order], val[order]
                if np.any(np.diff(idx) == 0):
                    dup = int(idx[np.nonzero(np.diff(idx) == 0)[0][0]])
                    raise DomainError(f"duplicate coefficient index {dup}")
                keep = val != 0
                idx, val = idx[keep], val[keep]
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs) -> "CoeffSeq":
        pairs = list(pairs)
        return cls([int(n) for n, _ in pairs], [complex(v) for _, v in pairs])

    @classmethod
    def empty(cls) -> "CoeffSeq":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128),
                   _validated=True)

    # -- views ---------------------------------------------------------
    def __len__(self) -> int:
        return int(self.val.size)

    @property
    def is_empty(self) -> bool:
        return self.val.size == 0

    @property
    def max_index(self) -> int:
        return int(self.read(len(self) - 1, len(self))[0]) if len(self) else 0

    def entries(self) -> list[tuple[int, complex]]:
        return [(int(n), complex(v)) for n, v in zip(self.idx, self.val)]

    def abs_values(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # finite parts, a modulus past the float64 range
            w = np.abs(self.val)
        if not np.isfinite(w).all():
            raise DomainError("a coefficient modulus exceeds the float64 range")
        return w

    def read(self, start: int, stop: int) -> np.ndarray:
        """Support entries start..stop-1, a view."""
        return self.idx[start:stop]

    def rank(self, values) -> np.ndarray:
        """The number of support entries <= each of ``values``."""
        return np.searchsorted(self.idx, values, side="right")

    def __eq__(self, other) -> bool:
        """Equal entries, whatever holds the support."""
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return (len(self) == len(other)
                and bool(np.array_equal(self.idx, other.idx))
                and bool(np.array_equal(self.val, other.val)))

    def __repr__(self):
        if len(self) <= 6:
            body = ", ".join(f"{n}:{v:g}" if v.imag else f"{n}:{v.real:g}"
                             for n, v in self.entries())
        else:
            body = f"{len(self)} entries, max index {self.max_index}"
        return f"{type(self).__name__}({body})"


class PrimeCoeffs(CoeffSeq):
    """Real float64 coefficients on consecutive primes: ``val[j]`` at the
    prime of rank ``start`` + j (from 0) of ``table``.  The support is
    never stored: of the three support methods, ``read`` decodes a run of
    it from the table's one-byte gaps (``max_index`` reads one entry),
    ``rank`` decodes one mark's run of the table per value, and ``idx``
    all of it, for the few callers that want the whole array (equality,
    repr, ``entries``).  Everything else is inherited, so it behaves as the
    ``CoeffSeq`` with the same entries."""

    __slots__ = ("table", "start")

    def __init__(self, table: PrimeTable, start: int, val: np.ndarray):
        val.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "val", val)

    @property
    def idx(self) -> np.ndarray:
        return self.read(0, len(self))

    def read(self, start: int, stop: int) -> np.ndarray:
        """Support entries start..stop-1, decoded into a fresh array."""
        return self.table.read(self.start + start, self.start + min(stop, len(self)))

    def rank(self, values) -> np.ndarray:
        return np.clip([self.table.rank(v) - self.start for v in values], 0, len(self))


_NONE = np.empty(0, dtype=np.int64)


class Reader:
    """Reads a ``CoeffSeq`` in order, from entry ``pos`` (0 at first).
    ``peek(n)`` is the next n support entries (fewer at the end), each
    decoded once and kept until taken; ``take(n)`` returns them with
    their values and moves past them."""

    __slots__ = ("seq", "pos", "ahead")

    def __init__(self, seq: CoeffSeq):
        self.seq, self.pos, self.ahead = seq, 0, _NONE

    def peek(self, n: int) -> np.ndarray:
        n = min(n, len(self.seq) - self.pos)
        have = self.ahead.size
        if have < n:
            more = self.seq.read(self.pos + have, self.pos + n)
            self.ahead = np.concatenate((self.ahead, more)) if have else more
        return self.ahead[:n]

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.peek(n)
        val = self.seq.val[self.pos:self.pos + idx.size]
        self.ahead = self.ahead[idx.size:] if idx.size < self.ahead.size else _NONE
        self.pos += idx.size
        return idx, val


def random_seq(
    rng: np.random.Generator,
    max_len: int = 24,
    max_index: int = 300,
    integer: bool = False,
) -> CoeffSeq:
    """1..max_len random indices in 1..max_index with standard complex
    normal values, or with ``integer`` integers in [-3, 3] (zeros dropped)."""
    size = int(rng.integers(1, max_len + 1))
    idx = np.sort(rng.choice(np.arange(1, max_index + 1), size=size, replace=False))
    if integer:
        val = rng.integers(-3, 4, size=size).astype(np.complex128)
    else:
        val = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return CoeffSeq(idx.astype(np.int64), val)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _prefix_sums(w: np.ndarray, carry: list) -> np.ndarray:
    """Running sums of the nonnegative ``w`` after the carry [hi, lo]
    (|lo| <= U hi), each within (1 + (n + 1)**2 U) U of hi + lo + w_1 +
    ... + w_k for n = len(w): TwoSum (Knuth) recovers each rounding of
    np.cumsum exactly and the summed errors, started from lo, are added
    back.  ``carry`` is replaced by the next one: hi' the last running
    sum, hi' + lo' within (n + 1)**2 U**2 of exact and |lo'| <= U hi'."""
    hi, lo = carry
    a = np.cumsum(np.concatenate(([hi], w)))
    b_part = a[1:] - a[:-1]
    a_part = a[1:] - b_part
    np.subtract(a[:-1], a_part, out=a_part)
    np.subtract(w, b_part, out=b_part)
    b_part += a_part
    del a_part
    b_part[0] += lo
    np.cumsum(b_part, out=b_part)
    last = a[-1]
    a = a[1:]
    a += b_part
    carry[:] = float(a[-1]), float(b_part[-1] - (a[-1] - last))
    return a


def _scale(w: np.ndarray) -> int:
    """Scale the nonempty nonnegative ``w`` in place by 2**-shift, so that
    its maximum lies in [1/2, 1); returns shift."""
    shift = math.frexp(float(w.max()))[1]
    np.ldexp(w, -shift, out=w)
    return shift


def _powers(w: np.ndarray, x: float, name: str) -> np.ndarray:
    """w**x of the scaled ``w``.  A largest term below the normal range
    has lost bits (and is 0 from x = 1075 on, since max w >= 1/2), so it
    raises DomainError rather than print them."""
    out = w ** x
    if float(out.max()) < 2.0 ** -1022:
        raise DomainError(f"the {name} at exponent {x} has its largest term below the float64 "
                          "normal range")
    return out


def _unscale(x: float, shift: int, name: str) -> float:
    try:
        return math.ldexp(x, shift)
    except OverflowError:
        raise DomainError(f"the {name} exceeds the float64 range") from None


def _blocks(a: CoeffSeq):
    """(idx, val) of ``a`` in blocks of ``BLOCK`` support entries, read
    in order."""
    for s in range(0, len(a), BLOCK):
        yield a.read(s, s + BLOCK), a.val[s:s + BLOCK]


def abs_sum_exponent(a: CoeffSeq) -> int:
    """An exponent e with sum |a_n| <= 2**e up to rounding (0 for a = 0):
    ``_scale``'s shift of |a|, read block by block, plus the exponent of
    the scaled sum (block sums joined by ``math.fsum``).  The sum of two
    such exponents scales the Cesaro sum of a product.  Only the values
    are read."""
    if a.is_empty:
        return 0
    vals = [a.val[s:s + BLOCK] for s in range(0, len(a), BLOCK)]
    with np.errstate(over="ignore"):  # finite parts, a modulus past the float64 range
        top = max(float(np.max(np.abs(v))) for v in vals)
    if top == math.inf:
        raise DomainError("a coefficient modulus exceeds the float64 range")
    shift = math.frexp(top)[1]
    total = math.fsum(float(np.sum(np.ldexp(np.abs(v), -shift))) for v in vals)
    return shift + math.frexp(total)[1]


def ces_norm(a: CoeffSeq, e: Exponent) -> Enclosure:
    """Certified enclosure of the Cesaro-mean norm of ``a``, in O(support):
    ``ces_norm_stream`` of its own blocks at ``abs_sum_exponent``, so
    |a| is read one block at a time and only ``a`` itself is held whole."""
    return ces_norm_stream(_blocks(a), abs_sum_exponent(a), e)


def ces_norm_stream(blocks, scale: int, e: Exponent) -> Enclosure:
    """``ces_norm`` of a sequence that arrives as blocks (idx, val), each
    nonempty, sorted, with nonzero finite values and above the block
    before, with sum |a_n| <= 2**scale.  Only one block is held at a
    time, so a product from ``series.product_blocks`` is never stored.

    A(n) is constant between support indices i_1 < ... < i_K, so by parts
    ||a||^p = sum_k zeta(p, i_k) (A_k^p - A_{k-1}^p), all terms >= 0, the
    last carrying the tail; A_k^p - A_{k-1}^p = A_k^p (1 - exp(-p log1p(
    w_k / A_{k-1}))) avoids cancellation.  |a| is scaled by 2**-scale
    (the norm is homogeneous), so every A(n) is at most about 1.  A(n)
    crosses block boundaries as the carry of ``_prefix_sums``; error
    model in ``enclosure``."""
    p = e.p
    carry = [0.0, 0.0]
    sums_lo, sums_hi = [], []
    size = widest = 0
    zeta_max = 0.0
    for idx, val in blocks:
        w = np.abs(val)
        np.ldexp(w, -scale, out=w)
        if float(w.min()) < 2.0 ** -1022:
            raise DomainError("coefficient magnitudes span more than the float64 exponent range")
        prev = carry[0]
        cum = _prefix_sums(w, carry)
        # w_k / A_{k-1} -> 1 - (A_{k-1}/A_k)^p in place; the first term's
        # w_1 / A_0 = inf gives exactly 1, so it is A_1^p
        np.divide(w[1:], cum[:-1], out=w[1:])
        with np.errstate(divide="ignore"):
            w[0] /= prev
        np.log1p(w, out=w)
        w *= -p
        np.expm1(w, out=w)
        np.negative(w, out=w)
        np.power(cum, p, out=cum)
        w *= cum
        del cum
        lo, hi = hurwitz_zeta(p, idx)
        zeta_max = max(zeta_max, float(hi[0]))
        lo *= w
        hi *= w
        sums_lo.append(float(np.sum(lo)))
        sums_hi.append(float(np.sum(hi)))
        size += w.size
        widest = max(widest, w.size)
        # not held while the next block is built (0.5 MB of the traced
        # peak at prime limit 1e7)
        del lo, hi
    if not size:
        return Enclosure(0.0, 0.0)
    # relative error counts in units of U (model in ``enclosure``):
    # |a_k| LIB; running sums 1 + J (n + 1)^2 U on top; A_k^p p times both
    # plus LIB; the ratio both plus 1, log1p and expm1 (condition <= 1)
    # LIB and 1 each; the product with A_k^p 1 and with zeta 1; the sums
    # of the blocks, and 1 more to join them
    blocks_n = len(sums_lo)
    rel_w, rel_a = LIB, LIB + 1.0 + blocks_n * (widest + 1) ** 2 * U
    count = ((p * rel_a + LIB) + (rel_w + rel_a + 1) + 2 * (LIB + 1) + 2
             + pairwise_depth(widest) + (blocks_n > 1))
    g = gamma(count)
    # underflow: each term may lose up to TINY in the ratio (scaled by p
    # zeta), in A_k^p and the product (scaled by zeta) and in the last product
    under = size * TINY * ((p + 2.0) * zeta_max + 2.0)
    powered = Enclosure(max(0.0, ulp_down(math.fsum(sums_lo) * (1.0 - g) - under)),
                        ulp_up(math.fsum(sums_hi) / (1.0 - g) + under, 2))
    return powered.root(p).scaled(scale, "Cesaro norm")


def lp_norm(a: CoeffSeq, p: float) -> float:
    """Exact (sum |a_n|**p)**(1/p) for 1 <= p < inf.  With max |a_n|
    scaled into [1/2, 1), its p-th power must stay normal: DomainError
    otherwise, from p about 1022 (at the latest from p = 1075)."""
    if not 1 <= p < math.inf:
        raise DomainError(f"lp_norm needs 1 <= p < inf, got {p}")
    if a.is_empty:
        return 0.0
    w = a.abs_values()
    shift = _scale(w)
    return _unscale(float(math.fsum(_powers(w, p, "lp norm"))) ** (1.0 / p), shift, "lp norm")


def dq_norm(b: CoeffSeq, e: Exponent) -> float:
    """(sum_n sup_{k>=n} |b_k|**q)**(1/q), exact for finite support.

    The majorant is constant between support indices, so the dense sum
    collapses to suffix maxima weighted by index gaps.  |b| is scaled by
    a power of two first (the norm is homogeneous), into [1/2, 1), and
    the q-th power of its maximum must stay normal: DomainError otherwise,
    from q about 1022 (p within about 1e-3 of 1).
    """
    if b.is_empty:
        return 0.0
    q = e.q
    w = b.abs_values()
    shift = _scale(w)
    suffix_max = np.maximum.accumulate(w[::-1])[::-1]
    gaps = np.diff(np.concatenate(([0], b.idx)))
    powered = _powers(suffix_max, q, "dq norm")
    return _unscale(float(math.fsum(powered * gaps)) ** (1.0 / q), shift, "dq norm")


def ar_norm(a: CoeffSeq, r: float) -> float:
    """Weighted absolute coefficient sum  sum |a_n| * n**-r (exact); |a|
    is scaled by a power of two first (the sum is homogeneous)."""
    if not math.isfinite(r):
        raise DomainError(f"ar_norm needs a finite weight exponent, got {r}")
    if a.is_empty:
        return 0.0
    w = a.abs_values()
    shift = _scale(w)
    try:
        total = math.fsum(w * a.idx.astype(np.float64) ** -r)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError("the weighted sum exceeds the float64 range")
    return _unscale(total, shift, "weighted sum")


def hardy_ratio(a: CoeffSeq, e: Exponent) -> float:
    """ces_norm(a).hi / lp_norm(a, p); at most p/(p-1) up to enclosure slack."""
    if a.is_empty:
        raise DomainError("hardy ratio is undefined for the zero sequence")
    return ces_norm(a, e).hi / lp_norm(a, e.p)


def m_n_functionals_p2(a: CoeffSeq) -> tuple[float, float]:
    """The two functionals equivalent to the p = 2 Cesaro norm.

    M(a) = (sum_{i,j} |a_i||a_j| / max(i,j))**(1/2)   (definitional double sum)
    N(a) = (sum_n (|a_n|/n) sum_{k<=n} |a_k|)**(1/2)  (single pass)

    Support is guarded at 10**4 entries since M is quadratic in the
    support size.
    """
    m = len(a)
    if m > _MN_SUPPORT_GUARD:
        raise ResourceLimitError(
            f"support size {m} exceeds the {_MN_SUPPORT_GUARD} guard for the quadratic functional"
        )
    if a.is_empty:
        return 0.0, 0.0
    w = a.abs_values()
    idx_f = a.idx.astype(np.float64)
    # M: blocked double sum over max(i, j)
    parts = []
    block = max(1, (1 << 22) // m)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        denom = np.maximum.outer(idx_f[lo:hi], idx_f)
        parts.append(float(np.sum(np.outer(w[lo:hi], w) / denom)))
    m_val = math.sqrt(math.fsum(parts))
    n_val = math.sqrt(math.fsum((w / idx_f) * np.cumsum(w)))
    return m_val, n_val
