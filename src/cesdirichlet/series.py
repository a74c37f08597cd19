"""Dirichlet polynomials as functions.

A ``DirichletPoly`` wraps a coefficient sequence interpreted as
f(s) = sum a_n n^-s.  Pointwise products of two such polynomials
correspond to the divisor convolution of their coefficients.
``product_blocks`` yields that product in sorted blocks of bounded size,
one at a time, for a consumer that never stores it whole (the streamed
Cesaro sum); ``convolve`` joins the blocks.  ``qr_project`` keeps
exactly the coefficients whose index factors over the first r primes;
the projection is multiplicative on full-support products.

Phase convention for evaluation off the real axis:
n^{-it} = exp(-i t log n).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import sequences
from .errors import DomainError
from .kernels import smooth_mask
from .sequences import CoeffSeq, PrimeCoeffs, Reader


@dataclass(frozen=True)
class EvalPoint:
    """A point s = sigma + i t of the complex plane."""

    sigma: float
    t: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise DomainError(f"evaluation point must be finite, got sigma={self.sigma}, t={self.t}")


@dataclass(frozen=True)
class DirichletPoly:
    coeffs: CoeffSeq

    @classmethod
    def from_pairs(cls, pairs) -> "DirichletPoly":
        return cls(CoeffSeq.from_pairs(pairs))

    @property
    def max_index(self) -> int:
        return self.coeffs.max_index

    @property
    def is_zero(self) -> bool:
        return self.coeffs.is_empty


_INT64_MAX = 2 ** 63 - 1


def product_blocks(f: DirichletPoly, g: DirichletPoly, limit: int):
    """Coefficients c_n = sum_{k | n} a_k b_{n/k} for n <= limit, exact,
    as blocks (idx, val): sorted, equal indices merged, zeros dropped,
    each block above the one before; only one block is held at a time.

    A block takes, for each index i of f, the contiguous slice of g with
    i g_j in the block's window, at most ``sequences.BLOCK`` entries in
    all (or one per index of f), written into one fresh idx/val pair.
    A single slice is already sorted and distinct; several are merged by
    a stable argsort, equal indices summed in the order of f's indices.
    Each index i of f has a cursor, a ``sequences.Reader`` of g that peeks
    its share of the window and one entry past it, keeps the rest for the
    next block and ends at the first entry past limit // i, reading g once
    and in order.  An entry within the limit whose product passes int64
    raises DomainError as it is peeked, once earlier blocks have streamed.

    Each block is scanned for equal indices, non-finite values and
    zeros, unless one look per call rules all three out: no two products
    share an index (``products_distinct``), and the extreme moduli of
    f's and g's values (g read in blocks) keep every |a_i b_j| within
    2^-1020..2^1020, so that no product, complex or real, overflows or
    rounds to 0.  Real f and g (f's moduli, as the multiplier estimate
    streams them) multiply, merge and gather float64, not complex128.
    """
    if limit < 1:
        raise DomainError(f"convolution limit must be >= 1, got {limit}")
    fa, ga = f.coeffs, g.coeffs
    if fa.is_empty or ga.is_empty:
        return
    fi, fv = fa.idx, fa.val
    vtype = np.result_type(fv, ga.val)
    bound = min(limit, _INT64_MAX) // fi
    # the estimate (the ladder workload) skips the scans and ``convolve`` of
    # stored sequences (cli-mix) runs them; always scanning cost about 2.3 %
    # of a 1e7 estimate (median of 60 interleaved rounds in one process, an
    # A/A control 0.997-1.008), so both sides stay
    scan = not (products_distinct(f, g) and _products_normal(fv, ga.val))
    pos, cap = np.zeros_like(fi), np.full_like(fi, len(ga))
    readers = [Reader(ga) for _ in range(len(fi))]
    while (live := np.flatnonzero(pos < cap)).size:
        # the window ends at the first product past some index's share, and
        # a cursor's cap at the first entry it peeks past its bound
        share = max(1, sequences.BLOCK // live.size)
        heads = [readers[k].peek(min(share + 1, int(cap[k] - pos[k]))) for k in live.tolist()]
        for k, h in zip(live.tolist(), heads):
            if h[-1] > bound[k]:
                c = int(np.searchsorted(h, bound[k], side="right"))
                if h[c] <= limit // int(fi[k]):
                    raise DomainError("a product index up to the convolution limit exceeds int64")
                cap[k] = pos[k] + c
        ends = cap[live]
        inside = pos[live] + share < ends
        if inside.any():
            hi = min(int(fi[live[j]]) * int(heads[j][-1]) for j in np.flatnonzero(inside).tolist())
            ends = np.minimum([pos[k] + np.searchsorted(h, -(-hi // int(fi[k])))
                               for k, h in zip(live.tolist(), heads)], ends)
        del heads  # views of the readers' buffers, not held while the block is built
        sizes = ends - pos[live]
        idx = np.empty(int(sizes.sum()), dtype=np.int64)
        val = np.empty(idx.size, dtype=vtype)
        o = 0
        # a product, sum or modulus that leaves the float64 range fails the
        # finite check at the end; the state is not held across the yield
        with np.errstate(over="ignore", invalid="ignore"):
            for k, n in zip(live.tolist(), sizes.tolist()):
                gi, gv = readers[k].take(n)
                np.multiply(fi[k], gi, out=idx[o:o + n])
                np.multiply(fv[k], gv, out=val[o:o + n])
                o += n
            pos[live] = ends
            if np.count_nonzero(sizes) > 1:
                order = np.argsort(idx, kind="stable")
                idx, val = idx[order], val[order]
                del order  # not held while the block is consumed
                if scan:
                    same = idx[1:] == idx[:-1]
                    if same.any():
                        starts = np.flatnonzero(np.concatenate(([True], ~same)))
                        idx, val = idx[starts], np.add.reduceat(val, starts)
            if scan and not np.isfinite(np.abs(val)).all():
                raise DomainError("product values and their moduli must be finite")
        if scan:
            keep = val != 0
            if not keep.all():
                idx, val = idx[keep], val[keep]
        if idx.size:
            yield idx, val


def products_distinct(f: DirichletPoly, g: DirichletPoly) -> bool:
    """No two products a_i b_j share an index: the nonempty g is a
    ``PrimeCoeffs`` whose first prime exceeds f's largest index, so
    i p = i' p' forces p = p'."""
    ga = g.coeffs
    return isinstance(ga, PrimeCoeffs) and int(ga.read(0, 1)[0]) > f.max_index


def _products_normal(fv: np.ndarray, gv: np.ndarray) -> bool:
    """True when 2^-1020 < |a| |b| < 2^1020 for every a in ``fv`` and b in
    ``gv``, read in blocks of ``sequences.BLOCK``.  A complex product's
    larger part is then at least |a b|/sqrt(2) and both parts at most
    2 |a b|, each within a few U |a b| of exact."""
    fa = np.abs(fv)
    lo, hi = float(fa.min()), float(fa.max())
    g_lo, g_hi = math.inf, 0.0
    for s in range(0, gv.size, sequences.BLOCK):
        b = np.abs(gv[s:s + sequences.BLOCK])
        g_lo, g_hi = min(g_lo, float(b.min())), max(g_hi, float(b.max()))
    return lo * g_lo > 2.0 ** -1020 and hi * g_hi < 2.0 ** 1020


def convolve(f: DirichletPoly, g: DirichletPoly, limit: int) -> DirichletPoly:
    """Coefficients c_n = sum_{k | n} a_k b_{n/k} for all n <= limit, exact:
    the blocks of ``product_blocks`` joined."""
    blocks = list(product_blocks(f, g, limit))
    if not blocks:
        return DirichletPoly(CoeffSeq.empty())
    idx = np.concatenate([b[0] for b in blocks])
    val = np.concatenate([b[1] for b in blocks])
    return DirichletPoly(CoeffSeq(idx, val, _validated=True))


def evaluate(f: DirichletPoly, s: EvalPoint) -> complex:
    """f(s) = sum a_n n^-sigma exp(-i t log n), exact to rounding."""
    c = f.coeffs
    if c.is_empty:
        return 0.0 + 0.0j
    base = c.idx.astype(np.float64)
    # a value that leaves the float64 range fails the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        radial = base ** -s.sigma
        if s.t == 0.0:
            value = complex(np.sum(c.val * radial))
        else:
            value = complex(np.sum(c.val * radial * np.exp(-1j * s.t * np.log(base))))
    if not cmath.isfinite(value):
        raise DomainError(f"f({s.sigma} + {s.t}i) leaves the float64 range")
    return value


def qr_project(f: DirichletPoly, r: int) -> DirichletPoly:
    """Keep exactly the coefficients whose index is p_1..p_r smooth
    (``smooth_mask`` decides every index)."""
    c = f.coeffs
    if c.is_empty:
        return f
    keep = smooth_mask(c.idx.tolist(), r)
    return DirichletPoly(CoeffSeq(c.idx[keep].copy(), c.val[keep].copy(),
                                  _validated=True))
