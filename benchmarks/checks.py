"""Independent checks of ``cesdir`` outputs.

Each check recomputes the printed quantity from the input coefficients
by a route that shares no code with the library (mpmath's Hurwitz zeta,
Python integers, math.fsum) and raises ``CheckFailed`` when the output
disagrees.  Reports round floats to 12 significant digits, so printed
endpoints are compared with a relative allowance of ``RND``; a narrower
enclosure than today's therefore still passes.

A check returns the certified ``(lo, hi)`` pairs the output printed,
for the ``width_rel_max`` metric.
"""

from __future__ import annotations

import json
import math

import mpmath

RND = 1e-11       # printed 12-significant-digit rounding, with a factor 2 margin
WINDOW_SLACK = 1e-9


class CheckFailed(AssertionError):
    pass


def _expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def opts(argv) -> dict:
    """``--flag value`` pairs of an argv list; bare flags map to True."""
    out = {}
    k = 1
    while k < len(argv):
        if k + 1 < len(argv) and not argv[k + 1].startswith("--"):
            out[argv[k]] = argv[k + 1]
            k += 2
        else:
            out[argv[k]] = True
            k += 1
    return out


def _record(out: str) -> dict:
    records = json.loads(out)["records"]
    _expect(len(records) == 1, f"expected one record, got {len(records)}")
    return records[0]


def _within(lo, hi, v, what):
    _expect(lo - RND * abs(lo) <= v <= hi + RND * abs(hi), f"{what}: {v!r} outside [{lo!r}, {hi!r}]")


def _conjugate(p: float) -> float:
    return p / (p - 1.0)


def _abs_rows(rows):
    return [(n, math.hypot(re, im)) for n, re, im in rows]


def _dq(rows, p) -> float:
    """(sum_n sup_{k>=n} |b_k|^q)^(1/q): the sup is constant between support indices."""
    q = _conjugate(p)
    terms, sup = [], 0.0
    for n, w in reversed(_abs_rows(rows)):
        sup = max(sup, w)
        terms.append((n, sup))
    total, last = [], 0
    for n, sup in reversed(terms):
        total.append(sup ** q * (n - last))
        last = n
    return math.fsum(total) ** (1.0 / q)


class Checker:
    """Checks outputs of one workload; memoises Hurwitz zeta values."""

    def __init__(self, files: dict):
        self.files = files
        self._zeta = {}
        mpmath.mp.dps = 30

    def hurwitz(self, s, a):
        key = (s, a)
        if key not in self._zeta:
            self._zeta[key] = mpmath.zeta(s, a)
        return self._zeta[key]

    def ces_value(self, rows, p: float):
        """||a||_ces = (sum_k A_k^p (zeta(p, i_k) - zeta(p, i_{k+1})) + A_K^p zeta(p, i_K))^(1/p),
        A_k the absolute prefix sums: the explicit sum between support indices
        plus the tail past the last one."""
        s = mpmath.mpf(p)
        acc = mpmath.mpf(0)
        total = mpmath.mpf(0)
        for k, (n, re, im) in enumerate(rows):
            acc += mpmath.sqrt(mpmath.mpf(re) ** 2 + mpmath.mpf(im) ** 2)
            upper = self.hurwitz(s, rows[k + 1][0]) if k + 1 < len(rows) else 0
            total += acc ** s * (self.hurwitz(s, n) - upper)
        return total ** (1 / s)

    # -- per request kind ----------------------------------------------
    def check(self, kind: str, argv, out: str) -> list:
        return getattr(self, "_" + kind.replace("-", "_"))(opts(argv), out)

    def _rows(self, path: str):
        return self.files[path.rsplit("/", 1)[-1]]

    def _norm_ces(self, o, out):
        rec = _record(out)
        v = float(self.ces_value(self._rows(o["--input"]), float(o["--p"])))
        lo, hi = rec["value"]["lo"], rec["value"]["hi"]
        _within(lo, hi, v, "ces norm")
        return [(lo, hi)]

    def _norm_lp(self, o, out):
        p = float(o["--p"])
        v = math.fsum(w ** p for _, w in _abs_rows(self._rows(o["--input"]))) ** (1.0 / p)
        got = _record(out)["value"]
        _within(got, got, v, "lp norm")
        return []

    def _norm_dq(self, o, out):
        v = _dq(self._rows(o["--input"]), float(o["--p"]))
        got = _record(out)["value"]
        _within(got, got, v, "dq norm")
        return []

    def _norm_ar(self, o, out):
        r = float(o["--r"])
        v = math.fsum(w * n ** -r for n, w in _abs_rows(self._rows(o["--input"])))
        got = _record(out)["value"]
        _within(got, got, v, "ar norm")
        return []

    def _dual_norm(self, o, out):
        rec = _record(out)
        rows = self._rows(o["--input"])
        p = float(o["--p"])
        q = _conjugate(p)
        dq = _dq(rows, p)
        lo, hi = rec["norm"]["lo"], rec["norm"]["hi"]
        pad = WINDOW_SLACK * max(1.0, dq)
        # Bennett: dq/q <= dual norm <= (p-1)^(1/p) dq
        _expect(lo >= dq / q * (1.0 - RND) - pad and hi <= (p - 1.0) ** (1.0 / p) * dq * (1.0 + RND) + pad,
                f"dual norm [{lo}, {hi}] leaves the Bennett window of dq = {dq}")
        chain = rec["chain"]
        support = {n for n, _, _ in rows}
        finite = chain[:-1]
        _expect(chain[-1] == "inf" and all(n in support for n in finite)
                and finite == sorted(set(finite)), f"malformed chain {chain}")
        _expect(rec["d_set_size"] == len(finite), "d_set size differs from the chain")
        if "oracle" in rec:
            _expect(dq / q - pad <= rec["oracle"] <= hi * (1.0 + RND) + pad,
                    f"oracle {rec['oracle']} exceeds the certified dual norm {hi}")
        return [(lo, hi)]

    _dual_oracle = _dual_norm

    def _eval(self, o, out):
        sigma, t = mpmath.mpf(o["--sigma"]), mpmath.mpf(o["--t"])
        v = mpmath.mpc(0)
        scale = 0.0
        for n, re, im in self._rows(o["--input"]):
            v += mpmath.mpc(re, im) * mpmath.power(n, -sigma) * mpmath.expj(-t * mpmath.log(n))
            scale += math.hypot(re, im) * float(n) ** -float(sigma)
        got = _record(out)["value"]
        for part, ref in (("re", v.real), ("im", v.imag)):
            _expect(abs(got[part] - float(ref)) <= RND * abs(float(ref)) + 1e-13 * scale,
                    f"eval {part}: {got[part]!r} != {float(ref)!r}")
        return []

    def _convolve(self, o, out):
        f = {n: complex(re, im) for n, re, im in self._rows(o["--input"])}
        g = {n: complex(re, im) for n, re, im in self._rows(o["--with"])}
        limit = int(o["--limit"])
        # integer-valued inputs: Gaussian-integer arithmetic is exact
        acc = {}
        for i, a in f.items():
            for j, b in g.items():
                if i * j <= limit:
                    re = int(a.real) * int(b.real) - int(a.imag) * int(b.imag)
                    im = int(a.real) * int(b.imag) + int(a.imag) * int(b.real)
                    r0, i0 = acc.get(i * j, (0, 0))
                    acc[i * j] = (r0 + re, i0 + im)
        want = [{"n": n, "re": float(re), "im": float(im)}
                for n, (re, im) in sorted(acc.items()) if (re, im) != (0, 0)]
        _expect(json.loads(out)["coeffs"] == want, "convolution differs from the exact product")
        return []

    def _project(self, o, out):
        r = int(o["--r"])
        primes = []
        cand = 2
        while len(primes) < r:
            if all(cand % d for d in primes):
                primes.append(cand)
            cand += 1

        def smooth(n):
            for d in primes:
                while n % d == 0:
                    n //= d
            return n == 1

        want = [{"n": n, "re": re, "im": im} for n, re, im in self._rows(o["--input"]) if smooth(n)]
        _expect(json.loads(out)["coeffs"] == want, "projection keeps the wrong indices")
        return []

    def _schur_finite(self, o, out):
        rec = _record(out)
        q = _conjugate(float(o["--p"]))
        rows = _abs_rows(self._rows(o["--input"]))
        # sum_n sup_{k>=n} |b_k|^q / k, the sup constant between support indices
        sup, last, terms = 0.0, 0, []
        sups = []
        for n, w in reversed(rows):
            sup = max(sup, w ** q / n)
            sups.append((n, sup))
        for n, s in reversed(sups):
            terms.append(s * (n - last))
            last = n
        v = math.fsum(terms)
        _expect(rec["verdict"] == "schur", f"finite sequence judged {rec['verdict']}")
        _within(rec["value"]["lo"], rec["value"]["hi"], v, "schur sum")
        return []

    def _delta_bounds(self, o, out):
        p, sigma = float(o["--p"]), float(o["--sigma"])
        q = _conjugate(p)
        zq = mpmath.zeta(mpmath.mpf(o["--sigma"]) * q) ** (1 / mpmath.mpf(q))
        want_lo = float(zq / q)
        want_hi = float(min(sigma, (p - 1.0) ** (1.0 / p)) * zq)
        norm = _record(out)["norm"]
        _expect(norm["lo"] <= want_lo * (1.0 + RND) and norm["hi"] >= want_hi * (1.0 - RND),
                f"delta bounds [{norm['lo']}, {norm['hi']}] miss [{want_lo}, {want_hi}]")
        _expect(norm["lo"] >= 0.9 * want_lo and norm["hi"] <= 1.1 * want_hi,
                f"delta bounds [{norm['lo']}, {norm['hi']}] far looser than [{want_lo}, {want_hi}]")
        return []

    def _delta_exact(self, o, out):
        s = mpmath.mpf(o["--sigma"])

        def term(n):
            return n ** 2 * (n ** -s - (n + 1) ** -s) ** 2

        # explicit head, Euler-Maclaurin tail (agrees to 25 digits for sigma >= 0.9)
        head = mpmath.fsum(term(mpmath.mpf(n)) for n in range(1, 300))
        v = float(mpmath.sqrt(head + mpmath.sumem(term, [300, mpmath.inf])))
        norm = _record(out)["norm"]
        lo, hi = norm["lo"], norm["hi"]
        _within(lo, hi, v, "delta norm")
        return [(lo, hi)]

    def _multiplier_estimate(self, o, out):
        rec = _record(out)
        q = _conjugate(float(o.get("--p", "2")))
        reference = math.fsum(w * n ** (-1.0 / q) for n, w in _abs_rows(self._rows(o["--input"])))
        _expect(abs(rec["reference"] - reference) <= RND * reference,
                f"reference {rec['reference']!r} != sum |a_n| n^(-1/q) = {reference!r}")
        _expect(0.0 < rec["ratio"] <= reference * (1.0 + RND),
                f"quotient {rec['ratio']!r} exceeds sum |a_n| n^(-1/q) = {reference!r}")
        _expect(rec["prime_limit"] == int(o["--prime-limit"]) and rec["m"] == int(o["--m"]),
                "record does not echo the request")
        return [(rec["ratio"], reference)]
