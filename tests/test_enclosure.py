import math

import pytest

from cesdirichlet.enclosure import Enclosure, ulp_down, ulp_up


def test_invariants():
    with pytest.raises(ValueError):
        Enclosure(2.0, 1.0)
    with pytest.raises(ValueError):
        Enclosure(0.0, math.inf)
    e = Enclosure(1.0, 1.5)
    assert e.width == 0.5
    assert e.mid == 1.25
    assert e.contains(1.0) and e.contains(1.5) and not e.contains(1.6)


def test_mid_does_not_overflow():
    # lo + hi overflows; the enclosure of ces_norm of {2: 1e308, 5: 1e308}
    e = Enclosure(1.144072958363912e308, 1.1440729583639287e308)
    assert math.isfinite(e.mid)
    assert e.lo <= e.mid <= e.hi
    neg = Enclosure(-1.7e308, -1.6e308)
    assert neg.lo <= neg.mid <= neg.hi


def test_exact_and_encloses():
    e = Enclosure(3.0, 3.0)
    assert e.width == 0.0
    assert Enclosure(2.0, 4.0).encloses(e)


def test_arithmetic_is_outward():
    a = Enclosure(1.0, 2.0)
    b = Enclosure(0.5, 0.75)
    s = a + b
    assert s.lo <= 1.5 and s.hi >= 2.75


def test_power_and_root():
    e = Enclosure(4.0, 9.0)
    r = e.root(2.0)
    assert r.contains(2.0) and r.contains(3.0)
    assert e.power(0.5).contains(2.5)
    with pytest.raises(ValueError):
        Enclosure(-1.0, 1.0).power(0.5)


def test_ulp_steps():
    x = 1.0
    assert ulp_up(x) > x > ulp_down(x)
    assert ulp_up(ulp_down(x)) == x
