"""Exact integer arithmetic: recurrence families, division, evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcorrect.exceptions import DivisibilityError
from loopcorrect.poly import (
    BiPoly,
    UniPoly,
    exact_divide,
    f_poly,
    f_values,
    g_poly,
    g_values,
    unpack,
)
from tests.oracles import f_product_identity_check


def test_f_seeds_and_recurrence():
    assert f_poly(0) == UniPoly({0: 1})
    assert f_poly(1) == UniPoly({})
    assert f_poly(2) == UniPoly({0: 1})
    assert f_poly(3) == UniPoly({1: 1})
    # two recurrence steps from f_2 = 1, f_3 = x
    assert f_poly(4) == UniPoly({0: 1, 2: 1})


def test_g_seeds_and_recurrence():
    assert g_poly(0) == UniPoly({1: 1})
    assert g_poly(1) == UniPoly({0: -2})
    assert g_poly(2) == UniPoly({1: -1})
    assert g_poly(3) == UniPoly({0: -2, 2: -1})


def test_f_at_one():
    assert f_poly(2).eval(1) == 1
    assert f_poly(3).eval(1) == 1
    assert f_poly(4).eval(1) == 2


def test_f_at_two_i():
    # f_d has the parity of d, and f_d(2i) = i^d (1 - d) exactly: the node
    # weight of omega's theta route.  (2i)^e = 2^e i^e, summed as a
    # Gaussian integer (real, imaginary).
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # i^e by e mod 4
    for d in range(41):
        f = f_poly(d)
        assert all(e % 2 == d % 2 for e in f.coeffs)
        re = sum(c * 2**e * unit[e % 4][0] for e, c in f.coeffs.items())
        im = sum(c * 2**e * unit[e % 4][1] for e, c in f.coeffs.items())
        assert (re, im) == ((1 - d) * unit[d % 4][0], (1 - d) * unit[d % 4][1])


def test_g_eval_identity_seed():
    for x in (-3, 0, 2):
        assert g_poly(0).eval(x) == x


def test_f_values_match_polys():
    for x in (-1.5, 0.0, 0.7, 2.0):
        vals = f_values(x, 9)
        gvals = g_values(x, 9)
        for n in range(10):
            assert vals[n] == pytest.approx(float(f_poly(n).eval(x)), abs=1e-12)
            assert gvals[n] == pytest.approx(float(g_poly(n).eval(x)), abs=1e-12)


def test_f_closed_form_numeric(rng):
    # f_n(xi - 1/xi) * (xi + 1/xi) = xi^(n-1) - (-xi)^(-n+1)
    for _ in range(20):
        xi = float(rng.uniform(0.2, 5.0))
        for n in range(13):
            lhs = f_poly(n).eval(xi - 1 / xi) * (xi + 1 / xi)
            rhs = xi ** (n - 1) - (-xi) ** (-n + 1)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_g_spin_sum_identity(rng):
    # sum_{x=+-1} x (-x xi^-x)^n xi^x = g_n(xi - 1/xi)
    for _ in range(20):
        xi = float(rng.uniform(0.2, 5.0))
        for n in range(13):
            lhs = sum(
                x * (-x * xi**-x) ** n * xi**x for x in (1.0, -1.0)
            )
            rhs = g_poly(n).eval(xi - 1 / xi)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_f_product_identity_exhaustive():
    for n in range(1, 21):
        for m in range(1, 21):
            assert f_product_identity_check(n, m)


def test_exact_divide_examples():
    b = "b"
    num = UniPoly({0: 1, 1: 2, 2: -3}, b)  # 1 + 2b - 3b^2
    den = UniPoly({0: 1, 1: -1}, b)  # 1 - b
    assert exact_divide(num, den) == UniPoly({0: 1, 1: 3}, b)
    p = UniPoly({0: 5, 3: -2}, b)
    assert exact_divide(p, UniPoly({0: 1}, b)) == p
    assert exact_divide(UniPoly({0: 1, 2: -1}, b), den) == UniPoly({0: 1, 1: 1}, b)


def test_exact_divide_failure():
    with pytest.raises(DivisibilityError):
        exact_divide(UniPoly({0: 1, 1: 1}), UniPoly({0: 1, 1: -1}))
    with pytest.raises(DivisibilityError):
        exact_divide(UniPoly({1: 3}), UniPoly({1: 2}))


_coeffs = st.integers(min_value=-50, max_value=50)
_polys = st.dictionaries(st.integers(min_value=0, max_value=8), _coeffs, max_size=6).map(
    UniPoly
)


@given(_polys, _polys, _polys)
@settings(max_examples=60, deadline=None)
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(_polys, _polys)
@settings(max_examples=60, deadline=None)
def test_divide_undoes_multiply(p, q):
    if q.is_zero():
        return
    assert exact_divide(p * q, q) == p


@st.composite
def _packable(draw):
    """(bits, coefficient dict) with every |coefficient| below 2^(bits-1)."""
    bits = draw(st.integers(min_value=2, max_value=90))
    top = (1 << (bits - 1)) - 1
    coeffs = draw(st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-top, max_value=top),
        max_size=12,
    ))
    return bits, coeffs


@given(_packable())
@settings(max_examples=200, deadline=None)
def test_pack_unpack_round_trip(case):
    bits, coeffs = case
    p = UniPoly(coeffs)
    assert unpack(p.eval(1 << bits), bits) == p.coeffs


def test_unpack_bound_is_tight():
    # a coefficient of 2^(bits-1) reads back as a carry into the next digit
    assert unpack(UniPoly({0: 1 << 7}).eval(1 << 8), 8) == {0: -(1 << 7), 1: 1}
    assert unpack(UniPoly({0: -1, 3: 2}).eval(1 << 8), 8) == {0: -1, 3: 2}
    assert unpack(0, 8) == {}
    with pytest.raises(ValueError, match="at least 2 bits"):
        unpack(1, 1)


def test_rendering_canonical():
    assert str(UniPoly({0: 1, 1: 3, 2: -2}, "b")) == "1 + 3*b - 2*b^2"
    assert str(UniPoly({}, "x")) == "0"
    assert str(BiPoly({(0, 0): 1, (1, 0): 3, (2, 4): -2})) == "1 + 3*b - 2*b^2*g^4"


def test_bipoly_partial_evaluations():
    p = BiPoly({(0, 0): 1, (2, 1): 3, (1, 2): -1})
    # substituting b, then g, must agree with joint evaluation
    at_b = p.eval_first(5)
    assert at_b.eval(2) == p.eval(5, 2)
