"""Exact polynomial arithmetic: the f/g recurrence families, sparse
univariate polynomials over the integers with exact division, and the
bivariate theta container with its partial evaluations.

Coefficients are Python ints (arbitrary precision); nothing here ever
rounds.  Evaluation at floats is allowed and returns floats, but stored
polynomials stay exact.

A polynomial p packs into the single int p(2^B) (``p.eval(1 << B)``).
Evaluation keeps sums, products and exact quotients, so each of them is
one big-int operation on packed values, and ``unpack`` reads a result back
as balanced base-2^B digits as long as its coefficients are below 2^(B-1)
in absolute value.
"""

from __future__ import annotations


class UniPoly:
    """Sparse univariate polynomial: exponent -> exact coefficient.

    The variable name is display-only; arithmetic ignores it.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=None, var: str = "x"):
        self.var = var
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c != 0:
                    self.coeffs[e] = c

    @classmethod
    def constant(cls, c, var: str = "x") -> "UniPoly":
        return cls({0: c}, var)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def __getitem__(self, e: int):
        return self.coeffs.get(e, 0)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other != 0 else {})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = UniPoly.constant(other, self.var)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return UniPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly({e: -c for e, c in self.coeffs.items()}, self.var)

    def __sub__(self, other):
        if isinstance(other, int):
            other = UniPoly.constant(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly({e: c * other for e, c in self.coeffs.items()}, self.var)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return UniPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative polynomial powers unsupported")
        out = UniPoly.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def map_exponents(self, k: int) -> "UniPoly":
        """Substitute x -> x**k (exponent scaling)."""
        return UniPoly({e * k: c for e, c in self.coeffs.items()}, self.var)

    def with_var(self, var: str) -> "UniPoly":
        return UniPoly(self.coeffs, var)

    def eval(self, x):
        """Horner evaluation; exact inputs give exact outputs."""
        if not self.coeffs:
            return 0 * x
        exps = sorted(self.coeffs, reverse=True)
        acc = self.coeffs[exps[0]]
        prev = exps[0]
        for e in exps[1:]:
            acc = acc * x ** (prev - e) + self.coeffs[e]
            prev = e
        if prev:
            acc = acc * x**prev
        return acc

    def __str__(self):
        return _render_terms(
            [((e,), c) for e, c in sorted(self.coeffs.items())], (self.var,)
        )

    def __repr__(self):
        return f"UniPoly({self})"


class BiPoly:
    """Sparse bivariate polynomial over the integers, as built elsewhere:
    it only compares, renders and evaluates, with no arithmetic of its own.

    Keys are exponent pairs; the default variables (b, g) are the edge
    weight and the node-bias variable of the theta polynomial.
    """

    __slots__ = ("coeffs", "vars")

    def __init__(self, coeffs=None, vars: tuple[str, str] = ("b", "g")):
        self.vars = vars
        self.coeffs = {}
        if coeffs:
            for eg, c in coeffs.items():
                if c != 0:
                    self.coeffs[eg] = c

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ({(0, 0): other} if other != 0 else {})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def eval_first(self, value) -> UniPoly:
        """Substitute the first variable by an exact value; returns a
        UniPoly in the second variable."""
        out: dict = {}
        for (be, ge), c in self.coeffs.items():
            s = out.get(ge, 0) + c * value**be
            if s == 0:
                out.pop(ge, None)
            else:
                out[ge] = s
        return UniPoly(out, self.vars[1])

    def eval(self, bval, gval):
        return sum(c * bval**be * gval**ge for (be, ge), c in self.coeffs.items())

    def __str__(self):
        terms = sorted(
            self.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0], kv[0][1])
        )
        return _render_terms([(k, c) for k, c in terms], self.vars)


def _render_terms(terms, var_names):
    """Canonical text: '1 + 3*b - 2*b^2*g^4'.  terms: [(exps tuple, coeff)]."""
    if not terms:
        return "0"
    parts = []
    for exps, c in terms:
        factors = []
        for name, e in zip(var_names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        negative = c < 0
        coeff_txt = str(-c if negative else c)
        if factors and coeff_txt == "1":
            body = "*".join(factors)
        elif factors:
            body = coeff_txt + "*" + "*".join(factors)
        else:
            body = coeff_txt
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# The two recurrence families.  Both satisfy p_{n+1} = x*p_n + p_{n-1}; the
# f family (seeds 1, 0) is a shifted Chebyshev-II ladder and the g family
# (seeds x, -2) a shifted Chebyshev-I ladder.
# ---------------------------------------------------------------------------

_X = UniPoly({1: 1})
_F_CACHE: list[UniPoly] = [UniPoly({0: 1}), UniPoly({})]
_G_CACHE: list[UniPoly] = [UniPoly({1: 1}), UniPoly({0: -2})]


def _ladder(cache: list[UniPoly], n: int) -> UniPoly:
    if n < 0:
        raise ValueError("recurrence index must be nonnegative")
    while len(cache) <= n:
        cache.append(_X * cache[-1] + cache[-2])
    return cache[n]


def f_poly(n: int) -> UniPoly:
    """n-th polynomial of the ladder f_0=1, f_1=0, f_{n+1} = x f_n + f_{n-1}."""
    return _ladder(_F_CACHE, n)


def g_poly(n: int) -> UniPoly:
    """n-th polynomial of the ladder g_0=x, g_1=-2, g_{n+1} = x g_n + g_{n-1}."""
    return _ladder(_G_CACHE, n)


def f_values(x: float, n_max: int) -> list[float]:
    """[f_0(x), ..., f_{n_max}(x)] by direct recurrence (float)."""
    vals = [1.0, 0.0]
    for _ in range(2, n_max + 1):
        vals.append(x * vals[-1] + vals[-2])
    return vals[: n_max + 1]


def g_values(x: float, n_max: int) -> list[float]:
    """[g_0(x), ..., g_{n_max}(x)] by direct recurrence (float)."""
    vals = [x, -2.0]
    for _ in range(2, n_max + 1):
        vals.append(x * vals[-1] + vals[-2])
    return vals[: n_max + 1]


def unpack(value: int, bits: int) -> dict:
    """{exponent: coefficient} of the polynomial p with p(2^bits) = value
    and every |coefficient| below 2^(bits-1).

    Such a p is unique: its lowest nonzero coefficient c is value's
    balanced remainder modulo 2^bits, since 0 < |c| < 2^bits / 2.  So
    p(2^bits) = 0 only for p = 0, and packed values that compare equal are
    equal polynomials.  bits must be at least 2: with one bit the digits
    are -1 and 0, which cannot spell a positive value.
    """
    if bits < 2:
        raise ValueError(f"unpack needs at least 2 bits per coefficient, got {bits}")
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = {}
    e = 0
    while value:
        c = ((value + half) & mask) - half
        if c:
            out[e] = c
            value = (value - c) >> bits
            e += 1
        else:
            # a zero digit leaves value's low bits zero: skip the whole run
            # of zero digits in one shift, so a sparse value costs its terms
            skip = ((value & -value).bit_length() - 1) // bits
            value >>= skip * bits
            e += skip
    return out


def exact_divide(num: UniPoly, den: UniPoly) -> UniPoly:
    """Exact polynomial division: return q with num == q*den.

    Raises DivisibilityError if any coefficient step is inexact or a
    nonzero remainder survives.
    """
    from .exceptions import DivisibilityError

    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(num.coeffs)
    dd = den.degree
    dlead = den.coeffs[dd]
    quot: dict = {}
    while rem:
        rd = max(rem)
        if rd < dd:
            raise DivisibilityError(f"nonzero remainder of degree {rd}")
        q, r = divmod(rem[rd], dlead)
        if r:
            raise DivisibilityError("leading coefficient not divisible")
        quot[rd - dd] = q
        for e, c in den.coeffs.items():
            k = rd - dd + e
            s = rem.get(k, 0) - q * c
            if s == 0:
                rem.pop(k, None)
            else:
                rem[k] = s
    return UniPoly(quot, num.var)
