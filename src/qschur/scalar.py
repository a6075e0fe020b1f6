"""Exact arithmetic in the field Q(q) of rational functions.

A value is a normalised pair num/den of integer Laurent polynomials in q.
Laurent polynomials are dicts {exponent: coefficient} with no zero
coefficients ever stored.  The canonical form is unique:

  * den is an ordinary polynomial (lowest exponent 0) with positive
    constant term;
  * num carries the whole q-power shift, so at most num has nonzero
    valuation;
  * num and den are coprime in Q[q] and their joint integer content is 1.

Equality is therefore structural.  Coefficients are Python ints (arbitrary
precision); there is no floating-point mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import PoleError, UnluckyPrime

__all__ = ["RatFunc", "PoleError", "UnluckyPrime", "ZERO", "ONE", "Q",
           "qint", "qpow", "parse", "rational_residue"]


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: int} dicts.

def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        w = out.get(e, 0) + c
        if w:
            out[e] = w
        else:
            out.pop(e, None)
    return out


def _pneg(a):
    return {e: -c for e, c in a.items()}


def _pmul(a, b):
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            w = out.get(e, 0) + ca * cb
            if w:
                out[e] = w
            else:
                out.pop(e, None)
    return out


def _pshift(a, s):
    if not s:
        return dict(a)
    return {e + s: c for e, c in a.items()}


def _horner(a, u, v, lo, hi):
    """a(u/v) * u^-lo * v^hi, the int sum c_e u^(e-lo) v^(hi-e) over the
    terms of a, by Horner's rule."""
    acc, vpow = 0, 1
    for e in range(hi, lo - 1, -1):
        acc *= u
        c = a.get(e)
        if c:
            acc += c * vpow
        vpow *= v
    return acc


def _horner_mod(a, x, lo, hi, p):
    """a(x) * x^-lo mod p, by Horner's rule."""
    acc = 0
    for e in range(hi, lo - 1, -1):
        acc = (acc * x + a.get(e, 0)) % p
    return acc


def rational_residue(x, p: int) -> int:
    """The residue mod p of an int or Fraction; UnluckyPrime if its
    denominator vanishes mod p."""
    if isinstance(x, int):
        return x % p
    if x.denominator % p == 0:
        raise UnluckyPrime(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


# List form (ordinary polynomials, index = exponent) for gcd work.

def _tolist(a):
    deg = max(a)
    out = [0] * (deg + 1)
    for e, c in a.items():
        out[e] = c
    return out


def _todict(lst, shift=0):
    return {i + shift: c for i, c in enumerate(lst) if c}


def _trim(lst):
    while lst and lst[-1] == 0:
        lst.pop()
    return lst


def _content(lst):
    g = 0
    for c in lst:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _primitive(lst):
    g = _content(lst)
    if g > 1:
        lst = [c // g for c in lst]
    if lst and lst[-1] < 0:
        lst = [-c for c in lst]
    return lst


def _prem(a, b):
    """Pseudo-remainder of a by b (lists over Z, b nonzero)."""
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    while len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lr * bc
        _trim(r)
        if not r:
            break
    return r


def _pgcd(a, b):
    """Primitive gcd in Z[q] of two nonzero lists."""
    a, b = _primitive(a[:]), _primitive(b[:])
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _pdiv_exact(a, b):
    """Exact quotient a/b in Z[q]; raises if not exact (internal error)."""
    qlen = len(a) - len(b) + 1
    out = [Fraction(0)] * qlen
    r = [Fraction(c) for c in a]
    lb = b[-1]
    for k in range(qlen - 1, -1, -1):
        c = r[k + len(b) - 1] / lb
        out[k] = c
        if c:
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
    if any(r) or any(c.denominator != 1 for c in out):
        raise ArithmeticError("inexact polynomial division")
    return [int(c) for c in out]


def _normalize(num, den):
    """Canonicalise a num/den pair of Laurent dicts."""
    if not den:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if not num:
        return {}, {0: 1}
    vn, vd = min(num), min(den)
    nl = _tolist(_pshift(num, -vn))
    dl = _tolist(_pshift(den, -vd))
    g = _pgcd(nl, dl)
    if len(g) > 1 or g[0] != 1:
        nl = _pdiv_exact(nl, g)
        dl = _pdiv_exact(dl, g)
    c = gcd(_content(nl), _content(dl))
    if c > 1:
        nl = [x // c for x in nl]
        dl = [x // c for x in dl]
    if dl[0] < 0:
        nl = [-x for x in nl]
        dl = [-x for x in dl]
    return _todict(nl, vn - vd), _todict(dl)


_ONE_POLY = {0: 1}


class RatFunc:
    """An element of Q(q) in canonical form. Immutable and hashable."""

    __slots__ = ("_n", "_d", "_hash")

    def __init__(self, num=0, den=None, _raw=False):
        if _raw:
            self._n, self._d = num, den
        else:
            num = _coerce_poly(num)
            den = _ONE_POLY if den is None else _coerce_poly(den)
            self._n, self._d = _normalize(num, den)
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(x) -> "RatFunc":
        x = Fraction(x)
        return RatFunc({0: x.numerator} if x else {}, {0: x.denominator})

    # -- field structure ----------------------------------------------

    @property
    def num(self):
        """Numerator, as an exponent -> coefficient mapping."""
        return dict(self._n)

    @property
    def den(self):
        """Denominator, as an exponent -> coefficient mapping."""
        return dict(self._d)

    def __bool__(self):
        return bool(self._n)

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self._d == _ONE_POLY and other._d == _ONE_POLY:
            return RatFunc(_padd(self._n, other._n), _ONE_POLY, _raw=True)
        num = _padd(_pmul(self._n, other._d), _pmul(other._n, self._d))
        return RatFunc(*_normalize(num, _pmul(self._d, other._d)), _raw=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_pneg(self._n), self._d, _raw=True)

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self._d == _ONE_POLY and other._d == _ONE_POLY:
            return RatFunc(_pmul(self._n, other._n), _ONE_POLY, _raw=True)
        return RatFunc(*_normalize(_pmul(self._n, other._n),
                                   _pmul(self._d, other._d)), _raw=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("division by zero in Q(q)")
        return RatFunc(*_normalize(_pmul(self._n, other._d),
                                   _pmul(self._d, other._n)), _raw=True)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def inverse(self) -> "RatFunc":
        if not self._n:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return RatFunc(*_normalize(self._d, self._n), _raw=True)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((tuple(sorted(self._n.items())),
                               tuple(sorted(self._d.items()))))
        return self._hash

    # -- specialisation -------------------------------------------------

    def specialize(self, point) -> Fraction:
        """Exact value at q = point (a nonzero rational, not a pole).

        Numerator and denominator are evaluated at point = u/v by Horner's
        rule on ints; one Fraction is built at the end.
        """
        point = Fraction(point)
        if point == 0:
            raise ValueError("cannot specialise at q = 0")
        u, v = point.numerator, point.denominator
        n, d = self._n, self._d
        dhi = max(d)  # d is an ordinary polynomial: its lowest exponent is 0
        dv = _horner(d, u, v, 0, dhi)
        if dv == 0:
            raise PoleError(f"q = {point} is a pole")
        if not n:
            return Fraction(0)
        nlo, nhi = min(n), max(n)
        nv = _horner(n, u, v, nlo, nhi)
        # n(a) / d(a) = nv u^nlo v^-nhi / (dv v^-dhi)
        if nlo > 0:
            nv *= u ** nlo
        elif nlo < 0:
            dv *= u ** -nlo
        if dhi > nhi:
            nv *= v ** (dhi - nhi)
        elif nhi > dhi:
            dv *= v ** (nhi - dhi)
        return Fraction(nv, dv)

    def residue(self, point, p: int) -> int:
        """specialize(point) mod p for an int or Fraction point, computed in
        F_p without building a Fraction.

        UnluckyPrime if the point or the denominator vanishes mod p; the
        exact `specialize` then decides whether the point is a pole.  The
        denominator's message names no point: `SparseMat.residues` passes
        the point's residue and adds the point itself.  A Laurent
        polynomial (denominator 1, as every gl generator entry is) is
        evaluated with no denominator and no inverse.
        """
        x = rational_residue(point, p)
        if not x:
            raise UnluckyPrime(f"q = {point} vanishes mod {p}")
        inv = 1
        if self._d != _ONE_POLY:
            d = _horner_mod(self._d, x, 0, max(self._d), p)
            if not d:
                raise UnluckyPrime(f"denominator {_poly_str(self._d)} "
                                   f"vanishes mod {p}")
            inv = pow(d, -1, p)
        n = self._n
        if not n:
            return 0
        lo = min(n)
        nv = _horner_mod(n, x, lo, max(n), p)
        if lo:
            nv *= pow(x, lo, p)
        return nv * inv % p

    # -- rendering -------------------------------------------------------

    def __str__(self):
        ns = _poly_str(self._n)
        if self._d == _ONE_POLY:
            return ns
        ds = _poly_str(self._d)
        if len(self._n) > 1:
            ns = f"({ns})"
        if len(self._d) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFunc({self})"


def _coerce_poly(x):
    if isinstance(x, dict):
        return {e: c for e, c in x.items() if c}
    if isinstance(x, int):
        return {0: x} if x else {}
    raise TypeError(f"cannot build a Laurent polynomial from {x!r}")


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc({0: x} if x else {}, _ONE_POLY, _raw=True)
    if isinstance(x, Fraction):
        return RatFunc.from_fraction(x)
    return NotImplemented


def _mono_str(e, c):
    if e == 0:
        return str(c)
    qs = "q" if e == 1 else f"q^{e}"
    if c == 1:
        return qs
    if c == -1:
        return f"-{qs}"
    return f"{c}*{qs}"


def _poly_str(p):
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        s = _mono_str(e, p[e])
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append("- " + s[1:])
        else:
            parts.append("+ " + s)
    return " ".join(parts)


ZERO = RatFunc(0)
ONE = RatFunc(1)
Q = RatFunc({1: 1})


def qpow(e: int) -> RatFunc:
    """The monomial q^e."""
    return RatFunc({e: 1})


def qint(n: int) -> RatFunc:
    """Quantum integer [n]_q = (q^n - q^-n)/(q - q^-1)."""
    if n == 0:
        return ZERO
    if n < 0:
        return -qint(-n)
    return RatFunc({e: 1 for e in range(n - 1, -n, -2)})


# ---------------------------------------------------------------------------
# Parser for the rendered grammar: ints, q, ^ with integer exponent, + - * /
# and parentheses.  parse(str(x)) == x for every RatFunc x.

def parse(text: str) -> RatFunc:
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if tok is None or (kind is not None and tok[0] != kind):
            raise ValueError(f"bad Q(q) expression {text!r} near token {pos}")
        pos += 1
        return tok

    def atom():
        tok = peek()
        if tok is None:
            raise ValueError(f"bad Q(q) expression {text!r}: unexpected end")
        if tok[0] == "int":
            take()
            return RatFunc(tok[1])
        if tok[0] == "q":
            take()
            return Q
        if tok[0] == "(":
            take()
            v = expr()
            take(")")
            return v
        raise ValueError(f"bad Q(q) expression {text!r} at {tok}")

    def power():
        v = atom()
        while peek() is not None and peek()[0] == "^":
            take()
            sign = 1
            if peek() is not None and peek()[0] == "-":
                take()
                sign = -1
            v = v ** (sign * take("int")[1])
        return v

    def unary():
        sign = 1
        while peek() is not None and peek()[0] in ("+", "-"):
            if take()[0] == "-":
                sign = -sign
        v = power()
        return v if sign == 1 else -v

    def term():
        v = unary()
        while peek() is not None and peek()[0] in ("*", "/"):
            if take()[0] == "*":
                v = v * unary()
            else:
                v = v / unary()
        return v

    def expr():
        v = term()
        while peek() is not None and peek()[0] in ("+", "-"):
            if take()[0] == "+":
                v = v + term()
            else:
                v = v - term()
        return v

    try:
        out = expr()
    except RecursionError:
        raise ValueError("Q(q) expression nests too deeply") from None
    if pos != len(toks):
        raise ValueError(f"trailing input in Q(q) expression {text!r}")
    return out


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
        elif ch == "q":
            toks.append(("q",))
            i += 1
        elif ch in "+-*/^()":
            toks.append((ch,))
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in Q(q) expression")
    return toks
