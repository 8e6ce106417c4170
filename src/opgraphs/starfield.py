"""Exact arithmetic in fields carrying an involution.

Two backends are provided:

* ``QI``, the Gaussian rationals: a scalar is an int triple
  ``(re, im, den)`` standing for ``(re + im*i)/den``, kept canonical
  (``den > 0``, ``gcd(re, im, den) == 1``) so that equal scalars are
  equal tuples.  Each operation is a few integer products and one gcd,
  and ``dot`` and ``herm`` sum a whole vector product on one common
  denominator before their one gcd;
  ``fractions.Fraction`` appears only at the boundary (``scalar``,
  ``real``, ``imag``, JSON and ``format``).  Conjugation is
  ``a+bi -> a-bi`` and the fixed subfield is QQ.
* ``GaloisStarField(p, e)``, the finite field GF(q^2) with q = p^e and
  the involution ``x -> x**q``.  Scalars are ints in ``range(q*q)``
  encoding coefficient vectors of polynomials over GF(p) in base p
  (little endian), reduced modulo a fixed irreducible polynomial.  The
  modulus is chosen deterministically (smallest by base-p encoding) and
  exposed via ``descriptor()`` so runs are reproducible; arithmetic is
  table driven, and ``dot`` and ``herm`` index the tables inline.

Scalars are plain immutable values (tuples resp. ints): they hash,
compare and serialize cheaply, and the field object supplies all
operations.  Quantities that must be "real", eigenvalues in particular,
live in the fixed subfield ``{x : conj(x) = x}``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

# Full addition/multiplication tables are built per finite field; this
# caps the field size so the tables stay small.
MAX_FINITE_ORDER = 256


class StarFieldError(ValueError):
    """Raised for unsupported field parameters or backend misuse."""


class FieldAutomorphism:
    """A named field automorphism, callable on scalars."""

    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"FieldAutomorphism({self.name})"


# ── Gaussian rationals ──────────────────────────────────────────────

def _reduced(re, im, den):
    """The canonical triple for (re + im*i)/den, given den > 0."""
    g = gcd(re, im, den)
    if g == 1:
        return (re, im, den)
    return (re // g, im // g, den // g)


class GaussianRationals:
    """QQ(i) with complex conjugation.

    Scalars: int triples (re, im, den), den > 0, gcd(re, im, den) = 1.
    """

    name = "qi"
    is_finite = False
    characteristic = 0

    def __init__(self):
        self.zero = (0, 0, 1)
        self.one = (1, 0, 1)

    def add(self, x, y):
        a, b, d = x
        c, e, f = y
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    def sub(self, x, y):
        a, b, d = x
        c, e, f = y
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def neg(self, x):
        return (-x[0], -x[1], x[2])

    def mul(self, x, y):
        a, b, d = x
        c, e, f = y
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def dot(self, xs, ys):
        """sum x_k y_k, summed on one common denominator and reduced once."""
        re = im = 0
        den = 1
        for (a, b, d), (c, e, f) in zip(xs, ys):
            if (a or b) and (c or e):
                g = d * f
                if g == den:
                    re += a * c - b * e
                    im += a * e + b * c
                else:
                    re = re * g + (a * c - b * e) * den
                    im = im * g + (a * e + b * c) * den
                    den *= g
        return _reduced(re, im, den)

    def herm(self, xs, ys):
        """sum x_k conj(y_k), summed on one common denominator and
        reduced once."""
        re = im = 0
        den = 1
        for (a, b, d), (c, e, f) in zip(xs, ys):
            if (a or b) and (c or e):
                g = d * f
                if g == den:
                    re += a * c + b * e
                    im += b * c - a * e
                else:
                    re = re * g + (a * c + b * e) * den
                    im = im * g + (b * c - a * e) * den
                    den *= g
        return _reduced(re, im, den)

    def inv(self, x):
        a, b, d = x
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _reduced(d * a, -d * b, n)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def conj(self, x):
        return (x[0], -x[1], x[2])

    def is_fixed(self, x):
        return x[1] == 0

    def real(self, x):
        return Fraction(x[0], x[2])

    def imag(self, x):
        return Fraction(x[1], x[2])

    def scalar(self, re, im=0):
        re, im = Fraction(re), Fraction(im)
        return self.ratio(re.numerator, re.denominator,
                          im.numerator, im.denominator)

    def ratio(self, a, b, c, d):
        """a/b + (c/d)*i for ints with b, d > 0."""
        return _reduced(a * d, c * b, b * d)

    def parse_fixed(self, text):
        """Parse a rational string like '3/2' into a fixed scalar."""
        try:
            return self.scalar(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise StarFieldError(f"not a rational literal: {text!r}") from exc

    def automorphisms(self):
        return (
            FieldAutomorphism("id", lambda x: x),
            FieldAutomorphism("conj", self.conj),
        )

    def format(self, x):
        re, im = self.real(x), self.imag(x)
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def scalar_to_json(self, x):
        return [str(self.real(x)), str(self.imag(x))]

    def scalar_from_json(self, obj):
        re, im = obj
        return self.scalar(re, im)

    def descriptor(self):
        return {"kind": "qi"}

    def __repr__(self):
        return "QI"


QI = GaussianRationals()


# ── polynomials over GF(p), little-endian coefficient tuples ────────

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_divmod(p, a, b):
    """Divide a by b over GF(p); b must have invertible leading coeff."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    lead_inv = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    quo = [0] * max(da - db + 1, 0)
    while da >= db and any(a):
        if a[da] != 0:
            f = (a[da] * lead_inv) % p
            quo[da - db] = f
            for k in range(db + 1):
                a[da - db + k] = (a[da - db + k] - f * b[k]) % p
        da -= 1
    return _poly_trim(quo), _poly_trim(a)


def _monic_polys(p, deg):
    """All monic polynomials of the given degree, by base-p encoding."""
    for enc in range(p ** deg):
        coeffs = []
        k = enc
        for _ in range(deg):
            coeffs.append(k % p)
            k //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(p, f):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            _, rem = _poly_divmod(p, f, g)
            if not rem:
                return False
    return True


def find_irreducible(p, deg):
    """Smallest (by encoding) monic irreducible of degree deg over GF(p)."""
    for f in _monic_polys(p, deg):
        if _is_irreducible(p, f):
            return f
    raise StarFieldError(f"no irreducible polynomial of degree {deg} over GF({p})")


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


# ── GF(q^2) with x -> x^q ───────────────────────────────────────────

class GaloisStarField:
    """GF(q^2), q = p^e, with the involution x -> x^q.

    Elements are ints encoding coefficient vectors base p.  All binary
    operations are table lookups, so hot loops stay cheap.
    """

    is_finite = True

    def __init__(self, p, e=1):
        if not _is_prime(p):
            raise StarFieldError(f"characteristic must be prime, got {p}")
        if e < 1:
            raise StarFieldError("exponent must be positive")
        order = p ** (2 * e)
        if order > MAX_FINITE_ORDER:
            raise StarFieldError(
                f"field order {order} exceeds the table limit {MAX_FINITE_ORDER}"
            )
        self.p = p
        self.e = e
        self.q = p ** e
        self.order = order
        self.characteristic = p
        self.degree = 2 * e
        self.modulus = find_irreducible(p, 2 * e)
        self.name = f"gf{order}"
        self.zero = 0
        self.one = 1
        self._build_tables()

    # encoding helpers
    def _decode(self, k):
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(k % self.p)
            k //= self.p
        return coeffs

    def _encode(self, coeffs):
        k = 0
        for c in reversed(coeffs):
            k = k * self.p + (c % self.p)
        return k

    def _raw_mul(self, a, b):
        p, deg = self.p, self.degree
        ca, cb = self._decode(a), self._decode(b)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        _, rem = _poly_divmod(p, _poly_trim(prod) or (0,), self.modulus)
        rem = list(rem) + [0] * (deg - len(rem))
        return self._encode(rem)

    def _build_tables(self):
        n, p = self.order, self.p
        add = []
        mul = []
        for a in range(n):
            ca = self._decode(a)
            row = []
            for b in range(n):
                cb = self._decode(b)
                row.append(self._encode([(x + y) % p for x, y in zip(ca, cb)]))
            add.append(row)
            mul.append([self._raw_mul(a, b) for b in range(n)])
        self.ADD = add
        self.MUL = mul
        self.NEG = [add[a].index(0) for a in range(n)]
        inv = [0] * n
        for a in range(1, n):
            inv[a] = mul[a].index(1)
        self.INV = inv
        self.CONJ = [self._pow(a, self.q) for a in range(n)]
        self._fixed = tuple(a for a in range(n) if self.CONJ[a] == a)

    def _pow(self, a, k):
        r = 1
        while k:
            if k & 1:
                r = self.MUL[r][a]
            a = self.MUL[a][a]
            k >>= 1
        return r

    # field operations
    def add(self, x, y):
        return self.ADD[x][y]

    def sub(self, x, y):
        return self.ADD[x][self.NEG[y]]

    def neg(self, x):
        return self.NEG[x]

    def mul(self, x, y):
        return self.MUL[x][y]

    def dot(self, xs, ys):
        """sum x_k y_k."""
        ADD, MUL = self.ADD, self.MUL
        acc = 0
        for x, y in zip(xs, ys):
            acc = ADD[acc][MUL[x][y]]
        return acc

    def herm(self, xs, ys):
        """sum x_k conj(y_k)."""
        ADD, MUL, CONJ = self.ADD, self.MUL, self.CONJ
        acc = 0
        for x, y in zip(xs, ys):
            acc = ADD[acc][MUL[x][CONJ[y]]]
        return acc

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.INV[x]

    def div(self, x, y):
        return self.MUL[x][self.inv(y)]

    def conj(self, x):
        return self.CONJ[x]

    def is_fixed(self, x):
        return self.CONJ[x] == x

    def elements(self):
        return range(self.order)

    def fixed_elements(self):
        """The fixed subfield GF(q), in canonical encoding order."""
        return self._fixed

    def parse_fixed(self, text):
        """Integer index into the canonical fixed-subfield ordering."""
        try:
            idx = int(text)
        except ValueError as exc:
            raise StarFieldError(f"not a fixed-element index: {text!r}") from exc
        if not 0 <= idx < len(self._fixed):
            raise StarFieldError(
                f"fixed-element index {idx} out of range for GF({self.q})"
            )
        return self._fixed[idx]

    def automorphisms(self):
        """The cyclic group generated by x -> x^p; all commute with conj."""
        autos = []
        for k in range(self.degree):
            power = self.p ** k
            table = [self._pow(a, power) for a in range(self.order)]
            name = "id" if k == 0 else f"frob^{k}"
            autos.append(FieldAutomorphism(name, lambda x, t=table: t[x]))
        return tuple(autos)

    def format(self, x):
        coeffs = self._decode(x)
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}w" if i == 1 else f"{head}w^{i}")
        return "+".join(terms) if terms else "0"

    def scalar_to_json(self, x):
        return self._decode(x)

    def scalar_from_json(self, obj):
        return self._encode(list(obj))

    def descriptor(self):
        return {
            "kind": "gf",
            "p": self.p,
            "e": self.e,
            "q": self.q,
            "order": self.order,
            "modulus": list(self.modulus),
        }

    def __repr__(self):
        return f"GaloisStarField(p={self.p}, e={self.e})"


@lru_cache(maxsize=None)
def galois_field(p, e=1):
    """Cached GF(p^(2e)) star field, so scalars of equal fields compare."""
    return GaloisStarField(p, e)


def field_from_descriptor(desc):
    if desc["kind"] == "qi":
        return QI
    if desc["kind"] == "gf":
        field = galois_field(desc["p"], desc.get("e", 1))
        if "modulus" in desc and list(field.modulus) != list(desc["modulus"]):
            raise StarFieldError("modulus mismatch in field descriptor")
        return field
    raise StarFieldError(f"unknown field kind {desc['kind']!r}")
