"""Small symbolic-expression core.

Expression trees are immutable, and the constructors keep them in one
shape: sums and products are flattened, numeric parts folded (exactly, as
rationals, whenever the inputs are rational and an exact power stays below
a fixed size), like terms combined, products distributed over sums, and
siblings ordered by a fixed total order on nodes.  A power of a sum stays a
power, and a sum multiplied by a power of itself joins that power.  Equal
trees are therefore equal functions, but unequal trees may still be equal
functions: (1+y)^2 and 1 + 2*y + y^2 are two trees, and so are a sum of
fractions and its value over a common denominator.
`expand_powers` multiplies out powers of sums once, where a caller wants
the like terms of a finished expression to meet.

`equivalent` is the judge of equality as functions: it samples points from
a validity box and instantiates opaque function symbols with random
polynomial test functions.

There is one numeric evaluator, numpy code generated from the tree; a
sampled check evaluates all its points in one call, and `evaluate` is that
call at a single point.  A non-finite value (nan or inf) marks a point as
outside the expression's domain: samplers reject it and draw again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Expr", "Num", "Sym", "Add", "Mul", "Pow", "Prim", "Opaque",
    "ZERO", "ONE", "as_expr", "num", "sym", "add", "mul", "pow_", "prim",
    "opaque", "simplify", "expand_powers", "free_symbols",
    "opaque_functions", "contains",
    "differentiate", "substitute", "replace_subexpr", "instantiate_opaque",
    "solve_for", "antiderivative", "evaluate", "compile_expr", "to_str",
    "EvalPoint", "PolyTestFunction", "Domain", "equivalent",
    "max_abs_on_domain", "vanishes_on_domain", "sample_points",
    "ExprError", "EvaluationError", "DomainError", "NotElementaryError",
]

PRIMITIVES = ("exp", "log", "sin", "cos")

NumberLike = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for errors raised by the expression layer."""


class EvaluationError(ExprError):
    """Raised when an expression cannot be evaluated at a point."""


class DomainError(ExprError):
    """Raised when a validity box cannot produce evaluable sample points."""


class NotElementaryError(ExprError):
    """Raised when the antiderivative rule table does not apply."""


# ---------------------------------------------------------------------------
# nodes

@dataclass(frozen=True)
class Expr:
    """Base node.  All concrete nodes are frozen dataclasses."""

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, mul(_NEG_ONE, as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), mul(_NEG_ONE, self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, pow_(as_expr(other), _NEG_ONE))

    def __rtruediv__(self, other):
        return mul(as_expr(other), pow_(self, _NEG_ONE))

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __neg__(self):
        return mul(_NEG_ONE, self)

    def __str__(self):
        return to_str(self)


@dataclass(frozen=True)
class Num(Expr):
    value: Union[Fraction, float]


@dataclass(frozen=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Prim(Expr):
    """Primitive function application: exp, log, sin, cos."""
    name: str
    arg: Expr


@dataclass(frozen=True)
class Opaque(Expr):
    """Opaque function symbol with a derivative-order tag.

    ``Opaque("eta", 2, arg)`` stands for the second derivative of an
    unspecified smooth function eta, evaluated at ``arg``.
    """
    name: str
    order: int
    arg: Expr


ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))
_NEG_ONE = Num(Fraction(-1))
_TWO = Num(Fraction(2))
_HALF = Num(Fraction(1, 2))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Num(Fraction(x))
    if isinstance(x, float):
        return Num(x)
    raise TypeError(f"cannot coerce {x!r} to Expr")


def num(v: NumberLike) -> Num:
    return as_expr(v) if not isinstance(v, Expr) else v


def sym(name: str) -> Sym:
    return Sym(name)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0


def is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1


def _is_int(e: Expr) -> bool:
    return (isinstance(e, Num) and isinstance(e.value, Fraction)
            and e.value.denominator == 1)


# ---------------------------------------------------------------------------
# total order on nodes (for canonical sibling ordering)

_RANK = {Num: 0, Sym: 1, Prim: 2, Opaque: 3, Pow: 4, Mul: 5, Add: 6}


def _cached_hash(self):
    # nodes are immutable; hashing the (deep) field tuple once per instance
    # keeps canonicalization of large trees from going quadratic
    h = self.__dict__.get("_hash")
    if h is None:
        h = hash(tuple(getattr(self, f.name) for f in dataclass_fields(self)))
        h = hash((type(self).__name__, h))
        object.__setattr__(self, "_hash", h)
    return h


for _cls in (Num, Sym, Add, Mul, Pow, Prim, Opaque):
    _cls.__hash__ = _cached_hash


def _sort_key(e: Expr):
    key = e.__dict__.get("_sort_key")
    if key is None:
        key = _sort_key_uncached(e)
        object.__setattr__(e, "_sort_key", key)
    return key


def _to_float(v) -> float:
    """float(v), saturated to +-inf for exact rationals beyond the float
    range (float() raises OverflowError on those)."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _sort_key_uncached(e: Expr):
    if isinstance(e, Num):
        return (0, _to_float(e.value), isinstance(e.value, float), str(e.value))
    if isinstance(e, Sym):
        return (1, e.name)
    if isinstance(e, Prim):
        return (2, e.name, _sort_key(e.arg))
    if isinstance(e, Opaque):
        return (3, e.name, e.order, _sort_key(e.arg))
    if isinstance(e, Pow):
        return (4, _sort_key(e.base), _sort_key(e.exponent))
    if isinstance(e, Mul):
        return (5, tuple(_sort_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (6, tuple(_sort_key(t) for t in e.terms))
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# canonical constructors

def _split_coeff(e: Expr):
    """Split a canonical term into (numeric coefficient, monomial part)."""
    if isinstance(e, Num):
        return e.value, ONE
    if isinstance(e, Mul) and isinstance(e.factors[0], Num):
        rest = e.factors[1:]
        mono = rest[0] if len(rest) == 1 else Mul(rest)
        return e.factors[0].value, mono
    return Fraction(1), e


def add(*terms) -> Expr:
    flat = []
    stack = [as_expr(t) for t in terms]
    for t in stack:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)

    const = Fraction(0)
    by_mono = {}   # monomial -> accumulated coefficient
    for t in flat:
        if isinstance(t, Num):
            const = const + t.value
            continue
        c, mono = _split_coeff(t)
        by_mono[mono] = by_mono.get(mono, Fraction(0)) + c

    out = []
    for mono, c in by_mono.items():
        if c == 0:
            continue
        if c == 1:
            out.append(mono)
        else:
            out.append(_attach_coeff(c, mono))
    if const != 0 or not out:
        out.append(Num(const))

    if len(out) == 1:
        return out[0]
    out.sort(key=_sort_key)
    return Add(tuple(out))


def _attach_coeff(c, mono: Expr) -> Expr:
    if is_one(mono):
        return Num(c)
    if isinstance(mono, Mul):
        return Mul((Num(c),) + mono.factors)
    return Mul((Num(c), mono))


def mul(*factors) -> Expr:
    flat = []
    for f in (as_expr(x) for x in factors):
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)

    const = Fraction(1)
    powers = {}    # base -> accumulated exponent (Expr)
    exp_args = []  # arguments of exp factors, merged at the end
    addends = []   # Add factors, distributed at the end
    for f in flat:
        if isinstance(f, Num):
            const = const * f.value
            if const == 0:
                return ZERO
            continue
        if isinstance(f, Add):
            addends.append(f)
            continue
        if isinstance(f, Prim) and f.name == "exp":
            exp_args.append(f.arg)
            continue
        if isinstance(f, Pow):
            base, e = f.base, f.exponent
        else:
            base, e = f, ONE
        if base in powers:
            powers[base] = add(powers[base], e)
        else:
            powers[base] = e

    if addends and powers:
        # a sum meeting a power of itself joins that power
        kept = []
        for a in addends:
            if a in powers:
                powers[a] = add(powers[a], ONE)
            else:
                kept.append(a)
        addends = kept

    plain = []
    for base, e in powers.items():
        p = pow_(base, e)
        if isinstance(p, Num):
            const = const * p.value
            if const == 0:
                return ZERO
        elif isinstance(p, Add):
            addends.append(p)
        elif isinstance(p, Mul):
            # e.g. (2*y)^2 -> 4*y^2; re-split
            c2, mono = _split_coeff(p)
            const = const * c2
            plain.extend(mono.factors if isinstance(mono, Mul) else (mono,))
        elif isinstance(p, Prim) and p.name == "exp":
            exp_args.append(p.arg)
        else:
            plain.append(p)

    if exp_args:
        merged = prim("exp", add(*exp_args))
        if isinstance(merged, Num):
            const = const * merged.value
        elif isinstance(merged, Add):
            addends.append(merged)
        elif isinstance(merged, Mul):
            c2, mono = _split_coeff(merged)
            const = const * c2
            plain.extend(mono.factors if isinstance(mono, Mul) else (mono,))
        else:
            plain.append(merged)
    if const == 0:
        return ZERO

    if addends:
        # distribute products over sums (full expansion)
        termlists = [a.terms for a in addends]
        out_terms = []
        for combo in _product(termlists):
            out_terms.append(mul(Num(const), *plain, *combo))
        return add(*out_terms)

    plain.sort(key=_sort_key)
    if const != 1:
        out = (Num(const),) + tuple(plain)
    else:
        out = tuple(plain)
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Mul(out)


def _product(lists):
    if not lists:
        yield ()
        return
    head, *rest = lists
    for x in head:
        for combo in _product(rest):
            yield (x,) + combo


def pow_(base, exponent) -> Expr:
    base = as_expr(base)
    e = as_expr(exponent)

    if is_zero(e):
        return ONE
    if is_one(e):
        return base
    if is_one(base):
        return ONE
    if is_zero(base):
        if isinstance(e, Num) and e.value > 0:
            return ZERO
        return Pow(base, e)

    if isinstance(base, Num) and isinstance(e, Num):
        folded = _fold_pow(base.value, e.value)
        if folded is not None:
            return Num(folded)
        return Pow(base, e)

    if isinstance(base, Prim) and base.name == "exp":
        return prim("exp", mul(e, base.arg))

    if isinstance(base, Pow) and _is_int(e):
        return pow_(base.base, mul(base.exponent, e))

    if isinstance(base, Mul):
        if _is_int(e):
            return mul(*[pow_(f, e) for f in base.factors])
        if isinstance(base.factors[0], Num):
            c = base.factors[0].value
            if c > 0 and isinstance(e, Num):
                rest = base.factors[1:]
                r = rest[0] if len(rest) == 1 else Mul(rest)
                return mul(pow_(Num(c), e), Pow(r, e))

    if isinstance(base, Add) and _is_int(e):
        content = _common_monomial(base)
        if content is not None:
            peeled = add(*[mul(t, pow_(content, _NEG_ONE)) for t in base.terms])
            return mul(pow_(content, e), pow_(peeled, e))

    return Pow(base, e)


def _factor_map(term: Expr):
    """base -> numeric exponent for one canonical term, coefficient dropped."""
    out = {}
    factors = term.factors if isinstance(term, Mul) else (term,)
    for f in factors:
        if isinstance(f, Num):
            continue
        if isinstance(f, Pow) and isinstance(f.exponent, Num):
            out[f.base] = f.exponent.value
        else:
            out[f] = Fraction(1)
    return out


def _common_monomial(e: Add):
    """Common symbolic monomial factor of a sum's terms, or None.

    Powers of sums factor this out so that e.g. (y*u)^-1 keeps u intact as
    a subtree instead of burying it in an expanded denominator.
    """
    maps = []
    for t in e.terms:
        if isinstance(t, Num):
            return None
        m = _factor_map(t)
        if not m:
            return None
        maps.append(m)
    common = maps[0]
    for m in maps[1:]:
        merged = {}
        for b, x in common.items():
            if b in m:
                merged[b] = min(x, m[b])
        common = merged
        if not common:
            return None
    factors = [pow_(b, Num(x)) for b, x in common.items() if x != 0]
    if not factors:
        return None
    return mul(*factors)


_FOLD_BITS = 4096  # exact powers fold only while numerator and
                  # denominator stay this small (7^6000 stays symbolic)


def _fold_pow(b, e):
    """Fold a numeric power, or return None to keep it symbolic.

    Exact inputs fold only when the result is exact (integer exponent or an
    exact rational root) and no larger than _FOLD_BITS bits; 2^(1/2) stays
    symbolic rather than decaying to a float.  Float inputs are already
    inexact and fold through math.pow.
    """
    if isinstance(b, Fraction) and isinstance(e, Fraction):
        size = math.log2(max(abs(b.numerator), b.denominator))
        if size * abs(e.numerator) > _FOLD_BITS * e.denominator:
            return None
    if isinstance(e, Fraction) and e.denominator == 1 and not isinstance(b, float):
        n = e.numerator
        if n >= 0:
            return b ** n
        if b == 0:
            return None
        return Fraction(1) / (b ** (-n))
    if isinstance(b, Fraction) and isinstance(e, Fraction):
        return _exact_root(b, e)
    try:
        fb, fe = float(b), float(e)
        if fb < 0 and (not isinstance(e, Fraction) or e.denominator != 1):
            return None
        if fb == 0 and fe <= 0:
            return None
        return math.pow(fb, fe)
    except (OverflowError, ValueError):
        return None


def _exact_root(b: Fraction, e: Fraction):
    if b < 0:
        return None
    q = e.denominator
    def iroot(n):
        if n == 0:
            return 0
        try:
            r = round(n ** (1.0 / q))
        except OverflowError:     # beyond the float range: keep symbolic
            return None
        for cand in (r - 1, r, r + 1):
            if cand >= 0 and cand ** q == n:
                return cand
        return None
    rn = iroot(b.numerator)
    rd = iroot(b.denominator)
    if rn is None or rd is None or rd == 0:
        return None
    return Fraction(rn, rd) ** e.numerator


def prim(name: str, arg) -> Expr:
    arg = as_expr(arg)
    if name == "sqrt":
        return pow_(arg, _HALF)
    if name == "neg":
        return mul(_NEG_ONE, arg)
    if name not in PRIMITIVES:
        raise ExprError(f"unknown primitive function {name!r}")
    if name == "exp":
        if is_zero(arg):
            return ONE
        if isinstance(arg, Prim) and arg.name == "log":
            return arg.arg
    elif name == "log":
        if is_one(arg):
            return ZERO
        if isinstance(arg, Prim) and arg.name == "exp":
            return arg.arg
    elif name == "sin":
        if is_zero(arg):
            return ZERO
    elif name == "cos":
        if is_zero(arg):
            return ONE
    return Prim(name, arg)


def opaque(name: str, order: int, arg) -> Opaque:
    if order < 0:
        raise ExprError("derivative order must be >= 0")
    return Opaque(name, order, as_expr(arg))


def _rebuild(e: Expr, visit: Callable) -> Expr:
    """Rebuild a tree bottom-up through the canonical constructors.

    `visit` sees every node first, outermost first; a result other than
    None replaces that node's whole subtree.
    """
    out = visit(e)
    if out is not None:
        return out
    if isinstance(e, (Num, Sym)):
        return e
    if isinstance(e, Add):
        return add(*[_rebuild(t, visit) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[_rebuild(f, visit) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(_rebuild(e.base, visit), _rebuild(e.exponent, visit))
    if isinstance(e, Prim):
        return prim(e.name, _rebuild(e.arg, visit))
    if isinstance(e, Opaque):
        return opaque(e.name, e.order, _rebuild(e.arg, visit))
    raise TypeError(type(e))


def simplify(e: Expr) -> Expr:
    """Rebuild a tree through the canonical constructors.

    Trees built by this module are already canonical; this is the entry
    point for trees assembled by hand from raw node constructors.
    """
    return _rebuild(e, lambda x: None)


_EXPAND_LIMIT = 12  # largest power of a sum that expand_powers multiplies out


def expand_powers(e: Expr) -> Expr:
    """Multiply out the integer powers 2..12 of sums, innermost first.

    A reciprocal power becomes the reciprocal of the multiplied-out
    power: (1+y)^-2 turns into (1+2*y+y^2)^-1.  The constructors leave
    powers of sums alone; expanding once lets like terms of a finished
    expression meet and cancel.  Subtrees holding no such power are kept
    as they are, not rebuilt.
    """
    hot = set()     # ids of the subtrees that hold a power to multiply out

    def mark(x) -> bool:
        found = _sum_power(x) != 0
        for c in _children(x):
            found = mark(c) or found
        if found:
            hot.add(id(x))
        return found

    def visit(x):
        if id(x) not in hot:
            return x
        n = _sum_power(x)
        if not n:
            return None
        base = _rebuild(x.base, visit)
        if not isinstance(base, Add):
            return pow_(base, x.exponent)
        out = base
        for _ in range(abs(n) - 1):
            out = mul(out, base)
        return out if n > 0 else pow_(out, _NEG_ONE)

    mark(e)
    return _rebuild(e, visit)


def _sum_power(x: Expr) -> int:
    """n when x is a sum to an integer power n with 2 <= |n| <= 12, else 0."""
    if isinstance(x, Pow) and isinstance(x.base, Add) and _is_int(x.exponent):
        n = x.exponent.value.numerator
        if 2 <= abs(n) <= _EXPAND_LIMIT:
            return n
    return 0


# ---------------------------------------------------------------------------
# structure queries

def _children(e: Expr):
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base, e.exponent)
    if isinstance(e, (Prim, Opaque)):
        return (e.arg,)
    return ()


def free_symbols(e: Expr) -> frozenset:
    if isinstance(e, Sym):
        return frozenset((e.name,))
    out = frozenset()
    for c in _children(e):
        out = out | free_symbols(c)
    return out


def opaque_functions(e: Expr) -> frozenset:
    """Names of opaque function symbols appearing in the tree."""
    out = frozenset()
    if isinstance(e, Opaque):
        out = frozenset((e.name,))
    for c in _children(e):
        out = out | opaque_functions(c)
    return out


def contains(e: Expr, name: str) -> bool:
    if isinstance(e, Sym):
        return e.name == name
    return any(contains(c, name) for c in _children(e))


def subexpressions(e: Expr):
    """All subtrees, outermost first (the root included)."""
    yield e
    for c in _children(e):
        yield from subexpressions(c)


# ---------------------------------------------------------------------------
# calculus / rewriting

def differentiate(e: Expr, s: str) -> Expr:
    """Partial derivative with respect to the symbol named `s`."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == s else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(t, s) for t in e.terms])
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = differentiate(f, s)
            if is_zero(df):
                continue
            parts.append(mul(df, *fs[:i], *fs[i + 1:]))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        b, p = e.base, e.exponent
        db = differentiate(b, s)
        dp = differentiate(p, s)
        parts = []
        if not is_zero(db):
            parts.append(mul(p, pow_(b, add(p, _NEG_ONE)), db))
        if not is_zero(dp):
            parts.append(mul(pow_(b, p), prim("log", b), dp))
        return add(*parts) if parts else ZERO
    if isinstance(e, Prim):
        da = differentiate(e.arg, s)
        if is_zero(da):
            return ZERO
        u = e.arg
        if e.name == "exp":
            outer = prim("exp", u)
        elif e.name == "log":
            outer = pow_(u, _NEG_ONE)
        elif e.name == "sin":
            outer = prim("cos", u)
        elif e.name == "cos":
            outer = mul(_NEG_ONE, prim("sin", u))
        else:
            raise ExprError(e.name)
        return mul(outer, da)
    if isinstance(e, Opaque):
        da = differentiate(e.arg, s)
        if is_zero(da):
            return ZERO
        return mul(Opaque(e.name, e.order + 1, e.arg), da)
    raise TypeError(type(e))


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of symbols by expressions."""
    bindings = {k: as_expr(v) for k, v in bindings.items()}
    return _rebuild(
        e, lambda x: bindings.get(x.name) if isinstance(x, Sym) else None)


def replace_subexpr(e: Expr, target: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of an exact subtree."""
    return _rebuild(e, lambda x: replacement if x == target else None)


def instantiate_opaque(e: Expr, name: str, body: Expr, var: str) -> Expr:
    """Replace an opaque function symbol by a concrete expression.

    `body` is an expression in the symbol `var`; order-k occurrences are
    replaced by the k-th derivative of `body` evaluated at their argument.
    """
    deriv_cache = {0: simplify(body)}

    def body_deriv(k):
        while k not in deriv_cache:
            j = max(deriv_cache)
            deriv_cache[j + 1] = differentiate(deriv_cache[j], var)
        return deriv_cache[k]

    def visit(x):
        if isinstance(x, Opaque) and x.name == name:
            return substitute(body_deriv(x.order),
                              {var: _rebuild(x.arg, visit)})
        return None

    return _rebuild(e, visit)


def solve_for(e: Expr, var: str, rhs: Expr):
    """Invert `e == rhs` for the symbol `var` by peeling, or return None.

    Works when `var` occurs in exactly one branch at every level and every
    enclosing operation is invertible (sums, products, powers with numeric
    exponent, exp, log).
    """
    rhs = as_expr(rhs)
    if isinstance(e, Sym):
        return rhs if e.name == var else None
    if isinstance(e, Add):
        hot = [t for t in e.terms if contains(t, var)]
        if len(hot) != 1:
            return None
        rest = [t for t in e.terms if t is not hot[0]]
        return solve_for(hot[0], var, add(rhs, mul(_NEG_ONE, add(*rest))))
    if isinstance(e, Mul):
        hot = [f for f in e.factors if contains(f, var)]
        if len(hot) != 1:
            return None
        rest = [f for f in e.factors if f is not hot[0]]
        return solve_for(hot[0], var, mul(rhs, pow_(mul(*rest), _NEG_ONE)))
    if isinstance(e, Pow):
        if contains(e.exponent, var) or not isinstance(e.exponent, Num):
            return None
        inv = pow_(rhs, pow_(e.exponent, _NEG_ONE))
        return solve_for(e.base, var, inv)
    if isinstance(e, Prim):
        if e.name == "exp":
            return solve_for(e.arg, var, prim("log", rhs))
        if e.name == "log":
            return solve_for(e.arg, var, prim("exp", rhs))
        return None
    return None


# ---------------------------------------------------------------------------
# antiderivative (rule table, no general integrator)

def antiderivative(e: Expr, s: str) -> Expr:
    """Antiderivative with respect to `s`, integration constant zero.

    Supported shapes: polynomials in `s`, powers of `s`-linear (more
    generally, of subexpressions with `s`-free derivative), exp/sin/cos of
    such subexpressions, 1/u -> log u, plus a single generic substitution
    step u = g(s) when the cofactor of g'(s) is expressible in u alone.
    The rules are tried on e with its powers of sums multiplied out, then
    on e as given.  Raises NotElementaryError when neither applies.
    """
    given = simplify(e)
    expanded = expand_powers(given)
    try:
        return _antider(expanded, s, usub=True)
    except NotElementaryError:
        if expanded is given:
            raise
        return _antider(given, s, usub=True)


def _antider(e: Expr, s: str, usub: bool) -> Expr:
    if not contains(e, s):
        return mul(e, Sym(s))
    if isinstance(e, Add):
        return add(*[_antider(t, s, usub) for t in e.terms])

    # pull out s-free factors
    if isinstance(e, Mul):
        const = [f for f in e.factors if not contains(f, s)]
        hot = [f for f in e.factors if contains(f, s)]
        if const:
            inner = hot[0] if len(hot) == 1 else Mul(tuple(hot))
            return mul(*const, _antider(simplify(inner), s, usub))

    r = _antider_atom(e, s)
    if r is not None:
        return r
    if usub:
        r = _antider_usub(e, s)
        if r is not None:
            return r
    raise NotElementaryError(f"no antiderivative rule for {to_str(e)} in {s}")


def _antider_atom(e: Expr, s: str):
    if isinstance(e, Sym) and e.name == s:
        return mul(_HALF, pow_(e, _TWO))
    if isinstance(e, Pow) and isinstance(e.exponent, Num):
        n = e.exponent
        a = differentiate(e.base, s)
        if not is_zero(a) and not contains(a, s):
            if isinstance(n.value, Fraction) and n.value == -1:
                return mul(pow_(a, _NEG_ONE), prim("log", e.base))
            n1 = add(n, ONE)
            return mul(pow_(mul(a, n1), _NEG_ONE), pow_(e.base, n1))
    if isinstance(e, Prim):
        a = differentiate(e.arg, s)
        if is_zero(a) or contains(a, s):
            return None
        ia = pow_(a, _NEG_ONE)
        if e.name == "exp":
            return mul(ia, e)
        if e.name == "sin":
            return mul(_NEG_ONE, ia, prim("cos", e.arg))
        if e.name == "cos":
            return mul(ia, prim("sin", e.arg))
    return None


def _antider_usub(e: Expr, s: str):
    """Try u = g(s) for subtrees g; needs e/g'(s) expressible in u alone."""
    seen = set()
    candidates = []
    for u in subexpressions(e):
        if u == e or isinstance(u, (Num, Sym)) or not contains(u, s):
            continue
        if u in seen:
            continue
        seen.add(u)
        candidates.append(u)
    candidates.sort(key=lambda u: (-_size(u), _sort_key(u)))

    fresh = Sym("_u")
    for u in candidates:
        du = differentiate(u, s)
        if is_zero(du):
            continue
        q = mul(e, pow_(du, _NEG_ONE))
        g = replace_subexpr(q, u, fresh)
        if contains(g, s):
            continue
        if not contains(g, "_u"):
            # e == const * u', integrate directly
            return mul(g, u)
        try:
            big = _antider(g, "_u", usub=False)
        except NotElementaryError:
            continue
        return substitute(big, {"_u": u})
    return None


def _size(e: Expr) -> int:
    return 1 + sum(_size(c) for c in _children(e))


# ---------------------------------------------------------------------------
# evaluation

class PolyTestFunction:
    """Random polynomial standing in for an opaque function symbol.

    Degree 4 with coefficients drawn uniformly from [-1, 1]; derivatives of
    every order are exact polynomial derivatives.
    """

    degree = 4

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self._dcache = {0: self.coeffs}

    @classmethod
    def random(cls, rng) -> "PolyTestFunction":
        return cls(rng.uniform(-1.0, 1.0, size=cls.degree + 1))

    def _deriv_coeffs(self, order):
        while order not in self._dcache:
            k = max(self._dcache)
            self._dcache[k + 1] = np.polynomial.polynomial.polyder(self._dcache[k])
        return self._dcache[order]

    def __call__(self, order: int, x):
        c = self._deriv_coeffs(order)
        if c.size == 0:
            return 0.0
        return np.polynomial.polynomial.polyval(x, c)

    def as_expr(self, var: str) -> Expr:
        terms = [mul(Num(float(c)), pow_(Sym(var), Num(Fraction(k))))
                 for k, c in enumerate(self.coeffs)]
        return add(*terms)


@dataclass
class EvalPoint:
    """Bindings for evaluation: symbol values."""
    symbols: Mapping[str, float]


class _Emitter:
    """Writes expression trees as straight-line numpy code over local names.

    Sums and products fold left and every node becomes the one numpy call
    it names, in the tree's own order, so the generated code computes
    exactly what a node-by-node evaluation computes.  An operation met
    again on the same operands reuses the first result (shared subtrees
    are computed once), which gives the same value.  Constants are
    loaded once at the top of the generated function; an exact constant
    beyond the float range loads as inf.  Each temporary is deleted after
    its last use, so a large intermediate is freed as early as in a
    node-by-node evaluation.  With `functions` set, an opaque function
    symbol calls its body from the table `_f` the generated function
    takes; otherwise it cannot be compiled.
    """

    def __init__(self, functions: bool = False):
        self.functions = functions
        self.head = []       # constant loads
        self.body = []       # (line, emitted names the line reads)
        self.consts = []
        self.names = {}      # symbol name -> local holding its value
        self._memo = {}      # emitted code (or constant repr) -> local
        self._temps = set()  # temporaries assigned in the body

    def line(self, text: str, *reads: str) -> None:
        self.body.append((text, reads))

    def value(self, e: Expr) -> str:
        """Emit e and return the local name holding its value."""
        if isinstance(e, Num):
            return self._const(_to_float(e.value))
        if isinstance(e, Sym):
            return self.names[e.name]
        if isinstance(e, (Add, Mul)):
            args, sign = ((e.terms, "+") if isinstance(e, Add)
                          else (e.factors, "*"))
            out = self.value(args[0])
            for a in args[1:]:
                b = self.value(a)
                out = self._op(f"{out} {sign} {b}", out, b)
            return out
        if isinstance(e, Pow):
            b, x = self.value(e.base), self.value(e.exponent)
            return self._op(f"_power({b}, {x})", b, x)
        if isinstance(e, Prim):
            a = self.value(e.arg)
            return self._op(f"_{e.name}({a})", a)
        if isinstance(e, Opaque):
            if not self.functions:
                raise ValueError(
                    f"cannot compile free function symbol {e.name!r}; "
                    "instantiate it before simulating")
            a = self.value(e.arg)
            return self._op(f"_f[{e.name!r}]({e.order}, {a})", a)
        raise TypeError(f"unknown node {type(e).__name__}")

    def _const(self, v: float) -> str:
        key = repr(v)        # keeps -0.0 apart from 0.0
        name = self._memo.get(key)
        if name is None:
            name = self._memo[key] = f"c{len(self.consts)}"
            self.head.append(f"{name} = _c[{len(self.consts)}]")
            self.consts.append(v)
        return name

    def _op(self, code: str, *operands: str) -> str:
        name = self._memo.get(code)
        if name is None:
            name = self._memo[code] = f"v{len(self._memo)}"
            self._temps.add(name)
            self.line(f"{name} = {code}", *operands)
        return name

    def build(self, name: str, params: str, prologue=(), loop: str = None):
        """Define `name(params)`: the head, then `prologue`, then the body,
        inside the for-statement `loop` when one is given."""
        last = {r: i for i, (_, reads) in enumerate(self.body) for r in reads}
        body = []
        for i, (text, reads) in enumerate(self.body):
            body.append(text)
            dead = sorted({r for r in reads
                           if r in self._temps and last[r] == i})
            if dead and i + 1 < len(self.body):
                body.append("del " + ", ".join(dead))
        if loop is not None:
            body = [loop] + ["    " + ln for ln in body]
        src = "\n".join([f"def {name}({params}):"]
                        + ["    " + ln for ln in [*self.head, *prologue,
                                                  *body]])
        ns = {"_c": self.consts, "_power": np.power, "_exp": np.exp,
              "_log": np.log, "_sin": np.sin, "_cos": np.cos,
              "_add": np.add, "_empty": np.empty}
        exec(compile(src, f"<sdesym {name}>", "exec"), ns)
        return ns[name]


def _compile(exprs: Sequence[Expr], names: Sequence[str],
             functions: bool = False):
    """One generated function `f(env, _f=None)` returning the tuple of the
    values of `exprs`; `env` maps each of `names` to a value or array."""
    em = _Emitter(functions)
    for j, name in enumerate(names):
        em.names[name] = f"a{j}"
        em.line(f"a{j} = env[{name!r}]")
    outs = [em.value(e) for e in exprs]
    em.line(f"return {', '.join(outs)},", *outs)
    return em.build("compiled", "env, _f=None")


def compile_expr(e: Expr):
    """Compile an expression to a function of a dict of numpy arrays.

    The function returns an array broadcast from its inputs (or a plain
    float for constant expressions).  Domain violations surface as
    nan/inf in the output rather than exceptions; callers run under
    errstate(all='ignore') and treat non-finite values as exits from
    the validity domain.
    """
    fn = _compile((e,), sorted(free_symbols(e)))
    return lambda env: fn(env)[0]


def _evaluator(exprs: Sequence[Expr]):
    """Compile `exprs` once into `run(points, functions=None)`.

    `points` is a list of dicts of symbol values; `run` evaluates every
    expression at every point in one generated call and returns an array
    of shape (len(exprs), len(points)), nan or inf where a point lies
    outside an expression's domain.  An unbound symbol or function
    symbol raises EvaluationError.
    """
    names = sorted(frozenset().union(*map(free_symbols, exprs)))
    fn = _compile(exprs, names, functions=True)

    def run(points, functions=None):
        out = np.empty((len(exprs), len(points)))
        try:
            env = {n: np.array([p[n] for p in points], dtype=float)
                   for n in names}
            with np.errstate(all="ignore"):
                for row, v in zip(out, fn(env, functions or {})):
                    row[...] = v
        except KeyError as exc:
            raise EvaluationError(
                f"unbound symbol or function {exc.args[0]!r}") from None
        return out

    return run


def evaluate(e: Expr, point: EvalPoint) -> float:
    """Value of e at one point, by the generated code on a one-point batch;
    EvaluationError on an unbound name or a non-finite value."""
    v = float(_evaluator((e,))([point.symbols])[0, 0])
    if not math.isfinite(v):
        raise EvaluationError(
            f"value {v} is not finite at {dict(point.symbols)}")
    return v


# ---------------------------------------------------------------------------
# validity boxes and randomized equivalence

_ROLE_RANGES = {"state": (0.5, 2.0), "noise": (-1.0, 1.0), "time": (0.0, 1.0)}


class Domain:
    """Axis-aligned validity box: a range per symbol, with sane defaults.

    A symbol without an explicit range gets the range of its declared
    role (`roles` maps names to "state", "noise" or "time"): states in
    [0.5, 2] (positive, so logs and quotients of state variables stay
    evaluable), noises in [-1, 1], time in [0, 1].  A symbol without a
    role is time when named `t`, a noise when its name starts with `w`,
    and a state otherwise.
    """

    def __init__(self, bounds: Mapping[str, tuple] = None,
                 roles: Mapping[str, str] = None):
        self.bounds = dict(bounds or {})
        self.roles = dict(roles or {})
        for name, (lo, hi) in self.bounds.items():
            if not (lo < hi):
                raise DomainError(f"empty range for {name!r}: [{lo}, {hi}]")
        # one lookup per draw: explicit ranges over the role defaults
        self._ranges = {**{n: _ROLE_RANGES[r] for n, r in self.roles.items()},
                        **self.bounds}

    def range_for(self, name: str) -> tuple:
        r = self._ranges.get(name)
        if r is not None:
            return r
        return _ROLE_RANGES["time" if name == "t" else
                            "noise" if name.startswith("w") else "state"]

    def sample(self, names: Iterable[str], rng) -> dict:
        return {n: rng.uniform(*self.range_for(n)) for n in names}

    def __repr__(self):
        inner = ", ".join(f"{k}=[{lo}, {hi}]" for k, (lo, hi) in sorted(self.bounds.items()))
        return f"Domain({inner})"


DEFAULT_EQ_POINTS = 64
DEFAULT_EQ_FUNC_BATCHES = 3
DEFAULT_EQ_TOL = 1e-9
_EQ_SEED = 905157  # fixed: equivalence checks are deterministic by default
_MAX_RETRIES = 64


def _sample_eval(exprs: Sequence[Expr], domain: Domain, n_points):
    """Yield (batch, values) for each round of draws.

    Points are drawn one at a time through `domain.sample` and evaluated
    together, every expression in one generated call; `values` holds, in
    draw order, the columns of the points where all of `exprs` are
    finite.  A round draws the batch's shortfall, or fewer when the
    retry limit is closer, so the points drawn, and the draw at which
    DomainError is raised, are those of a point-by-point loop.  Draws
    come from the fixed equivalence seed, so every verdict is
    deterministic.  Opaque function symbols get fresh random polynomials
    per batch, DEFAULT_EQ_FUNC_BATCHES batches in all.  Without domain,
    the default box serves.
    """
    domain = domain or Domain()
    rng = np.random.default_rng(_EQ_SEED)
    names = sorted(frozenset().union(*map(free_symbols, exprs)))
    onames = sorted(frozenset().union(*map(opaque_functions, exprs)))
    run = _evaluator(exprs)
    batches = DEFAULT_EQ_FUNC_BATCHES if onames else 1
    per_batch = -(-n_points // batches)
    limit = _MAX_RETRIES * per_batch
    for b in range(batches):
        funcs = {nm: PolyTestFunction.random(rng) for nm in onames}
        got = tries = 0
        while got < per_batch:
            k = min(per_batch - got, limit + 1 - tries)
            vals = run([domain.sample(names, rng) for _ in range(k)], funcs)
            keep = vals[:, np.isfinite(vals).all(axis=0)]
            if keep.shape[1]:
                yield b, keep
            got += keep.shape[1]
            tries += k - keep.shape[1]
            if tries > limit:
                raise DomainError(
                    "could not sample evaluable points; check the validity box")


def equivalent(a: Expr, b: Expr, domain: Domain = None) -> bool:
    """Randomized numerical equivalence test.

    Samples DEFAULT_EQ_POINTS points from the validity box (opaque function
    symbols get fresh random polynomial instances per batch) and requires
    |a - b| <= DEFAULT_EQ_TOL * (1 + |a| + |b|) everywhere.  Structural
    equality short circuits to True.
    """
    a = as_expr(a)
    b = as_expr(b)
    if a == b:
        return True
    for _, (va, vb) in _sample_eval((a, b), domain, DEFAULT_EQ_POINTS):
        if not np.all(np.abs(va - vb)
                      <= DEFAULT_EQ_TOL * (1.0 + np.abs(va) + np.abs(vb))):
            return False
    return True


def max_abs_on_domain(e: Expr, domain: Domain = None, *,
                      n_points: int = 200) -> float:
    """Max |e| over sampled points; the numeric side of residual reports."""
    e = as_expr(e)
    if is_zero(e):
        return 0.0
    worst = 0.0
    for _, (v,) in _sample_eval((e,), domain, n_points):
        worst = max(worst, float(np.abs(v).max()))
    return worst


def vanishes_on_domain(e: Expr, domain: Domain = None, *,
                       n_points: int = 200) -> tuple:
    """(verdict, max |e|) of a residual from one sampling pass.

    The verdict is `equivalent(e, ZERO, domain)` and the maximum is
    `max_abs_on_domain(e, domain, n_points=n_points)`, both read off the
    draws of the latter (continued when n_points is below
    DEFAULT_EQ_POINTS).  Without opaque function symbols the verdict
    therefore sees exactly the points `equivalent` draws; with them, it
    takes its share from the head of each function batch.
    """
    e = as_expr(e)
    if is_zero(e):
        return True, 0.0
    batches = DEFAULT_EQ_FUNC_BATCHES if opaque_functions(e) else 1
    n_eq = -(-DEFAULT_EQ_POINTS // batches)
    n_max = -(-n_points // batches)
    seen = [0] * batches    # accepted points so far, per batch
    ok, worst = True, 0.0
    for b, (v,) in _sample_eval((e,), domain,
                                max(n_points, DEFAULT_EQ_POINTS)):
        a = np.abs(v)
        head = a[:max(0, n_eq - seen[b])]
        ok = ok and bool(np.all(head <= DEFAULT_EQ_TOL * (1.0 + head)))
        head = a[:max(0, n_max - seen[b])]
        if head.size:
            worst = max(worst, float(head.max()))
        seen[b] += a.size
    return ok, worst


def sample_points(names: Sequence[str], domain: Domain = None, *,
                  rng=None, n_points: int = 20):
    """Sample plain symbol-value dicts from a validity box."""
    domain = domain or Domain()
    rng = rng if rng is not None else np.random.default_rng(_EQ_SEED)
    return [domain.sample(names, rng) for _ in range(n_points)]


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 10, 20, 25, 30, 40


def to_str(e: Expr) -> str:
    return _fmt(e, 0)


def _fmt(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        s, prec = _fmt_num(e.value)
    elif isinstance(e, Sym):
        s, prec = e.name, _PREC_ATOM
    elif isinstance(e, Add):
        s, prec = _fmt_add(e), _PREC_ADD
    elif isinstance(e, Mul):
        s, prec = _fmt_mul(e)
    elif isinstance(e, Pow):
        s, prec = _fmt_pow(e)
    elif isinstance(e, Prim):
        s, prec = f"{e.name}({_fmt(e.arg, 0)})", _PREC_ATOM
    elif isinstance(e, Opaque):
        ticks = "'" * e.order
        s, prec = f"{e.name}{ticks}({_fmt(e.arg, 0)})", _PREC_ATOM
    else:
        raise TypeError(type(e))
    if prec < parent_prec:
        return f"({s})"
    return s


def _fmt_num(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            s = str(v.numerator)
        else:
            s = f"{v.numerator}/{v.denominator}"
            return (s, _PREC_MUL) if v >= 0 else (s, _PREC_UNARY - 1)
    else:
        s = repr(v)
    return (s, _PREC_ATOM) if not s.startswith("-") else (s, _PREC_UNARY - 1)


def _fmt_add(e: Add) -> str:
    bits = []
    for t in e.terms:
        c, _ = _split_coeff(t)
        if bits and c < 0:
            pos = mul(_NEG_ONE, t)
            bits.append(" - " + _fmt(pos, _PREC_ADD + 1))
        elif bits:
            bits.append(" + " + _fmt(t, _PREC_ADD + 1))
        else:
            bits.append(_fmt(t, _PREC_ADD))
    return "".join(bits)


def _fmt_mul(e: Mul):
    top, bottom = [], []
    for f in e.factors:
        if isinstance(f, Num):
            v = f.value
            if isinstance(v, Fraction) and v.denominator != 1:
                if abs(v.numerator) != 1:
                    top.append(Num(Fraction(v.numerator)))
                elif v.numerator < 0:
                    top.append(_NEG_ONE)
                bottom.append(Num(Fraction(v.denominator)))
            else:
                top.append(f)
        elif isinstance(f, Pow) and isinstance(f.exponent, Num) and f.exponent.value < 0:
            bottom.append(_flip_pow(f))
        else:
            top.append(f)

    def side(factors, prec):
        if not factors:
            return "1"
        neg = False
        if factors and factors[0] == _NEG_ONE and len(factors) > 1:
            neg = True
            factors = factors[1:]
        s = "*".join(_fmt(f, prec) for f in factors)
        return "-" + s if neg else s

    if not bottom:
        s = side(top, _PREC_MUL)
        prec = _PREC_UNARY - 1 if s.startswith("-") else _PREC_MUL
        return s, prec
    t = side(top, _PREC_MUL)
    b = "*".join(_fmt(f, _PREC_MUL + 1) for f in bottom)
    if len(bottom) > 1:
        b = f"({b})"
    s = f"{t}/{b}"
    prec = _PREC_UNARY - 1 if s.startswith("-") else _PREC_MUL
    return s, prec


def _flip_pow(e: Pow) -> Expr:
    # raw node, not pow_: the printer shows the tree it was given and
    # builds nothing through the constructors
    v = e.exponent.value
    if v == -1:
        return e.base
    return Pow(e.base, Num(-v))


def _fmt_pow(e: Pow):
    if isinstance(e.exponent, Num) and e.exponent.value == Fraction(1, 2):
        return f"sqrt({_fmt(e.base, 0)})", _PREC_ATOM
    if isinstance(e.exponent, Num) and e.exponent.value < 0:
        flipped = _flip_pow(e)
        return f"1/{_fmt(flipped, _PREC_POW + 1)}", _PREC_MUL
    b = _fmt(e.base, _PREC_POW + 1)
    if _is_int(e.exponent) and e.exponent.value >= 0:
        p = _fmt(e.exponent, _PREC_ATOM)
    else:
        p = f"({_fmt(e.exponent, 0)})"
    return f"{b}^{p}", _PREC_POW
