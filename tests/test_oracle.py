"""Evaluation and sampled equivalence against sympy as an independent oracle.

Random trees come from hypothesis; each is translated node by node into a
sympy expression over positive symbols, so sympy's own canonical form and
its evaluator stand apart from the code under test.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sdesym import (  # noqa: E402
    Add, Domain, EvalPoint, Mul, NotElementaryError, Num, Pow, Prim, Sym,
    antiderivative, differentiate, equivalent, evaluate, parse, to_str,
)
from sdesym.expr import add, mul, num, pow_, prim  # noqa: E402

NAMES = ("y", "z", "t")
BOX = Domain({"y": (0.5, 2.0), "z": (0.5, 2.0), "t": (0.1, 1.0)})
SYMPY = {n: sympy.Symbol(n, positive=True) for n in NAMES}
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)


def to_sympy(e):
    if isinstance(e, Num):
        v = e.value
        if isinstance(v, Fraction):
            return sympy.Rational(v.numerator, v.denominator)
        return sympy.Float(v)
    if isinstance(e, Sym):
        return SYMPY[e.name]
    if isinstance(e, Add):
        return sympy.Add(*map(to_sympy, e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*map(to_sympy, e.factors))
    if isinstance(e, Pow):
        return sympy.Pow(to_sympy(e.base), to_sympy(e.exponent))
    assert isinstance(e, Prim), type(e)
    return getattr(sympy, e.name)(to_sympy(e.arg))


symbols = st.sampled_from(NAMES).map(Sym)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8).map(num)


def _grow(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: add(*ab)),
        pair.map(lambda ab: mul(*ab)),
        st.tuples(symbols, st.integers(-3, 4)).map(
            lambda se: pow_(se[0], num(se[1]))),
        st.tuples(st.sampled_from(("sin", "cos")), children).map(
            lambda na: prim(*na)),
        # exp of a bounded argument and log of a positive symbol keep the
        # values finite everywhere on the box
        children.map(lambda a: prim("exp", prim("sin", a))),
        symbols.map(lambda s: prim("log", s)),
    )


trees = st.recursive(st.one_of(symbols, rationals), _grow, max_leaves=12)
points = st.fixed_dictionaries({
    "y": st.floats(0.5, 2.0), "z": st.floats(0.5, 2.0),
    "t": st.floats(0.1, 1.0)})


@SETTINGS
@given(trees, points)
def test_evaluate_matches_sympy_lambdify(e, point):
    want = sympy.lambdify([SYMPY[n] for n in NAMES], to_sympy(e), "math")(
        *(point[n] for n in NAMES))
    got = evaluate(e, EvalPoint(point))
    assert got == pytest.approx(float(want), rel=1e-9, abs=1e-9)


def _poly(coeffs):
    """sum c_ij y^i t^j over a small grid of exponents."""
    y, t = Sym("y"), Sym("t")
    return add(*[mul(num(c), pow_(y, num(i)), pow_(t, num(j)))
                 for (i, j), c in zip(((0, 0), (1, 0), (0, 1), (2, 1)),
                                      coeffs)])


small = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def pairs(draw):
    """(a, b) that are equal as functions but not as trees, or are not
    equal at all: polynomial and exponential identities the canonical
    constructors leave unmerged, optionally perturbed by a term whose
    size keeps it far above the sampled tolerance."""
    y, t = Sym("y"), Sym("t")
    kind = draw(st.sampled_from(("power", "sqrt", "logistic", "poly")))
    p = _poly(draw(st.lists(small, min_size=4, max_size=4)))
    if kind == "power":
        # (1 + c y)^13 against (1 + c y)^12 (1 + c y), which mul
        # distributes over the sum
        c = num(draw(st.fractions(min_value=Fraction(1, 4),
                                  max_value=Fraction(1, 2),
                                  max_denominator=4)))
        base = add(num(1), mul(c, y))
        a = pow_(base, num(13))
        b = mul(pow_(base, num(12)), base)
    elif kind == "sqrt":
        a = pow_(pow_(y, num(2)), num(Fraction(1, 2)))
        b = y
    elif kind == "logistic":
        k = num(draw(st.integers(1, 3)))
        a = pow_(add(num(1), prim("exp", mul(k, y))), num(-1))
        e_neg = prim("exp", mul(num(-1), k, y))
        b = mul(e_neg, pow_(add(num(1), e_neg), num(-1)))
    else:
        a = p
        b = add(mul(num(Fraction(1, 2)), p), mul(num(Fraction(1, 2)), p))
    a = add(a, mul(p, prim("exp", t)))
    b = add(b, mul(p, prim("exp", t)))
    if draw(st.booleans()):
        b = add(b, mul(num(draw(st.sampled_from((-1, 1)))),
                       pow_(y, num(draw(st.integers(0, 2))))))
    return a, b


@SETTINGS
@given(pairs())
def test_equivalent_agrees_with_sympy_simplify(pair):
    a, b = pair
    zero = sympy.simplify(to_sympy(a) - to_sympy(b)) == 0
    assert equivalent(a, b, BOX) is zero


# integer powers of sums: the constructors keep them as Pow nodes, so the
# printer meets them anywhere in a tree
sum_powers = st.builds(lambda a, b, n: pow_(add(a, b), num(n)), trees, trees,
                       st.sampled_from((-3, -2, -1, 2, 3, 4)))
printable_trees = st.recursive(st.one_of(symbols, rationals, sum_powers),
                               _grow, max_leaves=12)


@SETTINGS
@given(printable_trees, sum_powers, st.sampled_from((add, mul)))
def test_parse_inverts_to_str(tree, power, op):
    e = op(tree, power)
    assert parse(to_str(e)) == e


@SETTINGS
@given(trees, st.sampled_from(NAMES))
def test_antiderivative_differentiates_back(e, s):
    try:
        big = antiderivative(e, s)
    except NotElementaryError:
        hypothesis.assume(False)
    assert equivalent(differentiate(big, s), e, BOX)
