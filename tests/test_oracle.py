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
    antiderivative, differential, differentiate, equivalent, evaluate,
    ito_to_stratonovich, parse, simplify, to_str,
)
from sdesym.expr import add, expand_powers, mul, num, pow_, prim  # noqa: E402

from conftest import model  # noqa: E402

NAMES = ("y", "z", "t")
BOX = Domain({"y": (0.5, 2.0), "z": (0.5, 2.0), "t": (0.1, 1.0)})
SYMPY = {n: sympy.Symbol(n, positive=True) for n in NAMES}
SYMPY["w"] = sympy.Symbol("w", real=True)
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
        # (1 + c y)^13 against (1 + c y)^11 times (1 + c y)^2 multiplied
        # out, which mul distributes over the sum
        c = num(draw(st.fractions(min_value=Fraction(1, 4),
                                  max_value=Fraction(1, 2),
                                  max_denominator=4)))
        base = add(num(1), mul(c, y))
        a = pow_(base, num(13))
        b = mul(pow_(base, num(11)), expand_powers(pow_(base, num(2))))
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


@SETTINGS
@given(printable_trees)
def test_simplify_is_idempotent(e):
    # a tree built by the constructors is already canonical
    assert simplify(e) == e
    assert simplify(simplify(e)) == simplify(e)


def _at(expr, point):
    """A sympy expression's value at a point, by sympy's own evaluator."""
    names = sorted(point)
    return float(sympy.lambdify([SYMPY[n] for n in names], expr, "math")(
        *(point[n] for n in names)))


@SETTINGS
@given(trees, points, st.sampled_from(NAMES))
def test_differentiate_agrees_with_sympy_diff(e, point, s):
    want = _at(sympy.diff(to_sympy(e), SYMPY[s]), point)
    got = evaluate(differentiate(e, s), EvalPoint(point))
    assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


# Ito's formula, written out in sympy for one state y and one noise w:
# du = (u_t + f u_y + 1/2 (g^2 u_yy + 2 g u_yw + u_ww)) dt + (g u_y + u_w) dw,
# and the chain rule du = (u_t + b u_y) dt + (g u_y + u_w) o dw for the
# Stratonovich drift b = f - 1/2 g g_y
W = SYMPY["w"]
ito_symbols = st.sampled_from(("y", "t", "w")).map(Sym)
positive_symbols = st.sampled_from(("y", "t")).map(Sym)


def _grow_ito(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: add(*ab)),
        pair.map(lambda ab: mul(*ab)),
        st.tuples(positive_symbols, st.integers(-2, 3)).map(
            lambda se: pow_(se[0], num(se[1]))),
        st.tuples(st.sampled_from(("sin", "cos")), children).map(
            lambda na: prim(*na)),
        children.map(lambda a: prim("exp", prim("sin", a))),
        positive_symbols.map(lambda s: prim("log", s)),
    )


ito_trees = st.recursive(st.one_of(ito_symbols, rationals), _grow_ito,
                         max_leaves=10)


@pytest.mark.parametrize("fixture", ["example1.sde", "example3.sde"])
@pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
@SETTINGS
@given(u=ito_trees, y=st.floats(0.5, 2.0), t=st.floats(0.1, 1.0),
       w=st.floats(-1.0, 1.0))
def test_differential_agrees_with_sympy(fixture, interpretation, u, y, t, w):
    sys = model(fixture).system
    f, g = to_sympy(sys.drift[0]), to_sympy(sys.diffusion[0][0])
    Y, T = SYMPY["y"], SYMPY["t"]
    U = to_sympy(u)
    noise = g * sympy.diff(U, Y) + sympy.diff(U, W)
    if interpretation == "ito":
        drift = (sympy.diff(U, T) + f * sympy.diff(U, Y)
                 + (g**2 * sympy.diff(U, Y, Y) + 2 * g * sympy.diff(U, Y, W)
                    + sympy.diff(U, W, W)) / 2)
    else:
        sys = ito_to_stratonovich(sys)
        b = f - g * sympy.diff(g, Y) / 2
        drift = sympy.diff(U, T) + b * sympy.diff(U, Y)
    point = {"y": y, "t": t, "w": w}
    got_drift, (got_noise,) = differential(u, sys)
    for got, want in ((got_drift, drift), (got_noise, noise)):
        assert evaluate(got, EvalPoint(point)) == pytest.approx(
            _at(want, point), rel=1e-8, abs=1e-8)
