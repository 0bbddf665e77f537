"""Expression core: parsing, simplification, calculus, evaluation.

Derivatives are checked against a central finite-difference oracle on
randomly generated expressions; antiderivatives are checked by
differentiating back.  No expected value below was produced by the code
under test except where the assertion is a pure round trip.
"""

import math

import numpy as np
import pytest

from sdesym import (
    Domain, EvalPoint, Num, Sym, ZERO, ONE,
    antiderivative, compile_expr, differentiate, equivalent, evaluate,
    free_symbols, instantiate_opaque, is_zero, max_abs_on_domain, opaque,
    parse, simplify, solve_for, substitute, to_str,
    DomainError, EvaluationError, ExprSyntaxError, NotElementaryError,
)
from sdesym.expr import (
    add, mul, pow_, prim, PolyTestFunction, vanishes_on_domain,
    _EQ_SEED, _MAX_RETRIES,
)
from sdesym.numeric import finite_difference

from conftest import random_expr


# ---------------------------------------------------------------------------
# parsing and printing

@pytest.mark.parametrize("text,value", [
    ("1 + 2*3", 7.0),
    ("2^3^2", 512.0),          # right associative
    ("-2^2", -4.0),            # unary minus binds looser than power
    ("(1+1)^3", 8.0),
    ("6/4", 1.5),
    ("2*-3", -6.0),
    ("exp(0)", 1.0),
    ("log(exp(2))", 2.0),
    ("sin(0) + cos(0)", 1.0),
    ("sqrt(9)", 3.0),
    ("1/2*4", 2.0),            # left-to-right for * and /
])
def test_parse_arithmetic(text, value):
    e = parse(text)
    assert evaluate(e, EvalPoint({})) == pytest.approx(value, abs=1e-12)


def test_parse_symbols_and_functions():
    e = parse("y*eta(t + w)")
    assert free_symbols(e) == {"y", "t", "w"}
    from sdesym import opaque_functions
    assert opaque_functions(e) == {"eta"}


def test_parse_rejects_garbage():
    for bad in ["", "1 +", "(1", "x**y", "foo(", "1..2", "a b"]:
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        e = simplify(random_expr(rng, ("y", "t", "w")))
        back = parse(to_str(e))
        assert back == e, f"round trip changed {to_str(e)!r} -> {to_str(back)!r}"


def test_print_parse_round_trip_fixture_coefficients():
    from conftest import all_models
    for _, mf in all_models():
        for e in list(mf.system.drift) + [c for row in mf.system.diffusion
                                          for c in row]:
            assert parse(to_str(e)) == e


# ---------------------------------------------------------------------------
# simplification / canonical form

def test_simplify_identities():
    y = Sym("y")
    assert is_zero(add(y, mul(Num(-1), y)))
    assert simplify(mul(ONE, y)) == y
    assert simplify(mul(ZERO, y)) == ZERO
    assert simplify(pow_(y, ONE)) == y
    assert simplify(pow_(y, ZERO)) == ONE
    assert simplify(parse("exp(y)*exp(-y)")) == ONE
    assert simplify(parse("y/y")) == ONE


# a sum meeting a power of itself joins that power; products of bare sums
# still multiply out
@pytest.mark.parametrize("text,printed", [
    ("(1 + 3*y^2)^(-1)*(1 + 3*y^2)", "1"),
    ("1/6/(1 + 3*y^2)*(1 + 3*y^2)", "1/6"),
    ("(1 + y)^2*(1 + y)", "(1 + y)^3"),
    ("t*(1 + y)^2*(1 + y)*(1 + y)", "t*(1 + y)^4"),
    ("(1 + y)*(1 + y)", "1 + y^2 + 2*y"),
])
def test_sum_joins_its_power(text, printed):
    assert to_str(parse(text)) == printed


def test_constant_folding_is_exact():
    # rational arithmetic, not float: 1/3 + 1/6 must be exactly 1/2
    e = simplify(parse("1/3 + 1/6"))
    assert e == Num(evaluate(parse("1/2"), EvalPoint({}))) or to_str(e) == "1/2"
    assert evaluate(e, EvalPoint({})) == 0.5


def test_equivalent_positive_and_negative():
    assert equivalent(parse("(y+1)^2"), parse("y^2 + 2*y + 1"))
    assert equivalent(parse("exp(2*y)"), parse("exp(y)^2"))
    assert not equivalent(parse("y^2"), parse("y^2 + 1e-3"))
    assert not equivalent(parse("sin(y)"), parse("y"))


def test_equivalent_with_opaque_functions():
    # eta'(y)*y + eta(y) == d/dy (y*eta(y)) for arbitrary eta
    lhs = differentiate(parse("y*eta(y)"), "y")
    rhs = add(mul(opaque("eta", 1, Sym("y")), Sym("y")), opaque("eta", 0, Sym("y")))
    assert equivalent(lhs, rhs)
    assert not equivalent(opaque("eta", 0, Sym("y")), opaque("eta", 1, Sym("y")))


# ---------------------------------------------------------------------------
# differentiation against the finite-difference oracle

def test_differentiate_500_random_triples():
    rng = np.random.default_rng(20260819)
    names = ("y", "t", "w")
    checked = 0
    while checked < 500:
        e = random_expr(rng, names)
        s = str(rng.choice(names))
        de = differentiate(e, s)
        point = {n: float(rng.uniform(0.4, 1.6)) for n in names}
        try:
            sym = evaluate(de, EvalPoint(point))
            num = finite_difference(e, s, point)
        except EvaluationError:
            continue
        if not (math.isfinite(sym) and math.isfinite(num)):
            continue
        scale = 1.0 + abs(sym)
        assert abs(sym - num) <= 5e-5 * scale, (
            f"d/d{s} [{to_str(e)}] at {point}: symbolic {sym} vs fd {num}")
        checked += 1


def test_differentiate_chain_rule_opaque():
    # d/dy eta(y^2) = 2y * eta'(y^2)
    de = differentiate(parse("eta(y^2)"), "y")
    expected = mul(Num(2), Sym("y"), opaque("eta", 1, parse("y^2")))
    assert equivalent(de, expected)


def test_differentiate_constants():
    assert differentiate(parse("t^2 + 1"), "y") == ZERO


# ---------------------------------------------------------------------------
# substitution

def test_substitute_basic():
    e = parse("y^2 + t*y")
    got = substitute(e, {"y": parse("exp(x)")})
    assert equivalent(got, parse("exp(2*x) + t*exp(x)"))


def test_substitute_capture_free():
    # swap y and t simultaneously
    e = parse("y - t")
    got = substitute(e, {"y": Sym("t"), "t": Sym("y")})
    assert equivalent(got, parse("t - y"))


def test_substitute_into_opaque_argument():
    e = opaque("eta", 1, parse("y + w"))
    got = substitute(e, {"w": ZERO})
    assert got == opaque("eta", 1, Sym("y"))


# ---------------------------------------------------------------------------
# antiderivative: rule table with differentiate-back property

@pytest.mark.parametrize("text", [
    "exp(y)", "exp(-y)", "exp(2*y + 1)", "y^3", "1/y", "y^(-2)",
    "sin(y)", "cos(3*y)", "2*y*exp(y^2)", "exp(t/2 - w)",
    "y + sin(y) + exp(y)", "1/(2*y)", "(1+y)^4", "exp(w - t/2)*y",
])
def test_antiderivative_differentiates_back(text):
    e = parse(text)
    big = antiderivative(e, "y")
    assert equivalent(differentiate(big, "y"), e), (
        f"d/dy {to_str(big)} != {text}")


def test_antiderivative_constant_in_y():
    # x-free integrand: linear rule
    big = antiderivative(parse("exp(t/2 - w)"), "y")
    assert equivalent(big, parse("y*exp(t/2 - w)"))


def test_antiderivative_not_elementary():
    for text in ["exp(y^2)", "sin(y)/y", "exp(y)/y", "eta(y)"]:
        with pytest.raises(NotElementaryError):
            antiderivative(parse(text), "y")


# ---------------------------------------------------------------------------
# solve_for

@pytest.mark.parametrize("text,target,point", [
    ("exp(y)", "x", 2.0),
    ("log(y)", "x", 0.3),
    ("2*y + 1", "x", 5.0),
    ("y^3", "x", 8.0),
    ("exp(2*y) + 1", "x", 3.0),
])
def test_solve_for_inverts(text, target, point):
    e = parse(text)
    inv = solve_for(e, "y", Sym(target))
    assert inv is not None
    yval = evaluate(inv, EvalPoint({target: point, "t": 0.3, "w": 0.1}))
    forward = evaluate(e, EvalPoint({"y": yval, "t": 0.3, "w": 0.1}))
    assert forward == pytest.approx(point, rel=1e-9)


def test_solve_for_gives_up_honestly():
    assert solve_for(parse("y + exp(y)"), "y", Sym("x")) is None


# ---------------------------------------------------------------------------
# evaluation edge cases

def test_evaluate_errors():
    with pytest.raises(EvaluationError):
        evaluate(parse("log(y)"), EvalPoint({"y": -1.0}))
    with pytest.raises(EvaluationError):
        evaluate(parse("1/y"), EvalPoint({"y": 0.0}))
    with pytest.raises(EvaluationError):
        evaluate(Sym("zebra"), EvalPoint({}))
    with pytest.raises(EvaluationError):
        evaluate(opaque("eta", 0, ONE), EvalPoint({}))


def test_poly_test_function_derivatives_consistent():
    rng = np.random.default_rng(5)
    f = PolyTestFunction.random(rng)
    # derivative of the stand-in matches finite differences of itself
    x = 0.7
    h = 1e-6
    fd = (f(0, x + h) - f(0, x - h)) / (2 * h)
    assert f(1, x) == pytest.approx(fd, rel=1e-6)
    # and as_expr agrees with __call__
    e = f.as_expr("y")
    assert evaluate(e, EvalPoint({"y": x})) == pytest.approx(f(0, x), rel=1e-12)


def test_instantiate_opaque():
    e = parse("y*eta(t - w)")
    got = instantiate_opaque(e, "eta", parse("u^2"), "u")
    assert equivalent(got, parse("y*(t - w)^2"))
    # derivative tags instantiate to genuine derivatives
    de = differentiate(e, "w")
    got2 = instantiate_opaque(de, "eta", parse("u^2"), "u")
    assert equivalent(got2, parse("-2*y*(t - w)"))


def test_max_abs_on_domain():
    assert max_abs_on_domain(ZERO) == 0.0
    worst = max_abs_on_domain(parse("y"), Domain({"y": (0.5, 2.0)}))
    assert 0.5 <= worst <= 2.0


class _CountingBox(Domain):
    """A box that counts its draws; the draws are the base class's."""

    def __init__(self, bounds):
        super().__init__(bounds)
        self.calls = 0

    def sample(self, names, rng):
        self.calls += 1
        return super().sample(names, rng)


def test_sampler_draws_each_point_once_and_only_the_shortfall():
    # log(y - 1) is undefined on about a third of the box; a point-by-point
    # loop over the same stream, with the domain test written out, draws
    # exactly the points the batched sampler asks the box for
    e = parse("log(y - 1) + t")
    box = _CountingBox({"y": (0.5, 2.0)})
    worst = max_abs_on_domain(e, box, n_points=50)
    rng = np.random.default_rng(_EQ_SEED)
    drawn, kept = 0, []
    while len(kept) < 50:
        pt = Domain({"y": (0.5, 2.0)}).sample(["t", "y"], rng)
        drawn += 1
        if pt["y"] > 1.0:
            kept.append(abs(math.log(pt["y"] - 1.0) + pt["t"]))
    assert box.calls == drawn > 60
    assert worst == pytest.approx(max(kept), rel=1e-14)


def test_sampler_gives_up_at_the_same_draw_as_a_point_loop():
    box = _CountingBox({"y": (0.5, 2.0)})
    with pytest.raises(DomainError):
        max_abs_on_domain(parse("log(-y)"), box, n_points=10)
    assert box.calls == _MAX_RETRIES * 10 + 1


@pytest.mark.parametrize("text", [
    "y^2 - t", "exp(y)*exp(-y) - 1 + 1e-17*y", "log(y - 1)",
    "(1+y)^12*(1+y) - (1+y)^13", "eta(y) - eta(y)*(1 + 1e-3*t)"])
@pytest.mark.parametrize("n_points", [10, 200])
def test_one_pass_equals_equivalent_and_max_abs(text, n_points):
    e = parse(text)
    box = Domain({"y": (0.5, 2.0)})
    ok, worst = vanishes_on_domain(e, box, n_points=n_points)
    assert ok is equivalent(e, ZERO, box)
    if "eta" in text and n_points < 64:
        # the batches of opaque test functions are longer than
        # max_abs_on_domain's own here, so later batches see other draws
        return
    assert worst == max_abs_on_domain(e, box, n_points=n_points)


def test_huge_constants_load_as_inf():
    # exact constants beyond the float range still order (their sort key
    # saturates to inf) and evaluate to inf, which no sampled point accepts
    e = parse("y + 10^400")
    assert parse("10^400 + y") == e
    assert parse("10^401*t - 10^400*y") == parse("-10^400*y + 10^401*t")
    assert compile_expr(e)({"y": np.array([1.0])})[0] == math.inf
    assert compile_expr(parse("-10^400"))({}) == -math.inf
    with pytest.raises(EvaluationError):
        evaluate(e, EvalPoint({"y": 1.0}))
    with pytest.raises(DomainError):
        max_abs_on_domain(e)


def test_domain_defaults():
    d = Domain()
    assert d.range_for("t") == (0.0, 1.0)
    assert d.range_for("w2") == (-1.0, 1.0)
    assert d.range_for("y") == (0.5, 2.0)
    with pytest.raises(Exception):
        Domain({"y": (2.0, 1.0)})


def test_domain_defaults_follow_declared_roles():
    d = Domain({"s": (3.0, 4.0)},
               roles={"wealth": "state", "b": "noise", "s": "time"})
    assert d.range_for("wealth") == (0.5, 2.0)
    assert d.range_for("b") == (-1.0, 1.0)
    assert d.range_for("s") == (3.0, 4.0)      # an explicit range wins
    assert d.range_for("w") == (-1.0, 1.0)     # no role: the name decides
