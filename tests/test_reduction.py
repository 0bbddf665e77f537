"""Straightening maps, scalar reduction (deterministic and random),
the necessity round trip, and solvable-system reduction.

The scalar worked cases all have hand-derived targets: exp(-y) straightens
through exp(y) to unit coefficients; exp(w - t/2) straightens through
y*exp(t/2 - w) to a pure-quadrature drift; the exp(-t)+t/2-w+log(y)
invariant family reduces to drift b'(t), noise c.
"""

import pytest

from sdesym import (
    DegenerateGenerator, Domain, FreeFunctionAnsatz, HypothesisError,
    INTEGRABLE_ITO, INTEGRABLE_QUADRATURE, NOT_INTEGRABLE_FORM,
    ReductionError, UnverifiedCandidate, VectorField, ZERO,
    equivalent, is_zero, differentiate, make_system, necessity_roundtrip,
    parse, reduce_deterministic, reduce_random, reduce_system_solvable,
    residual_ito, straighten, to_str, opaque,
)

from conftest import model


def _v(sys, *xi_texts):
    return VectorField(tuple(parse(s) for s in xi_texts), ZERO,
                       sys.states, sys.noises)


# ---------------------------------------------------------------------------
# straighten

def test_straighten_example1(example1):
    st = straighten(parse("exp(-y)"), "y", domain=example1.system.domain)
    assert equivalent(st.map, parse("exp(y)"))
    assert st.new_symbol == "x"
    assert st.invertible
    assert equivalent(st.inverse, parse("log(x)"))


def test_straighten_identity():
    st = straighten(parse("1"), "y")
    assert equivalent(st.map, parse("y"))


def test_straighten_power():
    st = straighten(parse("1/(2*y)"), "y", domain=Domain({"y": (0.5, 2.0)}))
    assert equivalent(st.map, parse("y^2"))
    assert st.invertible


def test_straighten_picks_fresh_symbol():
    sys_states_take_x = straighten(parse("1"), "x")
    assert sys_states_take_x.new_symbol != "x"


def test_straighten_refuses_vanishing_generator():
    with pytest.raises(DegenerateGenerator):
        straighten(parse("y - 1"), "y", domain=Domain({"y": (0.5, 2.0)}))
    with pytest.raises(DegenerateGenerator):
        straighten(ZERO, "y")


def test_straighten_refuses_opaque():
    with pytest.raises(ReductionError):
        straighten(opaque("eta", 0, parse("y")), "y")


def test_straighten_implicit_inverse():
    # integral of 1/(1 + exp(y))... not in the rule table; pick a phi whose
    # map is elementary but not symbolically invertible: phi = 1/(1 + 2*y +
    # 3*y^2) gives map y + y^2 + y^3 (monotone, no closed inverse)
    st = straighten(parse("1/(1 + 2*y + 3*y^2)"), "y",
                    domain=Domain({"y": (0.5, 2.0)}))
    assert equivalent(st.map, parse("y + y^2 + y^3"))
    assert st.inverse == "implicit"
    assert not st.invertible


# ---------------------------------------------------------------------------
# deterministic reduction

def test_reduce_deterministic_example1(example1):
    r = reduce_deterministic(example1.system, example1.candidates["X1"])
    assert equivalent(r.straightening.map, parse("exp(y)"))
    assert equivalent(r.drift, parse("1"))
    assert equivalent(r.noise[0], parse("1"))
    assert r.classification == INTEGRABLE_ITO
    assert r.report.verified
    assert r.condition_failures == ()


def test_reduce_deterministic_rejects_non_symmetry():
    sys = make_system(("x",), ("w",), ("x",), (("1",),), "ito",
                      Domain({"x": (0.5, 2.0)}))
    with pytest.raises(UnverifiedCandidate):
        reduce_deterministic(sys, _v(sys, "1"))


def test_reduce_deterministic_unchecked_keeps_honest_classification():
    # same non-symmetry forced through: transformed coefficients stay
    # state-dependent, so the classification must refuse integrable labels
    sys = make_system(("x",), ("w",), ("x",), (("1",),), "ito",
                      Domain({"x": (0.5, 2.0)}))
    r = reduce_deterministic(sys, _v(sys, "1"), verify=False)
    assert r.classification == NOT_INTEGRABLE_FORM


def test_reduce_deterministic_geometric_brownian():
    sys = make_system(("x",), ("w",), ("x/2",), (("x",),), "ito",
                      Domain({"x": (0.5, 2.0)}))
    r = reduce_deterministic(sys, _v(sys, "x"))
    assert equivalent(r.straightening.map, parse("log(x)"))
    assert is_zero(r.drift)
    assert equivalent(r.noise[0], parse("1"))
    assert r.classification == INTEGRABLE_ITO


def test_reduce_deterministic_stratonovich_input(example1):
    from sdesym import ito_to_stratonovich
    strat = ito_to_stratonovich(example1.system)
    r = reduce_deterministic(strat, example1.candidates["X1"])
    assert r.converted_from_stratonovich
    assert r.classification == INTEGRABLE_ITO
    assert equivalent(r.drift, parse("1"))


# ---------------------------------------------------------------------------
# random reduction

def test_reduce_random_example3_zero_beta(example3):
    r = reduce_random(example3.system, example3.candidates["X1"],
                      FreeFunctionAnsatz(ZERO, ZERO))
    assert equivalent(r.straightening.map, parse("y*exp(t/2 - w)"))
    assert equivalent(r.drift, parse("exp(t/2 - w)"))
    assert is_zero(r.noise[0])
    assert r.classification == INTEGRABLE_QUADRATURE
    assert set(r.condition_failures) == {"drift-coefficient-w-free",
                                         "compatibility"}
    # the failing condition's residual is the known value -exp(t/2 - w)
    failing = {c.name: c for c in r.conditions}["drift-coefficient-w-free"]
    assert equivalent(failing.residual, parse("-exp(t/2 - w)"))
    assert r.compatibility.residual_value(
        {"y": 1.0, "t": 0.0, "w": 0.0}) == pytest.approx(-1.0, abs=1e-9)


def test_reduce_random_example2_identity_eta(example2):
    r = reduce_random(example2.system, example2.candidates["X_ID"])
    b_prime = opaque("b", 1, parse("t"))
    assert equivalent(r.drift, b_prime)
    assert equivalent(r.noise[0], parse("c"))
    assert r.classification == INTEGRABLE_ITO
    assert r.condition_failures == ()
    assert r.compatibility.satisfied


def test_reduce_random_example2_concrete_beta(example2):
    r = reduce_random(example2.system, example2.candidates["X_ID"],
                      FreeFunctionAnsatz(parse("t^2"), parse("3")))
    assert equivalent(r.drift, parse("2*t"))
    assert equivalent(r.noise[0], parse("3"))
    assert r.classification == INTEGRABLE_ITO


def test_reduce_random_deterministic_candidate_degenerates(example1):
    det = reduce_deterministic(example1.system, example1.candidates["X1"])
    rnd = reduce_random(example1.system, example1.candidates["X1"],
                        FreeFunctionAnsatz(ZERO, ZERO))
    assert equivalent(rnd.straightening.map, det.straightening.map)
    assert equivalent(rnd.drift, det.drift)
    assert rnd.classification == det.classification == INTEGRABLE_ITO
    assert rnd.compatibility.satisfied  # gamma == 0 identically


def test_reduce_random_rejects_non_symmetry(example3):
    bad = _v(example3.system, "exp(w)")
    with pytest.raises(UnverifiedCandidate):
        reduce_random(example3.system, bad, FreeFunctionAnsatz(ZERO, ZERO))


# ---------------------------------------------------------------------------
# necessity round trip

def test_necessity_example1(example1):
    res = necessity_roundtrip(example1.system, parse("exp(y)"))
    assert equivalent(res.candidate.xi[0], parse("exp(-y)"))
    assert res.report.verified
    assert res.compatibility.satisfied
    assert res.classification == INTEGRABLE_ITO
    assert res.derivative_matches and res.exact_match


def test_necessity_example3(example3):
    res = necessity_roundtrip(example3.system, parse("y*exp(t/2 - w)"))
    assert equivalent(res.candidate.xi[0], parse("exp(w - t/2)"))
    assert res.report.verified
    assert not res.compatibility.satisfied
    assert res.classification == INTEGRABLE_QUADRATURE
    assert res.derivative_matches


def test_necessity_identity_map_positive():
    sys = make_system(("y",), ("w",), ("1",), (("1",),), "ito")
    res = necessity_roundtrip(sys, parse("y"))
    assert equivalent(res.candidate.xi[0], parse("1"))
    assert res.report.verified
    assert res.classification == INTEGRABLE_ITO


def test_necessity_identity_map_negative(example1):
    # y itself does not integrate a state-dependent equation; the candidate
    # phi = 1 fails the determining equations and the report says so
    res = necessity_roundtrip(example1.system, parse("y"))
    assert not res.report.verified
    assert res.classification == NOT_INTEGRABLE_FORM


def test_necessity_rejects_flat_map(example1):
    with pytest.raises(DegenerateGenerator):
        necessity_roundtrip(example1.system, parse("t^2"))


def test_reduce_then_necessity_reverifies_fixture_symmetries():
    cases = [
        ("example1.sde", "X1", None),
        ("example2.sde", "X_ID", FreeFunctionAnsatz(ZERO, ZERO)),
        ("example3.sde", "X1", FreeFunctionAnsatz(ZERO, ZERO)),
    ]
    for name, cname, ansatz in cases:
        mf = model(name)
        v = mf.candidates[cname]
        if ansatz is None:
            red = reduce_deterministic(mf.system, v)
        else:
            red = reduce_random(mf.system, v, ansatz)
        res = necessity_roundtrip(mf.system, red.straightening.map)
        assert res.report.verified, name
        assert equivalent(res.candidate.xi[0], v.xi[0],
                          mf.system.domain), name


# ---------------------------------------------------------------------------
# pushforward property: a symmetry stays a symmetry under change of variables

def test_pushforward_of_symmetry_is_symmetry(example1):
    from sdesym import ito_change_of_variables
    tr = ito_change_of_variables(example1.system, parse("exp(y)"))
    new_sys = make_system(("x",), ("w",), (tr.drift[0],),
                          ((tr.noise[0][0],),), "ito")
    # pushforward of exp(-y) d/dy under x = exp(y) is (exp(-y)*exp(y)) d/dx
    pushed = _v(new_sys, "1")
    assert residual_ito(new_sys, pushed).verified


# ---------------------------------------------------------------------------
# solvable-system reduction

def test_system_reduction_linear2d_full_quadrature(linear2d):
    sr = reduce_system_solvable(
        linear2d.system,
        [linear2d.candidates["T1"], linear2d.candidates["T2"]])
    assert sr.full_quadrature
    assert sr.orbit_rank == 2
    assert sr.solvability.solvable
    assert sr.reduced_states == ()
    assert set(sr.reconstruction_states) == {"x1", "x2"}
    assert len(sr.reconstruction_order) == 2
    for m, s in zip(sr.maps, ("x1", "x2")):
        assert equivalent(m, parse(s))  # translations reduce in place
    # transformed coefficients keep the original state-free drift
    assert equivalent(sr.system.drift[0], parse("t"))
    assert equivalent(sr.system.drift[1], parse("2"))


def test_system_reduction_scaling_pair():
    sys = make_system(
        ("x1", "x2"), ("w1", "w2"),
        ("x1/2", "x2/2"),
        (("x1", "0"), ("0", "x2")), "ito",
        Domain({"x1": (0.5, 2.0), "x2": (0.5, 2.0)}))
    gens = [_v(sys, "x1", "0"), _v(sys, "0", "x2")]
    sr = reduce_system_solvable(sys, gens)
    assert sr.full_quadrature
    assert equivalent(sr.maps[0], parse("log(x1)"))
    assert equivalent(sr.maps[1], parse("log(x2)"))
    assert all(is_zero(d) for d in sr.system.drift)
    assert equivalent(sr.system.diffusion[0][0], parse("1"))
    assert equivalent(sr.inverses[0], parse("exp(x1)"))


def test_system_reduction_partial():
    # one generator on a two-state system: one reconstruction equation,
    # one genuinely reduced equation that must not involve the reduced state
    sys = make_system(
        ("x1", "x2"), ("w1", "w2"),
        ("t", "2"),
        (("1", "0"), ("0", "1")), "ito",
        Domain({"x1": (-1.0, 1.0), "x2": (-1.0, 1.0)}))
    sr = reduce_system_solvable(sys, [_v(sys, "1", "0")])
    assert not sr.full_quadrature
    assert sr.reconstruction_states == ("x1",)
    assert sr.reduced_states == ("x2",)
    assert sr.orbit_rank == 1


def test_system_reduction_r0_returns_system_unchanged(linear2d):
    sr = reduce_system_solvable(linear2d.system, [])
    assert sr.system is linear2d.system or all(
        equivalent(a, b) for a, b in zip(sr.system.drift,
                                         linear2d.system.drift))
    assert sr.reconstruction_states == ()
    assert sr.orbit_rank == 0


def test_system_reduction_orbit_rank_hypothesis(parallel2d):
    with pytest.raises(HypothesisError) as err:
        reduce_system_solvable(
            parallel2d.system,
            [parallel2d.candidates["P1"], parallel2d.candidates["P2"]])
    assert err.value.hypothesis == "orbit-rank"


def test_system_reduction_solvability_hypothesis():
    # sl(2)-type triple is not solvable
    sys = make_system(("x",), ("w",), ("0",), (("1",),), "ito",
                      Domain({"x": (0.5, 2.0)}))
    gens = [_v(sys, "1"), _v(sys, "x"), _v(sys, "x^2")]
    with pytest.raises(HypothesisError) as err:
        reduce_system_solvable(sys, gens, verify=False)
    assert err.value.hypothesis == "solvable-algebra"


def test_system_reduction_unverified_candidate(linear2d):
    bad = _v(linear2d.system, "x2", "0")   # not a symmetry of the fixture
    with pytest.raises(UnverifiedCandidate):
        reduce_system_solvable(linear2d.system, [bad])


def test_system_reduction_adapted_coordinates_hypothesis():
    # generator coefficient depends on a state it does not own: the
    # diagonal auto-derivation must refuse by name
    sys = make_system(
        ("x1", "x2"), ("w1", "w2"), ("0", "0"),
        (("1", "0"), ("0", "1")), "ito",
        Domain({"x1": (0.5, 2.0), "x2": (0.5, 2.0)}))
    gens = [_v(sys, "1", "0"), _v(sys, "0", "x1")]
    with pytest.raises(HypothesisError) as err:
        reduce_system_solvable(sys, gens, verify=False)
    assert err.value.hypothesis == "adapted-coordinates"


def test_system_reduction_closure_hypothesis():
    # forced (unchecked) reduction of x2 out of a system whose kept
    # equation still involves x2
    sys = make_system(
        ("x1", "x2"), ("w1", "w2"), ("x2", "1"),
        (("1", "0"), ("0", "1")), "ito",
        Domain({"x1": (0.5, 2.0), "x2": (0.5, 2.0)}))
    with pytest.raises(HypothesisError) as err:
        reduce_system_solvable(sys, [_v(sys, "0", "1")], verify=False)
    assert err.value.hypothesis == "closure"


def test_system_reduction_triangular_order():
    # x3's reconstruction coefficient involves x2: x2 must integrate first
    sys = make_system(
        ("x1", "x2", "x3"), ("w",),
        ("1", "x2", "x3*x2^2"),
        (("1",), ("0",), ("0",)), "ito",
        Domain({"x1": (0.5, 2.0), "x2": (0.5, 2.0), "x3": (0.5, 2.0)}))
    gens = [_v(sys, "0", "x2", "0"), _v(sys, "0", "0", "x3")]
    sr = reduce_system_solvable(sys, gens, verify=False)
    assert sr.reconstruction_states == ("x2", "x3") or set(
        sr.reconstruction_states) == {"x2", "x3"}
    order = list(sr.reconstruction_order)
    assert order.index("x2") < order.index("x3")


def test_system_reduction_reconstruction_cycle():
    sys = make_system(
        ("x1", "x2", "x3"), ("w",),
        ("1", "x2*x3^2", "x3*x2^2"),
        (("1",), ("0",), ("0",)), "ito",
        Domain({"x1": (0.5, 2.0), "x2": (0.5, 2.0), "x3": (0.5, 2.0)}))
    gens = [_v(sys, "0", "x2", "0"), _v(sys, "0", "0", "x3")]
    with pytest.raises(HypothesisError) as err:
        reduce_system_solvable(sys, gens, verify=False)
    assert err.value.hypothesis == "reconstruction"
