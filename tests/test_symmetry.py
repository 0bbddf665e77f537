"""Determining equations, compatibility condition, algebra structure.

Expected residuals below were derived by hand from the determining
equations before the implementation existed (see the worked values in the
module docstrings); tests assert those frozen values, so a regression in
any calculus building block surfaces here.
"""

import numpy as np
import pytest

from sdesym import (
    Domain, EvaluationError, NonSimpleCandidate, VectorField, ZERO,
    as_ito, commutator, compatibility_check, equivalent, is_zero,
    ito_to_stratonovich, make_system, orbit_rank, parse, residual_ito,
    residual_associated_stratonovich, residual_stratonovich, sample_points,
    solvable_check, tau_condition,
)
from sdesym.expr import add, mul
from sdesym.symmetry import orbit_ranks

from conftest import all_models, model, random_candidate_const_sigma


def _field(xi_texts, states, noises=("w",), tau=None):
    return VectorField(tuple(parse(s) for s in xi_texts),
                       parse(tau) if tau else ZERO,
                       tuple(states), tuple(noises))


# ---------------------------------------------------------------------------
# determining equations on the worked fixtures

def test_example1_residuals_vanish_symbolically(example1):
    rep = residual_ito(example1.system, example1.candidates["X1"])
    assert rep.route == "ito"
    assert is_zero(rep.drift_residuals[0])
    assert is_zero(rep.diffusion_residuals[0][0])
    assert rep.verified
    assert rep.max_abs_residual == 0.0


def test_example3_residuals_vanish(example3):
    rep = residual_ito(example3.system, example3.candidates["X1"])
    assert rep.verified
    assert rep.max_abs_residual == 0.0
    assert rep.classification.label == "simple random"


def test_example2_family_verifies_with_opaque_eta(example2):
    rep = residual_ito(example2.system, example2.candidates["X_ETA"])
    assert is_zero(rep.drift_residuals[0]), "drift determining equation"
    assert is_zero(rep.diffusion_residuals[0][0]), "noise determining equation"
    assert rep.verified


def test_control_candidate_rejected(control):
    rep = residual_ito(control.system, control.candidates["NOT_SYM"])
    assert not rep.verified
    assert equivalent(rep.drift_residuals[0], parse("-1"))
    assert is_zero(rep.diffusion_residuals[0][0])
    assert rep.max_abs_residual == pytest.approx(1.0, abs=1e-12)


def test_stratonovich_route_example1(example1):
    strat = ito_to_stratonovich(example1.system)
    rep = residual_stratonovich(strat, example1.candidates["X1"])
    assert rep.route == "stratonovich"
    assert rep.verified
    assert rep.max_abs_residual == 0.0


def test_associated_stratonovich_route(example1, control):
    rep = residual_associated_stratonovich(
        example1.system, example1.candidates["X1"])
    assert rep.route == "associated-stratonovich"
    assert rep.verified
    bad = residual_associated_stratonovich(
        control.system, control.candidates["NOT_SYM"])
    assert not bad.verified


def test_route_agreement_on_all_fixture_candidates():
    mismatches = []
    for name, mf in all_models():
        sys = as_ito(mf.system)
        for cname, v in mf.candidates.items():
            a = residual_ito(sys, v, mf.system.domain).verified
            b = residual_associated_stratonovich(
                sys, v, mf.system.domain).verified
            if a != b:
                mismatches.append((name, cname, a, b))
    assert mismatches == []


def test_route_agreement_on_50_random_candidates():
    rng = np.random.default_rng(90210)
    mismatches = 0
    verified_seen = 0
    for _ in range(50):
        sys, v = random_candidate_const_sigma(rng)
        a = residual_ito(sys, v).verified
        b = residual_associated_stratonovich(sys, v).verified
        verified_seen += a
        mismatches += (a != b)
    assert mismatches == 0
    # the draw mixes genuine symmetries in; make sure both branches occurred
    assert 0 < verified_seen < 50


def test_simple_guard():
    mf = model("example1.sde")
    v = VectorField((parse("y"),), parse("t"), ("y",), ("w",))
    with pytest.raises(NonSimpleCandidate):
        residual_ito(mf.system, v)


# ---------------------------------------------------------------------------
# time-component condition

def test_tau_condition_time_only_vanishes_on_every_fixture():
    for name, mf in all_models():
        res = tau_condition(as_ito(mf.system), parse("t^2"))
        assert all(is_zero(r) or equivalent(r, ZERO, mf.system.domain)
                   for r in res), name


def test_tau_condition_zero():
    mf = model("example1.sde")
    res = tau_condition(mf.system, ZERO)
    assert all(is_zero(r) for r in res)


def test_tau_condition_state_dependent_chain():
    # dx = dw: bracket for x -> 0, for x^2 -> constant, x^3 -> residual 3
    sys = make_system(("x",), ("w",), ("0",), (("1",),), "ito")
    for tau_text in ("x", "x^2"):
        res = tau_condition(sys, parse(tau_text))
        assert all(is_zero(r) or equivalent(r, ZERO) for r in res), tau_text
    (r3,) = tau_condition(sys, parse("x^3"))
    assert equivalent(r3, parse("3"))


# ---------------------------------------------------------------------------
# compatibility condition

def test_compatibility_example3_fails_with_known_residual(example3):
    data = compatibility_check(example3.system, parse("exp(w - t/2)"),
                               example3.system.domain)
    assert not data.satisfied
    assert equivalent(data.gamma, parse("-exp(t/2 - w)"))
    assert equivalent(data.residual, parse("-exp(t/2 - w)"))
    assert data.residual_value({"y": 1.0, "t": 0.0, "w": 0.0}) == pytest.approx(
        -1.0, abs=1e-9)


def test_compatibility_example2_family_satisfied(example2):
    phi = example2.candidates["X_ETA"].xi[0]
    data = compatibility_check(example2.system, phi, example2.system.domain)
    assert data.satisfied
    assert data.max_abs_residual <= 1e-8


def test_compatibility_deterministic_phi_degenerate(example1):
    data = compatibility_check(example1.system, parse("exp(-y)"),
                               example1.system.domain)
    assert is_zero(data.gamma)
    assert data.satisfied


def test_compatibility_needs_scalar():
    mf = model("linear2d.sde")
    with pytest.raises(ValueError):
        compatibility_check(mf.system, parse("x1"))


# ---------------------------------------------------------------------------
# algebra structure

def test_commutator_translations():
    t1 = _field(("1", "0"), ("x1", "x2"))
    t2 = _field(("0", "1"), ("x1", "x2"))
    br = commutator(t1, t2)
    assert all(is_zero(x) for x in br.xi)


def test_commutator_scaling_translation():
    a = _field(("x",), ("x",))
    b = _field(("1",), ("x",))
    br = commutator(a, b)
    assert equivalent(br.xi[0], parse("-1"))


def test_commutator_antisymmetry_random_fields():
    rng = np.random.default_rng(33)
    from conftest import random_poly
    for _ in range(10):
        a = VectorField((random_poly(rng, ("x1", "x2")),
                         random_poly(rng, ("x1", "x2"))),
                        states=("x1", "x2"), noises=("w",))
        b = VectorField((random_poly(rng, ("x1", "x2")),
                         random_poly(rng, ("x1", "x2"))),
                        states=("x1", "x2"), noises=("w",))
        ab, ba = commutator(a, b), commutator(b, a)
        for x, y in zip(ab.xi, ba.xi):
            assert equivalent(x, mul(-1, y))


def test_commutator_jacobi_identity():
    rng = np.random.default_rng(55)
    from conftest import random_poly
    mk = lambda: VectorField(
        (random_poly(rng, ("x1", "x2"), degree=2, terms=2),
         random_poly(rng, ("x1", "x2"), degree=2, terms=2)),
        states=("x1", "x2"), noises=("w",))
    for _ in range(5):
        a, b, c = mk(), mk(), mk()
        total = [
            add(x, y, z)
            for x, y, z in zip(commutator(a, commutator(b, c)).xi,
                               commutator(b, commutator(c, a)).xi,
                               commutator(c, commutator(a, b)).xi)]
        for comp in total:
            assert equivalent(comp, ZERO, Domain({"x1": (0.5, 1.2),
                                                  "x2": (0.5, 1.2)}))


def test_solvable_abelian_pair():
    res = solvable_check([_field(("1", "0"), ("x1", "x2")),
                          _field(("0", "1"), ("x1", "x2"))])
    assert res.solvable
    assert res.series_dims[0] == 2
    assert res.series_dims[-1] == 0


def test_solvable_affine_pair():
    res = solvable_check([_field(("x",), ("x",)), _field(("1",), ("x",))])
    assert res.solvable
    assert res.series_dims == (2, 1, 0)


def test_not_solvable_sl2():
    gens = [_field(("1",), ("x",)), _field(("x",), ("x",)),
            _field(("x^2",), ("x",))]
    res = solvable_check(gens)
    assert not res.solvable


def test_orbit_rank_values():
    t1 = _field(("1", "0"), ("x1", "x2"))
    t2 = _field(("0", "1"), ("x1", "x2"))
    p1 = _field(("x1", "0"), ("x1", "x2"))
    p2 = _field(("2*x1", "0"), ("x1", "x2"))
    for pt in sample_points(("x1", "x2", "t"), Domain(), n_points=5):
        assert orbit_rank([t1, t2], pt) == 2
        assert orbit_rank([p1, p2], pt) == 1
        assert orbit_rank([_field(("0", "0"), ("x1", "x2"))], pt) == 0


def test_orbit_ranks_batch_matches_point_by_point():
    gens = [_field(("x1", "x2^2"), ("x1", "x2")),
            _field(("x2", "x1*x2"), ("x1", "x2"))]
    pts = sample_points(("x1", "x2", "t"), Domain(), n_points=8)
    pts.append({"x1": 1.0, "x2": 1.0, "t": 0.5})   # both fields equal: rank 1
    ranks = orbit_ranks(gens, pts)
    assert ranks == [orbit_rank(gens, pt) for pt in pts]
    assert ranks[-1] == 1 and 2 in ranks
    assert orbit_rank([], pts[0]) == 0
    with pytest.raises(EvaluationError, match="not finite at"):
        orbit_ranks([_field(("log(x1)", "0"), ("x1", "x2"))],
                    [{"x1": -1.0, "x2": 0.0, "t": 0.0}])
