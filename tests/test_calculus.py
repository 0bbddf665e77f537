"""Stochastic calculus operators: Laplacian, drift correction, conversion,
change of variables, and the near-identity-map residual cross-oracle.

Hand-derived expected values (worked out with pencil before implementation):
  * scalar deterministic u: the second-order operator collapses to s^2*u_yy,
    so u = exp(-y) with s = exp(-y) gives exp(-3y);
  * u = exp(w - t/2) on dy = dt + y dw: the pure-w term contributes u, the
    mixed term 2*s*u_yw and the s^2 u_yy term vanish, total exp(w - t/2);
  * scalar correction rho = (1/2) s s_y: s = exp(-y) gives -(1/2)exp(-2y).
"""

import numpy as np
import pytest

from sdesym import (
    Domain, InterpretationError, VectorField, ZERO,
    as_ito, change_of_variables, differential, drift_correction, equivalent,
    infinitesimal_map_residuals, is_zero, ito_change_of_variables,
    ito_laplacian, ito_to_stratonovich, make_system, parse,
    residual_ito, stratonovich_to_ito,
)

from conftest import all_models, model, random_poly_system


# ---------------------------------------------------------------------------
# Ito Laplacian

def test_laplacian_scalar_deterministic():
    mf = model("example1.sde")
    got = ito_laplacian(parse("exp(-y)"), mf.system)
    assert equivalent(got, parse("exp(-3*y)"))


def test_laplacian_mixed_and_pure_noise_terms():
    mf = model("example3.sde")
    got = ito_laplacian(parse("exp(w - t/2)"), mf.system)
    assert equivalent(got, parse("exp(w - t/2)"))


def test_laplacian_of_state_and_noise_free():
    mf = model("example1.sde")
    assert is_zero(ito_laplacian(parse("t^2"), mf.system))


def test_laplacian_requires_ito():
    strat = ito_to_stratonovich(model("example1.sde").system)
    with pytest.raises(InterpretationError):
        ito_laplacian(parse("y"), strat)


# ---------------------------------------------------------------------------
# drift correction and conversion

def test_drift_correction_scalar():
    mf = model("example1.sde")
    (rho,) = drift_correction(mf.system)
    assert equivalent(rho, parse("-1/2*exp(-2*y)"))


def test_conversion_example1_stratonovich_drift():
    strat = ito_to_stratonovich(model("example1.sde").system)
    assert strat.interpretation == "stratonovich"
    assert equivalent(strat.drift[0], parse("exp(-y)"))
    # diffusion unchanged
    assert equivalent(strat.diffusion[0][0], parse("exp(-y)"))


def test_conversion_round_trip_fixtures():
    for name, mf in all_models():
        back = stratonovich_to_ito(ito_to_stratonovich(mf.system))
        for a, b in zip(back.drift, mf.system.drift):
            assert equivalent(a, b, mf.system.domain), name
        for ra, rb in zip(back.diffusion, mf.system.diffusion):
            for a, b in zip(ra, rb):
                assert equivalent(a, b, mf.system.domain), name


def test_conversion_round_trip_random_systems():
    rng = np.random.default_rng(424242)
    for i in range(50):
        sys = random_poly_system(rng)
        back = stratonovich_to_ito(ito_to_stratonovich(sys))
        for a, b in zip(back.drift, sys.drift):
            assert equivalent(a, b, sys.domain), f"system {i}"


def test_as_ito_passthrough_and_flip():
    mf = model("example1.sde")
    assert as_ito(mf.system) is mf.system
    strat = ito_to_stratonovich(mf.system)
    again = as_ito(strat)
    assert again.interpretation == "ito"
    assert equivalent(again.drift[0], mf.system.drift[0])


def test_conversion_rejects_wrong_interpretation():
    mf = model("example1.sde")
    with pytest.raises(InterpretationError):
        stratonovich_to_ito(mf.system)
    with pytest.raises(InterpretationError):
        ito_to_stratonovich(ito_to_stratonovich(mf.system))


# ---------------------------------------------------------------------------
# Ito differential and change of variables

def test_ito_differential_of_identity():
    mf = model("example1.sde")
    d, s = differential(parse("y"), mf.system)
    assert equivalent(d, mf.system.drift[0])
    assert equivalent(s[0], mf.system.diffusion[0][0])


def test_change_of_variables_straightens_example1():
    mf = model("example1.sde")
    tr = ito_change_of_variables(mf.system, parse("exp(y)"))
    assert equivalent(tr.drift[0], parse("1"))
    assert equivalent(tr.noise[0][0], parse("1"))
    assert tr.state_free and tr.noise_free and tr.ito_form


def test_change_of_variables_example3_quadrature():
    mf = model("example3.sde")
    tr = ito_change_of_variables(mf.system, parse("y*exp(t/2 - w)"))
    assert equivalent(tr.drift[0], parse("exp(t/2 - w)"))
    assert is_zero(tr.noise[0][0])
    assert tr.state_free and not tr.noise_free and not tr.ito_form


def test_change_of_variables_multistate():
    # z1 = x1 - t^2/2, z2 = x2 - 2t kills the drift of the linear fixture
    mf = model("linear2d.sde")
    tr = change_of_variables(mf.system, (parse("x1 - t^2/2"), parse("x2 - 2*t")))
    for d in tr.drift:
        assert is_zero(d)
    assert equivalent(tr.noise[0][0], parse("1"))
    assert is_zero(tr.noise[0][1])
    assert equivalent(tr.noise[1][1], parse("1"))


def test_change_of_variables_rejects_noise_dependent_maps():
    mf = model("linear2d.sde")
    with pytest.raises(ValueError):
        change_of_variables(mf.system, (parse("x1 - w1"), parse("x2")))


# ---------------------------------------------------------------------------
# near-identity-map residuals as an independent oracle

def test_infinitesimal_residual_constant_shift():
    sys = make_system(("x",), ("w",), ("x",), (("1",),), "ito",
                      Domain({"x": (0.5, 2.0)}))
    v = VectorField((parse("1"),), states=("x",), noises=("w",))
    drift_res, noise_res = infinitesimal_map_residuals(sys, v)
    assert equivalent(drift_res[0], parse("-1"))
    assert is_zero(noise_res[0][0])


def test_infinitesimal_residuals_agree_with_determining_equations():
    for name, mf in all_models():
        for cname, v in mf.candidates.items():
            if not is_zero(v.tau):
                continue
            rep = residual_ito(as_ito(mf.system), v, mf.system.domain)
            drift_res, noise_res = infinitesimal_map_residuals(
                as_ito(mf.system), v)
            for got, want in zip(drift_res, rep.drift_residuals):
                assert equivalent(got, want, mf.system.domain), (name, cname)
            for grow, wrow in zip(noise_res, rep.diffusion_residuals):
                for got, want in zip(grow, wrow):
                    assert equivalent(got, want, mf.system.domain), (name, cname)
