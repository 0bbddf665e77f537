"""Path simulation, pathwise reduction witnesses, and scaling diagnostics.

Oracles used here:
  * additive-noise systems integrate exactly under Euler-Maruyama, so the
    simulated paths must match the closed form x0 + a*t + w(t) to rounding;
  * the deterministic equation dy = y dt has Euler error ~ e*h/2 at t=1,
    bracketing the relative error pins the scheme's order;
  * Heun on the Stratonovich equation dy = y o dw has closed form
    y0*exp(w(t)), giving a direct pathwise error oracle;
  * translating a path of dx = x dt + dw by a constant produces a defect
    of exactly eps*h per step, an exact oracle for the scaling witness.
"""

import dataclasses
import io
import math

import numpy as np
import pytest

from sdesym import (
    ITO, STRATONOVICH, SimulationConfig, Sym, VectorField, ZERO,
    compile_expr, differentiate, epsilon_symmetry_scaling, evaluate,
    export_csv, finite_difference, make_system, opaque, parse,
    pathwise_check, reduce_deterministic, simulate, strong_order_estimate,
)
from sdesym.calculus import TransformedSde
from sdesym.expr import Add, EvalPoint, Mul, Num, Pow, Prim, add, mul, to_str
from sdesym.numeric import _draw_increments

from conftest import random_expr


def _cfg(**kw):
    base = dict(t0=0.0, t1=1.0, h=1e-3, x0=(1.0,), paths=20, seed=99)
    base.update(kw)
    return SimulationConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize("kw,fragment", [
    (dict(h=0.0), "h must be positive"),
    (dict(h=-1e-3), "h must be positive"),
    (dict(t1=0.0), "t1 must exceed t0"),
    (dict(t1=-1.0), "t1 must exceed t0"),
    (dict(paths=0), "at least one path"),
    (dict(seed=-1), "seed must be"),
    (dict(h=0.3), "not an integer step count"),
    (dict(h=2.0), "not an integer step count"),
    (dict(seed=2**64), "seed must be"),
    (dict(t1=math.inf), "must be finite"),
    (dict(t0=-math.inf), "must be finite"),
    (dict(h=math.inf), "must be finite"),
])
def test_config_rejects_bad_values(kw, fragment):
    with pytest.raises(ValueError, match=fragment):
        _cfg(**kw)


def test_config_steps_property():
    assert _cfg(h=1e-3).steps == 1000
    assert _cfg(t0=0.5, t1=1.5, h=0.25).steps == 4


# ---------------------------------------------------------------------------
# compile_expr


def test_compile_constant_returns_plain_float():
    fn = compile_expr(parse("3/2"))
    assert fn({}) == 1.5


def test_compile_expression_broadcasts():
    fn = compile_expr(parse("y^2 + exp(t)"))
    y = np.array([1.0, 2.0])
    out = fn({"y": y, "t": 0.0})
    assert np.allclose(out, [2.0, 5.0])


def test_compile_rejects_free_function_symbols():
    with pytest.raises(ValueError, match="free function symbol"):
        compile_expr(opaque("eta", 0, Sym("y")))


def _reference_eval(e, env):
    """Node by node, as the tree reads: sums and products fold left."""
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Sym):
        return env[e.name]
    if isinstance(e, (Add, Mul)):
        args = e.terms if isinstance(e, Add) else e.factors
        out = _reference_eval(args[0], env)
        for a in args[1:]:
            v = _reference_eval(a, env)
            out = out + v if isinstance(e, Add) else out * v
        return out
    if isinstance(e, Pow):
        return np.power(_reference_eval(e.base, env),
                        _reference_eval(e.exponent, env))
    assert isinstance(e, Prim)
    fn = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos}
    return fn[e.name](_reference_eval(e.arg, env))


def test_compile_matches_node_by_node_evaluation():
    # random trees share subtrees and constants; the generated code must
    # give exactly the values of evaluating the tree node by node
    rng = np.random.default_rng(2024)
    env = {"y": rng.uniform(0.5, 1.5, 9), "z": rng.uniform(-1, 1, 9),
           "t": 0.375}
    for _ in range(200):
        e = random_expr(rng, ("y", "z", "t"), depth=4)
        e = add(e, mul(e, random_expr(rng, ("y", "t"), depth=2)))
        with np.errstate(all="ignore"):
            got = np.broadcast_to(compile_expr(e)(env), (9,))
            want = np.broadcast_to(_reference_eval(e, env), (9,))
        assert np.array_equal(got, want, equal_nan=True), to_str(e)


# ---------------------------------------------------------------------------
# simulation: the generated step kernel against plain numpy loops
#
# The reference walks each coefficient tree node by node (sums and products
# fold left) and steps with the textbook loops; the kernel promises the
# same floating-point operations, so the states must agree bit for bit.


def _reference_states(sys, cfg, inc):
    paths, steps, m = inc.shape
    n, h = sys.n, cfg.h
    times = cfg.t0 + h * np.arange(steps + 1)
    states = np.empty((paths, steps + 1, n))
    states[:, 0, :] = cfg.x0

    def coefficients(t, x):
        env = {sys.time: t}
        env.update((name, x[:, i]) for i, name in enumerate(sys.states))
        f = [np.broadcast_to(_reference_eval(e, env), (paths,))
             for e in sys.drift]
        g = [[np.broadcast_to(_reference_eval(e, env), (paths,))
              for e in row] for row in sys.diffusion]
        return f, g

    with np.errstate(all="ignore"):
        for s in range(steps):
            x, dw = states[:, s, :], inc[:, s, :]
            f, g = coefficients(times[s], x)
            pred = np.empty_like(x)
            for i in range(n):
                step = f[i] * h
                for k in range(m):
                    step = step + g[i][k] * dw[:, k]
                pred[:, i] = x[:, i] + step
            if sys.is_ito():                    # Euler-Maruyama
                states[:, s + 1, :] = pred
                continue
            f2, g2 = coefficients(times[s + 1], pred)   # Heun corrector
            for i in range(n):
                step = 0.5 * (f[i] + f2[i]) * h
                for k in range(m):
                    step = step + 0.5 * (g[i][k] + g2[i][k]) * dw[:, k]
                states[:, s + 1, i] = x[:, i] + step
    return states


_KERNEL_CASES = {
    # one state, state- and time-dependent coefficients
    "scalar": (["y"], ["w"], ["3/4*y - exp(-t)*y^2 + sin(y)*y"],
               [["1/5*y + cos(y)^2"]], (0.8,)),
    # constant coefficients: the kernel's values are plain floats
    "constant": (["x"], ["w"], ["2"], [["1/2"]], (0.5,)),
    # time-only coefficients next to a state-dependent one
    "time_only": (["x"], ["w"], ["cos(t) + t^2"], [["exp(-t/2)"]], (0.1,)),
    # two states, two noises, shared subtrees across coefficients
    "two_state": (["y", "z"], ["u", "v"],
                  ["y*z/4 - log(1 + y^2)", "cos(t)*z - z/2 + exp(-y*z)/4"],
                  [["1/2", "y*z/5"], ["sin(y*z)/5", "(1 + z^2)^(1/2)/10"]],
                  (0.7, 1.2)),
    # log(y) is undefined once a path crosses zero: those paths go nan
    "leaves_domain": (["y"], ["w"], ["log(y)"], [["1"]], (0.3,)),
}


@pytest.mark.parametrize("interpretation", [ITO, STRATONOVICH])
@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_matches_plain_numpy_loops(case, interpretation):
    states, noises, drift, diffusion, x0 = _KERNEL_CASES[case]
    sys = make_system(states, noises, drift, diffusion,
                      interpretation=interpretation)
    ps = simulate(sys, _cfg(paths=16, h=0.01, x0=x0, seed=8))
    ref = _reference_states(sys, ps.config, ps.increments)
    assert np.array_equal(ps.states, ref, equal_nan=True)
    assert np.array_equal(ps.valid, np.isfinite(ref).all(axis=(1, 2)))
    if case == "leaves_domain":
        assert 0 < ps.n_excluded < ps.paths
        assert np.isnan(ps.states[~ps.valid, -1, 0]).all()
    else:
        assert ps.valid.all()


def test_increments_are_one_philox_stream_per_path():
    cfg = _cfg(paths=6, h=0.01, seed=2**63 + 11)
    inc = _draw_increments(cfg, 2)
    for p in range(cfg.paths):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, p], dtype=np.uint64)))
        want = rng.standard_normal((cfg.steps, 2)) * math.sqrt(cfg.h)
        assert np.array_equal(inc[p], want)


# ---------------------------------------------------------------------------
# simulation: determinism and stream layout


def test_simulate_bit_identical_for_same_seed(example1):
    sys, cfg = example1.system, _cfg(paths=7, seed=1234)
    a = simulate(sys, cfg)
    b = simulate(sys, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)
    assert a.seed == b.seed == 1234


def test_simulate_differs_across_seeds(example1):
    a = simulate(example1.system, _cfg(paths=3, seed=1))
    b = simulate(example1.system, _cfg(paths=3, seed=2))
    assert not np.array_equal(a.increments, b.increments)


def test_adding_paths_never_reshuffles_existing_ones(example1):
    small = simulate(example1.system, _cfg(paths=5, seed=77))
    big = simulate(example1.system, _cfg(paths=12, seed=77))
    assert np.array_equal(big.increments[:5], small.increments)
    assert np.array_equal(big.states[:5], small.states)


def test_wiener_cumulates_increments(example1):
    ps = simulate(example1.system, _cfg(paths=4, h=0.1))
    w = ps.wiener
    assert np.array_equal(w[:, 0, :], np.zeros((4, 1)))
    assert np.allclose(np.diff(w, axis=1), ps.increments)


# ---------------------------------------------------------------------------
# simulation: scheme correctness against closed forms


def test_additive_noise_euler_is_exact_to_rounding():
    # dx = 2 dt + dw has the closed form x0 + 2 t + w(t); Euler-Maruyama
    # reproduces it exactly, so any gap is pure accumulated rounding.
    sys = make_system(["x"], ["w"], ["2"], [["1"]])
    ps = simulate(sys, _cfg(paths=30, x0=(0.5,), seed=5))
    exact = 0.5 + 2.0 * ps.times[None, :] + ps.wiener[:, :, 0]
    assert np.max(np.abs(ps.states[:, :, 0] - exact)) < 1e-12


def test_euler_drift_error_matches_first_order():
    # dy = y dt with no noise: Euler gives (1+h)^(1/h) at t=1 and the
    # relative error against e is h/2 + O(h^2).
    sys = make_system(["y"], ["w"], ["y"], [["0"]])
    ps = simulate(sys, _cfg(paths=1, h=1e-3))
    rel = abs(ps.states[0, -1, 0] - math.e) / math.e
    assert 3e-4 < rel < 7e-4


def test_heun_matches_stratonovich_exponential():
    # dy = y o dw has the closed form y0 * exp(w(t)); the Heun
    # predictor-corrector must track it pathwise.
    sys = make_system(["y"], ["w"], ["0"], [["y"]],
                      interpretation=STRATONOVICH)
    ps = simulate(sys, _cfg(paths=50, seed=31))
    exact = np.exp(ps.wiener[:, :, 0])
    sup = np.max(np.abs(ps.states[:, :, 0] - exact), axis=1)
    med = float(np.median(sup[ps.valid]))
    assert 1e-7 < med < 5e-3


def test_simulate_rejects_free_function_coefficients(example1):
    sys = dataclasses.replace(example1.system,
                              drift=(opaque("eta", 0, Sym("y")),))
    with pytest.raises(ValueError, match="free function"):
        simulate(sys, _cfg())


def test_simulate_rejects_wrong_x0_width(linear2d):
    with pytest.raises(ValueError, match="x0 has 1 entries for 2 states"):
        simulate(linear2d.system, _cfg(x0=(1.0,)))


def test_blowup_paths_are_flagged_not_clamped():
    # dy = y^2 dt explodes in finite time; Euler overflows to non-finite
    # values and the affected paths are excluded, never clipped.
    sys = make_system(["y"], ["w"], ["y^2"], [["0"]])
    ps = simulate(sys, _cfg(paths=3, h=1e-2, x0=(2.0,)))
    assert ps.n_excluded == 3
    assert not ps.valid.any()
    assert not np.isfinite(ps.states[:, -1, 0]).any()


def test_increment_sanity_gate():
    sys = make_system(["x"], ["w"], ["0"], [["1"]])
    big = simulate(sys, _cfg(paths=100, h=1e-3, seed=3)).increment_sanity()
    assert big["active"] and big["ok"]
    assert abs(big["variance"] - 1e-3) <= 1e-4
    small = simulate(sys, _cfg(paths=2, h=0.1, seed=3)).increment_sanity()
    assert not small["active"] and small["ok"]


# ---------------------------------------------------------------------------
# pathwise witness of a reduction


def _identity_reduction():
    # dx = 1 dt + 1 dw is already in integrable form; the identity map
    # makes the comparison exact up to accumulated rounding.
    sys = make_system(["x"], ["w"], ["1"], [["1"]])
    reduced = TransformedSde(maps=(Sym("x"),), drift=(parse("1"),),
                             noise=((parse("1"),),), state_free=True,
                             noise_free=True)
    return sys, reduced


def test_pathwise_identity_sits_at_rounding_level():
    sys, reduced = _identity_reduction()
    rep = pathwise_check(sys, reduced, Sym("x"), _cfg(paths=10))
    assert rep.ok
    assert rep.median_sup_error < 1e-12
    assert rep.n_excluded == 0


def test_pathwise_example1_reduction_tracks_paths(example1):
    res = reduce_deterministic(example1.system, example1.candidates["X1"])
    cfg = _cfg(paths=100, seed=20260819)
    rep = pathwise_check(example1.system, res.transformed,
                         res.straightening.map, cfg)
    assert rep.ok
    assert 0.0 < rep.median_sup_error <= 0.05
    assert rep.paths == 100


def test_pathwise_check_is_scalar_only(linear2d):
    _, reduced = _identity_reduction()
    with pytest.raises(ValueError, match="scalar"):
        pathwise_check(linear2d.system, reduced, Sym("x1"), _cfg(x0=(0., 0.)))


def test_pathwise_rejects_state_dependent_reduced_form():
    sys, _ = _identity_reduction()
    bad = TransformedSde(maps=(Sym("x"),), drift=(Sym("x"),),
                         noise=((parse("1"),),), state_free=False,
                         noise_free=True)
    with pytest.raises(ValueError, match="still involve the state"):
        pathwise_check(sys, bad, Sym("x"), _cfg(paths=2))


# ---------------------------------------------------------------------------
# strong order on nested noise


def test_strong_order_example1_reduction(example1):
    res = reduce_deterministic(example1.system, example1.candidates["X1"])
    est = strong_order_estimate(example1.system, res.transformed,
                                res.straightening.map,
                                _cfg(paths=100, seed=20260819))
    assert not est.skipped
    assert est.err_fine < est.err_coarse
    assert 0.25 <= est.order <= 1.25


def test_strong_order_skips_exact_integration():
    sys, reduced = _identity_reduction()
    est = strong_order_estimate(sys, reduced, Sym("x"), _cfg(paths=10))
    assert est.skipped
    assert est.order is None
    assert est.err_coarse < 1e-12 and est.err_fine < 1e-12


# ---------------------------------------------------------------------------
# epsilon-scaling symmetry witness


def _eps_cfg(**kw):
    base = dict(t0=0.0, t1=0.25, h=1e-5, x0=(1.0,), paths=12, seed=7)
    base.update(kw)
    return SimulationConfig(**base)


def test_scaling_true_symmetry_has_quadratic_slope(example1):
    res = epsilon_symmetry_scaling(example1.system,
                                   example1.candidates["X1"], _eps_cfg())
    assert not res.degenerate
    assert res.exponent >= 1.7
    assert res.defects[0] > res.defects[-1]


def test_scaling_violation_defect_is_exactly_eps_h(control):
    # Translating dx = x dt + dw by eps changes the drift by exactly eps,
    # so every step contributes a defect of eps*h: slope 1, and the
    # defect values themselves are an exact oracle.
    res = epsilon_symmetry_scaling(control.system,
                                   control.candidates["NOT_SYM"], _eps_cfg())
    assert not res.degenerate
    assert abs(res.exponent - 1.0) < 1e-6
    for eps, d in zip(res.epsilons, res.defects):
        assert math.isclose(d, eps * 1e-5, rel_tol=1e-9)
    assert res.exponent <= 1.3


def test_scaling_magnitude_separates_state_free_cases(example3):
    # exp(w - t/2) is a symmetry of dy = dt + y dw but is state-free, so
    # its defect sits at the integration floor eps*O(h^(3/2)) and the
    # slope saturates at 1.  A candidate of the same shape that breaks
    # the noise determining equation forces eps*O(sqrt(h)) instead --
    # larger by roughly 1/h -- and one that breaks only the drift
    # equation lands in between at eps*O(h).  The magnitude reading,
    # not the slope, tells the three apart.
    sys = example3.system
    good = epsilon_symmetry_scaling(sys, example3.candidates["X1"],
                                    _eps_cfg())
    noise_bad = epsilon_symmetry_scaling(
        sys, VectorField((parse("exp(2*w)"),), ZERO), _eps_cfg())
    drift_bad = epsilon_symmetry_scaling(
        sys, VectorField((parse("exp(w)"),), ZERO), _eps_cfg())
    assert not good.degenerate and not noise_bad.degenerate
    assert good.defects[0] < 1e-8
    assert noise_bad.defects[0] / good.defects[0] > 1e3
    assert noise_bad.defects[0] > drift_bad.defects[0] > good.defects[0]


def test_scaling_zero_candidate_is_degenerate(example1):
    res = epsilon_symmetry_scaling(example1.system,
                                   VectorField((ZERO,), ZERO),
                                   _eps_cfg(t1=0.01, paths=2))
    assert res.degenerate
    assert res.exponent is None
    assert all(d <= 1e-14 for d in res.defects)


def test_scaling_rejects_tau_and_free_functions(example1):
    with pytest.raises(ValueError, match="simple candidates"):
        epsilon_symmetry_scaling(example1.system,
                                 VectorField((ZERO,), Sym("t")),
                                 _eps_cfg(t1=0.01, paths=1))
    with pytest.raises(ValueError, match="free function"):
        epsilon_symmetry_scaling(
            example1.system,
            VectorField((opaque("eta", 0, Sym("y")),), ZERO),
            _eps_cfg(t1=0.01, paths=1))


# ---------------------------------------------------------------------------
# scalar helpers


def test_finite_difference_matches_symbolic_derivative():
    e = parse("exp(sin(y)) + y^3")
    point = {"y": 0.7}
    fd = finite_difference(e, "y", point)
    sym = evaluate(differentiate(e, "y"), EvalPoint(point))
    assert abs(fd - sym) < 1e-6


def test_export_csv_layout(example1):
    ps = simulate(example1.system, _cfg(paths=2, h=0.1))
    buf = io.StringIO()
    export_csv(ps, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,path,y,w"
    assert len(lines) == 1 + 2 * 11
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and first[1] == "0"
    assert float(first[2]) == 1.0   # x0
    assert float(first[3]) == 0.0   # w(t0)
    # every row parses as (float, int, float, float)
    for row in lines[1:]:
        t, p, y, w = row.split(",")
        float(t); int(p); float(y); float(w)


def test_export_csv_accepts_path(tmp_path, example1):
    ps = simulate(example1.system, _cfg(paths=1, h=0.25))
    target = tmp_path / "paths.csv"
    export_csv(ps, str(target))
    content = target.read_text().strip().split("\n")
    assert content[0] == "t,path,y,w"
    assert len(content) == 1 + 5


def test_export_csv_matches_value_by_value_rows():
    # two states, two noises; path 1 leaves the domain and carries nan,
    # and a few special values check that every cell is written as %.17g
    sys = make_system(["x", "z"], ["u", "v"], ["x", "-z/2"],
                      [["1", "x"], ["z", "1/3"]])
    ps = simulate(sys, _cfg(paths=3, h=0.125, x0=(1.0, -2.0)))
    ps.states[1, 3:, 0] = np.nan
    ps.valid[1] = False
    ps.states[2, 1, :] = (-0.0, np.inf)
    ps.states[2, 2, :] = (5e-324, -np.inf)
    buf = io.StringIO()
    export_csv(ps, buf)

    w = ps.wiener
    expected = ["t,path,x,z,u,v"]
    for p in range(ps.paths):
        for g in range(len(ps.times)):
            cells = [ps.times[g], *ps.states[p, g], *w[p, g]]
            expected.append(",".join(
                [f"{cells[0]:.17g}", str(p)]
                + [f"{x:.17g}" for x in cells[1:]]))
    assert buf.getvalue() == "\n".join(expected) + "\n"
