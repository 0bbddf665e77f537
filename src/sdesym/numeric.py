"""Path simulation and numerical witnesses for the symbolic claims.

Everything symbolic in this package is double-checked by sampling; this
module supplies the sampling side for whole trajectories: Euler-Maruyama
and Heun path generation with reproducible per-path noise streams,
pathwise comparison of a reduced equation against the original through
the straightening map, strong-order estimation on nested noise, and the
epsilon-scaling test that detects symmetry violations directly on paths.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .expr import (
    Expr, ZERO, EvaluationError, _Emitter, _evaluator, compile_expr,
    is_zero, opaque_functions, add, mul, differentiate, to_str,
)
from .model import SdeSystem, VectorField
from .calculus import as_ito, InterpretationError, TransformedSde

__all__ = [
    "EULER_MARUYAMA", "STRATONOVICH_HEUN",
    "SimulationConfig", "PathSet", "PathwiseReport", "OrderEstimate",
    "ScalingResult", "compile_expr", "simulate", "pathwise_check",
    "strong_order_estimate", "epsilon_symmetry_scaling",
    "finite_difference", "export_csv",
]

EULER_MARUYAMA = "EulerMaruyama"
STRATONOVICH_HEUN = "StratonovichHeun"


@dataclass(frozen=True)
class SimulationConfig:
    t0: float = 0.0
    t1: float = 1.0
    h: float = 1e-3
    x0: tuple = (1.0,)
    paths: int = 100
    seed: int = 0
    scheme: str = None   # derived from the interpretation when None

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("h must be positive")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")
        if self.paths < 1:
            raise ValueError("need at least one path")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")
        if not all(map(math.isfinite, (self.t0, self.t1, self.h))):
            raise ValueError("t0, t1 and h must be finite")
        span = self.t1 - self.t0
        n = round(span / self.h)
        if n < 1 or abs(n * self.h - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(
                f"(t1 - t0)/h = {span / self.h} is not an integer step count")
        if self.scheme not in (None, EULER_MARUYAMA, STRATONOVICH_HEUN):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def steps(self) -> int:
        return round((self.t1 - self.t0) / self.h)


@dataclass
class PathSet:
    times: np.ndarray        # (steps+1,)
    states: np.ndarray       # (paths, steps+1, n)
    increments: np.ndarray   # (paths, steps, m) raw Wiener increments
    valid: np.ndarray        # (paths,) bool; False = left validity domain
    seed: int
    config: SimulationConfig
    state_names: tuple
    noise_names: tuple

    @property
    def paths(self) -> int:
        return self.states.shape[0]

    @property
    def steps(self) -> int:
        return self.increments.shape[1]

    @property
    def n_excluded(self) -> int:
        return int((~self.valid).sum())

    @property
    def wiener(self) -> np.ndarray:
        """Cumulated noise w(t) on the grid, zero at t0: (paths, steps+1, m)."""
        m = self.increments.shape[2]
        w = np.zeros((self.paths, self.steps + 1, m))
        np.cumsum(self.increments, axis=1, out=w[:, 1:, :])
        return w

    def increment_sanity(self) -> dict:
        """Moment check on the stored increments.

        The per-step mean should sit within 5 standard errors of 0 and
        the variance within 10% of h.  Small ensembles (fewer than 1000
        increments) pass vacuously: the bounds are not sharp there.
        """
        total = self.paths * self.steps * self.increments.shape[2]
        h = self.config.h
        mean = float(self.increments.mean())
        var = float(self.increments.var())
        gated = total >= 1000
        mean_bound = 5.0 * math.sqrt(h / max(total, 1))
        ok = (not gated) or (abs(mean) <= mean_bound
                             and abs(var - h) <= 0.1 * h)
        return {"mean": mean, "mean_bound": mean_bound, "variance": var,
                "h": h, "active": gated, "ok": ok}


def _draw_increments(cfg: SimulationConfig, m: int) -> np.ndarray:
    """One Philox stream per (seed, path): adding paths never reshuffles
    the existing ones.  A single generator is rekeyed to (seed, p) with
    its counter at zero for each path, which draws exactly what a fresh
    ``Generator(Philox(key=[seed, p]))`` would."""
    out = np.empty((cfg.paths, cfg.steps, m))
    root = math.sqrt(cfg.h)
    key = np.array([cfg.seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    counter = np.zeros(4, dtype=np.uint64)
    for p in range(cfg.paths):
        key[1] = p
        state.update(state={"counter": counter, "key": key},
                     buffer_pos=4, has_uint32=0, uinteger=0)
        bitgen.state = state
        row = out[p]
        rng.standard_normal(out=row)
        row *= root
    return out


def _emit_coefficients(em: _Emitter, sys: SdeSystem):
    drift = [em.value(e) for e in sys.drift]
    diff = [[em.value(e) for e in row] for row in sys.diffusion]
    return drift, diff


def _step_kernel(sys: SdeSystem, scheme: str):
    """Generate kernel(states, increments, times, h), which runs every
    step of the scheme and writes states[:, s + 1, i] in place.

    The arithmetic is that of the reference step, term for term:
    step = f*h, then step + g_k*dw_k for each noise, then x + step; Heun
    averages predictor and corrector as 0.5*(a + b) before scaling.
    """
    n, m = sys.n, sys.m
    em = _Emitter()
    xs = [f"x{i}" for i in range(n)]
    em.line("t = times[s]")
    for i, x in enumerate(xs):
        em.line(f"{x} = states[:, s, {i}]")
    for k in range(m):
        em.line(f"dw{k} = increments[:, s, {k}]")
    em.names = {sys.time: "t", **dict(zip(sys.states, xs))}
    f, g = _emit_coefficients(em, sys)

    def update(fs, gs, store):
        # fs and each gs[k] hold a coefficient at one point (Euler) or at
        # the two points Heun averages
        def avg(c):
            return c[0] if len(c) == 1 else f"0.5 * ({c[0]} + {c[1]})"
        em.line(f"step = {avg(fs)} * h", *fs)
        for k in range(m):
            em.line(f"step = step + {avg(gs[k])} * dw{k}", *gs[k])
        em.line(store)

    prologue = ()
    if scheme == EULER_MARUYAMA:
        for i in range(n):
            update((f[i],), [(gk,) for gk in g[i]],
                   f"states[:, s + 1, {i}] = x{i} + step")
    else:
        # the predictor lives in one (paths, n) buffer, as a row of the
        # state array would, and is overwritten every step
        preds = [f"p{i}" for i in range(n)]
        prologue = [f"pred = _empty((states.shape[0], {n}))"]
        prologue += [f"{p} = pred[:, {i}]" for i, p in enumerate(preds)]
        for i in range(n):
            update((f[i],), [(gk,) for gk in g[i]],
                   f"_add(x{i}, step, out=p{i})")
        em.line("tn = times[s + 1]")
        em.names = {sys.time: "tn", **dict(zip(sys.states, preds))}
        f2, g2 = _emit_coefficients(em, sys)
        for i in range(n):
            update((f[i], f2[i]), list(zip(g[i], g2[i])),
                   f"states[:, s + 1, {i}] = x{i} + step")
    return em.build("kernel", "states, increments, times, h", prologue,
                    loop="for s in range(increments.shape[1]):")


def _from_increments(sys: SdeSystem, cfg: SimulationConfig,
                     increments: np.ndarray, scheme: str) -> PathSet:
    kernel = _step_kernel(sys, scheme)
    paths, steps, _ = increments.shape
    times = cfg.t0 + cfg.h * np.arange(steps + 1)
    states = np.empty((paths, steps + 1, sys.n))
    states[:, 0, :] = np.asarray(cfg.x0, dtype=float)
    with np.errstate(all="ignore"):
        kernel(states, increments, times, cfg.h)
    valid = np.isfinite(states).all(axis=(1, 2))
    return PathSet(times, states, increments, valid, cfg.seed, cfg,
                   sys.states, sys.noises)


def simulate(sys: SdeSystem, cfg: SimulationConfig) -> PathSet:
    """Integrate the system pathwise; deterministic given the seed.

    Ito systems step with Euler-Maruyama, Stratonovich systems with the
    Heun predictor-corrector, so the stored interpretation and the
    scheme's drift convention always agree.  Paths whose coefficients
    leave the validity domain turn non-finite, are flagged invalid, and
    are excluded from downstream statistics -- never clamped.
    """
    for e in list(sys.drift) + [e for row in sys.diffusion for e in row]:
        if opaque_functions(e):
            raise ValueError("system coefficients contain free function "
                             "symbols; instantiate them before simulating")
    if len(cfg.x0) != sys.n:
        raise ValueError(f"x0 has {len(cfg.x0)} entries for {sys.n} states")
    derived = EULER_MARUYAMA if sys.is_ito() else STRATONOVICH_HEUN
    if cfg.scheme is not None and cfg.scheme != derived:
        raise InterpretationError(
            f"scheme {cfg.scheme} does not integrate a "
            f"{sys.interpretation} system; leave scheme unset to derive it")
    increments = _draw_increments(cfg, sys.m)
    return _from_increments(sys, cfg, increments, derived)


# ---------------------------------------------------------------------------
# pathwise witness of a reduction

@dataclass
class PathwiseReport:
    median_sup_error: float
    per_path: np.ndarray
    n_excluded: int
    h: float
    paths: int

    @property
    def ok(self) -> bool:
        return math.isfinite(self.median_sup_error)


def _grid_env(ps: PathSet, time: str) -> tuple:
    """Symbol values on the whole grid and at the step starts."""
    env = {time: ps.times[None, :]}
    for i, name in enumerate(ps.state_names):
        env[name] = ps.states[:, :, i]
    w = ps.wiener
    for k, name in enumerate(ps.noise_names):
        env[name] = w[:, :, k]
    return env, {k: v[:, :-1] for k, v in env.items()}


def _euler_step(f, gs, dw, h, shape):
    """f*h, then + g_k*dw_k for each noise k in turn; gs may be lazy, so
    one coefficient is evaluated at a time."""
    step = np.broadcast_to(f, shape) * h
    for k, g in enumerate(gs):
        step = step + np.broadcast_to(g, shape) * dw[:, :, k]
    return step


def _pathwise_error(ps: PathSet, reduced: TransformedSde, phi: Expr,
                    time: str) -> PathwiseReport:
    if not reduced.state_free:
        raise ValueError("reduced coefficients still involve the state; "
                         "direct integration needs the integrable or "
                         "quadrature form")
    paths, grid = ps.states.shape[0], ps.states.shape[1]
    with np.errstate(all="ignore"):
        env, left = _grid_env(ps, time)
        target = np.broadcast_to(compile_expr(phi)(env), (paths, grid))
        stepsum = _euler_step(
            compile_expr(reduced.drift[0])(left),
            (compile_expr(b)(left) for b in reduced.noise[0]),
            ps.increments, ps.config.h, (paths, grid - 1))

        x = np.empty((paths, grid))
        x[:, 0] = target[:, 0]
        np.cumsum(stepsum, axis=1, out=x[:, 1:])
        x[:, 1:] += target[:, 0:1]

        sup = np.max(np.abs(target - x), axis=1)
    usable = ps.valid & np.isfinite(sup)
    median = float(np.median(sup[usable])) if usable.any() else math.inf
    return PathwiseReport(median, sup, int((~usable).sum()),
                          ps.config.h, paths)


def pathwise_check(original: SdeSystem, reduced: TransformedSde, phi: Expr,
                   cfg: SimulationConfig) -> PathwiseReport:
    """Simulate the original system, push each path through the map, and
    compare against direct integration of the reduced equation on the
    same noise.  Returns the median over paths of the sup-norm gap."""
    original = as_ito(original)
    if original.n != 1:
        raise ValueError("pathwise check compares scalar reductions")
    ps = simulate(original, cfg)
    return _pathwise_error(ps, reduced, phi, original.time)


@dataclass
class OrderEstimate:
    order: float
    err_coarse: float
    err_fine: float
    skipped: bool


def strong_order_estimate(original: SdeSystem, reduced: TransformedSde,
                          phi: Expr, cfg: SimulationConfig) -> OrderEstimate:
    """Pathwise error at h and h/4 on nested noise; order = log4 ratio.

    The coarse increments are exact sums of the fine ones, so both runs
    see the same Brownian path.  When both errors sit at rounding level
    the scheme is exact for this system and the estimate is skipped.
    """
    original = as_ito(original)
    if original.n != 1:
        raise ValueError("order estimation compares scalar reductions")
    fine_cfg = dataclasses.replace(cfg, h=cfg.h / 4)
    fine_inc = _draw_increments(fine_cfg, original.m)
    ps_fine = _from_increments(original, fine_cfg, fine_inc, EULER_MARUYAMA)

    paths, fsteps, m = fine_inc.shape
    coarse_inc = fine_inc.reshape(paths, fsteps // 4, 4, m).sum(axis=2)
    ps_coarse = _from_increments(original, cfg, coarse_inc, EULER_MARUYAMA)

    err_f = _pathwise_error(ps_fine, reduced, phi, original.time)
    err_c = _pathwise_error(ps_coarse, reduced, phi, original.time)
    if err_f.median_sup_error < 1e-12 or err_c.median_sup_error < 1e-12:
        return OrderEstimate(None, err_c.median_sup_error,
                             err_f.median_sup_error, True)
    order = math.log(err_c.median_sup_error / err_f.median_sup_error) / math.log(4.0)
    return OrderEstimate(order, err_c.median_sup_error,
                         err_f.median_sup_error, False)


# ---------------------------------------------------------------------------
# epsilon-scaling symmetry witness

@dataclass
class ScalingResult:
    epsilons: tuple
    defects: tuple
    exponent: float
    degenerate: bool


def epsilon_symmetry_scaling(sys: SdeSystem, v: VectorField,
                             cfg: SimulationConfig,
                             epsilons=(1e-2, 1e-3, 1e-4)) -> ScalingResult:
    """Slide each path along the candidate flow and measure the defect.

    A path is mapped by x -> x + eps*xi and the one-step residual against
    the equation's own coefficients is measured, after subtracting the
    second-order noise term (1/2) eps H_kl (dw_k dw_l - delta_kl h) that
    any map of this form produces at finite h.  What remains scales like
    eps * (first determining residuals) + O(eps^2): slope about 2 on a
    log-log fit for a true symmetry whose xi actually bends with the
    state, about 1 for a violation.  Step size must be small enough that
    the discretization floor stays below the eps term; callers here use
    h = 1e-5.

    Two readings need the defect magnitude, not just the slope.  A
    state-free xi on affine coefficients produces no eps^2 term at all,
    so a true symmetry of that shape also fits slope 1 -- but its defect
    sits at the discretization floor eps*O(h^(3/2)), while a violated
    determining equation forces eps*|R2|*O(sqrt(h)), larger by 1/h.
    Compare defects[0] against those scales when the slope alone is
    ambiguous.
    """
    sys = as_ito(sys)
    if not is_zero(v.tau):
        raise ValueError("epsilon scaling handles simple candidates only")
    for xi in v.xi:
        if opaque_functions(xi):
            raise ValueError("instantiate free function symbols in the "
                             "candidate before the scaling test")

    ps = simulate(sys, cfg)
    n, m = sys.n, sys.m
    h = cfg.h
    paths, grid = ps.states.shape[0], ps.states.shape[1]

    def _second(i, k, l):
        terms = [ZERO]
        xi = v.xi[i]
        for j, xj in enumerate(sys.states):
            for p, xp in enumerate(sys.states):
                terms.append(mul(sys.diffusion[j][k], sys.diffusion[p][l],
                                 differentiate(differentiate(xi, xj), xp)))
        for j, xj in enumerate(sys.states):
            terms.append(mul(sys.diffusion[j][k],
                             differentiate(differentiate(xi, xj),
                                           sys.noises[l])))
            terms.append(mul(sys.diffusion[j][l],
                             differentiate(differentiate(xi, xj),
                                           sys.noises[k])))
        terms.append(differentiate(differentiate(xi, sys.noises[k]),
                                   sys.noises[l]))
        return add(*terms)

    with np.errstate(all="ignore"):
        env, left = _grid_env(ps, sys.time)
        xi_grid = np.stack([np.broadcast_to(compile_expr(xi)(env),
                                            (paths, grid)) for xi in v.xi],
                           axis=2)
        H = {}
        for i in range(n):
            for k in range(m):
                for l in range(m):
                    e = _second(i, k, l)
                    H[i, k, l] = (None if is_zero(e) else np.broadcast_to(
                        compile_expr(e)(left), (paths, grid - 1)))

        dw = ps.increments
        drift_fns = [compile_expr(e) for e in sys.drift]
        diff_fns = [[compile_expr(e) for e in row] for row in sys.diffusion]

        defects = []
        for eps in epsilons:
            mapped = ps.states + eps * xi_grid
            menv = dict(left)
            for i, name in enumerate(sys.states):
                menv[name] = mapped[:, :-1, i]
            total = np.zeros((paths, grid - 1))
            for i in range(n):
                model = _euler_step(drift_fns[i](menv),
                                    (g(menv) for g in diff_fns[i]),
                                    dw, h, (paths, grid - 1))
                for k in range(m):
                    for l in range(m):
                        if H[i, k, l] is None:
                            continue
                        quad = dw[:, :, k] * dw[:, :, l]
                        if k == l:
                            quad = quad - h
                        model = model + 0.5 * eps * H[i, k, l] * quad
                d = mapped[:, 1:, i] - mapped[:, :-1, i] - model
                total += np.abs(d)
            per_path = total.mean(axis=1)
            usable = ps.valid & np.isfinite(per_path)
            defects.append(float(np.median(per_path[usable]))
                           if usable.any() else math.inf)

    if all(d <= 1e-14 for d in defects):
        return ScalingResult(tuple(epsilons), tuple(defects), None, True)
    slope = float(np.polyfit(np.log(np.asarray(epsilons)),
                             np.log(np.asarray(defects)), 1)[0])
    return ScalingResult(tuple(epsilons), tuple(defects), slope, False)


# ---------------------------------------------------------------------------
# scalar helpers

def finite_difference(e: Expr, s: str, point: dict, step: float = 1e-6,
                      functions=None) -> float:
    """Central difference of e with respect to symbol s at a point."""
    hi = dict(point); hi[s] = point[s] + step
    lo = dict(point); lo[s] = point[s] - step
    fhi, flo = _evaluator((e,))([hi, lo], functions)[0]
    if not (math.isfinite(fhi) and math.isfinite(flo)):
        raise EvaluationError(f"{to_str(e)} is not finite near {point}")
    return float((fhi - flo) / (2.0 * step))


def export_csv(ps: PathSet, fileobj) -> None:
    """Rows are (t, path, states..., cumulated noise...), one per grid
    point per path, excluded paths included and left as nan.  Each path
    is written as one block through a %.17g row template."""
    if isinstance(fileobj, str):
        with open(fileobj, "w") as f:
            return export_csv(ps, f)
    header = ["t", "path", *ps.state_names, *ps.noise_names]
    fileobj.write(",".join(header) + "\n")
    w = ps.wiener
    grid = len(ps.times)
    rows = (",".join(["%.17g"] * len(header)) + "\n") * grid
    for p in range(ps.paths):
        block = np.column_stack([ps.times, np.full(grid, p), ps.states[p],
                                 w[p]])
        fileobj.write(rows % tuple(block.ravel().tolist()))
