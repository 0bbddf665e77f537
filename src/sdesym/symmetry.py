"""Determining equations and structure checks for candidate symmetries.

For a simple candidate X = xi^i(x, t, w) d/dx^i acting on a system with
drift f and diffusion sigma, the residuals below vanish identically exactly
when X generates a Lie point symmetry:

    R1^i   = (dt part of d xi^i) - xi^j f^i_{x^j}
    R2^i_k = (dw^k part of d xi^i) - xi^j (sigma^i_k)_{x^j}

with d the differential along solutions (`calculus.differential`): the dt
part is xi^i_t + f^j xi^i_{x^j} + 1/2 Delta xi^i in the Ito form and loses
the Delta term in the Stratonovich form; the dw^k part is
xi^i_{w^k} + sigma^j_k xi^i_{x^j} in both.

Every residual gets both a zero-verdict (randomized equivalence) and a
sampled max-magnitude, read off one sampling pass, so reports carry
evidence, not just booleans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import (
    Expr, ZERO, Num, EvalPoint, Domain, EvaluationError, add, mul, pow_,
    differentiate, evaluate, expand_powers, is_zero, sample_points,
    vanishes_on_domain, _evaluator,
)
from .model import SdeSystem, VectorField, Classification, classify, ITO, STRATONOVICH
from .calculus import differential, ito_to_stratonovich, _require

__all__ = [
    "SymmetryReport", "CompatibilityData", "SolvabilityResult",
    "NonSimpleCandidate", "residual_ito", "residual_stratonovich",
    "residual_associated_stratonovich", "compatibility_check",
    "tau_condition", "commutator", "solvable_check", "orbit_rank",
    "orbit_ranks",
]


class NonSimpleCandidate(ValueError):
    """Raised when an operation needs a candidate with no time component."""


@dataclass
class SymmetryReport:
    route: str                    # which determining equations were used
    classification: Classification
    drift_residuals: tuple        # R1, one per state
    diffusion_residuals: tuple    # R2, rows per state, columns per noise
    drift_ok: tuple
    diffusion_ok: tuple
    max_abs_residual: float
    n_points: int

    @property
    def verified(self) -> bool:
        return all(self.drift_ok) and all(all(r) for r in self.diffusion_ok)


def _check_simple(v: VectorField):
    c = classify(v)
    if not c.simple:
        raise NonSimpleCandidate(
            "determining equations here apply to simple candidates "
            "(tau = 0); use tau_condition for the time component")
    return c


def _residuals(sys: SdeSystem, v: VectorField):
    """(R1, R2): the differential of each xi^i along solutions, less xi's
    action xi^j d/dx^j on the drift and on each noise coefficient."""
    def residual(part, coeff):
        # multiplied out once, a residual of a true symmetry mostly
        # collapses to the literal zero, which needs no sampling and
        # prints as 0
        return expand_powers(add(part, *[
            mul(-1, v.xi[j], differentiate(coeff, xj))
            for j, xj in enumerate(sys.states)]))
    drift, noise = [], []
    for i, xi in enumerate(v.xi):
        d, s = differential(xi, sys)
        drift.append(residual(d, sys.drift[i]))
        noise.append(tuple(residual(s[k], sys.diffusion[i][k])
                           for k in range(sys.m)))
    return tuple(drift), tuple(noise)


def _report(route, sys, v, domain, n_points) -> SymmetryReport:
    cls = _check_simple(v)
    drift_res, noise_res = _residuals(sys, v)

    def check(r):
        return vanishes_on_domain(r, domain or sys.domain, n_points=n_points)
    drift = [check(r) for r in drift_res]
    noise = [[check(r) for r in row] for row in noise_res]
    every = drift + [c for row in noise for c in row]
    return SymmetryReport(route, cls, drift_res, noise_res,
                          tuple(ok for ok, _ in drift),
                          tuple(tuple(ok for ok, _ in row) for row in noise),
                          max((w for _, w in every), default=0.0), n_points)


def residual_ito(sys: SdeSystem, v: VectorField, domain: Domain = None,
                 n_points: int = 200) -> SymmetryReport:
    """Determining-equation residuals for a simple candidate, Ito form."""
    _require(sys, ITO, "residual_ito")
    return _report("ito", sys, v, domain, n_points)


def residual_stratonovich(sys: SdeSystem, v: VectorField, domain: Domain = None,
                          n_points: int = 200) -> SymmetryReport:
    """Determining-equation residuals, Stratonovich form (no Laplacian)."""
    _require(sys, STRATONOVICH, "residual_stratonovich")
    return _report("stratonovich", sys, v, domain, n_points)


def residual_associated_stratonovich(sys: SdeSystem, v: VectorField,
                                     domain: Domain = None,
                                     n_points: int = 200) -> SymmetryReport:
    """Residuals of the Stratonovich equation associated to an Ito system.

    The Stratonovich form of the system (drift less the correction rho)
    with the first-order drift equation must produce the same verdict as
    `residual_ito`; the two routes cross-validate each other.
    """
    _require(sys, ITO, "residual_associated_stratonovich")
    return _report("associated-stratonovich", ito_to_stratonovich(sys), v,
                   domain, n_points)


# ---------------------------------------------------------------------------
# compatibility condition (scalar, random generators)

@dataclass
class CompatibilityData:
    """gamma = d/dw (1/phi) and the residual of its consistency equation

        S gamma_t + S_t gamma - F gamma_w - 1/2 (S gamma_ww + S^2 gamma_yw)

    which must vanish for phi to straighten a random symmetry globally."""
    gamma: Expr
    residual: Expr
    satisfied: bool
    max_abs_residual: float

    def residual_value(self, point: dict) -> float:
        return evaluate(self.residual, EvalPoint(point))


def compatibility_check(sys: SdeSystem, phi: Expr, domain: Domain = None,
                        n_points: int = 200) -> CompatibilityData:
    _require(sys, ITO, "compatibility_check")
    if sys.n != 1 or sys.m != 1:
        raise ValueError("the compatibility condition is a scalar statement "
                         "(one state, one noise)")
    domain = domain or sys.domain
    y, w, t = sys.states[0], sys.noises[0], sys.time
    F, S = sys.drift[0], sys.diffusion[0][0]
    gamma = differentiate(pow_(phi, Num(Fraction(-1))), w)
    d = differentiate
    residual = expand_powers(add(
        mul(S, d(gamma, t)),
        mul(d(S, t), gamma),
        mul(-1, F, d(gamma, w)),
        mul(Num(Fraction(-1, 2)), S, d(d(gamma, w), w)),
        mul(Num(Fraction(-1, 2)), S, S, d(d(gamma, y), w))))
    ok, worst = vanishes_on_domain(residual, domain, n_points=n_points)
    return CompatibilityData(gamma, residual, ok, worst)


# ---------------------------------------------------------------------------
# time-component condition

def tau_condition(sys: SdeSystem, tau: Expr) -> tuple:
    """Residuals that must vanish for a time change tau to be admissible.

    With A(tau) the drift part of the Ito differential of tau (for tau
    free of the noises, tau_t + f^j tau_{x^j} + 1/2 (sigma sigma^T)^{jk}
    tau_{x^j x^k}), the i-th residual is
    sum_{k,p} sigma^k_p sigma^i_p d(A tau)/dx^k.  For tau depending on t
    alone the residuals vanish identically; the operator accepts arbitrary
    tau expressions so the condition itself is testable.
    """
    _require(sys, ITO, "tau_condition")
    sg = sys.diffusion
    a_tau = differential(tau, sys)[0]
    da = [differentiate(a_tau, xk) for xk in sys.states]
    return tuple(
        add(*[mul(sg[k][p], sg[i][p], da[k])
              for k in range(sys.n) for p in range(sys.m)])
        for i in range(sys.n))


# ---------------------------------------------------------------------------
# algebra structure

def commutator(a: VectorField, b: VectorField) -> VectorField:
    """Lie bracket [a, b]^i = a^j d(b^i)/dx^j - b^j d(a^i)/dx^j."""
    if not (is_zero(a.tau) and is_zero(b.tau)):
        raise NonSimpleCandidate("commutator is defined for simple fields")
    states = a.states or b.states
    if not states:
        raise ValueError("vector fields must carry their state names")
    xi = []
    for i in range(len(a.xi)):
        terms = []
        for j, xj in enumerate(states):
            terms.append(mul(a.xi[j], differentiate(b.xi[i], xj)))
            terms.append(mul(-1, b.xi[j], differentiate(a.xi[i], xj)))
        xi.append(add(*terms))
    return VectorField(tuple(xi), ZERO, states, a.noises or b.noises)


@dataclass
class SolvabilityResult:
    solvable: bool
    series_dims: tuple      # numeric dimension of each derived subalgebra
    series: tuple           # spanning fields per level


_RANK_TOL = 1e-8


def _independent_subset(fields, points):
    """Greedy numeric choice of fields spanning the same sampled space."""
    keep = []
    rows = []
    rank = 0
    for f in fields:
        # f's components at each point, point by point in one row
        row = _evaluator(f.xi)(points).T.ravel()
        if not np.all(np.isfinite(row)):
            raise ValueError("field evaluation produced non-finite values")
        if np.linalg.norm(row) <= _RANK_TOL:
            continue
        r = np.linalg.matrix_rank(np.vstack(rows + [row]), tol=_RANK_TOL)
        if r > rank:
            keep.append(f)
            rows.append(row)
            rank = r
    return keep


def solvable_check(generators, domain: Domain = None) -> SolvabilityResult:
    """Derived-series test for solvability of the spanned algebra.

    Each level's span is represented numerically by values at 25 sampled
    points; the series must reach zero within len(generators) steps.
    """
    gens = list(generators)
    if not gens:
        return SolvabilityResult(True, (0,), ((),))
    names = set()
    for g in gens:
        names |= set(g.states) | set(g.noises) | {"t"}
    domain = domain or Domain()
    points = sample_points(sorted(names), domain, n_points=25)

    level = _independent_subset(gens, points)
    series = [tuple(level)]
    dims = [len(level)]
    for _ in range(len(gens) + 1):
        if not level:
            break
        brackets = []
        for i in range(len(level)):
            for j in range(i + 1, len(level)):
                brackets.append(commutator(level[i], level[j]))
        level = _independent_subset(brackets, points)
        series.append(tuple(level))
        dims.append(len(level))
        if dims[-1] >= dims[-2] and dims[-1] > 0:
            return SolvabilityResult(False, tuple(dims), tuple(series))
    return SolvabilityResult(len(level) == 0, tuple(dims), tuple(series))


def orbit_rank(generators, point: dict) -> int:
    """Rank of the matrix of generator components at one point."""
    return orbit_ranks(generators, [point])[0]


def orbit_ranks(generators, points) -> list:
    """`orbit_rank` at each point, from one evaluation per generator."""
    if not generators:
        return [0] * len(points)
    mats = np.stack([_evaluator(g.xi)(points).T for g in generators], axis=1)
    bad = ~np.isfinite(mats).all(axis=(1, 2))
    if bad.any():
        raise EvaluationError("generator components are not finite at "
                              f"{points[int(np.argmax(bad))]}")
    return [int(r) for r in np.linalg.matrix_rank(mats, tol=_RANK_TOL)]
