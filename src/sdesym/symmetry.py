"""Determining equations and structure checks for candidate symmetries.

For a simple candidate X = xi^i(x, t, w) d/dx^i acting on a system with
drift f and diffusion sigma, the residuals below vanish identically exactly
when X generates a Lie point symmetry:

Ito form:
    R1^i   = xi^i_t + f^j xi^i_{x^j} - xi^j f^i_{x^j} + 1/2 Delta xi^i
    R2^i_k = xi^i_{w^k} + sigma^j_k xi^i_{x^j} - xi^j (sigma^i_k)_{x^j}

Stratonovich form: the same R2, and R1 without the Delta term (drift b):
    R1^i   = xi^i_t + b^j xi^i_{x^j} - xi^j b^i_{x^j}

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
from .calculus import ito_laplacian, drift_correction, _require

__all__ = [
    "SymmetryReport", "CompatibilityData", "SolvabilityResult",
    "NonSimpleCandidate", "residual_ito", "residual_stratonovich",
    "residual_associated_stratonovich", "compatibility_check",
    "tau_condition", "commutator", "solvable_check", "orbit_rank",
    "orbit_ranks",
]

_HALF = Num(Fraction(1, 2))


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


def _report(route, cls, drift_res, noise_res, domain, n_points) -> SymmetryReport:
    # multiplied out once, a residual of a true symmetry mostly collapses
    # to the literal zero, which needs no sampling and prints as 0
    drift_res = tuple(map(expand_powers, drift_res))
    noise_res = tuple(tuple(map(expand_powers, row)) for row in noise_res)

    def check(r):
        return vanishes_on_domain(r, domain, n_points=n_points)
    drift = [check(r) for r in drift_res]
    noise = [[check(r) for r in row] for row in noise_res]
    every = drift + [c for row in noise for c in row]
    return SymmetryReport(route, cls, drift_res, noise_res,
                          tuple(ok for ok, _ in drift),
                          tuple(tuple(ok for ok, _ in row) for row in noise),
                          max((w for _, w in every), default=0.0), n_points)


def _diffusion_residuals(sys: SdeSystem, v: VectorField):
    states, noises, sg = sys.states, sys.noises, sys.diffusion
    rows = []
    for i in range(sys.n):
        row = []
        for k, wk in enumerate(noises):
            r = add(
                differentiate(v.xi[i], wk),
                *[mul(sg[j][k], differentiate(v.xi[i], xj))
                  for j, xj in enumerate(states)],
                *[mul(-1, v.xi[j], differentiate(sg[i][k], xj))
                  for j, xj in enumerate(states)])
            row.append(r)
        rows.append(tuple(row))
    return tuple(rows)


def _drift_residuals(sys: SdeSystem, v: VectorField, drift, laplacian: bool):
    states = sys.states
    out = []
    for i in range(sys.n):
        terms = [differentiate(v.xi[i], sys.time)]
        for j, xj in enumerate(states):
            terms.append(mul(drift[j], differentiate(v.xi[i], xj)))
            terms.append(mul(-1, v.xi[j], differentiate(drift[i], xj)))
        if laplacian:
            terms.append(mul(_HALF, ito_laplacian(v.xi[i], sys)))
        out.append(add(*terms))
    return tuple(out)


def residual_ito(sys: SdeSystem, v: VectorField, domain: Domain = None,
                 n_points: int = 200) -> SymmetryReport:
    """Determining-equation residuals for a simple candidate, Ito form."""
    _require(sys, ITO, "residual_ito")
    cls = _check_simple(v)
    domain = domain or sys.domain
    drift_res = _drift_residuals(sys, v, sys.drift, laplacian=True)
    noise_res = _diffusion_residuals(sys, v)
    return _report("ito", cls, drift_res, noise_res, domain, n_points)


def residual_stratonovich(sys: SdeSystem, v: VectorField, domain: Domain = None,
                          n_points: int = 200) -> SymmetryReport:
    """Determining-equation residuals, Stratonovich form (no Laplacian)."""
    _require(sys, STRATONOVICH, "residual_stratonovich")
    cls = _check_simple(v)
    domain = domain or sys.domain
    drift_res = _drift_residuals(sys, v, sys.drift, laplacian=False)
    noise_res = _diffusion_residuals(sys, v)
    return _report("stratonovich", cls, drift_res, noise_res, domain, n_points)


def residual_associated_stratonovich(sys: SdeSystem, v: VectorField,
                                     domain: Domain = None,
                                     n_points: int = 200) -> SymmetryReport:
    """Residuals of the Stratonovich equation associated to an Ito system.

    Subtracting the drift correction rho from the Ito drift and using the
    first-order (no Laplacian) drift equation must produce the same verdict
    as `residual_ito`; the two routes cross-validate each other.
    """
    _require(sys, ITO, "residual_associated_stratonovich")
    cls = _check_simple(v)
    domain = domain or sys.domain
    rho = drift_correction(sys)
    b = tuple(add(f, mul(-1, r)) for f, r in zip(sys.drift, rho))
    drift_res = _drift_residuals(sys, v, b, laplacian=False)
    noise_res = _diffusion_residuals(sys, v)
    return _report("associated-stratonovich", cls, drift_res, noise_res,
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

    With A(tau) = tau_t + f^j tau_{x^j} + 1/2 (sigma sigma^T)^{jk} tau_{x^j x^k},
    the i-th residual is sum_{k,p} sigma^k_p sigma^i_p d(A tau)/dx^k.  For
    tau depending on t alone the residuals vanish identically; the operator
    accepts arbitrary tau expressions so the condition itself is testable.
    """
    _require(sys, ITO, "tau_condition")
    states, sg = sys.states, sys.diffusion
    a_terms = [differentiate(tau, sys.time)]
    for j, xj in enumerate(states):
        a_terms.append(mul(sys.drift[j], differentiate(tau, xj)))
    for j, xj in enumerate(states):
        for k, xk in enumerate(states):
            cov = add(*[mul(sg[j][p], sg[k][p]) for p in range(sys.m)])
            if is_zero(cov):
                continue
            a_terms.append(mul(_HALF, cov,
                               differentiate(differentiate(tau, xj), xk)))
    a_tau = add(*a_terms)

    out = []
    for i in range(sys.n):
        parts = []
        for k, xk in enumerate(states):
            for p in range(sys.m):
                parts.append(mul(sg[k][p], sg[i][p],
                                 differentiate(a_tau, xk)))
        out.append(add(*parts) if parts else ZERO)
    return tuple(out)


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
