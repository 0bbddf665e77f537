"""Stochastic calculus on expressions: the differential of a function along
solutions, the second-order operator entering Ito's formula (here called
the Ito Laplacian), drift corrections between the Ito and Stratonovich
forms, and changes of variables.

Conventions for a system dx^i = f^i dt + sigma^i_k dw^k with states x^j
and noises w^k, acting on a scalar u(x, t, w):

    Delta u = (sigma sigma^T)^{jk} u_{x^j x^k}
            + 2 sigma^j_k u_{x^j w^k}
            + sum_k u_{w^k w^k}

(summation over repeated indices).  The differential of u(x, t, w) along
solutions is then

    du = (u_t + f^j u_{x^j} + 1/2 Delta u) dt + (sigma^j_k u_{x^j} + u_{w^k}) dw^k

by Ito's formula for an Ito system, and the same without the Delta term
(the ordinary chain rule) for a Stratonovich one.  `differential` is the
one place this is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Expr, ZERO, Num, Sym, add, mul, differentiate, substitute, contains,
    free_symbols, is_zero, expand_powers, equivalent,
)
from .model import SdeSystem, VectorField, ITO, STRATONOVICH

__all__ = [
    "ito_laplacian", "drift_correction", "ito_to_stratonovich",
    "stratonovich_to_ito", "differential", "ito_change_of_variables",
    "change_of_variables", "infinitesimal_map_residuals", "TransformedSde",
    "InterpretationError", "pin_independent",
]

_HALF = Num(Fraction(1, 2))


class InterpretationError(ValueError):
    """Operation applied to a system in the wrong interpretation."""


def _require(sys: SdeSystem, interpretation: str, what: str):
    if sys.interpretation != interpretation:
        raise InterpretationError(
            f"{what} expects a {interpretation} system, got {sys.interpretation}")


def ito_laplacian(u: Expr, sys: SdeSystem) -> Expr:
    """The second-order operator of Ito's formula applied to u(x, t, w)."""
    _require(sys, ITO, "ito_laplacian")
    return _laplacian(u, [differentiate(u, s) for s in sys.states], sys)


def _laplacian(u: Expr, du, sys: SdeSystem) -> Expr:
    """Delta u, given the first state derivatives du of u."""
    states, noises, sg = sys.states, sys.noises, sys.diffusion
    terms = []
    for j in range(sys.n):
        for k, xk in enumerate(states):
            a = add(*[mul(sg[j][p], sg[k][p]) for p in range(sys.m)])
            if is_zero(a):
                continue
            terms.append(mul(a, differentiate(du[j], xk)))
    for j in range(sys.n):
        for k, wk in enumerate(noises):
            if is_zero(sg[j][k]):
                continue
            terms.append(mul(2, sg[j][k], differentiate(du[j], wk)))
    for wk in noises:
        terms.append(differentiate(differentiate(u, wk), wk))
    return add(*terms)


def drift_correction(sys: SdeSystem) -> tuple:
    """rho^i = 1/2 sum_{k,j} d(sigma^i_j)/dx^k * sigma^k_j.

    The Ito drift equals the Stratonovich drift plus this correction when
    both forms share the diffusion matrix.
    """
    states, sg = sys.states, sys.diffusion
    out = []
    for i in range(sys.n):
        parts = []
        for j in range(sys.m):
            for k, xk in enumerate(states):
                parts.append(mul(differentiate(sg[i][j], xk), sg[k][j]))
        out.append(mul(_HALF, add(*parts)) if parts else ZERO)
    return tuple(out)


def ito_to_stratonovich(sys: SdeSystem) -> SdeSystem:
    _require(sys, ITO, "ito_to_stratonovich")
    rho = drift_correction(sys)
    drift = tuple(add(f, mul(-1, r)) for f, r in zip(sys.drift, rho))
    return sys.with_coefficients(drift, sys.diffusion, STRATONOVICH)


def stratonovich_to_ito(sys: SdeSystem) -> SdeSystem:
    _require(sys, STRATONOVICH, "stratonovich_to_ito")
    rho = drift_correction(sys)
    drift = tuple(add(b, r) for b, r in zip(sys.drift, rho))
    return sys.with_coefficients(drift, sys.diffusion, ITO)


def as_ito(sys: SdeSystem) -> SdeSystem:
    return sys if sys.is_ito() else stratonovich_to_ito(sys)


def differential(u: Expr, sys: SdeSystem):
    """(drift part, noise parts) of du along solutions: Ito's formula for
    an Ito system, the ordinary chain rule for a Stratonovich one."""
    du = [differentiate(u, x) for x in sys.states]
    drift = [differentiate(u, sys.time),
             *[mul(f, d) for f, d in zip(sys.drift, du)]]
    if sys.is_ito():
        drift.append(mul(_HALF, _laplacian(u, du, sys)))
    noise = tuple(
        add(*[mul(row[k], d) for row, d in zip(sys.diffusion, du)],
            differentiate(u, wk))
        for k, wk in enumerate(sys.noises))
    return add(*drift), noise


@dataclass(frozen=True)
class TransformedSde:
    """Coefficients of the transformed equation, written in the original
    variables, with the symbols they do not depend on set to a domain
    point (`pin_independent`).  When `state_free` holds they are
    functions of (t, w) alone and can be read directly as the
    coefficients in the new variable."""
    maps: tuple            # new variables as expressions in the old ones
    drift: tuple           # drift[i]
    noise: tuple           # noise[i][k]
    state_free: bool
    noise_free: bool

    @property
    def ito_form(self) -> bool:
        # integrable-by-Ito form: coefficients do not involve the state or
        # the driving noises
        return self.state_free and self.noise_free


def pin_independent(exprs, sys: SdeSystem) -> tuple:
    """The expressions with powers of sums multiplied out and each state
    or noise symbol s they do not depend on, judged by
    `equivalent(de/ds, 0)` on the system's domain, set to the exact
    midpoint of its range.  The constructors never put terms over a
    common denominator (the drift of the map y + y^3 equals a function
    of t, yet keeps y in its tree); after this, free symbols name the
    dependence."""
    names = sys.states + sys.noises
    out = []
    for e in exprs:
        expanded = expand_powers(e)
        # the derivative of the compact form is the cheaper one to sample
        pins = {s: _midpoint(sys.domain.range_for(s)) for s in names
                if contains(expanded, s)
                and equivalent(differentiate(e, s), ZERO, sys.domain)}
        out.append(substitute(expanded, pins) if pins else expanded)
    return tuple(out)


def _midpoint(bounds) -> Num:
    lo, hi = (Fraction(str(b)) for b in bounds)
    return Num((lo + hi) / 2)


def _dependence(exprs, sys: SdeSystem):
    state_free = True
    noise_free = True
    for e in exprs:
        names = free_symbols(e)
        if names & set(sys.states):
            state_free = False
        if names & set(sys.noises):
            noise_free = False
    return state_free, noise_free


def ito_change_of_variables(sys: SdeSystem, phi: Expr) -> TransformedSde:
    """Scalar change of variables x = phi(y, t, w) by Ito's formula."""
    return change_of_variables(sys, (phi,))


def change_of_variables(sys: SdeSystem, maps) -> TransformedSde:
    """Change of variables z^i = Z^i(x, t, w) by Ito's formula.  A map may
    depend on the noises only when the system has one state."""
    _require(sys, ITO, "change_of_variables")
    maps = tuple(maps)
    if len(maps) != sys.n:
        raise ValueError(f"need {sys.n} component maps, got {len(maps)}")
    if sys.n > 1 and any(contains(Z, wk) for Z in maps for wk in sys.noises):
        raise ValueError(
            "component maps of a system change of variables must be "
            "noise-free; only a one-state system takes w-dependent maps")
    coeffs = []
    for Z in maps:
        d, s = differential(Z, sys)
        coeffs.append(pin_independent((d,) + s, sys))
    drift = tuple(c[0] for c in coeffs)
    noise = tuple(c[1:] for c in coeffs)
    state_free, noise_free = _dependence(
        drift + tuple(x for row in noise for x in row), sys)
    return TransformedSde(maps, drift, noise, state_free, noise_free)


def infinitesimal_map_residuals(sys: SdeSystem, v: VectorField):
    """First order in eps of transforming by x -> x + eps*xi.

    Transforms the system through the near-identity map with a symbolic
    eps, subtracts the coefficients evaluated at the displaced point, and
    extracts the O(eps) part.  Zero exactly when the candidate satisfies
    the determining equations, so this is an independent route to the same
    residuals (it never writes those equations down).
    """
    _require(sys, ITO, "infinitesimal_map_residuals")
    eps = Sym("_eps")
    shifted = {x: add(Sym(x), mul(eps, v.xi[j]))
               for j, x in enumerate(sys.states)}

    drift_res = []
    noise_res = []
    for i, xi_i in enumerate(v.xi):
        Z = add(Sym(sys.states[i]), mul(eps, xi_i))
        new_drift, new_noise = differential(Z, sys)
        target_drift = substitute(sys.drift[i], shifted)
        dres = _eps_linear(add(new_drift, mul(-1, target_drift)), eps)
        drift_res.append(dres)
        row = []
        for k in range(sys.m):
            target = substitute(sys.diffusion[i][k], shifted)
            row.append(_eps_linear(add(new_noise[k], mul(-1, target)), eps))
        noise_res.append(tuple(row))
    return tuple(drift_res), tuple(noise_res)


def _eps_linear(e: Expr, eps: Sym) -> Expr:
    return substitute(differentiate(e, eps.name), {eps.name: ZERO})
