"""Reduction of SDEs along verified symmetries.

A scalar equation with a simple symmetry X = phi d/dy is straightened by
the new coordinate Phi(y, t, w) = integral of dy/phi: X becomes d/dx and the
transformed coefficients drop their state dependence.  If they are also
noise-free the result integrates directly (dx = A(t) dt + B_k(t) dw^k);
if they still involve w the solution is an explicit quadrature along each
noise path.  For systems, a solvable algebra of r verified deterministic
symmetries in adapted coordinates splits off r reconstruction equations.

Everything here refuses to reduce along unverified candidates: reduction
without the determining equations holding is just a change of variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import (
    Expr, ZERO, ONE, Num, Sym, Domain,
    add, mul, pow_, opaque, differentiate, substitute, antiderivative,
    equivalent, free_symbols, opaque_functions, is_zero,
    simplify, solve_for, sample_points, _evaluator,
)
from .model import SdeSystem, VectorField, classify
from .calculus import (
    as_ito, differential, ito_change_of_variables, change_of_variables,
    pin_independent, TransformedSde,
)
from .symmetry import (
    SymmetryReport, CompatibilityData, SolvabilityResult,
    residual_ito, compatibility_check, solvable_check, orbit_ranks,
)

__all__ = [
    "INTEGRABLE_ITO", "INTEGRABLE_QUADRATURE", "NOT_INTEGRABLE_FORM",
    "ReductionError", "DegenerateGenerator", "UnverifiedCandidate",
    "HypothesisError", "PreconditionError", "StraighteningMap",
    "FreeFunctionAnsatz", "ConditionCheck", "ReductionResult",
    "NecessityResult", "SystemReduction",
    "straighten", "reduce_deterministic", "reduce_random",
    "necessity_roundtrip", "reduce_system_solvable",
]

INTEGRABLE_ITO = "IntegrableIto"
INTEGRABLE_QUADRATURE = "IntegrableQuadrature"
NOT_INTEGRABLE_FORM = "NotIntegrableForm"


class ReductionError(Exception):
    pass


class PreconditionError(ValueError):
    """The input is outside what a reduction accepts: the wrong number of
    states or noises, a candidate of the wrong kind, or a bad ansatz."""


class DegenerateGenerator(ReductionError):
    """The generator coefficient vanishes somewhere on the domain."""


class UnverifiedCandidate(ReductionError):
    """Refused: the candidate does not satisfy the determining equations."""


class HypothesisError(ReductionError):
    """A structural hypothesis of the reduction theory fails; `hypothesis`
    names which one."""

    def __init__(self, hypothesis: str, message: str):
        super().__init__(f"[{hypothesis}] {message}")
        self.hypothesis = hypothesis


@dataclass
class StraighteningMap:
    """New coordinate x = map(y, t, w) straightening phi d/dy to d/dx.

    `inverse` is y as an expression of the new symbol when a symbolic
    inverse exists (exp/log/power/affine chains), else the marker
    "implicit"; implicit inverses are still usable numerically.
    """
    phi: Expr
    map: Expr
    state: str
    new_symbol: str
    inverse: object = "implicit"

    @property
    def invertible(self) -> bool:
        return isinstance(self.inverse, Expr)

    def __str__(self):
        return f"{self.new_symbol} = {self.map}"


@dataclass(frozen=True)
class FreeFunctionAnsatz:
    """Integration 'constant' beta = b(t) + c*w for random straightening."""
    b: Expr = None
    c: Expr = None

    def resolved(self, time: str):
        b = self.b if self.b is not None else opaque("b", 0, Sym(time))
        c = self.c if self.c is not None else Sym("c")
        return b, c


@dataclass
class ConditionCheck:
    name: str
    residual: Expr
    satisfied: bool


@dataclass
class ReductionResult:
    straightening: StraighteningMap
    transformed: TransformedSde
    classification: str
    report: SymmetryReport
    compatibility: CompatibilityData = None
    conditions: tuple = ()
    ansatz: FreeFunctionAnsatz = None
    converted_from_stratonovich: bool = False

    @property
    def condition_failures(self) -> tuple:
        failed = [c.name for c in self.conditions if not c.satisfied]
        if self.compatibility is not None and not self.compatibility.satisfied:
            failed.append("compatibility")
        return tuple(failed)

    @property
    def drift(self) -> Expr:
        return self.transformed.drift[0]

    @property
    def noise(self) -> tuple:
        return self.transformed.noise[0]


def _classification(tr: TransformedSde) -> str:
    if not tr.state_free:
        return NOT_INTEGRABLE_FORM
    return INTEGRABLE_ITO if tr.noise_free else INTEGRABLE_QUADRATURE


def _nonvanishing(phi: Expr, names, domain: Domain,
                  what: str = "generator coefficient"):
    if opaque_functions(phi):   # no point evaluates: nothing to test
        return
    pts = sample_points(sorted(names), domain, n_points=120)
    v = _evaluator((phi,))(pts)[0]
    usable = np.isfinite(v)     # points outside phi's domain are skipped
    small = usable & ~(np.abs(v) > 1e-12)
    if small.any():
        raise DegenerateGenerator(
            f"{what} {phi} vanishes near {pts[int(np.argmax(small))]}")
    if (v[usable] > 0).any() and (v[usable] < 0).any():
        raise DegenerateGenerator(
            f"{what} {phi} changes sign on the domain, so it vanishes "
            "somewhere inside it")


def _pick_new_symbol(taken):
    for cand in ("x", "z", "x_"):
        if cand not in taken:
            return cand
    i = 2
    while f"x_{i}" in taken:
        i += 1
    return f"x_{i}"


def straighten(phi: Expr, state: str, *, domain: Domain = None,
               time: str = "t", noises=()) -> StraighteningMap:
    """Integrate dy/phi to the straightening coordinate.

    NotElementaryError propagates when the rule table cannot integrate
    1/phi; callers may then supply a map explicitly.
    """
    phi = simplify(phi)
    domain = domain or Domain()
    names = free_symbols(phi) | {state}
    if opaque_functions(phi):
        raise ReductionError(
            "cannot straighten a generator with free function symbols; "
            "instantiate them first")
    _nonvanishing(phi, names, domain)
    the_map = antiderivative(pow_(phi, Num(Fraction(-1))), state)
    ident = mul(phi, differentiate(the_map, state))
    if not equivalent(ident, ONE, domain):
        raise ReductionError(
            "straightening identity phi * dPhi/dy == 1 failed for "
            f"phi = {phi}; the antiderivative is suspect")

    taken = names | {time} | set(noises) | free_symbols(the_map)
    new_symbol = _pick_new_symbol(taken)
    inverse = _solve_inverse(the_map, state, new_symbol, domain)
    return StraighteningMap(phi, the_map, state, new_symbol, inverse)


def _solve_inverse(the_map: Expr, state: str, new_symbol: str, domain: Domain):
    inv = solve_for(the_map, state, Sym(new_symbol))
    if inv is None or opaque_functions(the_map):
        return "implicit"
    # numeric spot check before trusting the peeled inverse
    names = sorted(free_symbols(the_map) | {state})
    pts = sample_points(names, domain, n_points=24)
    x = _evaluator((the_map,))(pts)[0]
    back = _evaluator((inv,))(
        [{**pt, new_symbol: xv} for pt, xv in zip(pts, x)])[0]
    y = np.array([pt[state] for pt in pts])
    usable = np.isfinite(x) & np.isfinite(back)
    gap = np.abs(back - y)[usable]
    if not np.all(gap <= 1e-8 * (1.0 + np.abs(y[usable]))):
        return "implicit"
    return inv if usable.any() else "implicit"


def _verified_report(sys: SdeSystem, v: VectorField, verify: bool,
                     n_points: int) -> SymmetryReport:
    report = residual_ito(sys, v, n_points=n_points)
    if verify and not report.verified:
        raise UnverifiedCandidate(
            "candidate fails the determining equations "
            f"(max sampled residual {report.max_abs_residual:.3e}); "
            "refusing to reduce along it")
    return report


def reduce_deterministic(sys: SdeSystem, v: VectorField, *,
                         verify: bool = True,
                         n_points: int = 200) -> ReductionResult:
    """Reduce a scalar equation along a verified deterministic symmetry."""
    was_strat = not sys.is_ito()
    sys = as_ito(sys)
    if sys.n != 1:
        raise PreconditionError("scalar reduction needs a one-state system")
    cls = classify(v)
    if not cls.deterministic:
        raise PreconditionError(
            "candidate depends on the noise; use reduce_random")
    report = _verified_report(sys, v, verify, n_points)

    st = straighten(v.xi[0], sys.states[0], domain=sys.domain,
                    time=sys.time, noises=sys.noises)
    tr = ito_change_of_variables(sys, st.map)
    return ReductionResult(st, tr, _classification(tr), report,
                           converted_from_stratonovich=was_strat)


def reduce_random(sys: SdeSystem, v: VectorField,
                  ansatz: FreeFunctionAnsatz = None, *,
                  verify: bool = True,
                  n_points: int = 200) -> ReductionResult:
    """Reduce a scalar equation along a verified random symmetry.

    The straightening coordinate is fixed only up to beta(t, w); the
    ansatz beta = b(t) + c*w is carried through the transformation.  Side
    conditions (w-independence of the transformed coefficients, and the
    compatibility condition on gamma = d/dw(1/phi)) are recorded in the
    result rather than enforced: a failed condition still leaves a usable
    quadrature form, it just is not an Ito equation in the new variable.
    """
    was_strat = not sys.is_ito()
    sys = as_ito(sys)
    if sys.n != 1 or sys.m != 1:
        raise PreconditionError("random reduction is a scalar statement "
                                "(one state, one noise)")
    if opaque_functions(v.xi[0]):
        raise ReductionError(
            "candidate carries free function symbols; instantiate them "
            "before reducing")
    report = _verified_report(sys, v, verify, n_points)

    y, w, t = sys.states[0], sys.noises[0], sys.time
    ansatz = ansatz or FreeFunctionAnsatz()
    b, c = ansatz.resolved(t)
    _check_ansatz(b, c, sys)

    st = straighten(v.xi[0], y, domain=sys.domain, time=t, noises=sys.noises)
    full_map = add(st.map, b, mul(c, Sym(w)))
    st = StraighteningMap(st.phi, full_map, st.state, st.new_symbol,
                          _solve_inverse(full_map, y, st.new_symbol, sys.domain))

    drift, noise = differential(full_map, sys)
    e1 = differentiate(noise[0], w)
    e2 = differentiate(drift, w)
    conditions = (
        ConditionCheck("noise-coefficient-w-free", e1,
                       equivalent(e1, ZERO, sys.domain)),
        ConditionCheck("drift-coefficient-w-free", e2,
                       equivalent(e2, ZERO, sys.domain)),
    )
    compat = compatibility_check(sys, v.xi[0], sys.domain)

    tr = ito_change_of_variables(sys, full_map)
    return ReductionResult(st, tr, _classification(tr), report,
                           compatibility=compat, conditions=conditions,
                           ansatz=FreeFunctionAnsatz(b, c),
                           converted_from_stratonovich=was_strat)


def _check_ansatz(b: Expr, c: Expr, sys: SdeSystem):
    bad = free_symbols(b) - {sys.time}
    if bad:
        raise PreconditionError(
            f"ansatz b may depend on {sys.time} only, found {sorted(bad)}")
    forbidden = set(sys.states) | set(sys.noises) | {sys.time}
    bad = free_symbols(c) & forbidden
    if bad:
        raise PreconditionError(
            f"ansatz c must be constant, found {sorted(bad)}")


@dataclass
class NecessityResult:
    candidate: VectorField
    report: SymmetryReport
    compatibility: CompatibilityData
    transformed: TransformedSde
    classification: str
    recovered_map: Expr
    derivative_matches: bool
    exact_match: bool


def necessity_roundtrip(sys: SdeSystem, the_map: Expr, *,
                        n_points: int = 200) -> NecessityResult:
    """From an integrating map back to its generator, and forward again.

    If x = map(y, t, w) puts the system in integrable form, then
    phi = 1 / (d map / dy) must be a symmetry generator; straightening phi
    recovers the map up to the integration constant.  The result carries
    the transformed system so callers can see whether the hypothesis (an
    integrable-form target) held; when it did not, the candidate report
    simply records whatever the determining equations say.
    """
    sys = as_ito(sys)
    if sys.n != 1:
        raise PreconditionError("necessity round trip is a scalar statement")
    y = sys.states[0]
    dmap = differentiate(the_map, y)
    _nonvanishing(dmap, free_symbols(the_map) | {y}, sys.domain,
                  what="map derivative")
    tr = ito_change_of_variables(sys, the_map)

    phi = pow_(dmap, Num(Fraction(-1)))
    v = VectorField((phi,), ZERO, sys.states, sys.noises)
    report = residual_ito(sys, v, n_points=n_points)
    compat = (compatibility_check(sys, phi, sys.domain)
              if sys.m == 1 else None)

    st = straighten(phi, y, domain=sys.domain, time=sys.time,
                    noises=sys.noises)
    dmatch = equivalent(differentiate(st.map, y), dmap, sys.domain)
    exact = equivalent(st.map, the_map, sys.domain)
    return NecessityResult(v, report, compat, tr, _classification(tr),
                           st.map, dmatch, exact)


# ---------------------------------------------------------------------------
# systems with a solvable algebra of symmetries

@dataclass
class SystemReduction:
    maps: tuple                  # new coordinate expressions, one per state
    inverses: tuple              # old state in the new one, or "implicit"
    system: SdeSystem            # transformed system, original names reused
    reduced_states: tuple
    reconstruction_states: tuple
    reconstruction_order: tuple  # order in which reconstruction integrates
    reports: tuple
    solvability: object
    orbit_rank: int

    @property
    def full_quadrature(self) -> bool:
        """Every equation became a reconstruction equation (r = n)."""
        return not self.reduced_states


def reduce_system_solvable(sys: SdeSystem, generators, adapted_coords=None,
                           *, verify: bool = True,
                           n_points: int = 200) -> SystemReduction:
    """Split a system along a solvable algebra of verified symmetries.

    Needs r generators that are simple, deterministic, verified, spanning
    a solvable algebra whose orbits have rank r everywhere on the sampled
    domain.  Adapted coordinates are derived automatically when each
    generator acts on its own single state (pass adapted_coords
    otherwise).  The result separates r reconstruction equations,
    integrable one at a time, from the reduced core that no longer sees
    the reconstruction variables.
    """
    sys = as_ito(sys)
    gens = list(generators)
    r = len(gens)
    if r == 0:
        return SystemReduction(
            tuple(Sym(x) for x in sys.states),
            tuple(Sym(x) for x in sys.states),
            sys, sys.states, (), (), (),
            SolvabilityResult(True, (0,), ()), 0)
    for g in gens:
        c = classify(g)
        if not (c.simple and c.deterministic):
            raise PreconditionError(
                "system reduction expects simple deterministic "
                f"generators, got a {c.label} one")

    reports = tuple(_verified_report(sys, g, verify, n_points) for g in gens)

    sol = solvable_check(gens, sys.domain)
    if not sol.solvable:
        raise HypothesisError(
            "solvable-algebra",
            f"derived series does not terminate: dims {sol.series_dims}")

    names = sorted(set(sys.states) | {sys.time})
    ranks = orbit_ranks(gens, [{**pt, **{w: 0.0 for w in sys.noises}}
                               for pt in sample_points(names, sys.domain,
                                                       n_points=20)])
    if min(ranks) != r or max(ranks) != r:
        raise HypothesisError(
            "orbit-rank",
            f"need constant orbit rank {r} on the domain, found ranks in "
            f"[{min(ranks)}, {max(ranks)}] over {len(ranks)} sampled points")

    if adapted_coords is None:
        maps, targets = _diagonal_maps(sys, gens)
    else:
        maps = tuple(simplify(m) for m in adapted_coords)
        targets = None
    tr = change_of_variables(sys, maps)

    inverses = _componentwise_inverses(sys, maps)
    bindings = {x: inv for x, inv in zip(sys.states, inverses)
                if isinstance(inv, Expr)}

    # which coordinate each generator translates, after the map
    recon_idx = _translation_targets(sys, gens, maps, bindings, targets)

    new_drift = pin_independent(
        tuple(substitute(e, bindings) for e in tr.drift), sys)
    new_noise = tuple(
        pin_independent(tuple(substitute(e, bindings) for e in row), sys)
        for row in tr.noise)

    kept = tuple(i for i in range(sys.n) if i not in recon_idx)
    recon_names = tuple(sys.states[i] for i in recon_idx)
    kept_names = tuple(sys.states[i] for i in kept)

    for i in kept:
        bad = set(recon_names) & free_symbols(new_drift[i]).union(
            *map(free_symbols, new_noise[i]))
        if bad:
            raise HypothesisError(
                "closure",
                f"reduced equation for {sys.states[i]} does not close: "
                f"it still depends on {sorted(bad)}")

    order = _reconstruction_order(sys, new_drift, new_noise, recon_idx,
                                  kept_names)

    new_sys = SdeSystem(sys.states, sys.noises, new_drift, new_noise,
                        sys.interpretation, Domain(roles=sys.domain.roles),
                        sys.time)
    return SystemReduction(tuple(maps), tuple(inverses), new_sys,
                           kept_names, recon_names, order, reports, sol,
                           ranks[0])


def _diagonal_maps(sys: SdeSystem, gens):
    """Adapted coordinates when each generator owns one state."""
    targets = []
    for a, g in enumerate(gens):
        hot = [i for i, x in enumerate(g.xi) if not is_zero(x)]
        if len(hot) != 1:
            raise HypothesisError(
                "adapted-coordinates",
                "generator does not act on a single state; supply adapted_coords=")
        i = hot[0]
        extra = free_symbols(g.xi[i]) - {sys.states[i], sys.time}
        if extra:
            raise HypothesisError(
                "adapted-coordinates",
                f"generator component mixes in {sorted(extra)}; supply adapted_coords=")
        if i in targets:
            raise HypothesisError(
                "adapted-coordinates",
                f"two generators act on state {sys.states[i]!r}; supply adapted_coords=")
        targets.append(i)
    maps = [Sym(x) for x in sys.states]
    for a, g in enumerate(gens):
        i = targets[a]
        _nonvanishing(g.xi[i], free_symbols(g.xi[i]) | {sys.states[i]},
                      sys.domain)
        maps[i] = antiderivative(pow_(g.xi[i], Num(Fraction(-1))),
                                 sys.states[i])
    return tuple(maps), tuple(targets)


def _componentwise_inverses(sys: SdeSystem, maps):
    out = []
    for i, Z in enumerate(maps):
        x = sys.states[i]
        if Z == Sym(x):
            out.append(Sym(x))
            continue
        inv = solve_for(Z, x, Sym(x))
        out.append(inv if inv is not None else "implicit")
    return tuple(out)


def _translation_targets(sys, gens, maps, bindings, hint):
    recon = []
    for a, g in enumerate(gens):
        comps = []
        for i in range(sys.n):
            p = add(*[mul(g.xi[j], differentiate(maps[i], xj))
                      for j, xj in enumerate(sys.states)])
            comps.append(substitute(p, bindings))
        hot = [i for i, p in enumerate(comps)
               if not equivalent(p, ZERO, sys.domain)]
        expect = None if hint is None else hint[a]
        if len(hot) != 1 or not equivalent(comps[hot[0]], ONE, sys.domain):
            raise HypothesisError(
                "straightening",
                "generator does not become a coordinate translation in the "
                "supplied coordinates")
        if expect is not None and hot[0] != expect:
            raise HypothesisError(
                "straightening", "generator straightened onto an unexpected "
                "coordinate")
        if hot[0] in recon:
            raise HypothesisError(
                "straightening", "two generators straighten onto the same "
                "coordinate")
        recon.append(hot[0])
    return recon


def _reconstruction_order(sys, drift, noise, recon_idx, kept_names):
    """Order reconstruction coordinates so each integrates by quadrature
    given the reduced solution and the previously integrated ones."""
    remaining = list(recon_idx)
    order = []
    allowed = set(kept_names)
    while remaining:
        progress = False
        for i in list(remaining):
            deps = free_symbols(drift[i])
            for e in noise[i]:
                deps |= free_symbols(e)
            deps &= set(sys.states[j] for j in recon_idx)
            if deps <= allowed:
                order.append(sys.states[i])
                allowed.add(sys.states[i])
                remaining.remove(i)
                progress = True
        if not progress:
            raise HypothesisError(
                "reconstruction",
                "reconstruction equations are mutually coupled; the algebra "
                "action is not triangular in these coordinates")
    return tuple(order)
