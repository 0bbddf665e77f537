"""Per-layer spans for the traced benchmark run.

The tracer wraps the public library calls each CLI command makes, at the
module attributes the callers look them up through, and records one span
per call with its parent span; the command itself is the root.  Spans use
the worker's clock, process CPU time.  Nothing in
the package is changed on disk.

Counts that need extra work (expression sizes, sampled points, CSV sizes)
and the probe timings of `differentiate`, `antiderivative`, `equivalent` and
`max_abs_on_domain` are taken after the command has returned, so they never
fall inside a command's time.  The probes repeat the program's own sampling
draws because the package seeds its equivalence sampler with a constant.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from fractions import Fraction
from time import process_time as clock

import sdesym.cli as cli
import sdesym.numeric as numeric
import sdesym.reduction as reduction
from sdesym.expr import (
    ZERO, Domain, Num, NotElementaryError, antiderivative, differentiate,
    equivalent, is_zero, max_abs_on_domain, pow_, subexpressions,
)
from sdesym.model import load_model

# (span name, function owner, modules whose attribute is replaced)
_PATCHES = [
    ("model.load_model", cli, "load_model", [cli]),
    ("symmetry.residuals", cli, "residual_ito", [cli, reduction]),
    ("symmetry.residuals", cli, "residual_stratonovich", [cli]),
    ("symmetry.residuals", cli, "residual_associated_stratonovich", [cli]),
    ("symmetry.compatibility_check", cli, "compatibility_check",
     [cli, reduction]),
    ("calculus.as_ito", cli, "as_ito", [cli, reduction, numeric]),
    ("calculus.ito_change_of_variables", reduction, "ito_change_of_variables",
     [reduction]),
    ("reduction.straighten", reduction, "straighten", [reduction]),
    ("reduction.reduce", reduction, "reduce_deterministic", [reduction]),
    ("reduction.reduce", reduction, "reduce_random", [reduction]),
    ("reduction.necessity_roundtrip", reduction, "necessity_roundtrip",
     [reduction]),
    ("numeric.simulate", numeric, "simulate", [numeric]),
    ("numeric.pathwise_check", numeric, "pathwise_check", [numeric]),
    ("numeric.strong_order_estimate", numeric, "strong_order_estimate",
     [numeric]),
    ("numeric.epsilon_symmetry_scaling", numeric, "epsilon_symmetry_scaling",
     [numeric]),
    ("numeric.export_csv", numeric, "export_csv", [numeric]),
]


class _CountingDomain(Domain):
    """A validity box that counts the points drawn from it; the draws
    themselves are those of the wrapped box."""

    def __init__(self, bounds):
        super().__init__(bounds)
        self.drawn = 0

    def sample(self, names, rng):
        self.drawn += 1
        return super().sample(names, rng)


class Tracer:
    def __init__(self):
        self._stack = []
        self._spans = []     # [name, parent index or None, seconds]
        self._calls = []     # (name, args, kwargs, result) for the probes

    def install(self):
        for name, owner, attr, targets in _PATCHES:
            wrapped = self._wrap(name, getattr(owner, attr))
            for mod in targets:
                setattr(mod, attr, wrapped)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self._spans)
            self._spans.append([name, parent, 0.0])
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._spans[idx][2] = clock() - t0
                self._stack.pop()
            self._calls.append((name, args, kwargs, result))
            return result
        return span

    def begin(self):
        self._stack, self._spans, self._calls = [], [], []

    def end(self, elapsed: float, argv) -> dict:
        """Figures of the command just run: summed span seconds by name,
        the command's own time outside any span, counts and probes."""
        out = defaultdict(float)
        children = 0.0
        for name, parent, seconds in self._spans:
            out[name + ".s"] += seconds
            if parent is None:
                children += seconds
        out["cli.other.s"] += max(elapsed - children, 0.0)
        for name, args, kwargs, result in self._calls:
            _count(out, name, args, kwargs, result)
        _probe_differentiate(out, argv)
        return dict(out)


def _arg(args, kwargs, i, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[i] if len(args) > i else default


def _sampled_verdicts(out, residuals, domain, n_points):
    """Repeat the two sampled verdicts the program runs on each residual."""
    box = _CountingDomain(domain.bounds)
    for r in residuals:
        out["expr.residual_nodes"] += sum(1 for _ in subexpressions(r))
        if is_zero(r):
            continue
        t0 = clock()
        equivalent(r, ZERO, box)
        t1 = clock()
        max_abs_on_domain(r, box, n_points=n_points)
        t2 = clock()
        out["expr.equivalent.s"] += t1 - t0
        out["expr.max_abs_on_domain.s"] += t2 - t1
    out["expr.sample_points"] += box.drawn


def _probe_antiderivative(out, xi, state):
    t0 = clock()
    try:
        antiderivative(pow_(xi, Num(Fraction(-1))), state)
    except NotElementaryError:
        pass
    out["expr.antiderivative.s"] += clock() - t0


def _count(out, name, args, kwargs, result):
    if name == "symmetry.residuals":
        sysm = args[0]
        domain = _arg(args, kwargs, 2, "domain") or sysm.domain
        rows = result.diffusion_residuals
        residuals = list(result.drift_residuals) + [x for r in rows for x in r]
        _sampled_verdicts(out, residuals, domain,
                          _arg(args, kwargs, 3, "n_points", 200))
    elif name == "symmetry.compatibility_check":
        sysm = args[0]
        domain = _arg(args, kwargs, 2, "domain") or sysm.domain
        _sampled_verdicts(out, [result.residual], domain,
                          _arg(args, kwargs, 3, "n_points", 200))
    elif name == "reduction.reduce":
        _probe_antiderivative(out, args[1].xi[0], args[0].states[0])
    elif name == "reduction.necessity_roundtrip":
        _probe_antiderivative(out, result.candidate.xi[0], args[0].states[0])
    elif name == "numeric.simulate":
        out["numeric.simulate.path_steps"] += result.paths * result.steps
        out["numeric.excluded_paths"] += result.n_excluded
    elif name in ("numeric.pathwise_check", "numeric.strong_order_estimate"):
        cfg = args[3]
        # the order estimate integrates at h/4 and again at h
        runs = 5 if name == "numeric.strong_order_estimate" else 1
        out["numeric.witness_path_steps"] += runs * cfg.paths * cfg.steps
    elif name == "numeric.epsilon_symmetry_scaling":
        cfg = args[2]
        out["numeric.witness_path_steps"] += cfg.paths * cfg.steps
    elif name == "numeric.export_csv":
        path = args[1]
        if isinstance(path, str) and os.path.exists(path):
            out["numeric.export_csv.mb"] += os.path.getsize(path) / 1e6


def _probe_differentiate(out, argv):
    """Time `differentiate` on the model's coefficients and candidates with
    respect to every state, noise and the time symbol."""
    try:
        with open(argv[1]) as f:
            mf = load_model(f.read())
    except (OSError, IndexError):
        return
    sysm = mf.system
    exprs = list(sysm.drift) + [g for row in sysm.diffusion for g in row]
    for v in mf.candidates.values():
        exprs += list(v.xi)
    names = list(sysm.states) + list(sysm.noises) + [sysm.time]
    t0 = clock()
    for e in exprs:
        for s in names:
            differentiate(e, s)
    out["expr.differentiate.s"] += clock() - t0
