"""Independent checks of each command's output.

Nothing here calls sdesym.  The determining equations are rebuilt with
sympy from the generated coefficients; paths are recomputed by a numpy
Euler-Maruyama (Ito) or Heun (Stratonovich) integrator fed by the package's
documented increments, one Philox stream keyed by (seed, path index); linear
models are held to the closed-form mean of the scheme.  Each check returns
None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import sympy as sp

from models import CHECK, EXPORT, PHI, REDUCE, SIMULATE, VERIFY

T = sp.Symbol("t")
_U = sp.Symbol("_u")
_SYM_TOL = 1e-8      # a constructed generator leaves rounding-level residuals
_CTRL_MIN = 1e-4     # a control's residual is of the size of its noise term
_REL = 1e-8          # recomputed paths agree with the program's to this

# The one failure the benchmark keeps (README.md, "Kept fault"): `reduce`
# finds exactly the integrable target's drift and noise, then calls the
# model not integrable and exits 1.  Any other failure is a fault.
KEPT_FAULT = ("classified NotIntegrableForm (exit 1) though drift and "
              "noise are those of the integrable target")


class Checker:
    """Parses models once and checks commands against them."""

    def __init__(self):
        self._rng = np.random.default_rng(20240611)
        self._coefficients = (None, None, None)   # (model, drift, noise)

    # -- parsing -----------------------------------------------------------

    @staticmethod
    def _syms(model):
        names = list(model.states) + list(model.noises)
        return {n: sp.Symbol(n) for n in names + ["t", "x"]}

    def expr(self, model, text: str):
        local = self._syms(model)
        local["eta"] = sp.Function("eta")
        return sp.parse_expr(text.replace("^", "**"), local_dict=local)

    def _points(self, model, n=24):
        pts = {"t": self._rng.uniform(0.0, 1.0, n)}
        for name in list(model.states) + list(model.noises):
            lo, hi = model.domain.get(name, ("-1", "1"))
            pts[name] = self._rng.uniform(float(lo), float(hi), n)
        return pts

    def _values(self, model, exprs, pts):
        """Values of several expressions at the sample points, one array each."""
        names = list(model.states) + list(model.noises) + ["t"]
        fn = sp.lambdify([sp.Symbol(n) for n in names], list(exprs), "numpy")
        with np.errstate(all="ignore"):
            vals = fn(*[pts[n] for n in names])
        return [np.broadcast_to(np.asarray(v, dtype=float), pts["t"].shape)
                for v in vals]

    def ito_coefficients(self, model):
        """Drift and diagonal noise of the model's Ito form."""
        if self._coefficients[0] is not model:
            f = [self.expr(model, s) for s in model.drift]
            g = [self.expr(model, s) for s in model.diffusion]
            if model.interpretation == "stratonovich":
                ys = [sp.Symbol(y) for y in model.states]
                f = [fi + g[i] * sp.diff(g[i], ys[i]) / 2
                     for i, fi in enumerate(f)]
            self._coefficients = (model, f, g)
        return self._coefficients[1:]

    # -- determining equations ---------------------------------------------

    def residual_size(self, model, xi_texts) -> float:
        """Largest sampled residual of the Ito determining equations

            R1_i  = xi_i,t + f_j xi_i,y_j - xi_j f_i,y_j + 1/2 L xi_i
            R2_ik = xi_i,w_k + g_jk xi_i,y_j - xi_j g_ik,y_j

        with L u = g_jk g_lk u,y_j y_l + 2 g_jk u,y_j w_k + u,w_k w_k (sums
        over repeated indices; the noise matrix g is diagonal here).  sympy
        takes the derivatives, which are combined at the sample points.  A
        free function eta is replaced by random cubics."""
        f, g = self.ito_coefficients(model)
        ys = [sp.Symbol(y) for y in model.states]
        ws = [sp.Symbol(w) for w in model.noises]
        n = len(ys)
        base = [self.expr(model, x) for x in xi_texts]
        eta = sp.Function("eta")
        worst = 0.0
        for _ in range(2 if any(x.has(eta) for x in base) else 1):
            c = self._rng.uniform(-1.0, 1.0, 4)
            poly = sp.Lambda(
                _U, sum(sp.Float(ci) * _U**j for j, ci in enumerate(c)))
            xi = [x.replace(eta, poly) for x in base]
            d = sp.diff
            terms = {("xi", i): xi[i] for i in range(n)}
            for i in range(n):
                terms["f", i], terms["g", i] = f[i], g[i]
                terms["xi_t", i] = d(xi[i], T)
                for j in range(n):
                    terms["f_y", i, j] = d(f[i], ys[j])
                    terms["g_y", i, j] = d(g[i], ys[j])
                    terms["xi_y", i, j] = d(xi[i], ys[j])
                    terms["xi_w", i, j] = d(xi[i], ws[j])
                    terms["xi_yy", i, j] = d(xi[i], ys[j], 2)
                    terms["xi_yw", i, j] = d(xi[i], ys[j], ws[j])
                    terms["xi_ww", i, j] = d(xi[i], ws[j], 2)
            v = dict(zip(terms, self._values(model, terms.values(),
                                             self._points(model))))
            for i in range(n):
                r1 = v["xi_t", i].copy()
                for j in range(n):
                    r1 += v["f", j] * v["xi_y", i, j] - v["xi", j] * v["f_y", i, j]
                    r1 += 0.5 * (v["g", j] ** 2 * v["xi_yy", i, j]
                                 + 2 * v["g", j] * v["xi_yw", i, j]
                                 + v["xi_ww", i, j])
                res = [r1]
                for k in range(n):
                    r2 = v["xi_w", i, k] + v["g", k] * v["xi_y", i, k]
                    if i == k:
                        for j in range(n):
                            r2 = r2 - v["xi", j] * v["g_y", i, j]
                    res.append(r2)
                worst = max(worst, max(float(np.max(np.abs(r))) for r in res))
        return worst

    def _same(self, model, a, b):
        va, vb = self._values(model, [a, b], self._points(model))
        return bool(np.all(np.abs(va - vb) <= 1e-9 * (1 + np.abs(va) + np.abs(vb))))

    # -- per command ----------------------------------------------------------

    def check(self, cmd, res, out_path=None):
        """None when the command's exit code and output are right."""
        try:
            report = json.loads(res["stdout"]) if res["stdout"] else {}
        except json.JSONDecodeError:
            return "output is not one JSON report"
        handler = {CHECK: self._check, REDUCE: self._reduce, PHI: self._phi,
                   VERIFY: self._verify, SIMULATE: self._simulate,
                   EXPORT: self._simulate}[cmd.kind]
        try:
            return handler(cmd, res["code"], report, out_path)
        except (KeyError, TypeError, ValueError, SyntaxError) as e:
            return f"unexpected report shape: {e!r}"

    def _check(self, cmd, code, report, _):
        model = cmd.model
        all_ok = True
        for name, (xi, is_symmetry) in model.candidates.items():
            size = self.residual_size(model, xi)
            if is_symmetry and not size <= _SYM_TOL:
                return f"oracle residual {size:.2e} for generator {name}"
            if not is_symmetry and not size >= _CTRL_MIN:
                return f"oracle residual {size:.2e} for control {name}"
            if report["candidates"][name]["verified"] != is_symmetry:
                return f"candidate {name} verified={not is_symmetry}"
            all_ok = all_ok and is_symmetry
        if code != (0 if all_ok else 1):
            return f"exit code {code}"
        return None

    def _reduce(self, cmd, code, report, _):
        model = cmd.model
        red = report["reduction"]
        drift = self.expr(model, red["drift"])
        noise = self.expr(model, red["noise"][0])
        if model.family == "integral":
            b, c = (self.expr(model, s) for s in cmd.beta)
            want_drift, want_noise = sp.diff(b, T), c
            xi = self.expr(model, model.candidates["X"][0][0])
            y = sp.Symbol("y")
            ident = sp.diff(self.expr(model, red["map"]), y) * xi
            if not self._same(model, ident, sp.Integer(1)):
                return "reported map does not straighten the generator"
        else:
            want_drift = self.expr(model, model.targets[0].a)
            want_noise = self.expr(model, model.targets[0].b)
        if not self._same(model, drift, want_drift):
            return "transformed drift differs from the target"
        if not self._same(model, noise, want_noise):
            return "transformed noise differs from the target"
        if red["classification"] == "NotIntegrableForm" and code == 1:
            return KEPT_FAULT
        if red["classification"] != "IntegrableIto" or code != 0:
            return f"classified {red['classification']} (exit {code})"
        return None

    def _phi(self, cmd, code, report, _):
        model = cmd.model
        nec = report["necessity"]
        y = sp.Symbol("y")
        dphi = sp.diff(self.expr(model, model.maps["PHI"]), y)
        if not self._same(model, self.expr(model, nec["candidate"]) * dphi,
                          sp.Integer(1)):
            return "recovered generator is not 1/PHI'"
        if not self._same(model, sp.diff(self.expr(model, nec["recovered_map"]), y),
                          dphi):
            return "recovered map's derivative differs from PHI'"
        if not (nec["verified"] and nec["derivative_matches"]) or code != 0:
            return f"necessity round trip not confirmed (exit {code})"
        return None

    def _verify(self, cmd, code, report, _):
        if code != 0 or not report.get("verdict"):
            return f"verify did not confirm the symmetry (exit {code})"
        got = report["numeric"]["pathwise"]["median_sup_error"]
        want = self.median_sup_error(cmd)
        if not abs(got - want) <= 1e-6 * abs(want) + 1e-12:
            return f"median_sup_error {got!r} but reference gives {want!r}"
        return None

    def _simulate(self, cmd, code, report, out_path):
        if code != 0:
            return f"exit code {code}"
        num = report["numeric"]
        if num["excluded_paths"] != 0:
            return f"{num['excluded_paths']} paths left the domain"
        model = cmd.model
        times, states, inc = self.paths(model, cmd.sim)
        final = states[:, -1, :]
        if not np.allclose(num["final_mean"], final.mean(axis=0),
                           rtol=_REL, atol=1e-12):
            return "final mean differs from the reference integrator"
        if not np.allclose(num["final_variance"], final.var(axis=0),
                           rtol=1e-6, atol=1e-12):
            return "final variance differs from the reference integrator"
        # the moment test needs enough paths for the normal approximation
        if model.linear and cmd.sim["paths"] >= 1000:
            want = self.linear_mean(model, times)
            se = np.sqrt(np.asarray(num["final_variance"]) / cmd.sim["paths"])
            if np.any(np.abs(np.asarray(num["final_mean"]) - want) > 5 * se):
                return ("ensemble mean is not within 5 standard errors of "
                        "the scheme's mean")
        if cmd.kind == EXPORT:
            return self._csv(model, out_path, times, states, inc)
        return None

    def _csv(self, model, path, times, states, inc):
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        header = ["t", "path", *model.states, *model.noises]
        if rows[0] != header:
            return f"CSV header {rows[0]}"
        paths, grid, n = states.shape
        data = np.array(rows[1:], dtype=float)
        if data.shape != (paths * grid, 2 + 2 * n):
            return f"CSV holds {data.shape} values"
        data = data.reshape(paths, grid, 2 + 2 * n)
        w = np.concatenate([np.zeros((paths, 1, n)), np.cumsum(inc, axis=1)],
                           axis=1)
        if not np.allclose(data[:, :, 0], times[None, :], rtol=1e-12, atol=1e-15):
            return "CSV time column"
        index = np.repeat(np.arange(paths)[:, None], grid, axis=1)
        if not np.array_equal(data[:, :, 1], index):
            return "CSV path column"
        if not np.allclose(data[:, :, 2 + n:], w, rtol=1e-12, atol=1e-14):
            return "CSV noise columns differ from the documented increments"
        sample = self._rng.choice(paths, size=min(paths, 4), replace=False)
        if not np.allclose(data[sample, :, 2:2 + n], states[sample],
                           rtol=_REL, atol=1e-12):
            return "CSV state paths differ from the reference integrator"
        return None

    # -- reference integrators ----------------------------------------------

    @staticmethod
    def increments(seed, paths, steps, m, h):
        """The package's noise: one Philox stream per (seed, path index)."""
        out = np.empty((paths, steps, m))
        for p in range(paths):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed, p], dtype=np.uint64)))
            out[p] = rng.standard_normal((steps, m)) * math.sqrt(h)
        return out

    def _fns(self, model, f, g):
        args = [T] + [sp.Symbol(y) for y in model.states]
        return ([sp.lambdify(args, e, "numpy") for e in f],
                [sp.lambdify(args, e, "numpy") for e in g])

    def paths(self, model, sim, ito=False):
        """Times, states (paths, steps+1, n) and increments of the program's
        scheme: Euler-Maruyama on the Ito form, Heun on the Stratonovich one."""
        h, t1 = sim["h"], sim["t1"]
        steps = round(t1 / h)
        n = len(model.states)
        inc = self.increments(sim["seed"], sim["paths"], steps, n, h)
        heun = model.interpretation == "stratonovich" and not ito
        if heun:
            f = [self.expr(model, s) for s in model.drift]
            g = [self.expr(model, s) for s in model.diffusion]
        else:
            f, g = self.ito_coefficients(model)
        ff, gg = self._fns(model, f, g)
        times = h * np.arange(steps + 1)
        x = np.empty((sim["paths"], steps + 1, n))
        x[:, 0, :] = [float(sp.Rational(v)) for v in model.x0]

        def coeffs(t, cur):
            cols = [cur[:, i] for i in range(n)]
            return ([np.broadcast_to(fi(t, *cols), cols[0].shape) for fi in ff],
                    [np.broadcast_to(gi(t, *cols), cols[0].shape) for gi in gg])

        with np.errstate(all="ignore"):
            for s in range(steps):
                cur, dw = x[:, s, :], inc[:, s, :]
                fx, gx = coeffs(times[s], cur)
                pred = np.stack([cur[:, i] + (fx[i] * h + gx[i] * dw[:, i])
                                 for i in range(n)], axis=1)
                if not heun:
                    x[:, s + 1, :] = pred
                    continue
                f2, g2 = coeffs(times[s + 1], pred)
                for i in range(n):
                    x[:, s + 1, i] = cur[:, i] + (
                        0.5 * (fx[i] + f2[i]) * h
                        + 0.5 * (gx[i] + g2[i]) * dw[:, i])
        return times, x, inc

    def linear_mean(self, model, times):
        """Exact mean of the scheme on dy = mu(t) y dt + sigma(t) y dw:
        Euler-Maruyama multiplies it by 1 + mu h per step, Heun by
        1 + h (mu_n + mu_{n+1} (1 + mu_n h) + sigma_n sigma_{n+1}) / 2."""
        h = times[1] - times[0]
        out = []
        for i, y in enumerate(model.states):
            ys = sp.Symbol(y)
            mu, sg = (sp.lambdify([T], self.expr(model, e).subs(ys, 1), "numpy")
                      for e in (model.drift[i], model.diffusion[i]))
            m = float(sp.Rational(model.x0[i]))
            for a, b in zip(times[:-1], times[1:]):
                ma, mb = float(mu(a)), float(mu(b))
                if model.interpretation == "ito":
                    m *= 1 + ma * h
                else:
                    sab = float(sg(a)) * float(sg(b))
                    m *= 1 + h * (ma + mb * (1 + ma * h) + sab) / 2
            out.append(m)
        return np.asarray(out)

    def median_sup_error(self, cmd) -> float:
        """verify's pathwise witness recomputed: Euler-Maruyama paths of the
        Ito form pushed through PHI, against x0 + cumulated a(t) h + b(t) dw."""
        model = cmd.model
        times, x, inc = self.paths(model, cmd.sim, ito=True)
        y = sp.Symbol(model.states[0])
        phi = sp.lambdify([T, y], self.expr(model, model.maps["PHI"]), "numpy")
        tgt = model.targets[0]
        a = sp.lambdify([T], self.expr(model, tgt.a), "numpy")
        b = sp.lambdify([T], self.expr(model, tgt.b), "numpy")
        h = cmd.sim["h"]
        with np.errstate(all="ignore"):
            target = np.broadcast_to(phi(times[None, :], x[:, :, 0]), x.shape[:2])
            left = times[:-1]
            step = (np.broadcast_to(a(left), left.shape) * h
                    + np.broadcast_to(b(left), left.shape) * inc[:, :, 0])
            direct = np.empty_like(target)
            direct[:, 0] = target[:, 0]
            np.cumsum(step, axis=1, out=direct[:, 1:])
            direct[:, 1:] += target[:, 0:1]
            sup = np.max(np.abs(target - direct), axis=1)
        sup = sup[np.isfinite(sup)]
        return float(np.median(sup)) if sup.size else math.inf
