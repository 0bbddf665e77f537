"""Command-line front end: check, convert, reduce, simulate, verify.

Each command prints one JSON report to standard output (or to --report).
The `numeric` section of a report contains only simulation-derived
numbers and is bit-identical across runs with the same seed; wall time
and other environment-dependent values live outside it.  Exit codes:
0 success / verified, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys as _sys
import time

from .expr import (
    ZERO, to_str, equivalent, vanishes_on_domain,
    DomainError, NotElementaryError,
)
from .parser import parse, ExprSyntaxError
from .model import (
    ModelFile, ModelError, classify, load_model, print_model,
    ITO, STRATONOVICH,
)
from .calculus import as_ito, ito_to_stratonovich, stratonovich_to_ito
from .symmetry import (
    residual_ito, residual_stratonovich, residual_associated_stratonovich,
    compatibility_check, tau_condition,
)
from . import reduction as _red
from . import numeric as _num

__all__ = ["main"]

_ENV_SEED = "SDESYM_SEED"
# one sampling round holds one point dict per sample: bound its size
_MAX_SAMPLES = 100_000


class _InputError(Exception):
    pass


def _load(path: str):
    try:
        with open(path, "r") as f:
            text = f.read()
    except OSError as e:
        raise _InputError(f"cannot read model file: {e}")
    try:
        mf = load_model(text)
    except (ModelError, ExprSyntaxError) as e:
        raise _InputError(f"model file {path}: {e}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return mf, f"sha256:{digest}"


def _pick_candidates(mf: ModelFile, name):
    if name is None:
        return dict(mf.candidates)
    if name not in mf.candidates:
        known = ", ".join(sorted(mf.candidates)) or "none defined"
        raise _InputError(f"unknown candidate {name!r} (have: {known})")
    return {name: mf.candidates[name]}


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _InputError(f"{_ENV_SEED} must be an integer, got {env!r}")
    return 0


def _sim_config(mf: ModelFile, args) -> _num.SimulationConfig:
    """The model's [simulation] block, overridden by the flags given; the
    SimulationConfig defaults fill the rest, except x0, which defaults to
    one 1.0 per state."""
    n = mf.system.n
    cfg = {"x0": tuple([1.0] * n), **mf.simulation, "seed": _seed(args)}
    for key in ("t0", "t1", "h", "paths"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if getattr(args, "x0", None) is not None:
        parts = [p.strip() for p in args.x0.split(",")]
        if len(parts) != n:
            raise _InputError(f"--x0 needs {n} component(s), got {len(parts)}")
        try:
            cfg["x0"] = tuple(float(p) for p in parts)
        except ValueError:
            raise _InputError(f"--x0 components must be numbers: {args.x0!r}")
    try:
        return _num.SimulationConfig(**cfg)
    except ValueError as e:
        raise _InputError(str(e))


def _parse_beta(text: str, mf: ModelFile) -> _red.FreeFunctionAnsatz:
    """--beta "b=<expr>,c=<expr>": either part optional."""
    b = c = None
    allowed = set(mf.system.states) | set(mf.system.noises) | {mf.system.time}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise _InputError(f"--beta expects name=expr pairs, got {part!r}")
        key, val = part.split("=", 1)
        key = key.strip()
        try:
            e = parse(val.strip())
        except ExprSyntaxError as ex:
            raise _InputError(f"--beta {key}: {ex}")
        if key == "b":
            b = e
        elif key == "c":
            c = e
        else:
            raise _InputError(f"--beta understands b and c, not {key!r}")
    return _red.FreeFunctionAnsatz(b, c)


def _expr_list(exprs) -> list:
    return [to_str(e) for e in exprs]


def _finish(report: dict, verdict: bool, t_start: float, args) -> int:
    """Record the verdict and the wall time, write the report to --report
    (if given), print it, and return the exit code: 0 verified, 1 not."""
    report["verdict"] = verdict
    report["wall_time_s"] = round(time.monotonic() - t_start, 3)
    # strict JSON has no NaN or Infinity: non-finite numbers become null
    report = json.loads(json.dumps(report), parse_constant=lambda _: None)
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.report:
        with open(args.report, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# check

def _check_one(sysm, v, n_points, tol):
    cls = classify(v)
    entry = {"classification": cls.label}
    if not cls.simple:
        res = tau_condition(as_ito(sysm), v.tau)
        checks = [vanishes_on_domain(r, sysm.domain, n_points=n_points)
                  for r in res]
        ok = all(c for c, _ in checks)
        worst = max((w for _, w in checks), default=0.0)
        entry["tau_condition"] = {
            "residuals": _expr_list(res),
            "max_abs_residual": worst,
            "satisfied": ok,
        }
        entry["verified"] = ok and worst <= tol
        return entry

    if sysm.is_ito():
        main_rep = residual_ito(sysm, v, n_points=n_points)
        cross_rep = residual_associated_stratonovich(sysm, v,
                                                     n_points=n_points)
    else:
        main_rep = residual_stratonovich(sysm, v, n_points=n_points)
        cross_rep = residual_ito(as_ito(sysm), v, n_points=n_points)
    routes = {}
    for rep in (main_rep, cross_rep):
        routes[rep.route] = {
            "drift_residuals": _expr_list(rep.drift_residuals),
            "diffusion_residuals": [
                _expr_list(row) for row in rep.diffusion_residuals],
            "max_abs_residual": rep.max_abs_residual,
            "verified": rep.verified,
        }
    entry["routes"] = routes
    entry["routes_agree"] = main_rep.verified == cross_rep.verified
    entry["verified"] = (main_rep.verified and cross_rep.verified
                         and main_rep.max_abs_residual <= tol
                         and cross_rep.max_abs_residual <= tol)

    if not cls.deterministic and sysm.n == 1 and sysm.m == 1:
        compat = compatibility_check(as_ito(sysm), v.xi[0], sysm.domain,
                                     n_points=n_points)
        entry["compatibility"] = {
            "gamma": to_str(compat.gamma),
            "residual": to_str(compat.residual),
            "max_abs_residual": compat.max_abs_residual,
            "satisfied": compat.satisfied,
        }
    return entry


def cmd_check(args, mf: ModelFile, report: dict) -> bool:
    picked = _pick_candidates(mf, args.candidate)
    out = {}
    for name in sorted(picked):
        out[name] = _check_one(mf.system, picked[name], args.numeric_samples,
                               args.tol)
    report.update(interpretation=mf.system.interpretation, candidates=out,
                  tolerance=args.tol)
    return all(entry["verified"] for entry in out.values())


# ---------------------------------------------------------------------------
# convert

def cmd_convert(args, mf: ModelFile, report: dict) -> bool:
    sysm = mf.system
    target = args.to
    if target == sysm.interpretation:
        converted = sysm
    elif target == STRATONOVICH:
        converted = ito_to_stratonovich(sysm)
    else:
        converted = stratonovich_to_ito(sysm)

    back = (converted if converted is sysm else
            (stratonovich_to_ito(converted) if target == STRATONOVICH
             else ito_to_stratonovich(converted)))
    roundtrip = all(
        equivalent(a, b, sysm.domain)
        for a, b in zip(sysm.drift + tuple(x for r in sysm.diffusion for x in r),
                        back.drift + tuple(x for r in back.diffusion for x in r)))

    text = print_model(ModelFile(converted, mf.candidates, mf.maps,
                                 mf.simulation))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    report.update({
        "from": sysm.interpretation,
        "to": target,
        "drift": _expr_list(converted.drift),
        "diffusion": [_expr_list(row) for row in converted.diffusion],
        "roundtrip_equivalent": roundtrip,
        "model_text": text,
    })
    return roundtrip


# ---------------------------------------------------------------------------
# reduce

def _reduction_entry(r: _red.ReductionResult) -> dict:
    entry = {
        "map": to_str(r.straightening.map),
        "new_symbol": r.straightening.new_symbol,
        "inverse": (to_str(r.straightening.inverse)
                    if r.straightening.invertible else "implicit"),
        "drift": to_str(r.drift),
        "noise": _expr_list(r.noise),
        "classification": r.classification,
        "condition_failures": list(r.condition_failures),
        "converted_from_stratonovich": r.converted_from_stratonovich,
    }
    if r.conditions:
        entry["conditions"] = {
            c.name: {"residual": to_str(c.residual), "satisfied": c.satisfied}
            for c in r.conditions}
    if r.compatibility is not None:
        entry["compatibility"] = {
            "residual": to_str(r.compatibility.residual),
            "satisfied": r.compatibility.satisfied,
        }
    if r.ansatz is not None:
        entry["ansatz"] = {"b": to_str(r.ansatz.b), "c": to_str(r.ansatz.c)}
    return entry


def _reduce_for(mf: ModelFile, name: str, v, beta, n_points):
    cls = classify(v)
    if not cls.simple:
        raise _InputError(
            f"candidate {name!r} has a time component; reduction here "
            "handles simple candidates")
    if beta is not None or not cls.deterministic:
        return _red.reduce_random(mf.system, v, beta, n_points=n_points)
    return _red.reduce_deterministic(mf.system, v, n_points=n_points)


def cmd_reduce(args, mf: ModelFile, report: dict) -> bool:
    if args.phi is not None:
        if args.phi not in mf.maps:
            known = ", ".join(sorted(mf.maps)) or "none defined"
            raise _InputError(f"unknown map {args.phi!r} (have: {known})")
        nr = _red.necessity_roundtrip(mf.system, mf.maps[args.phi],
                                      n_points=args.numeric_samples)
        report["necessity"] = {
            "map": args.phi,
            "candidate": to_str(nr.candidate.xi[0]),
            "verified": nr.report.verified,
            "max_abs_residual": nr.report.max_abs_residual,
            "compatibility_satisfied":
                None if nr.compatibility is None
                else nr.compatibility.satisfied,
            "classification": nr.classification,
            "recovered_map": to_str(nr.recovered_map),
            "derivative_matches": nr.derivative_matches,
            "exact_match": nr.exact_match,
        }
        return nr.report.verified and nr.derivative_matches

    if args.candidate is None:
        raise _InputError("reduce needs --candidate NAME or --phi NAME")
    picked = _pick_candidates(mf, args.candidate)
    name, v = next(iter(picked.items()))
    beta = _parse_beta(args.beta, mf) if args.beta is not None else None
    r = _reduce_for(mf, name, v, beta, args.numeric_samples)
    report["candidate"] = name
    report["reduction"] = _reduction_entry(r)
    return r.classification != _red.NOT_INTEGRABLE_FORM


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args, mf: ModelFile, report: dict) -> bool:
    cfg = _sim_config(mf, args)
    ps = _num.simulate(mf.system, cfg)
    if args.out:
        _num.export_csv(ps, args.out)
    final = ps.states[ps.valid, -1, :]
    # with every path excluded there are no statistics (null in the report)
    mean, var = ((final.mean(axis=0), final.var(axis=0)) if len(final)
                 else ([math.nan] * mf.system.n,) * 2)
    sanity = ps.increment_sanity()
    report["out"] = args.out
    report["numeric"] = {
        "seed": cfg.seed,
        "h": cfg.h,
        "t0": cfg.t0,
        "t1": cfg.t1,
        "paths": cfg.paths,
        "scheme": ps.scheme,
        "excluded_paths": ps.n_excluded,
        "final_mean": [float(m) for m in mean],
        "final_variance": [float(v) for v in var],
        "increment_sanity": sanity,
    }
    return bool(sanity["ok"]) and ps.n_excluded < cfg.paths


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args, mf: ModelFile, report: dict) -> bool:
    if args.candidate is None:
        raise _InputError("verify needs --candidate NAME")
    picked = _pick_candidates(mf, args.candidate)
    name, v = next(iter(picked.items()))
    report["candidate"] = name
    # symbolic gate at residual tolerance; --tol here bounds the pathwise gap
    symbolic = _check_one(mf.system, v, args.numeric_samples, 1e-9)
    report["symbolic"] = symbolic
    if not symbolic["verified"]:
        return False

    beta = None
    if args.beta is not None or not classify(v).deterministic:
        # a concrete map is needed for simulation: unset parts of beta are 0
        given = _parse_beta(args.beta or "", mf)
        beta = _red.FreeFunctionAnsatz(*(ZERO if e is None else e
                                         for e in (given.b, given.c)))
    red = _reduce_for(mf, name, v, beta, args.numeric_samples)
    report["reduction"] = _reduction_entry(red)
    if red.classification == _red.NOT_INTEGRABLE_FORM:
        raise _red.ReductionError(
            f"reduction along {name!r} is {red.classification}: the "
            "reduced coefficients still involve the state, and the "
            "path witnesses need the integrable or quadrature form")

    cfg = _sim_config(mf, args)
    ito_sys = as_ito(mf.system)
    pathwise = _num.pathwise_check(ito_sys, red.transformed,
                                   red.straightening.map, cfg)
    order = _num.strong_order_estimate(ito_sys, red.transformed,
                                       red.straightening.map, cfg)
    eps_h = min(cfg.h, 1e-5)
    eps_steps = max(1, round(min(cfg.t1 - cfg.t0, 0.25) / eps_h))
    eps_cfg = dataclasses.replace(
        cfg, h=eps_h, t1=cfg.t0 + eps_steps * eps_h,
        paths=min(cfg.paths, 12))
    scaling = _num.epsilon_symmetry_scaling(ito_sys, v, eps_cfg)

    pathwise_ok = pathwise.median_sup_error <= args.tol
    report["numeric"] = {
        "seed": cfg.seed,
        "h": cfg.h,
        "t0": cfg.t0,
        "t1": cfg.t1,
        "paths": cfg.paths,
        "pathwise": {
            "median_sup_error": pathwise.median_sup_error,
            "excluded_paths": pathwise.n_excluded,
            "bound": args.tol,
            "ok": pathwise_ok,
        },
        "strong_order": {
            "order": order.order,
            "err_coarse": order.err_coarse,
            "err_fine": order.err_fine,
            "skipped": order.skipped,
        },
        "epsilon_scaling": {
            "h": eps_cfg.h,
            "t1": eps_cfg.t1,
            "paths": eps_cfg.paths,
            "epsilons": list(scaling.epsilons),
            "defects": list(scaling.defects),
            "exponent": scaling.exponent,
            "degenerate": scaling.degenerate,
        },
    }
    return bool(symbolic["verified"] and pathwise_ok)


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sdesym",
        description="Verify, reduce, and simulate symmetries of SDE models.")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("model", help="model file")
        p.add_argument("--report", metavar="PATH",
                       help="also write the JSON report to PATH")

    def symbolic_flags(p):
        p.add_argument("--candidate", metavar="NAME",
                       help="restrict to one candidate")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="numeric tolerance for residual verdicts")
        p.add_argument("--numeric-samples", type=int, default=200,
                       metavar="N", help="sample points per residual check")

    def sim_flags(p):
        p.add_argument("--seed", type=int, help=f"RNG seed (default "
                       f"${_ENV_SEED} or 0)")
        p.add_argument("--h", type=float, help="step size")
        p.add_argument("--t0", type=float, help="start time")
        p.add_argument("--t1", type=float, help="end time")
        p.add_argument("--x0", metavar="A,B,...", help="initial state")
        p.add_argument("--paths", type=int, help="number of paths")

    p = sub.add_parser("check", help="run the determining equations")
    common(p); symbolic_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("convert", help="switch interpretation")
    common(p)
    p.add_argument("--to", required=True, choices=[ITO, STRATONOVICH])
    p.add_argument("--out", metavar="PATH", help="write the converted model")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("reduce", help="straighten along a candidate")
    common(p); symbolic_flags(p)
    p.add_argument("--beta", metavar="b=EXPR,c=EXPR",
                   help="integration-function ansatz for random reduction")
    p.add_argument("--phi", metavar="NAME",
                   help="necessity round trip through map NAME instead")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("simulate", help="integrate paths and export CSV")
    common(p); sim_flags(p)
    p.add_argument("--out", metavar="PATH", help="CSV output path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="reduce and test on simulated paths")
    common(p); symbolic_flags(p); sim_flags(p)
    p.add_argument("--beta", metavar="b=EXPR,c=EXPR",
                   help="integration-function ansatz for random reduction")
    p.set_defaults(fn=cmd_verify)
    # verify reads --tol as the pathwise bound; default matches the
    # h = 1e-3, T = 1, 100-path regime
    p.set_defaults(tol=0.05)
    return top


def main(argv=None) -> int:
    """Run one command: load the model, let `cmd_<name>(args, mf, report)`
    fill the report and return the verdict, then report and exit once.
    A reduction that cannot be carried out is an `error` report with
    verdict false (exit 1); unusable input and an output path that cannot
    be written exit 2 with an `error:` line on stderr."""
    args = _build_parser().parse_args(argv)
    t_start = time.monotonic()
    try:
        if getattr(args, "numeric_samples", 1) < 1:
            raise _InputError("--numeric-samples must be at least 1")
        if getattr(args, "numeric_samples", 1) > _MAX_SAMPLES:
            raise _InputError(
                f"--numeric-samples must be at most {_MAX_SAMPLES}")
        if not 0 <= getattr(args, "tol", 0) < math.inf:
            raise _InputError("--tol must be a finite number of at least 0")
        mf, digest = _load(args.model)
        report = {"command": args.cmd, "model": args.model,
                  "model_hash": digest}
        try:
            verdict = args.fn(args, mf, report)
        except (_red.ReductionError, NotElementaryError) as e:
            report["error"] = str(e)
            verdict = False
        return _finish(report, verdict, t_start, args)
    except (_InputError, ModelError, ExprSyntaxError, DomainError,
            _red.PreconditionError) as e:
        print(f"error: {e}", file=_sys.stderr)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=_sys.stderr)
    return 2


if __name__ == "__main__":
    _sys.exit(main())
