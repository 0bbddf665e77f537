"""System containers and the model file format.

A model file is sectioned plain text.  ``[system]`` declares the equation;
``[candidate NAME]`` blocks declare symmetry candidates; ``[map NAME]``
blocks declare change-of-variables generators or maps; an optional
``[simulation]`` block carries default simulation settings::

    [system]
    interpretation = ito
    states = y
    noises = w
    drift.1 = exp(-y) - 1/2*exp(-2*y)
    diffusion.1.1 = exp(-y)
    domain.y = 0.25, 3

    [candidate X1]
    xi.1 = exp(-y)
    tau = 0

    [map PHI]
    phi = exp(y)

Drift and diffusion entries are functions of the states and t only; xi
entries may additionally involve the noise symbols and opaque function
symbols; tau may involve t only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .expr import (
    Expr, ZERO, Domain, free_symbols, opaque_functions, simplify,
    to_str, is_zero, contains,
)
from .parser import parse, ExprSyntaxError

__all__ = [
    "ITO", "STRATONOVICH", "ModelError", "SdeSystem", "VectorField",
    "Classification", "ModelFile", "load_model", "print_model", "classify",
    "make_system",
]

ITO = "ito"
STRATONOVICH = "stratonovich"

_RESERVED = {"t", "_u", "_x", "_eps"}


class ModelError(Exception):
    def __init__(self, message: str, line: int = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class SdeSystem:
    """An SDE dx^i = (drift^i) dt + sum_k (diffusion^i_k) dw^k."""
    states: tuple
    noises: tuple
    drift: tuple            # drift[i]
    diffusion: tuple        # diffusion[i][k]
    interpretation: str = ITO
    domain: Domain = field(default_factory=Domain)
    time: str = "t"

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.noises)

    def is_ito(self) -> bool:
        return self.interpretation == ITO

    def with_coefficients(self, drift, diffusion, interpretation=None):
        return replace(
            self, drift=tuple(drift),
            diffusion=tuple(tuple(row) for row in diffusion),
            interpretation=interpretation or self.interpretation)


@dataclass(frozen=True)
class VectorField:
    """Candidate symmetry generator xi^i d/dx^i (+ tau d/dt, tau = tau(t))."""
    xi: tuple
    tau: Expr = ZERO
    states: tuple = ()
    noises: tuple = ()


@dataclass(frozen=True)
class Classification:
    simple: bool         # no time component
    deterministic: bool  # xi free of the noise variables

    @property
    def label(self) -> str:
        a = "simple" if self.simple else "general"
        b = "deterministic" if self.deterministic else "random"
        return f"{a} {b}"


def classify(v: VectorField) -> Classification:
    simple = is_zero(v.tau)
    deterministic = True
    for x in v.xi:
        if any(contains(x, w) for w in v.noises):
            deterministic = False
            break
    return Classification(simple=simple, deterministic=deterministic)


@dataclass
class ModelFile:
    system: SdeSystem
    candidates: dict
    maps: dict
    simulation: dict


def make_system(states, noises, drift, diffusion, interpretation=ITO,
                domain=None, time="t") -> SdeSystem:
    """Validating constructor; expression arguments may be strings."""
    states = tuple(states)
    noises = tuple(noises)
    drift = tuple(_as_parsed(e) for e in drift)
    diffusion = tuple(tuple(_as_parsed(e) for e in row) for row in diffusion)
    sys = SdeSystem(states, noises, drift, diffusion, interpretation,
                    _role_domain(domain.bounds if domain else None, states,
                                 noises, time), time)
    _validate_system(sys)
    return sys


def _role_domain(bounds, states, noises, time="t") -> Domain:
    """The validity box with the declared role of each symbol, so that a
    symbol without an explicit range gets its role's default range."""
    roles = {time: "time", **dict.fromkeys(states, "state"),
             **dict.fromkeys(noises, "noise")}
    return Domain(bounds, roles)


def _as_parsed(e):
    return parse(e) if isinstance(e, str) else simplify(e)


def _validate_system(sys: SdeSystem):
    if not sys.states:
        raise ModelError("at least one state variable is required")
    if not sys.noises:
        raise ModelError("at least one noise variable is required")
    names = list(sys.states) + list(sys.noises) + [sys.time]
    if len(set(names)) != len(names):
        raise ModelError("state, noise and time symbols must be distinct")
    for nm in sys.states + sys.noises:
        if nm in _RESERVED:
            raise ModelError(f"symbol name {nm!r} is reserved")
    if sys.interpretation not in (ITO, STRATONOVICH):
        raise ModelError(f"unknown interpretation {sys.interpretation!r}")
    if len(sys.drift) != sys.n:
        raise ModelError(
            f"expected {sys.n} drift entries, got {len(sys.drift)}")
    if len(sys.diffusion) != sys.n or any(len(r) != sys.m for r in sys.diffusion):
        raise ModelError(
            f"diffusion must be {sys.n} rows of {sys.m} entries")
    allowed = set(sys.states) | {sys.time}
    for i, e in enumerate(sys.drift):
        _check_symbols(e, allowed, f"drift.{i + 1}")
    for i, row in enumerate(sys.diffusion):
        for k, e in enumerate(row):
            _check_symbols(e, allowed, f"diffusion.{i + 1}.{k + 1}")


def _check_symbols(e: Expr, allowed, where):
    extra = free_symbols(e) - allowed
    if extra:
        raise ModelError(f"{where} uses undeclared symbol(s) {sorted(extra)}")
    if opaque_functions(e):
        raise ModelError(f"{where} may not use opaque function symbols")


# ---------------------------------------------------------------------------
# text format

def load_model(text: str) -> ModelFile:
    sections = _split_sections(text)

    sys_items = None
    candidates = {}
    maps = {}
    simulation = {}
    for header, items, line in sections:
        if header == "system":
            if sys_items is not None:
                raise ModelError("duplicate [system] section", line)
            sys_items = items
        elif header.startswith("candidate "):
            name = header.split(None, 1)[1]
            if name in candidates:
                raise ModelError(f"duplicate candidate {name!r}", line)
            candidates[name] = items
        elif header.startswith("map "):
            name = header.split(None, 1)[1]
            if name in maps:
                raise ModelError(f"duplicate map {name!r}", line)
            maps[name] = items
        elif header == "simulation":
            if simulation:
                raise ModelError("duplicate [simulation] section", line)
            simulation = items
        else:
            raise ModelError(f"unknown section [{header}]", line)

    if sys_items is None:
        raise ModelError("missing [system] section")
    system = _build_system(sys_items)

    out_candidates = {}
    for name, items in candidates.items():
        out_candidates[name] = _build_candidate(name, items, system)
    out_maps = {}
    for name, items in maps.items():
        out_maps[name] = _build_map(name, items, system)
    sim = _build_simulation(simulation, system)
    return ModelFile(system, out_candidates, out_maps, sim)


def _split_sections(text: str):
    sections = []
    header, items, start = None, None, 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelError("malformed section header", lineno)
            if header is not None:
                sections.append((header, items, start))
            header, items, start = line[1:-1].strip(), {}, lineno
            continue
        if "=" not in line:
            raise ModelError("expected 'key = value'", lineno)
        if header is None:
            raise ModelError("entry outside of any section", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in items:
            raise ModelError(f"duplicate key {key!r}", lineno)
        items[key] = (value, lineno)
    if header is not None:
        sections.append((header, items, start))
    return sections


def _pop(items, key, default=None):
    return items.pop(key, (default, None))


def _parse_here(text, lineno):
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        raise ModelError(str(exc), lineno) from None


def _build_system(items) -> SdeSystem:
    items = dict(items)
    interp, ln = _pop(items, "interpretation")
    if interp is None:
        raise ModelError("missing 'interpretation'")
    states, ln_s = _pop(items, "states")
    noises, ln_n = _pop(items, "noises")
    if states is None or noises is None:
        raise ModelError("missing 'states' or 'noises'")
    states = tuple(_split_names(states, ln_s))
    noises = tuple(_split_names(noises, ln_n))

    n, m = len(states), len(noises)
    drift = [None] * n
    diffusion = [[ZERO] * m for _ in range(n)]
    bounds = {}
    for key, (value, lineno) in items.items():
        if key.startswith("drift."):
            i = _index(key[6:], n, lineno)
            drift[i] = _parse_here(value, lineno)
        elif key.startswith("diffusion."):
            parts = key[10:].split(".")
            if len(parts) != 2:
                raise ModelError(f"bad diffusion key {key!r}", lineno)
            i = _index(parts[0], n, lineno)
            k = _index(parts[1], m, lineno)
            diffusion[i][k] = _parse_here(value, lineno)
        elif key.startswith("domain."):
            sym_name = key[7:]
            if sym_name not in states + noises + ("t",):
                raise ModelError(f"domain for unknown symbol {sym_name!r}", lineno)
            bounds[sym_name] = _parse_range(value, lineno)
        else:
            raise ModelError(f"unknown key {key!r} in [system]", lineno)
    for i, e in enumerate(drift):
        if e is None:
            raise ModelError(f"missing drift.{i + 1}")

    sys = SdeSystem(states, noises, tuple(drift),
                    tuple(tuple(r) for r in diffusion),
                    interp, _role_domain(bounds, states, noises))
    _validate_system(sys)
    return sys


def _build_candidate(name, items, system: SdeSystem) -> VectorField:
    items = dict(items)
    n = system.n
    xi = [None] * n
    tau = ZERO
    for key, (value, lineno) in items.items():
        if key.startswith("xi."):
            i = _index(key[3:], n, lineno)
            xi[i] = _parse_here(value, lineno)
        elif key == "tau":
            tau = _parse_here(value, lineno)
            extra = free_symbols(tau) - {system.time}
            if extra:
                raise ModelError(
                    f"tau may depend on {system.time} only, found {sorted(extra)}",
                    lineno)
        else:
            raise ModelError(f"unknown key {key!r} in [candidate {name}]", lineno)
    for i, e in enumerate(xi):
        if e is None:
            raise ModelError(f"candidate {name!r}: missing xi.{i + 1}")
        allowed = set(system.states) | set(system.noises) | {system.time}
        extra = free_symbols(e) - allowed
        if extra:
            raise ModelError(
                f"candidate {name!r}: xi.{i + 1} uses undeclared symbol(s) "
                f"{sorted(extra)}")
    return VectorField(tuple(xi), tau, system.states, system.noises)


def _build_map(name, items, system: SdeSystem) -> Expr:
    items = dict(items)
    value, lineno = _pop(items, "phi")
    if value is None:
        raise ModelError(f"map {name!r}: missing 'phi'")
    if items:
        bad = next(iter(items))
        raise ModelError(f"unknown key {bad!r} in [map {name}]", items[bad][1])
    return _parse_here(value, lineno)


_SIM_KEYS = ("t0", "t1", "h", "paths", "x0")


def _build_simulation(items, system: SdeSystem) -> dict:
    out = {}
    for key, (value, lineno) in dict(items).items():
        if key not in _SIM_KEYS:
            raise ModelError(f"unknown key {key!r} in [simulation]", lineno)
        if key == "paths":
            try:
                out[key] = int(value)
            except ValueError:
                raise ModelError(
                    f"paths must be an integer, got {value!r}", lineno) from None
        elif key == "x0":
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != system.n:
                raise ModelError(
                    f"x0 needs {system.n} component(s), got {len(parts)}", lineno)
            out[key] = tuple(_sim_number(key, p, lineno) for p in parts)
        else:
            out[key] = _sim_number(key, value, lineno)
    return out


def _sim_number(key, text, lineno) -> float:
    try:
        v = float(text)
        if math.isfinite(v):
            return v
    except ValueError:
        pass
    raise ModelError(f"{key} must be a finite number, got {text!r}", lineno)


def _split_names(value, lineno):
    names = [p for chunk in value.split(",") for p in chunk.split()]
    for nm in names:
        if not nm.isidentifier():
            raise ModelError(f"bad symbol name {nm!r}", lineno)
    if len(set(names)) != len(names):
        raise ModelError("repeated symbol name", lineno)
    return names


def _index(text, limit, lineno):
    try:
        i = int(text)
    except ValueError:
        raise ModelError(f"bad index {text!r}", lineno) from None
    if not 1 <= i <= limit:
        raise ModelError(f"index {i} out of range 1..{limit}", lineno)
    return i - 1


def _parse_range(value, lineno):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        raise ModelError("a range is 'lo, hi'", lineno)
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ModelError("a range is two numbers 'lo, hi'", lineno) from None
    if not lo < hi:
        raise ModelError(f"empty range [{lo}, {hi}]", lineno)
    return (lo, hi)


def print_model(mf: ModelFile) -> str:
    sys = mf.system
    out = ["[system]"]
    out.append(f"interpretation = {sys.interpretation}")
    out.append(f"states = {', '.join(sys.states)}")
    out.append(f"noises = {', '.join(sys.noises)}")
    for i, e in enumerate(sys.drift):
        out.append(f"drift.{i + 1} = {to_str(e)}")
    for i, row in enumerate(sys.diffusion):
        for k, e in enumerate(row):
            if not is_zero(e):
                out.append(f"diffusion.{i + 1}.{k + 1} = {to_str(e)}")
    for name in sorted(sys.domain.bounds):
        lo, hi = sys.domain.bounds[name]
        out.append(f"domain.{name} = {lo!r}, {hi!r}")

    for name, v in mf.candidates.items():
        out.append("")
        out.append(f"[candidate {name}]")
        for i, e in enumerate(v.xi):
            out.append(f"xi.{i + 1} = {to_str(e)}")
        if not is_zero(v.tau):
            out.append(f"tau = {to_str(v.tau)}")
    for name, e in mf.maps.items():
        out.append("")
        out.append(f"[map {name}]")
        out.append(f"phi = {to_str(e)}")
    if mf.simulation:
        out.append("")
        out.append("[simulation]")
        for key in _SIM_KEYS:
            if key in mf.simulation:
                val = mf.simulation[key]
                if key == "x0":
                    out.append(f"x0 = {', '.join(repr(v) for v in val)}")
                else:
                    out.append(f"{key} = {val!r}")
    return "\n".join(out) + "\n"
