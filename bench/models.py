"""Seeded model families and the command sequence of each workload.

Two families, both built so that the right answer is known by
construction (see README.md):

* map family: an integrable target dx = a(t) dt + b(t) dw pulled back
  through an invertible map x = PHI(y); the generator 1/PHI' is a symmetry,
  the control y/PHI' is not.  One-state and two-state (product) variants.
* first-integral family: dy = a(t) y dt + s y dw with first integral
  I = log y - A(t) + s^2 t/2 - s w and the noise-dependent candidate
  y*eta(I).

Every command gets its own model.  Parameters come from a `random.Random`
seeded by a string naming the workload seed, the round and the slot, so the
same seed writes byte-identical files.  The models of the `reduce` commands
that hit the known classification fault are seeded by round and slot only:
their inputs do not depend on the seed, so they fail in every run.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as Q

CHECK, REDUCE, PHI, VERIFY, SIMULATE, EXPORT = (
    "check", "reduce", "phi", "verify", "simulate", "export")
# maps whose reduction the program misclassifies as NotIntegrableForm
FAULTY_MAPS = ("cubic", "expsum")
ETAS = ("u", "1+u", "exp", "free")


def _q(x: Q) -> str:
    """A rational in the model grammar, parenthesised when not an integer."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"({x})"


@dataclass(frozen=True)
class Map:
    """x = PHI(y) with its first two derivatives, as grammar strings in y."""
    kind: str
    phi: str
    d1: str
    d2: str


def make_map(kind: str, y: str, rng: random.Random) -> Map:
    if kind == "exp":
        k = rng.choice([Q(1, 2), Q(2, 3), Q(3, 4), Q(1)])
        e = f"exp({_q(k)}*{y})"
        return Map(kind, e, f"{_q(k)}*{e}", f"{_q(k * k)}*{e}")
    if kind == "log":
        return Map(kind, f"log({y})", f"1/{y}", f"-1/{y}^2")
    if kind == "power":
        p = rng.choice([Q(2), Q(3), Q(1, 2), Q(3, 2)])
        return Map(kind, f"{y}^{_q(p)}", f"{_q(p)}*{y}^{_q(p - 1)}",
                   f"{_q(p * (p - 1))}*{y}^{_q(p - 2)}")
    if kind == "cubic":
        return Map(kind, f"{y} + {y}^3", f"1 + 3*{y}^2", f"6*{y}")
    if kind == "expsum":
        return Map(kind, f"{y} + exp({y})", f"1 + exp({y})", f"exp({y})")
    raise ValueError(f"unknown map kind {kind!r}")


@dataclass(frozen=True)
class Target:
    """dx = a(t) dt + b(t) dw."""
    a: str
    b: str


def make_target(rng: random.Random, aform: int, bform: int) -> Target:
    """Drift form 0: c0, 1: c0 + c1 t, 2: c0 cos t; noise form 0: s0,
    1: s0 (1 + c1 t), 2: s0 exp(-c1 t).  The seed picks the constants."""
    c0 = Q(rng.randint(1, 8), 8)
    c1 = Q(rng.randint(2, 6), 12)
    s0 = Q(rng.randint(6, 12), 60)
    a = [_q(c0), f"{_q(c0)} + {_q(c1)}*t", f"{_q(c0)}*cos(t)"][aform]
    b = [_q(s0), f"{_q(s0)}*(1 + {_q(c1)}*t)",
         f"{_q(s0)}*exp(-{_q(c1)}*t)"][bform]
    return Target(a, b)


@dataclass
class Model:
    """One generated model file and what its construction guarantees."""
    name: str
    family: str                 # "map" or "integral"
    interpretation: str
    states: tuple
    noises: tuple
    drift: tuple                # one string per state
    diffusion: tuple            # diagonal: state i is driven by noise i only
    domain: dict                # symbol -> (lo, hi)
    x0: tuple
    candidates: dict            # name -> (xi strings, is_symmetry)
    maps: dict = field(default_factory=dict)   # name -> phi string
    targets: tuple = ()         # per state; first-integral family: drift
                                # a*y and noise b*y
    phis: tuple = ()            # map family: Map per state
    linear: bool = False        # drift and noise linear in each state

    def text(self) -> str:
        lines = [f"# benchmark model {self.name} ({self.family} family)",
                 "[system]",
                 f"interpretation = {self.interpretation}",
                 f"states = {', '.join(self.states)}",
                 f"noises = {', '.join(self.noises)}"]
        for i, f in enumerate(self.drift, 1):
            lines.append(f"drift.{i} = {f}")
        for i, g in enumerate(self.diffusion, 1):
            lines.append(f"diffusion.{i}.{i} = {g}")
        for name, (lo, hi) in self.domain.items():
            lines.append(f"domain.{name} = {lo}, {hi}")
        for name, (xi, _) in self.candidates.items():
            lines += ["", f"[candidate {name}]"]
            lines += [f"xi.{i} = {x}" for i, x in enumerate(xi, 1)]
        for name, phi in self.maps.items():
            lines += ["", f"[map {name}]", f"phi = {phi}"]
        lines += ["", "[simulation]", "t0 = 0", "t1 = 1", "h = 1e-3",
                  "paths = 100", f"x0 = {', '.join(self.x0)}"]
        return "\n".join(lines) + "\n"


def _y0(m: Map, rng: random.Random) -> str:
    """Initial state whose image PHI(y0) sits far from where the map's
    inverse or the coefficients break down (x <= 0 for exp and power)."""
    lo = 1.5 if m.kind in ("exp", "power") else 0.75
    return f"{lo + 0.05 * rng.randint(0, 10):.2f}"


def map_model(name: str, specs, rng: random.Random,
              interpretation: str) -> Model:
    """Map family; one state per spec "<map kind><drift form><noise form>",
    e.g. "log10"."""
    n = len(specs)
    states = ("y",) if n == 1 else tuple(f"y{i}" for i in range(1, n + 1))
    noises = ("w",) if n == 1 else tuple(f"w{i}" for i in range(1, n + 1))
    drift, diff, xi, ctrl, phis, targets, x0 = [], [], [], [], [], [], []
    domain = {}
    for y, spec in zip(states, specs):
        kind = spec[:-2]
        m = make_map(kind, y, rng)
        t = make_target(rng, int(spec[-2]), int(spec[-1]))
        g = f"({t.b})/({m.d1})"
        if interpretation == "ito":
            f = f"(({t.a}) - 1/2*({t.b})^2*({m.d2})/({m.d1})^2)/({m.d1})"
        else:
            f = f"({t.a})/({m.d1})"
        drift.append(f)
        diff.append(g)
        xi.append(f"1/({m.d1})")
        ctrl.append(f"{y}/({m.d1})")
        phis.append(m)
        targets.append(t)
        domain[y] = ("0.5", "2") if kind not in ("exp", "power") else ("1", "2.5")
        x0.append(_y0(m, rng))
    maps = {"PHI": phis[0].phi} if n == 1 else {}
    return Model(name, "map", interpretation, states, noises, tuple(drift),
                 tuple(diff), domain, tuple(x0),
                 {"XI": (tuple(xi), True), "CTRL": (tuple(ctrl), False)},
                 maps, tuple(targets), tuple(phis),
                 linear=all(m.kind == "log" for m in phis))


def integral_model(name: str, eta: str, rng: random.Random) -> Model:
    """First-integral family: dy = a(t) y dt + s y dw, candidate y*eta(I)."""
    c0 = Q(rng.randint(2, 12), 32)      # I > 0 on the box needs c0 + s/2 < log 2
    s = Q(rng.randint(2, 8), 24)
    a = _q(c0)
    I = f"log(y) - {a}*t + {_q(s * s / 2)}*t - {_q(s)}*w"
    if eta == "u":
        xi, phi = f"y*({I})", f"log({I})"
    elif eta == "1+u":
        xi, phi = f"y*(1 + {I})", f"log(1 + {I})"
    elif eta == "exp":
        xi, phi = f"y*exp({I})", f"-exp(-({I}))"
    elif eta == "free":
        xi, phi = f"y*eta({I})", None
    else:
        raise ValueError(f"unknown eta {eta!r}")
    return Model(name, "integral", "ito", ("y",), ("w",), (f"{a}*y",),
                 (f"{_q(s)}*y",), {"y": ("2", "3"), "w": ("-0.5", "0.5")},
                 (f"{2 + 0.05 * rng.randint(0, 10):.2f}",),
                 {"X": ((xi,), True)}, {"PHI": phi} if phi else {},
                 targets=(Target(a, _q(s)),), linear=True)


@dataclass
class Command:
    """One CLI call: `argv` names the model file as the literal MODEL and
    an output file, if any, as OUT; the runner substitutes real paths."""
    kind: str
    argv: tuple
    model: Model
    sim: dict = None            # seed, paths, h, t1 of simulating commands
    beta: tuple = None          # (b, c) pinned by --beta
    expect_fault: bool = False  # known misclassification: counted failed


# Simulation sizes.  Full-size commands carry a workload; the light ones
# put every command kind into every workload at a small share of its time.
VERIFY_FULL = dict(paths=100, h=1e-3, t1=1.0)      # the CLI defaults
VERIFY_LIGHT = dict(paths=20, h=1e-3, t1=0.02)
WIDE = dict(paths=3000, h=0.02, t1=1.0)
WIDE_LIGHT = dict(paths=1000, h=0.05, t1=1.0)
CSV_FULL = dict(paths=40, h=0.002, t1=1.0)
CSV_LIGHT = dict(paths=20, h=0.004, t1=1.0)


def _sim_argv(sim: dict, defaults: bool) -> tuple:
    argv = ("--seed", str(sim["seed"]))
    if not defaults:
        argv += ("--paths", str(sim["paths"]), "--h", repr(sim["h"]),
                 "--t1", repr(sim["t1"]))
    return argv


def make_command(kind: str, spec: str, interp: str, size: dict,
                 name: str, rng: random.Random) -> Command:
    """Build one command on a fresh model.

    `spec` names the model: "<map kind><drift form><noise form>" such as
    "log10", two of these joined by "+" for the two-state variant, or
    "fi:<eta>" for the first-integral family.
    """
    if spec.startswith("fi:"):
        model = integral_model(name, spec[3:], rng)
        cand = "X"
    else:
        model = map_model(name, tuple(spec.split("+")), rng, interp)
        cand = "XI"
    if kind == CHECK:
        return Command(kind, ("check", "MODEL"), model)
    if kind == PHI:
        return Command(kind, ("reduce", "MODEL", "--phi", "PHI"), model)
    if kind == REDUCE:
        if model.family == "integral":
            b = f"{_q(rng.choice([Q(1, 2), Q(1, 3), Q(2)]))}*t"
            c = _q(rng.choice([Q(1, 4), Q(1, 2), Q(1)]))
            return Command(kind, ("reduce", "MODEL", "--candidate", cand,
                                  "--beta", f"b={b},c={c}"), model,
                           beta=(b, c))
        return Command(kind, ("reduce", "MODEL", "--candidate", cand), model,
                       expect_fault=model.phis[0].kind in FAULTY_MAPS)
    sim = dict(size, seed=rng.randrange(1, 2**31))
    defaults = size == VERIFY_FULL
    if kind == VERIFY:
        return Command(kind, ("verify", "MODEL", "--candidate", cand)
                       + _sim_argv(sim, defaults), model, sim)
    argv = ("simulate", "MODEL") + _sim_argv(sim, False)
    if kind == EXPORT:
        argv += ("--out", "OUT")
    return Command(kind, argv, model, sim)


I, S = "ito", "stratonovich"


def _slots(kind, size, *specs):
    """Plan entries of one kind; a spec is "<model spec>/<i|s>"."""
    return [(kind, spec[:-2], I if spec.endswith("/i") else S, size)
            for spec in specs]


# One round of each workload: (kind, model spec, interpretation, size).  A
# run executes whole rounds, so every run holds the same mix.  Command cost
# is set by a model's structure far more than by its seeded constants, so
# each kind is laid out as groups of like-cost structures: a large middle
# group of near-equal cost with as many cheaper commands as dearer ones, so
# the median falls inside it.  In `symbolic` the dearest group of `check`
# and `reduce` is ten first-integral commands with eta = u per round, so
# that the tail (the eleventh-largest sample) falls inside it for 2 to 10
# rounds a run.
_MID_CHECK = ["exp10/i", "exp10/s", "log11/s", "log01/i", "log01/s",
              "power21/s", "power01/s", "log21/i"]
# reduce's middle group is the rational maps, whose reduction the program
# misclassifies (see README.md): those commands do their full work
_MID_REDUCE = ["cubic00/i", "cubic00/s", "expsum00/i", "expsum00/s",
               "expsum10/i", "expsum10/s", "cubic20/s", "expsum20/s"]
_MID_PHI = ["cubic00/i", "cubic00/s", "expsum00/i", "expsum00/s"]
_FI_DEAR = ["fi:u/i"] * 10

_SYMBOLIC = (
    _slots(CHECK, None,
           "fi:free/i", "fi:exp/i", "log00/i", "log00/s", "power00/i",
           "power00/s", "log22/s", "power20/s", "power10/s", "log10/i",
           "log20/s", "power02/i", "log02/s",
           *_MID_CHECK * 3,
           "exp10+log10/i", "cubic00/i", "expsum10/i", *_FI_DEAR)
    + _slots(REDUCE, None,
             "log00/i", "log10/s", "exp00/s", "power10/s", "log22/i",
             "power00/i", "fi:exp/i", "log20/s", "exp20/s", "log02/s",
             *_MID_REDUCE * 3, *_FI_DEAR)
    + _slots(PHI, None,
             "log00/i", "log10/s", "exp00/s", "power00/i", "fi:exp/i",
             *_MID_PHI * 6,
             "fi:u/i", "fi:u/i", "fi:u/i", "fi:u/i", "fi:1+u/i")
    + _slots(VERIFY, VERIFY_LIGHT, *["log00/i"] * 8)
    + _slots(SIMULATE, WIDE_LIGHT, *["power00/i"] * 12)
    + _slots(EXPORT, CSV_LIGHT, *["log00/i"] * 8)
)


def _companions(tail: int) -> list:
    """Light companions: every kind in every workload.  Check and reduce
    get `tail` dearer commands per round, and as many cheaper ones, around
    a middle group, so that the median falls in the middle group and the
    tail among the dear ones at the workload's usual number of rounds."""
    return (_slots(CHECK, None, *["log00/i"] * tail,
                   *["power00/i", "power00/s"] * 5, *["exp10/i"] * tail)
            + _slots(REDUCE, None, *["log00/i"] * tail,
                     *["power00/i", "power00/s"] * 5, *["exp11/i"] * tail)
            + _slots(PHI, None, *["log00/i", "log00/s"] * 6))


PLANS = {
    "symbolic": _SYMBOLIC,
    "witness": (
        _slots(VERIFY, VERIFY_FULL,
               "log00/i", "log00/s", "power00/i", "power00/s",
               "exp00/i", "exp00/s")
        + _slots(SIMULATE, WIDE_LIGHT, *["power00/i"] * 12)
        + _slots(EXPORT, CSV_LIGHT, *["log00/i"] * 8)
        + _companions(tail=7)),
    "ensemble": (
        _slots(SIMULATE, WIDE,
               "log00/i", "log11/s", "power00/i", "power00/s", "cubic00/i",
               "log00+log00/i", "fi:u/i", "exp00+power00/s")
        + _slots(EXPORT, CSV_FULL,
                 "log00/i", "exp00/i", "power00/i", "cubic00/i", "exp00/s",
                 "log00+power00/i")
        + _slots(VERIFY, VERIFY_LIGHT, *["log00/i"] * 12)
        + _companions(tail=3)),
}


def round_commands(workload: str, seed: int, r: int, seen: set) -> list:
    """The commands of round `r` of a workload, in execution order.

    `seen` holds the model texts of the earlier rounds of the run; a model
    that repeats one is drawn again, so no input repeats within a run.  The
    faulty slots are drawn first and can only repeat each other, which
    keeps them independent of the seed."""
    plan = PLANS[workload]
    faulty = [kind == REDUCE and spec[:-2] in FAULTY_MAPS
              for kind, spec, _, _ in plan]
    out = [None] * len(plan)
    for slot in sorted(range(len(plan)), key=lambda i: not faulty[i]):
        kind, spec, interp, size = plan[slot]
        rng = random.Random(f"fault:{r}:{slot}" if faulty[slot]
                            else f"{workload}:{seed}:{r}:{slot}")
        for _ in range(100):
            cmd = make_command(kind, spec, interp, size,
                               f"{workload[0]}{r}-{slot}", rng)
            if faulty[slot]:
                # an x0 off the seeded grid keeps these apart from every
                # seeded model, so they never need drawing again because of
                # one; `reduce` does not read x0
                cmd.model.x0 = tuple(f"{float(v) + 0.025:.3f}"
                                     for v in cmd.model.x0)
            key = cmd.model.text().split("\n", 1)[1]
            if key not in seen:
                break
        seen.add(key)
        out[slot] = cmd
    return _spread(out)


def _spread(cmds: list) -> list:
    """Execution order: each kind's commands spaced evenly over the round.
    The machine's speed drifts over seconds, so a kind run back to back
    would sample one moment of it per round."""
    count, done, key = Counter(c.kind for c in cmds), Counter(), []
    for c in cmds:
        key.append((done[c.kind] + 0.5) / count[c.kind])
        done[c.kind] += 1
    return [c for _, c in sorted(zip(key, cmds), key=lambda p: p[0])]
