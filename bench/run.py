"""Per-command benchmark of the sdesym CLI.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 16 --trace 0

One closed loop: this client sends one command at a time to a single
worker process (worker.py) that has imported sdesym once and runs
`sdesym.cli.main(argv)` with its output captured.  Commands come in whole
rounds (models.py) until the commands' own time (worker CPU seconds, see
worker.py) adds up to --seconds; every command gets a freshly generated
model.  After each command, with the
worker idle, the client checks the output against independent computations
(oracle.py).  The last line of standard output is one JSON object with the
correctness verdict, the attempted and failed command counts and the
metrics: end-to-end ones with --trace 0, per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from models import (  # noqa: E402
    CHECK, EXPORT, PHI, REDUCE, SIMULATE, VERIFY, PLANS, round_commands)
from oracle import KEPT_FAULT, Checker  # noqa: E402

SETUPS = 15         # worker start-ups per run; setup_s is their median
TAIL_SAMPLES = 10   # a tail has at least this many samples beyond it
COMMAND_TIMEOUT = 100   # seconds; a run that stalls longer fails

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "check_p50_s": "s", "check_tail_s": "s",
    "reduce_p50_s": "s", "reduce_tail_s": "s", "phi_p50_s": "s",
    "verify_p50_s": "s", "path_steps_per_s": "1/s", "csv_mb_per_s": "MB/s",
}

PER_LAYER = {
    "model.load_model.s": "s",
    "symmetry.residuals.s": "s",
    "symmetry.compatibility_check.s": "s",
    "expr.residual_nodes": "count",
    "expr.differentiate.s": "s",
    "expr.equivalent.s": "s",
    "expr.max_abs_on_domain.s": "s",
    "expr.sample_points": "count",
    "calculus.as_ito.s": "s",
    "calculus.ito_change_of_variables.s": "s",
    "reduction.straighten.s": "s",
    "expr.antiderivative.s": "s",
    "reduction.reduce.s": "s",
    "reduction.necessity_roundtrip.s": "s",
    "numeric.simulate.s": "s",
    "numeric.simulate.path_steps": "count",
    "numeric.simulate.path_steps_per_s": "1/s",
    "numeric.pathwise_check.s": "s",
    "numeric.strong_order_estimate.s": "s",
    "numeric.epsilon_symmetry_scaling.s": "s",
    "numeric.witness_path_steps": "count",
    "numeric.excluded_paths": "count",
    "numeric.export_csv.s": "s",
    "numeric.export_csv.mb": "MB",
    "numeric.export_csv.mb_per_s": "MB/s",
    "cli.other.s": "s",
    "cli.commands": "count",
}


def worker_env() -> dict:
    """The pinned worker environment: one BLAS/OpenMP thread, a fixed hash
    seed (set iteration order feeds the canonical term order), the package
    from this checkout's src/."""
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    env.pop("SDESYM_SEED", None)
    return env


class Worker:
    def __init__(self, trace: bool, cwd: Path):
        argv = [sys.executable, str(HERE / "worker.py")]
        if trace:
            argv.append("--trace")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=worker_env(), cwd=cwd, text=True)
        hello = self._recv()
        if not hello.get("ready"):
            raise RuntimeError("worker did not start")
        self.setup_s = hello["setup_s"]

    def _recv(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], COMMAND_TIMEOUT)
        if not ready:
            raise RuntimeError(f"no answer from the worker in {COMMAND_TIMEOUT} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited (code {self.proc.wait()})")
        return json.loads(line)

    def run(self, argv) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def close(self) -> float:
        self.proc.stdin.write(json.dumps({"exit": True}) + "\n")
        self.proc.stdin.flush()
        rss = self._recv()["peak_rss_mb"]
        self.proc.wait(timeout=30)
        return rss

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def tail(values):
    """The highest percentile with at least TAIL_SAMPLES samples beyond it
    (the largest value when a run holds too few)."""
    s = sorted(values)
    return s[max(len(s) - 1 - TAIL_SAMPLES, 0)] if len(s) > TAIL_SAMPLES else s[-1]


def end_to_end(samples, setups, rss) -> dict:
    def med(kind):
        return statistics.median(samples[kind])
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "check_p50_s": med(CHECK), "check_tail_s": tail(samples[CHECK]),
        "reduce_p50_s": med(REDUCE), "reduce_tail_s": tail(samples[REDUCE]),
        "phi_p50_s": med(PHI), "verify_p50_s": med(VERIFY),
        "path_steps_per_s": med(SIMULATE), "csv_mb_per_s": med(EXPORT),
    }


def per_layer(layers, commands) -> dict:
    out = {name: layers.get(name, 0.0) for name in PER_LAYER}
    out["cli.commands"] = commands
    sim_s = layers.get("numeric.simulate.s")
    csv_s = layers.get("numeric.export_csv.s")
    out["numeric.simulate.path_steps_per_s"] = (
        out["numeric.simulate.path_steps"] / sim_s if sim_s else 0.0)
    out["numeric.export_csv.mb_per_s"] = (
        out["numeric.export_csv.mb"] / csv_s if csv_s else 0.0)
    return out


class Tally:
    """Attempted and failed commands of a run.  A command is correct, or
    fails with the kept fault (its time still counts, as it did its full
    work), or fails otherwise, which makes the whole run incorrect."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0

    def add(self, cmd, why) -> bool:
        """Count one checked command; True when its time is a sample."""
        self.attempted += 1
        if why is None:
            return True
        self.failed += 1
        if cmd.expect_fault and why == KEPT_FAULT:
            return True
        self.unexpected += 1
        return False

    @property
    def correct(self) -> bool:
        return self.unexpected == 0


def sample_value(cmd, res, out_path) -> float:
    """What a command contributes to its kind's metric: seconds, or for
    simulations a rate per second of command time."""
    t = res["elapsed_s"]
    if cmd.kind == SIMULATE:
        return cmd.sim["paths"] * round(cmd.sim["t1"] / cmd.sim["h"]) / t
    if cmd.kind == EXPORT:
        return os.path.getsize(out_path) / 1e6 / t
    return t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sdesym" / "cli.py").is_file():
        print(f"error: no sdesym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workers = []
    try:
        setups = []
        for _ in range(SETUPS):
            workers.append(Worker(bool(args.trace), work))
            setups.append(workers[-1].setup_s)
            if len(setups) < SETUPS:
                workers[-1].close()
        worker = workers[-1]

        checker = Checker()
        samples = defaultdict(list)
        layers = defaultdict(float)
        tally = Tally()
        measured = 0.0
        r = 0
        seen = set()
        while measured < args.seconds:
            for cmd in round_commands(args.workload, args.seed, r, seen):
                model_path = work / f"{cmd.model.name}.sde"
                model_path.write_text(cmd.model.text())
                out_path = work / f"{cmd.model.name}.csv"
                call = [str(model_path) if a == "MODEL" else
                        str(out_path) if a == "OUT" else a for a in cmd.argv]
                res = worker.run(call)
                measured += res["elapsed_s"]
                why = checker.check(cmd, res, out_path)
                if tally.add(cmd, why):
                    samples[cmd.kind].append(sample_value(cmd, res, out_path))
                elif why is not None:
                    print(f"FAILED {cmd.kind} {' '.join(cmd.argv)} "
                          f"[{cmd.model.name}]: {why}\n{res['stderr']}",
                          file=sys.stderr)
                for k, v in res.get("trace", {}).items():
                    layers[k] += v
                model_path.unlink()
                if out_path.exists():
                    out_path.unlink()
            r += 1
        rss = worker.close()
    finally:
        for w in workers:
            w.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    if args.trace:
        values, units = per_layer(layers, tally.attempted), PER_LAYER
    else:
        values, units = end_to_end(samples, setups, rss), END_TO_END
    print(f"{args.workload}: {r} rounds, {tally.attempted} commands, "
          f"{tally.failed} failed, "
          f"{measured:.1f} s of command time", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
