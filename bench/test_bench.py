"""Tests of the benchmark itself:  python -m pytest bench

They check that inputs are reproducible from the seed, that the
independent checks accept what the model families construct and reject
what is wrong, and that one round of every workload runs clean.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import models  # noqa: E402
import run  # noqa: E402
from oracle import Checker  # noqa: E402


def _rounds(workload, seed, n):
    seen = set()
    return [models.round_commands(workload, seed, r, seen) for r in range(n)]


def _texts(workload, seed, n=2):
    return [c.model.text() for rnd in _rounds(workload, seed, n) for c in rnd]


@pytest.mark.parametrize("workload", sorted(models.PLANS))
def test_same_seed_writes_identical_models(workload):
    assert _texts(workload, 7) == _texts(workload, 7)
    assert _texts(workload, 7) != _texts(workload, 8)


def test_seed_changes_models_but_not_the_faulty_ones():
    a = [c for rnd in _rounds("symbolic", 1, 3) for c in rnd]
    b = [c for rnd in _rounds("symbolic", 2, 3) for c in rnd]
    faulty = [(x.model.text(), y.model.text())
              for x, y in zip(a, b) if x.expect_fault]
    assert faulty and all(x == y for x, y in faulty)
    seeded = [(x.model.text(), y.model.text())
              for x, y in zip(a, b) if not x.expect_fault]
    assert sum(x != y for x, y in seeded) > len(seeded) // 2


@pytest.mark.parametrize("workload", sorted(models.PLANS))
def test_no_model_repeats_within_a_run(workload):
    texts = [t.split("\n", 1)[1] for t in _texts(workload, 3, n=8)]
    assert len(set(texts)) == len(texts)


@pytest.mark.parametrize("workload", sorted(models.PLANS))
def test_a_round_runs_its_plan_with_each_kind_spread(workload):
    plan = models.PLANS[workload]
    round_ = models.round_commands(workload, 4, 0, set())
    assert sorted(c.kind for c in round_) == sorted(k for k, *_ in plan)
    for kind in {c.kind for c in round_}:
        at = [i for i, c in enumerate(round_) if c.kind == kind]
        # no kind runs as one block: its first and last commands are at
        # least half a round apart
        assert len(at) == 1 or at[-1] - at[0] >= len(round_) // 2


@pytest.mark.parametrize("spec,interp", [
    ("exp11", "ito"), ("log02", "stratonovich"), ("power21", "ito"),
    ("cubic10", "stratonovich"), ("expsum22", "ito"),
    ("exp10+log01", "stratonovich"), ("power00+cubic12", "ito"),
])
def test_oracle_accepts_map_generators_and_rejects_controls(spec, interp):
    cmd = models.make_command(models.CHECK, spec, interp, None, "m",
                              models.random.Random(spec))
    checker = Checker()
    assert checker.residual_size(cmd.model, cmd.model.candidates["XI"][0]) <= 1e-8
    assert checker.residual_size(cmd.model, cmd.model.candidates["CTRL"][0]) >= 1e-4


@pytest.mark.parametrize("eta", models.ETAS)
def test_oracle_accepts_first_integral_generators(eta):
    model = models.integral_model("m", eta, models.random.Random(eta))
    checker = Checker()
    assert checker.residual_size(model, model.candidates["X"][0]) <= 1e-8
    # a generator that ignores the noise term is no symmetry
    wrong = (model.candidates["X"][0][0].replace("*w", "*t"),)
    assert checker.residual_size(model, wrong) >= 1e-4


def test_checks_reject_a_wrong_report():
    cmd = models.make_command(models.CHECK, "log00", "ito", None, "m",
                              models.random.Random(1))
    report = {"candidates": {"XI": {"verified": True},
                             "CTRL": {"verified": True}}}
    res = {"code": 0, "stdout": json.dumps(report)}
    assert Checker().check(cmd, res) is not None
    report["candidates"]["CTRL"]["verified"] = False
    res = {"code": 1, "stdout": json.dumps(report)}
    assert Checker().check(cmd, res) is None


def _faulty_reduce():
    cmd = next(c for c in models.round_commands("symbolic", 1, 0, set())
               if c.expect_fault)
    t = cmd.model.targets[0]
    def res(drift, classification, code):
        report = {"reduction": {"drift": drift, "noise": [t.b],
                                "classification": classification}}
        return {"code": code, "stdout": json.dumps(report)}
    return cmd, t, res


def test_only_the_kept_fault_is_accepted_on_a_faulty_slot():
    cmd, t, res = _faulty_reduce()
    checker = Checker()
    tally = run.Tally()
    # the fault itself: right drift and noise, wrong verdict, exit 1
    assert tally.add(cmd, checker.check(cmd, res(t.a, "NotIntegrableForm", 1)))
    assert (tally.failed, tally.correct) == (1, True)
    # a fixed program passes and its time counts too
    assert tally.add(cmd, checker.check(cmd, res(t.a, "IntegrableIto", 0)))
    assert (tally.failed, tally.correct) == (1, True)


@pytest.mark.parametrize("case", ["crash", "wrong drift", "wrong exit"])
def test_other_failures_on_a_faulty_slot_make_the_run_incorrect(case):
    cmd, t, res = _faulty_reduce()
    result = {
        "crash": {"code": 1, "stdout": ""},
        "wrong drift": res(f"2*({t.a})", "NotIntegrableForm", 1),
        "wrong exit": res(t.a, "NotIntegrableForm", 2),
    }[case]
    tally = run.Tally()
    assert not tally.add(cmd, Checker().check(cmd, result))
    assert (tally.failed, tally.correct) == (1, False)


def test_the_kept_fault_on_another_slot_makes_the_run_incorrect():
    cmd = next(c for c in models.round_commands("symbolic", 1, 0, set())
               if c.kind == models.REDUCE and not c.expect_fault
               and c.model.family == "map")
    t = cmd.model.targets[0]
    report = {"reduction": {"drift": t.a, "noise": [t.b],
                            "classification": "NotIntegrableForm"}}
    tally = run.Tally()
    tally.add(cmd, Checker().check(
        cmd, {"code": 1, "stdout": json.dumps(report)}))
    assert not tally.correct


def test_reference_mean_of_linear_scheme():
    model = models.integral_model("m", "exp", models.random.Random(5))
    checker = Checker()
    times, x, _ = checker.paths(model, dict(seed=3, paths=4000, h=0.05, t1=1.0))
    want = checker.linear_mean(model, times)
    se = x[:, -1, 0].std() / 4000 ** 0.5
    assert abs(x[:, -1, 0].mean() - want[0]) < 5 * se


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    assert run.tail(values) == 89
    assert sum(v > run.tail(values) for v in values) == 10


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(models.PLANS))
def test_one_round_of_every_workload_runs_clean(workload):
    proc = _run(["--workload", workload, "--seed", "11", "--seconds", "0.1",
                 "--trace", "0"], HERE.parent)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    round_ = models.round_commands(workload, 11, 0, set())
    assert out["correct"] is True
    assert out["attempted"] == len(round_)
    assert out["failed"] == sum(c.expect_fault for c in round_)
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_every_layer():
    proc = _run(["--workload", "ensemble", "--seed", "2", "--seconds", "0.1",
                 "--trace", "1"], HERE.parent)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out["metrics"]) == set(run.PER_LAYER)
    assert out["metrics"]["numeric.simulate.path_steps"]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "ensemble", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
