"""End-to-end command-line coverage: every subcommand, every exit code.

Exit code contract: 0 = verified / success, 1 = an honest negative
verdict, 2 = unusable input (bad file, unknown names, malformed flags).
"""

import json

import pytest

from sdesym import (
    ITO, STRATONOVICH, equivalent, fixture_path, load_model, parse,
)
from sdesym.cli import main
from tests.conftest import run_cli


# ---------------------------------------------------------------------------
# check


def test_check_verified_symmetry(tmp_path):
    code, rep = run_cli(["check", fixture_path("example1.sde")], tmp_path)
    assert code == 0
    assert rep["verdict"] is True
    assert rep["command"] == "check"
    assert rep["model_hash"].startswith("sha256:")
    entry = rep["candidates"]["X1"]
    assert entry["verified"] is True
    assert entry["routes_agree"] is True
    routes = entry["routes"]
    assert set(routes) == {"ito", "associated-stratonovich"}
    for route in routes.values():
        assert route["verified"] is True
        assert route["max_abs_residual"] <= 1e-9
    # state-only candidate: no compatibility section
    assert "compatibility" not in entry
    assert "wall_time_s" in rep


def test_check_rejects_non_symmetry(tmp_path):
    code, rep = run_cli(["check", fixture_path("control.sde")], tmp_path)
    assert code == 1
    assert rep["verdict"] is False
    entry = rep["candidates"]["NOT_SYM"]
    assert entry["verified"] is False
    assert "-1" in entry["routes"]["ito"]["drift_residuals"]


def test_check_reports_compatibility_for_random_candidate(tmp_path):
    code, rep = run_cli(["check", fixture_path("example3.sde")], tmp_path)
    assert code == 0
    entry = rep["candidates"]["X1"]
    assert entry["verified"] is True
    compat = entry["compatibility"]
    assert compat["satisfied"] is False
    assert compat["max_abs_residual"] > 0.1
    assert compat["gamma"] == compat["residual"]


def test_check_handles_free_function_families(tmp_path):
    code, rep = run_cli(["check", fixture_path("example2.sde")], tmp_path)
    assert code == 0
    assert rep["candidates"]["X_ETA"]["verified"] is True
    assert rep["candidates"]["X_ID"]["verified"] is True
    assert rep["candidates"]["X_ETA"]["compatibility"]["satisfied"] is True


def test_check_candidate_filter(tmp_path):
    code, rep = run_cli(
        ["check", fixture_path("linear2d.sde"), "--candidate", "T1"],
        tmp_path)
    assert code == 0
    assert list(rep["candidates"]) == ["T1"]


def test_check_unknown_candidate_is_input_error(tmp_path, capsys):
    code, rep = run_cli(
        ["check", fixture_path("example1.sde"), "--candidate", "NOPE"],
        tmp_path)
    assert code == 2
    assert rep is None
    assert "unknown candidate" in capsys.readouterr().err


def test_check_time_component_candidate(tmp_path):
    # tau != 0 switches to the time-translation consistency condition;
    # on dx = dw any tau(t) passes because the generator's action on the
    # coefficients vanishes identically.
    model = tmp_path / "shift.sde"
    model.write_text("""
[system]
interpretation = ito
states = x
noises = w
drift.1 = 0
diffusion.1.1 = 1

[candidate SHIFT]
xi.1 = 0
tau = t
""")
    code, rep = run_cli(["check", str(model)], tmp_path)
    assert code == 0
    entry = rep["candidates"]["SHIFT"]
    assert entry["classification"].startswith("general")
    assert entry["tau_condition"]["satisfied"] is True
    assert entry["verified"] is True


# ---------------------------------------------------------------------------
# convert


def test_convert_writes_equivalent_model(tmp_path):
    out = tmp_path / "strat.sde"
    code, rep = run_cli(
        ["convert", fixture_path("example1.sde"), "--to", STRATONOVICH,
         "--out", str(out)], tmp_path)
    assert code == 0
    assert rep["from"] == ITO and rep["to"] == STRATONOVICH
    assert rep["roundtrip_equivalent"] is True
    assert rep["drift"] == ["exp(-y)"]

    converted = load_model(out.read_text())
    assert converted.system.interpretation == STRATONOVICH
    # candidates and simulation block survive the rewrite
    assert "X1" in converted.candidates
    assert converted.simulation["paths"] == 100

    code2, rep2 = run_cli(
        ["convert", str(out), "--to", ITO], tmp_path, name="back.json")
    assert code2 == 0
    original = load_model(open(fixture_path("example1.sde")).read())
    assert equivalent(parse(rep2["drift"][0]), original.system.drift[0],
                      original.system.domain)


def test_convert_to_same_interpretation_is_identity(tmp_path):
    code, rep = run_cli(
        ["convert", fixture_path("example1.sde"), "--to", ITO], tmp_path)
    assert code == 0
    original = load_model(open(fixture_path("example1.sde")).read())
    assert parse(rep["drift"][0]) == original.system.drift[0]
    assert rep["roundtrip_equivalent"] is True


# ---------------------------------------------------------------------------
# reduce


def test_reduce_to_integrable_ito(tmp_path):
    code, rep = run_cli(
        ["reduce", fixture_path("example1.sde"), "--candidate", "X1"],
        tmp_path)
    assert code == 0
    red = rep["reduction"]
    assert red["classification"] == "IntegrableIto"
    assert red["map"] == "exp(y)"
    assert red["drift"] == "1"
    assert red["noise"] == ["1"]
    assert red["condition_failures"] == []
    assert parse(red["inverse"]) == parse(f"log({red['new_symbol']})")


def test_reduce_with_concrete_beta(tmp_path):
    code, rep = run_cli(
        ["reduce", fixture_path("example2.sde"), "--candidate", "X_ID",
         "--beta", "b=0,c=1"], tmp_path)
    assert code == 0
    red = rep["reduction"]
    assert red["drift"] == "0"
    assert red["noise"] == ["1"]
    assert red["ansatz"] == {"b": "0", "c": "1"}
    assert red["classification"] == "IntegrableIto"


def test_reduce_random_default_ansatz_reports_failed_conditions(tmp_path):
    code, rep = run_cli(
        ["reduce", fixture_path("example3.sde"), "--candidate", "X1"],
        tmp_path)
    assert code == 0
    red = rep["reduction"]
    assert red["classification"] == "IntegrableQuadrature"
    assert "drift-coefficient-w-free" in red["condition_failures"]
    assert "compatibility" in red["condition_failures"]
    assert red["inverse"] == "implicit"


@pytest.mark.parametrize("beta", ["q=1", "b=((", "bc"])
def test_reduce_bad_beta_is_input_error(tmp_path, beta, capsys):
    code, rep = run_cli(
        ["reduce", fixture_path("example2.sde"), "--candidate", "X_ID",
         "--beta", beta], tmp_path)
    assert code == 2
    assert rep is None
    assert "--beta" in capsys.readouterr().err


def test_reduce_phi_necessity_roundtrip(tmp_path):
    code, rep = run_cli(
        ["reduce", fixture_path("example1.sde"), "--phi", "PHI"], tmp_path)
    assert code == 0
    nec = rep["necessity"]
    assert nec["verified"] is True
    assert nec["derivative_matches"] is True
    assert nec["exact_match"] is True
    assert nec["candidate"] == "exp(-y)"
    assert rep["verdict"] is True


def test_reduce_phi_unknown_map(tmp_path, capsys):
    code, rep = run_cli(
        ["reduce", fixture_path("example1.sde"), "--phi", "NOPE"], tmp_path)
    assert code == 2
    assert "unknown map" in capsys.readouterr().err


def test_reduce_needs_candidate_or_phi(tmp_path, capsys):
    code, rep = run_cli(["reduce", fixture_path("example1.sde")], tmp_path)
    assert code == 2
    assert "needs --candidate" in capsys.readouterr().err


def test_reduce_non_symmetry_is_honest_failure(tmp_path):
    code, rep = run_cli(
        ["reduce", fixture_path("control.sde"), "--candidate", "NOT_SYM"],
        tmp_path)
    assert code == 1
    assert rep["verdict"] is False
    assert "error" in rep


# ---------------------------------------------------------------------------
# simulate


def test_simulate_exports_csv(tmp_path):
    out = tmp_path / "paths.csv"
    code, rep = run_cli(
        ["simulate", fixture_path("example1.sde"), "--out", str(out),
         "--paths", "5", "--h", "0.01", "--t1", "0.5"], tmp_path)
    assert code == 0
    num = rep["numeric"]
    assert num["scheme"] == "EulerMaruyama"
    assert num["paths"] == 5 and num["h"] == 0.01 and num["t1"] == 0.5
    assert num["increment_sanity"]["ok"] is True
    assert len(num["final_mean"]) == 1
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,path,y,w"
    assert len(lines) == 1 + 5 * 51


def test_simulate_seed_sources(tmp_path, monkeypatch):
    monkeypatch.setenv("SDESYM_SEED", "123")
    _, rep = run_cli(["simulate", fixture_path("example1.sde"),
                      "--paths", "1"], tmp_path)
    assert rep["numeric"]["seed"] == 123
    _, rep = run_cli(["simulate", fixture_path("example1.sde"),
                      "--paths", "1", "--seed", "9"], tmp_path, name="b.json")
    assert rep["numeric"]["seed"] == 9
    monkeypatch.setenv("SDESYM_SEED", "ten")
    code, _ = run_cli(["simulate", fixture_path("example1.sde")], tmp_path,
                      name="c.json")
    assert code == 2


def test_simulate_flag_validation(tmp_path, capsys):
    code, _ = run_cli(["simulate", fixture_path("example1.sde"),
                       "--x0", "1,2"], tmp_path)
    assert code == 2
    assert "--x0 needs 1 component" in capsys.readouterr().err
    code, _ = run_cli(["simulate", fixture_path("example1.sde"),
                       "--h", "-0.5"], tmp_path, name="b.json")
    assert code == 2


def test_simulate_scheme_choice_is_validated_by_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", fixture_path("example1.sde"),
              "--scheme", "Milstein"])


# ---------------------------------------------------------------------------
# verify


def test_verify_full_pipeline_and_determinism(tmp_path):
    argv = ["verify", fixture_path("example1.sde"), "--candidate", "X1",
            "--seed", "20260819"]
    code, rep = run_cli(argv, tmp_path, name="a.json")
    assert code == 0
    assert rep["verdict"] is True
    assert rep["symbolic"]["verified"] is True
    assert rep["reduction"]["classification"] == "IntegrableIto"
    num = rep["numeric"]
    assert num["pathwise"]["ok"] is True
    assert num["pathwise"]["median_sup_error"] <= 0.05
    assert 0.25 <= num["strong_order"]["order"] <= 1.25
    assert num["epsilon_scaling"]["exponent"] >= 1.7

    code2, rep2 = run_cli(argv, tmp_path, name="b.json")
    assert code2 == 0
    # the numeric section is bit-identical across runs with one seed
    assert json.dumps(rep["numeric"], sort_keys=True) == \
        json.dumps(rep2["numeric"], sort_keys=True)


def test_verify_random_candidate_uses_pinned_ansatz(tmp_path):
    code, rep = run_cli(
        ["verify", fixture_path("example3.sde"), "--candidate", "X1",
         "--seed", "4242", "--tol", "0.1"], tmp_path)
    assert code == 0
    assert rep["verdict"] is True
    assert rep["reduction"]["ansatz"] == {"b": "0", "c": "0"}
    assert rep["numeric"]["pathwise"]["median_sup_error"] <= 0.1
    # state-free candidate: scaling saturates at the slope-1 floor
    assert rep["numeric"]["epsilon_scaling"]["exponent"] < 1.3
    assert rep["numeric"]["epsilon_scaling"]["defects"][0] < 1e-7


def test_verify_non_symmetry_stops_at_symbolic_gate(tmp_path):
    code, rep = run_cli(
        ["verify", fixture_path("control.sde"), "--candidate", "NOT_SYM"],
        tmp_path)
    assert code == 1
    assert rep["verdict"] is False
    assert rep["symbolic"]["verified"] is False
    assert "numeric" not in rep
    assert "reduction" not in rep


def test_verify_tol_bounds_the_pathwise_gap(tmp_path):
    code, rep = run_cli(
        ["verify", fixture_path("example1.sde"), "--candidate", "X1",
         "--seed", "20260819", "--tol", "1e-9"], tmp_path)
    assert code == 1
    assert rep["verdict"] is False
    assert rep["symbolic"]["verified"] is True
    assert rep["numeric"]["pathwise"]["ok"] is False


# the map x = y + y^3 pulled back from dx = dt + (1 + t) dw: the program
# classifies its reduction as NotIntegrableForm (the reduced drift keeps
# uncombined fractions in y), so there is no reduced equation to integrate
_NOT_INTEGRABLE_FORM_MODEL = """
[system]
interpretation = ito
states = y
noises = w
drift.1 = (1 - 1/2*(1 + t)^2*(6*y)/(1 + 3*y^2)^2)/(1 + 3*y^2)
diffusion.1.1 = (1 + t)/(1 + 3*y^2)
domain.y = 0.5, 2

[candidate XI]
xi.1 = 1/(1 + 3*y^2)
"""


def test_verify_not_integrable_form_is_error_report(tmp_path):
    path = tmp_path / "cubic.sde"
    path.write_text(_NOT_INTEGRABLE_FORM_MODEL)
    code, rep = run_cli(["verify", str(path), "--candidate", "XI"], tmp_path)
    assert code == 1
    assert rep["verdict"] is False
    assert rep["symbolic"]["verified"] is True
    assert rep["reduction"]["classification"] == "NotIntegrableForm"
    assert "NotIntegrableForm" in rep["error"]
    assert "numeric" not in rep


@pytest.mark.parametrize("entry", ["paths = abc", "h = x", "x0 = one"])
def test_bad_simulation_block_is_input_error(tmp_path, capsys, entry):
    path = tmp_path / "bad.sde"
    path.write_text("[system]\ninterpretation = ito\nstates = y\n"
                    "noises = w\ndrift.1 = y\ndiffusion.1.1 = y\n"
                    "[simulation]\n" + entry + "\n")
    code, rep = run_cli(["simulate", str(path)], tmp_path)
    assert code == 2
    assert rep is None
    assert "line 8:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--t1", "inf"], ["--h", "nan"],
                                   ["--seed", str(2**64)]])
def test_non_finite_or_oversized_flags_are_input_errors(tmp_path, capsys,
                                                         flags):
    code, _ = run_cli(["simulate", fixture_path("example1.sde"), *flags],
                      tmp_path)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_needs_candidate(tmp_path, capsys):
    code, _ = run_cli(["verify", fixture_path("example1.sde")], tmp_path)
    assert code == 2
    assert "needs --candidate" in capsys.readouterr().err


@pytest.mark.parametrize("xi", ["log(-y)", "y + 10^400"])
@pytest.mark.parametrize("command", ["check", "reduce", "verify"])
def test_candidate_without_evaluable_points_is_input_error(
        tmp_path, capsys, command, xi):
    # log(-y) has no point of the box in its domain, and 10^400 is inf in
    # floating point: no sample point is accepted
    text = open(fixture_path("example1.sde")).read()
    path = tmp_path / "bad.sde"
    path.write_text(text.replace("xi.1 = exp(-y)", f"xi.1 = {xi}"))
    code, rep = run_cli([command, str(path), "--candidate", "X1"], tmp_path)
    assert code == 2
    assert rep is None
    assert "error: could not sample evaluable points" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["reduce", "linear2d.sde", "--candidate", "T1"],
     "scalar reduction needs a one-state system"),
    (["verify", "linear2d.sde", "--candidate", "T1"],
     "scalar reduction needs a one-state system"),
    (["reduce", "example3.sde", "--candidate", "X1", "--beta", "b=y"],
     "ansatz b may depend on t only"),
])
def test_reduction_precondition_is_input_error(tmp_path, capsys, argv,
                                               message):
    argv = [fixture_path(a) if a.endswith(".sde") else a for a in argv]
    code, rep = run_cli(argv, tmp_path)
    assert code == 2
    assert rep is None
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# shared plumbing


def test_missing_model_file(tmp_path, capsys):
    code, rep = run_cli(["check", str(tmp_path / "absent.sde")], tmp_path)
    assert code == 2
    assert rep is None
    assert "cannot read model file" in capsys.readouterr().err


def test_unparseable_model_file(tmp_path, capsys):
    bad = tmp_path / "bad.sde"
    bad.write_text("[system]\nstates = x\n???\n")
    code, _ = run_cli(["check", str(bad)], tmp_path)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_stdout_matches_report_file(tmp_path, capsys):
    code, rep = run_cli(["check", fixture_path("example1.sde")], tmp_path)
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == rep


@pytest.mark.parametrize("argv", [
    ["check", "example1.sde", "--report", "OUT"],
    ["simulate", "example1.sde", "--paths", "2", "--h", "0.25",
     "--out", "OUT"],
    ["convert", "example1.sde", "--to", STRATONOVICH, "--out", "OUT"],
])
def test_unwritable_output_path_is_input_error(tmp_path, capsys, argv):
    out = tmp_path / "absent" / "out.txt"
    argv = [fixture_path(a) if a.endswith(".sde") else
            str(out) if a == "OUT" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: cannot write output:" in err and str(out) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", ["check", "reduce", "verify"])
def test_numeric_samples_below_one_is_input_error(tmp_path, capsys, command,
                                                  samples):
    code, rep = run_cli([command, fixture_path("control.sde"),
                         "--candidate", "NOT_SYM",
                         "--numeric-samples", samples], tmp_path)
    assert code == 2
    assert rep is None
    assert ("error: --numeric-samples must be at least 1"
            in capsys.readouterr().err)
