"""Model containers and the sectioned text format."""

import pytest

from sdesym import (
    ITO, STRATONOVICH, ModelError, VectorField, ZERO,
    classify, equivalent, load_model, make_system, parse, print_model,
)

from conftest import FIXTURE_NAMES, model


MINIMAL = """
[system]
interpretation = ito
states = y
noises = w
drift.1 = y
diffusion.1.1 = 1
"""


def test_load_minimal():
    mf = load_model(MINIMAL)
    assert mf.system.states == ("y",)
    assert mf.system.noises == ("w",)
    assert mf.system.interpretation == ITO
    assert equivalent(mf.system.drift[0], parse("y"))
    assert mf.candidates == {} and mf.maps == {} and mf.simulation == {}


def test_default_boxes_follow_declared_roles():
    text = MINIMAL.replace("states = y", "states = wealth").replace(
        "noises = w", "noises = b").replace("drift.1 = y", "drift.1 = wealth")
    sys = load_model(text).system
    assert sys.domain.range_for("wealth") == (0.5, 2.0)
    assert sys.domain.range_for("b") == (-1.0, 1.0)
    assert sys.domain.range_for("t") == (0.0, 1.0)
    # only explicit bounds are written back
    assert "domain." not in print_model(load_model(text))
    made = make_system(("wealth",), ("b",), ("wealth",), (("wealth",),))
    assert made.domain.range_for("wealth") == (0.5, 2.0)
    assert made.domain.range_for("b") == (-1.0, 1.0)


def test_all_fixtures_load_and_print_round_trip():
    for name in FIXTURE_NAMES:
        mf = model(name)
        text = print_model(mf)
        back = load_model(text)
        assert back.system.states == mf.system.states
        assert back.system.interpretation == mf.system.interpretation
        for a, b in zip(back.system.drift, mf.system.drift):
            assert equivalent(a, b)
        for ra, rb in zip(back.system.diffusion, mf.system.diffusion):
            for a, b in zip(ra, rb):
                assert equivalent(a, b)
        assert set(back.candidates) == set(mf.candidates)
        assert set(back.maps) == set(mf.maps)
        assert back.simulation == mf.simulation


@pytest.mark.parametrize("mutation,fragment", [
    ("missing_system", "missing [system]"),
    ("dup_system", "duplicate [system]"),
    ("bad_header", "malformed section header"),
    ("no_equals", "expected 'key = value'"),
    ("orphan_entry", "entry outside"),
    ("dup_key", "duplicate key"),
    ("unknown_key", "unknown key"),
    ("bad_index", "out of range"),
    ("undeclared", "undeclared symbol"),
    ("tau_state", "may depend on t only"),
    ("noise_in_drift", "undeclared symbol"),
    ("opaque_in_drift", "opaque function"),
    ("bad_range", "range"),
    ("x0_arity", "x0 needs"),
])
def test_grammar_errors(mutation, fragment):
    texts = {
        "missing_system": "[candidate A]\nxi.1 = 1\n",
        "dup_system": MINIMAL + "\n[system]\ninterpretation = ito\n",
        "bad_header": "[system\ninterpretation = ito\n",
        "no_equals": "[system]\ninterpretation\n",
        "orphan_entry": "interpretation = ito\n[system]\n",
        "dup_key": MINIMAL + "\n[candidate A]\nxi.1 = 1\nxi.1 = 2\n",
        "unknown_key": MINIMAL.replace("drift.1", "drift.1 = y\nvolatility"),
        "bad_index": MINIMAL + "\n[candidate A]\nxi.1 = 1\nxi.2 = 1\n",
        "undeclared": MINIMAL.replace("drift.1 = y", "drift.1 = z"),
        "tau_state": MINIMAL + "\n[candidate A]\nxi.1 = 1\ntau = y\n",
        "noise_in_drift": MINIMAL.replace("drift.1 = y", "drift.1 = w"),
        "opaque_in_drift": MINIMAL.replace("drift.1 = y", "drift.1 = eta(y)"),
        "bad_range": MINIMAL + "domain.y = 2, 1\n",
        "x0_arity": MINIMAL + "\n[simulation]\nx0 = 1, 2\n",
    }
    with pytest.raises(ModelError, match=None) as err:
        load_model(texts[mutation])
    assert fragment in str(err.value)


def test_comments_and_blank_lines_ignored():
    mf = load_model("# header comment\n\n" + MINIMAL.replace(
        "drift.1 = y", "drift.1 = y  # inline comment"))
    assert equivalent(mf.system.drift[0], parse("y"))


def test_make_system_validation():
    with pytest.raises(Exception):
        make_system((), ("w",), (), (), "ito")       # no states
    with pytest.raises(Exception):
        make_system(("y",), (), (parse("1"),), ((),), "ito")  # no noises
    with pytest.raises(Exception):
        make_system(("y", "y"), ("w",), (parse("1"), parse("1")),
                    ((parse("1"),), (parse("1"),)), "ito")    # repeated name
    with pytest.raises(Exception):
        make_system(("t",), ("w",), (parse("1"),), ((parse("1"),),), "ito")
    with pytest.raises(Exception):
        make_system(("y",), ("w",), (parse("1"),), ((parse("1"),),), "weird")


def test_classify_labels():
    states, noises = ("y",), ("w",)
    det = VectorField((parse("exp(-y)"),), ZERO, states, noises)
    rnd = VectorField((parse("exp(w - t/2)"),), ZERO, states, noises)
    gen = VectorField((parse("y"),), parse("t^2"), states, noises)
    assert classify(det).label == "simple deterministic"
    assert classify(rnd).label == "simple random"
    assert classify(gen).label == "general deterministic"
    assert classify(det).simple and classify(det).deterministic
    assert not classify(rnd).deterministic
    assert not classify(gen).simple


def test_interpretation_flag_round_trip():
    strat = MINIMAL.replace("interpretation = ito",
                            "interpretation = stratonovich")
    mf = load_model(strat)
    assert mf.system.interpretation == STRATONOVICH
    assert not mf.system.is_ito()


def test_simulation_block_types():
    mf = load_model(MINIMAL + "\n[simulation]\nt0 = 0\nt1 = 2\nh = 0.01\n"
                              "paths = 7\nx0 = 1.5\n")
    sim = mf.simulation
    assert sim["t1"] == 2.0 and isinstance(sim["t1"], float)
    assert sim["paths"] == 7 and isinstance(sim["paths"], int)
    assert sim["x0"] == (1.5,)


@pytest.mark.parametrize("entry,fragment", [
    ("paths = abc", "paths must be an integer, got 'abc'"),
    ("paths = 1.5", "paths must be an integer"),
    ("h = x", "h must be a finite number, got 'x'"),
    ("t0 = zero", "t0 must be a finite number"),
    ("t1 = inf", "t1 must be a finite number"),
    ("x0 = one", "x0 must be a finite number, got 'one'"),
])
def test_simulation_block_rejects_non_numbers(entry, fragment):
    text = MINIMAL + "\n[simulation]\n" + entry + "\n"
    with pytest.raises(ModelError, match=fragment) as err:
        load_model(text)
    # the offending entry sits on the last line of the text
    assert err.value.line == text.count("\n")
