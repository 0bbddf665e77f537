"""Golden values for the seeded `numeric` section of `verify`.

The numbers below were recorded with the closure-based coefficient
evaluator that preceded the generated step kernel, at the CLI defaults
of each fixture (100 paths, h = 1e-3, epsilon scaling on 12 paths at
h = 1e-5).  A change to the simulation code that moves any of them
beyond a relative 1e-12 has changed the floating-point results and must
say so; the kernel is meant to reproduce them bit for bit.
"""

import math

import pytest

from sdesym import fixture_path
from tests.conftest import run_cli

_EPSILONS = [0.01, 0.001, 0.0001]

GOLDEN = {
    ("example1.sde", "X1", 101): {
        "seed": 101, "h": 0.001, "t0": 0.0, "t1": 1.0, "paths": 100,
        "pathwise": {"median_sup_error": 0.00831846520095636,
                     "excluded_paths": 0, "bound": 0.05, "ok": True},
        "strong_order": {"order": 0.4375532509862434,
                         "err_coarse": 0.00788705352484409,
                         "err_fine": 0.004300128974524808,
                         "skipped": False},
        "epsilon_scaling": {"h": 1e-05, "t1": 0.25, "paths": 12,
                            "epsilons": _EPSILONS,
                            "defects": [5.583021339118861e-09,
                                        5.51853487838141e-11,
                                        4.814185051848165e-13],
                            "exponent": 2.032173253869947,
                            "degenerate": False},
    },
    ("example2.sde", "X_ID", 202): {
        "seed": 202, "h": 0.001, "t0": 0.0, "t1": 1.0, "paths": 100,
        "pathwise": {"median_sup_error": 0.0154602633387943,
                     "excluded_paths": 0, "bound": 0.05, "ok": True},
        "strong_order": {"order": 0.5813721197968186,
                         "err_coarse": 0.016426510362591906,
                         "err_fine": 0.007337099667432068,
                         "skipped": False},
        "epsilon_scaling": {"h": 1e-05, "t1": 0.25, "paths": 12,
                            "epsilons": _EPSILONS,
                            "defects": [4.2822417436784695e-10,
                                        4.282241588586779e-11,
                                        4.28224058326739e-12],
                            "exponent": 1.0000000588430367,
                            "degenerate": False},
    },
    ("example3.sde", "X1", 303): {
        "seed": 303, "h": 0.001, "t0": 0.0, "t1": 1.0, "paths": 100,
        "pathwise": {"median_sup_error": 0.046285446153211396,
                     "excluded_paths": 0, "bound": 0.05, "ok": True},
        "strong_order": {"order": 0.526432806538423,
                         "err_coarse": 0.045961642495526256,
                         "err_fine": 0.022153962150700535,
                         "skipped": False},
        "epsilon_scaling": {"h": 1e-05, "t1": 0.25, "paths": 12,
                            "epsilons": _EPSILONS,
                            "defects": [8.27949771699806e-11,
                                        8.27949731547716e-12,
                                        8.279494752927607e-13],
                            "exponent": 1.0000000777389986,
                            "degenerate": False},
    },
}


def _assert_matches(got, want, where="numeric"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}")
    else:
        assert got == want and type(got) is type(want), where


@pytest.mark.parametrize("fixture,candidate,seed", sorted(GOLDEN))
def test_verify_numeric_section_matches_golden(tmp_path, fixture, candidate,
                                               seed):
    code, rep = run_cli(["verify", fixture_path(fixture), "--candidate",
                         candidate, "--seed", str(seed)], tmp_path)
    assert code == 0
    _assert_matches(rep["numeric"], GOLDEN[fixture, candidate, seed])
