"""Golden values for the sampled verdicts of `check`.

The verdict of each route and the sampled maximum of its residuals are
pinned on two fixtures and on two map-family models (x = y + y^3 and
x = y + exp(y), dx = a(t) dt + b(t) dw pulled back through the map).  The
generator 1/PHI' of those two is a symmetry whose Ito residuals are zero
only numerically: the canonical constructors leave them as sums that cancel
to rounding at every sampled point, so their verdicts rest on evaluation,
not on structure.  A change to the evaluator or to the sampler that moves a
maximum beyond a relative 1e-12 (absolute 1e-12 for the rounding-level
ones), or flips a verdict, has changed the evidence behind the report.
"""

import pytest

from sdesym import fixture_path
from tests.conftest import run_cli

CUBIC_ITO = """\
[system]
interpretation = ito
states = y
noises = w
drift.1 = (((3/4)) - 1/2*((7/60))^2*(6*y)/(1 + 3*y^2)^2)/(1 + 3*y^2)
diffusion.1.1 = ((7/60))/(1 + 3*y^2)
domain.y = 0.5, 2

[candidate XI]
xi.1 = 1/(1 + 3*y^2)

[candidate CTRL]
xi.1 = y/(1 + 3*y^2)
"""

EXPSUM_STRATONOVICH = """\
[system]
interpretation = stratonovich
states = y
noises = w
drift.1 = ((1/4) + (5/12)*t)/(1 + exp(y))
diffusion.1.1 = ((11/60))/(1 + exp(y))
domain.y = 0.5, 2

[candidate XI]
xi.1 = 1/(1 + exp(y))

[candidate CTRL]
xi.1 = y/(1 + exp(y))
"""

# model -> (exit code, candidate -> {route: (max_abs_residual, verified)},
#           candidate -> compatibility (max_abs_residual, satisfied))
GOLDEN = {
    "example3.sde": (0, {
        "X1": {"ito": (0.0, True), "associated-stratonovich": (0.0, True)},
    }, {"X1": (4.201903045915583, False)}),
    "control.sde": (1, {
        "NOT_SYM": {"ito": (1.0, False),
                    "associated-stratonovich": (1.0, False)},
    }, {}),
    "cubic": (1, {
        "XI": {"ito": (1.3010426069826053e-18, True),
               "associated-stratonovich": (0.0, True)},
        "CTRL": {"ito": (0.23658845725744615, False),
                 "associated-stratonovich": (0.24304926826339882, False)},
    }, {}),
    "expsum": (1, {
        "XI": {"stratonovich": (0.0, True),
               "ito": (2.168404344971009e-19, True)},
        "CTRL": {"stratonovich": (0.08900584908290302, False),
                 "ito": (0.08740888446713957, False)},
    }, {}),
}

INLINE = {"cubic": CUBIC_ITO, "expsum": EXPSUM_STRATONOVICH}


def _close(value):
    return pytest.approx(value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_verdicts_and_maxima_are_pinned(name, tmp_path):
    if name in INLINE:
        path = tmp_path / f"{name}.sde"
        path.write_text(INLINE[name])
    else:
        path = fixture_path(name)
    code, rep = run_cli(["check", str(path)], tmp_path)
    want_code, routes, compat = GOLDEN[name]
    assert code == want_code
    assert rep["verdict"] is (want_code == 0)
    assert set(rep["candidates"]) == set(routes)
    for cand, want in routes.items():
        entry = rep["candidates"][cand]
        assert set(entry["routes"]) == set(want)
        for route, (worst, verified) in want.items():
            got = entry["routes"][route]
            assert got["verified"] is verified, (cand, route)
            assert got["max_abs_residual"] == _close(worst), (cand, route)
        assert entry["routes_agree"] is True
        assert entry["verified"] is all(v for _, v in want.values())
        if cand in compat:
            worst, satisfied = compat[cand]
            assert entry["compatibility"]["satisfied"] is satisfied
            assert entry["compatibility"]["max_abs_residual"] == _close(worst)
        else:
            assert "compatibility" not in entry
