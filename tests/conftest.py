import sys
from pathlib import Path

import pytest
from hypothesis import settings

from gobe import aa, dataset, regression

# Property tests draw the same examples on every run, so a tier-1 result
# does not depend on the run; examples are timed by the suite, not per case.
settings.register_profile("gobe", derandomize=True, deadline=None)
settings.load_profile("gobe")

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_held_parse(monkeypatch):
    """Start every test with no parse held by the CSV fast path, so the order
    of tests cannot decide whether a load parses or reuses a parse."""
    monkeypatch.setattr(dataset, "_last_parse", None)


@pytest.fixture
def ols_fit_has_a_bug(monkeypatch):
    """Make the arm fit of every ``ols`` spec in a fit plan raise TypeError, as
    a programming error would; the plan's other specs fit as before."""
    real_fit = regression._fit

    def fit(spec, *args):
        if spec.kind == "ols":
            raise TypeError("bug inside the ols fit")
        return real_fit(spec, *args)

    monkeypatch.setattr(regression, "_fit", fit)


@pytest.fixture
def moment_solve_has_a_bug(monkeypatch):
    """Make the A/A moment solve of the affine models raise TypeError."""
    def solve(*args, **kwargs):
        raise TypeError("bug inside the moment solve")

    monkeypatch.setattr(aa, "_affine_estimates", solve)
