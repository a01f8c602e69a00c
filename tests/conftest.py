import sys
from pathlib import Path

import pytest

from gobe import estimator

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def ols_fit_has_a_bug(monkeypatch):
    """Make every ``ols`` fit raise TypeError, as a programming error would."""
    real_fit = estimator.fit

    def fit(spec, *args, **kwargs):
        if spec.kind == "ols":
            raise TypeError("bug inside the ols fit")
        return real_fit(spec, *args, **kwargs)

    monkeypatch.setattr(estimator, "fit", fit)
