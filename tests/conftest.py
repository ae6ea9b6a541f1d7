import os

import hypothesis
import numpy as np
import pytest

from wiretap_rates import optimize
from wiretap_rates.core import valid_correlation

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50
)
hypothesis.settings.register_profile(
    "thorough", deadline=None, max_examples=300
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def evaluation_counts(monkeypatch):
    """A list that collects, per ``optimize.minimize_rate`` call, the valid
    triples of every ``optimize._evaluate`` call it makes, tested apart from
    the search's own mask."""
    evaluate, search = optimize._evaluate, optimize.minimize_rate
    counts = []

    def counted_search(*args):
        counts.append(0)
        return search(*args)

    def counted(terms, r1, r2, r12, **kwargs):
        counts[-1] += int(np.count_nonzero(valid_correlation(r1, r2, r12)))
        return evaluate(terms, r1, r2, r12, **kwargs)

    monkeypatch.setattr(optimize, "minimize_rate", counted_search)
    monkeypatch.setattr(optimize, "_evaluate", counted)
    return counts
