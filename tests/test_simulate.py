import math

import pytest
from hypothesis import given, settings, strategies as st

from qtriage.simulate import spearman

stats = pytest.importorskip("scipy.stats")

# Few distinct values, so most draws have ties on both sides.
few = st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(few, few), min_size=2, max_size=60))
def test_spearman_matches_scipy(pairs):
    xs, ys = map(list, zip(*pairs))
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        assert spearman(xs, ys) == 0.0
    else:
        assert math.isclose(spearman(xs, ys), stats.spearmanr(xs, ys)[0], abs_tol=1e-12)
