"""Batched atlas assignment equals one-at-a-time assignment, exactly.

``ClusterAtlas.assign_many`` interpolates a batch once and transforms it
with one ``rfft``/``irfft`` per representative length group; every row
must get the cluster, label and NCC bytes that the one-series reference
(``tests/clustering_oracles.py``) and :meth:`ClusterAtlas.assign` give
it.  Run with ``HYPOTHESIS_PROFILE=deep`` for about ten times the
examples.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.clustering.atlas import ClusterAtlas
from tests.clustering_oracles import atlas_assign

_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _key(hit):
    if hit is None:
        return None
    return hit["cluster"], hit["label"], np.float64(hit["ncc"]).tobytes()


def _row(draw, length):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "sine", "constant", "tied"]))
    t = np.arange(length, dtype=float)
    if kind == "walk":
        values = rng.normal(size=length).cumsum()
    elif kind == "sine":
        values = np.sin(2 * np.pi * t / draw(st.floats(2.0, 40.0)))
    elif kind == "constant":
        values = np.full(length, draw(st.sampled_from([0.0, -0.0, 3.5])))
    else:
        values = rng.integers(-2, 3, size=length).astype(float)
    gap = draw(st.sampled_from(["none", "middle", "edges", "all"]))
    if gap == "middle" and length > 2:
        start = draw(st.integers(0, length - 1))
        values[start : start + draw(st.integers(1, length))] = np.nan
    elif gap == "edges":
        values[: length // 4] = np.nan
        values[length - length // 5 :] = np.nan
    elif gap == "all":
        values[:] = np.nan
    return values


@st.composite
def _atlas_and_batch(draw):
    atlas = ClusterAtlas()
    for i in range(draw(st.integers(1, 6))):
        rep = _row(draw, draw(st.integers(2, 150)))
        if np.isnan(rep).all():
            rep = np.arange(rep.size, dtype=float)
        rep[np.isnan(rep)] = 0.0
        atlas.add(f"c{i}", draw(st.sampled_from(["linear", "mean", "cdrec"])), rep)
    lengths = draw(st.lists(
        st.one_of(st.integers(0, 3), st.integers(4, 150),
                  st.sampled_from([96, 96, 96])),
        min_size=1, max_size=12,
    ))
    return atlas, [_row(draw, n) if n else np.array([]) for n in lengths]


class TestAssignMany:
    @_SETTINGS
    @given(_atlas_and_batch())
    def test_batch_equals_each_row_alone(self, case):
        atlas, rows = case
        batched = [_key(hit) for hit in atlas.assign_many(rows)]
        alone = [_key(atlas.assign(row)) for row in rows]
        assert batched == alone
        for row, got in zip(rows, batched):
            if row.size >= 2:
                assert got == _key(atlas_assign(atlas, row))
            else:
                assert got is None

    def test_empty_atlas(self):
        assert ClusterAtlas().assign_many([np.ones(5), np.ones(7)]) == [None, None]
        assert ClusterAtlas().assign_many([]) == []

    def test_all_nan_row_does_not_borrow_the_batch_mean(self):
        """Each row is its own interpolation problem: an all-NaN row
        becomes zeros even beside observed rows."""
        t = np.linspace(0, 6 * np.pi, 64)
        atlas = ClusterAtlas()
        atlas.add("c_sine", "linear", np.sin(t))
        atlas.add("c_ramp", "mean", np.linspace(0, 10, 64))
        rows = [np.full(64, np.nan), np.sin(t) + 50.0]
        assert [_key(h) for h in atlas.assign_many(rows)] == [
            _key(atlas_assign(atlas, r)) for r in rows
        ]
