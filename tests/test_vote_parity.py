"""Byte parity of the one-pass vote with its oracles.

The quantile scaler's column search, the ``np.where`` finite fixes, the
one-pass ``check_2d``, the broadcast Gaussian naive Bayes and the cached
class columns of the ensemble must give the bytes of the implementations
they replaced (kept in ``tests/voting_oracles.py``): equality, not a
tolerance, so served answers stay what they were.  Run with
``HYPOTHESIS_PROFILE=deep`` for about ten times the examples.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.classifiers import available_classifiers
from repro.classifiers.base import BaseClassifier
from repro.classifiers.bayes import GaussianNBClassifier
from repro.core.voting import (
    MEMBER_QUARANTINE_THRESHOLD,
    MajorityVotingEnsemble,
    SoftVotingEnsemble,
)
from repro.exceptions import EnsembleError, ValidationError
from repro.features.scaling import QuantileScaler, get_scaler, scaler_search_space
from repro.pipeline.pipeline import Pipeline
from repro.resilience import FaultPlan, FaultRule, use_fault_injector
from repro.utils.validation import check_2d
from tests import voting_oracles as oracle

_SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
_BIG = 1.7976931348623157e308
# Few distinct values (ties, duplicate and constant refs, +-0.0) and the
# extremes whose differences overflow.
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -5e-324, 7.0])
_EXTREME = st.sampled_from([_BIG, -_BIG, 1e308, -1e308, 1e300, -1e300])
_ANY = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_VALUE = st.one_of(_TIED, _ANY, _EXTREME)


def _matrix(draw, rows, cols, element):
    return np.array(
        draw(st.lists(st.lists(element, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)),
        dtype=float,
    ).reshape(rows, cols)


def _queries(draw, refs, train, n_rows):
    """Query rows mixing exact refs, training values, +-0.0 and values
    inside and outside the refs' range."""
    pool = sorted(set(refs.ravel().tolist()) | set(train.ravel().tolist()))
    element = st.one_of(st.sampled_from(pool + [0.0, -0.0]), _VALUE)
    return _matrix(draw, n_rows, refs.shape[1], element)


def _bytes_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestQuantileSearch:
    @_SETTINGS
    @given(st.data())
    def test_fitted_scaler_matches_interp_loop(self, data):
        n_train = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(1, 6))
        train = _matrix(data.draw, n_train, d, data.draw(st.sampled_from(
            [_TIED, _ANY, _VALUE]
        )))
        scaler = QuantileScaler(
            n_quantiles=data.draw(st.sampled_from([2, 3, 8, 16, 64])),
            output=data.draw(st.sampled_from(["uniform", "normal"])),
        )
        with np.errstate(all="ignore"):
            scaler.fit(train)
        X = _queries(data.draw, scaler._refs, train, data.draw(st.integers(1, 30)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.interp never warns
            got = scaler.transform(X)
            raw = scaler._interp(X)
        assert _bytes_equal(got, oracle.scaler_transform(scaler, X))
        assert _bytes_equal(
            raw, oracle.quantile_interp(scaler._refs, scaler._levels, X)
        )

    @staticmethod
    def _check_table(refs, levels, X):
        scaler = QuantileScaler(n_quantiles=max(2, refs.shape[0]))
        scaler._refs, scaler._levels = refs, levels
        scaler._index_table()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.interp never warns
            got = scaler._interp(X)
        assert _bytes_equal(got, oracle.quantile_interp(refs, levels, X))

    @_SETTINGS
    @given(st.data())
    def test_hand_built_tables_match_interp(self, data):
        """Refs and levels np.percentile never makes: duplicates with
        fewer refs than rows (precomputed slopes divide by zero), equal
        levels, unsorted or non-finite refs (np.interp kept) and a
        single ref."""
        m = data.draw(st.integers(1, 9))
        d = data.draw(st.integers(1, 4))
        element = data.draw(st.sampled_from(
            [_TIED, _VALUE, st.floats(allow_nan=True, allow_infinity=True)]
        ))
        refs = _matrix(data.draw, m, d, element)
        if data.draw(st.booleans()):
            refs = np.sort(refs, axis=0)
        levels = np.asarray(data.draw(
            st.lists(st.one_of(_TIED, _ANY), min_size=m, max_size=m)
        ))
        if data.draw(st.booleans()):
            levels = np.sort(levels)
        X = _queries(data.draw, refs, refs, data.draw(st.integers(1, 12)))
        self._check_table(refs, levels, X)

    @pytest.mark.parametrize(
        "refs,levels,X",
        [
            # The NaN retry from the right end: 0 * inf on the left.
            ([[-_BIG], [_BIG]], [0.0, 1.0],
             [[1e308], [-1e308], [0.0], [_BIG], [-_BIG]]),
            # An exact ref under an infinite slope gives levels[j].
            ([[0.0], [5e-324], [1.0]], [0.0, 1.0, 2.0],
             [[0.0], [-0.0], [5e-324], [0.5], [1.0], [2.0], [-1.0]]),
            # Duplicate refs, more refs than query rows.
            ([[0.0], [1.0], [1.0], [1.0], [2.0]], [0.0, 0.25, 0.5, 0.75, 1.0],
             [[1.0], [1.5], [0.5]]),
            # One ref: np.interp's own single-point rule.
            ([[1.0, -0.0]], [0.5], [[0.0, 0.0], [1.0, -0.0], [2.0, 1.0]]),
        ],
        ids=["nan-retry", "exact-ref-infinite-slope", "duplicates", "one-ref"],
    )
    def test_fixed_tables_match_interp(self, refs, levels, X):
        self._check_table(
            np.array(refs, dtype=float), np.array(levels, dtype=float),
            np.array(X, dtype=float),
        )


class TestFiniteFixes:
    @pytest.mark.parametrize(
        "family,params", scaler_search_space(), ids=lambda v: str(v)
    )
    def test_every_scaler_config(self, family, params):
        rng = np.random.default_rng(5)
        train = rng.normal(size=(40, 6)) * [1, 10, 1e-3, 1, 1e6, 0]
        train[:, 3] = np.round(train[:, 3])  # ties
        scaler = get_scaler(family, **params).fit(train)
        X = np.vstack([rng.normal(size=(7, 6)) * 3, train[:3], np.zeros((1, 6))])
        X[0] = [1e308, -1e308, 0.0, -0.0, 5e-324, 1e-300]
        with np.errstate(all="ignore"):
            got = scaler.transform(X)
            want = oracle.scaler_transform(scaler, X)
        assert _bytes_equal(got, want)

    @_SETTINGS
    @given(st.data())
    @example(None)
    def test_classifier_score_repair(self, data):
        """NaN -> 0, -inf -> 0, +inf -> the largest float, negative -> 0,
        an all-zero row -> uniform."""
        if data is None:
            scores = np.array([[np.inf, 1.0, np.nan], [-np.inf, -0.0, 0.0],
                               [np.inf, np.inf, -1.0], [0.0, 0.0, 0.0]])
        else:
            k = data.draw(st.integers(1, 5))
            element = st.one_of(
                _TIED, _ANY, _EXTREME,
                st.sampled_from([np.nan, np.inf, -np.inf]),
            )
            scores = _matrix(data.draw, data.draw(st.integers(1, 8)), k, element)

        class Fixed(BaseClassifier):
            name = "fixed-scores"

            def _fit(self, X, y):
                pass

            def _predict_proba(self, X):
                return scores.copy()

        clf = Fixed()
        clf.classes_ = np.arange(scores.shape[1])
        X = np.zeros((scores.shape[0], 2))
        with np.errstate(all="ignore"):
            got = clf.predict_proba(X)
            want = oracle.normalize_scores(scores.copy())
        assert _bytes_equal(got, want)


class TestCheck2d:
    @_SETTINGS
    @given(
        st.lists(
            st.one_of(_TIED, st.sampled_from([np.nan, np.inf, -np.inf])),
            max_size=12,
        ),
        st.sampled_from([None, (1, -1), (-1, 1), (-1, 2), (2, 1, -1)]),
        st.booleans(),
    )
    def test_same_result_or_same_error(self, values, shape, allow_nan):
        arr = np.asarray(values, dtype=float)
        if shape is not None:
            try:
                arr = arr.reshape(shape)
            except ValueError:
                pass

        def outcome(fn):
            try:
                return "ok", fn(arr, name="X", allow_nan=allow_nan).tobytes()
            except ValidationError as exc:
                return "error", str(exc)

        assert outcome(check_2d) == outcome(oracle.check_2d)


class TestClassifierProba:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(45, 5))
        X[:, 4] = 0.0  # a constant column
        y = np.array(["cdrec", "linear", "mean"] * 15)
        X[y == "linear", 0] += 3.0
        return X, y

    @pytest.mark.parametrize("name", available_classifiers())
    def test_every_family(self, name, data):
        X, y = data
        pipeline = Pipeline(name, scaler_name="standard").fit(X, y)
        queries = np.vstack([X[:9], np.full((1, 5), 1e6), np.zeros((1, 5))])
        with np.errstate(all="ignore"):
            got = pipeline.predict_proba(queries)
            want = oracle.pipeline_proba(pipeline, queries)
        assert _bytes_equal(got, want)

    @_SETTINGS
    @given(st.data())
    def test_gaussian_nb_broadcast(self, data):
        k = data.draw(st.integers(1, 5))
        d = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(k, 25))
        X = _matrix(data.draw, n, d, st.one_of(_TIED, _ANY))
        y = np.arange(n) % k
        clf = GaussianNBClassifier(
            var_smoothing=data.draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
        )
        with np.errstate(all="ignore"):
            clf.fit(X, y)
            Q = _matrix(data.draw, data.draw(st.integers(1, 9)), d, _VALUE)
            got = clf._predict_proba(Q)
            want = oracle.gaussian_nb_scores(clf, Q)
        assert _bytes_equal(got, want)


def _members(X, y):
    """The five-member shape of a raced engine: three naive Bayes with
    standard and PCA scalers, a forest, and nearest centroid behind a
    normal-output quantile scaler."""
    specs = [
        ("gaussian_nb", {"var_smoothing": 1e-3}, "standard", {}),
        ("gaussian_nb", {"var_smoothing": 1e-6}, "pca",
         {"n_components": 0.1, "whiten": True}),
        ("gaussian_nb", {"var_smoothing": 1e-6}, "standard", {}),
        ("random_forest", {"n_estimators": 5, "max_depth": 4,
                           "min_samples_leaf": 2, "max_features": "all",
                           "criterion": "entropy"}, "standard", {}),
        ("nearest_centroid", {"metric": "manhattan", "shrink": 0.5},
         "quantile", {"n_quantiles": 16, "output": "normal"}),
    ]
    members = []
    for i, (clf, params, scaler, scaler_params) in enumerate(specs):
        # One member never sees the last class, so alignment zero-fills.
        keep = y != "mean" if i == 2 else slice(None)
        members.append(
            Pipeline(clf, params, scaler, scaler_params).fit(X[keep], y[keep])
        )
    return members


@pytest.fixture(scope="module")
def vote_members():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(58, 8))
    y = np.array(["cdrec", "linear", "mean", "knn"] * 14 + ["cdrec", "linear"])
    X[y == "linear", :3] += 2.0
    X[y == "knn", 3:] -= 1.5
    return _members(X, y), X


class TestEnsembleVote:
    @_SETTINGS
    @given(
        st.data(),
        st.sampled_from([SoftVotingEnsemble, MajorityVotingEnsemble]),
        st.sets(st.integers(0, 4), max_size=5),
        st.sets(st.integers(0, 4), max_size=5),
        st.sets(st.integers(0, 4), max_size=5),
    )
    def test_degraded_votes_match(
        self, vote_members, data, kind, opened, raising, poisoned
    ):
        """An open breaker, a raising member and an injected ``nan``: the
        same members vote, fail and are skipped, with the same bytes and
        the same breaker state afterwards."""
        members, X = vote_members
        queries = _matrix(data.draw, data.draw(st.integers(1, 12)), X.shape[1],
                          st.one_of(_TIED, _ANY))
        ours, theirs = kind(members), kind(members)
        for ensemble in (ours, theirs):
            for i in opened:
                for _ in range(MEMBER_QUARANTINE_THRESHOLD):
                    ensemble.breaker.record_failure(ensemble.member_names[i], "x")

        def plan():
            return FaultPlan(
                [FaultRule(site="ensemble.member", kind="nan",
                           match=f"#{i}") for i in sorted(poisoned)],
                seed=0,
            ).injector()

        def vote(fn, ensemble):
            with use_fault_injector(plan()):
                try:
                    return fn(ensemble)
                except EnsembleError as exc:
                    return str(exc)

        for i in raising:  # an unfitted scaler raises inside the member
            members[i]._scaler._fitted = False
        try:
            got = vote(lambda e: e.predict_proba_detailed(queries), ours)
            want = vote(lambda e: oracle.predict_proba_detailed(e, queries), theirs)
        finally:
            for member in members:
                member._scaler._fitted = True
        if isinstance(want, str):
            assert got == want
        else:
            for field in ("n_members", "used_members", "failed_members",
                          "skipped_members"):
                assert getattr(got, field) == want[field]
            assert _bytes_equal(got.proba, want["proba"])
            assert _bytes_equal(got.member_probas, want["member_probas"])
        assert ours.breaker.open_keys() == theirs.breaker.open_keys()

    @pytest.mark.parametrize("n_rows", [1, 2, 7, 58, 200])
    def test_clean_vote_at_batch_sizes(self, vote_members, n_rows):
        members, X = vote_members
        rng = np.random.default_rng(n_rows)
        queries = np.vstack([X, rng.normal(size=(200, X.shape[1])) * 2])[:n_rows]
        ensemble = SoftVotingEnsemble(members)
        got = ensemble.predict_proba_detailed(queries)
        want = oracle.predict_proba_detailed(SoftVotingEnsemble(members), queries)
        assert _bytes_equal(got.proba, want["proba"])
        assert _bytes_equal(got.member_probas, want["member_probas"])
        assert _bytes_equal(
            ensemble.member_probas(queries), want["member_probas"]
        )
