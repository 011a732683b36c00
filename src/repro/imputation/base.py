"""Imputer base class, row interpolation, and the algorithm registry.

Conventions
-----------
* Input/output matrices have shape ``(n_series, length)`` — one row per time
  series, NaN marking missing values (matching
  :meth:`repro.timeseries.TimeSeriesDataset.to_matrix`).
* There is one imputation path.  :meth:`BaseImputer.impute_many`
  validates many independent problems, stacks equal shapes into
  ``(B, n, L)`` blocks, dispatches each block to ``_impute_block``,
  checks the output, restores observed entries, and emits metrics and
  ledger rows.  :meth:`BaseImputer.impute` is ``impute_many([X])[0]``.
* Each (imputer, problem shape) pair has exactly one kernel: either the
  imputer's ``_impute_block`` handles the shape, or the default
  ``_impute_block`` loops the imputer's per-problem ``_impute``.  The
  scalar loops that the block kernels replaced are parity oracles in
  ``tests/imputer_oracles.py``.
* Algorithms never mutate their input.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ImputationError, RegistryError, ValidationError
from repro.observability import get_metrics, get_tracer
from repro.observability.resources import count_kernel
from repro.observability.ledger import (
    current_repair_id,
    get_ledger,
    repair_quality_stats_block,
)
from repro.resilience import (
    call_with_deadline,
    get_fault_injector,
    get_fault_policy,
)
from repro.timeseries.series import TimeSeries, TimeSeriesDataset
from repro.utils.timing import Timer


def interpolate_rows_block(X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
    """Fill NaNs in every row of a ``(B, n, L)`` problem stack.

    Each row is linearly interpolated with edge extension, using the
    arithmetic of ``np.interp`` (segment slope first, then
    ``slope * (t - t_prev) + v_prev``), so a row gets the same bytes as
    ``np.interp`` would give it.  Rows with no observed values take their
    problem's observed mean (0.0 when the whole problem is missing).

    Also accepts a 2-D ``(n, L)`` pair (treated as one problem).
    """
    X3 = np.asarray(X3)
    shape = X3.shape
    n, L = shape[-2:]
    rows = X3.reshape(-1, L)
    miss = np.asarray(mask3, dtype=bool).reshape(rows.shape)
    out = rows.copy()
    r, c = np.nonzero(miss)
    if not r.size:
        return out.reshape(shape)
    idx = np.arange(L)
    # Index of the previous / next observed position per cell (-1 / L
    # when there is none).
    prev = np.where(miss, -1, idx)
    np.maximum.accumulate(prev, axis=1, out=prev)
    nxt = np.minimum.accumulate(np.where(miss, L, idx)[:, ::-1], axis=1)[:, ::-1]
    p, q = prev[r, c], nxt[r, c]
    v_prev = rows[r, np.maximum(p, 0)]
    v_next = rows[r, np.minimum(q, L - 1)]
    # Interior gaps interpolate, edges extend the nearest observed value
    # (the slope of an edge cell is computed but never used).
    slope = (v_next - v_prev) / np.maximum(q - p, 1)
    has_prev = p >= 0
    out[r, c] = np.where(
        has_prev & (q < L),
        slope * (c - p) + v_prev,
        np.where(has_prev, v_prev, v_next),
    )
    # Fully-missing rows take the problem's observed mean.
    dead = miss.all(axis=1).reshape(-1, n)
    if dead.any():
        problems = out.reshape(-1, n, L)
        for b in np.flatnonzero(dead.any(axis=1)):
            observed_all = rows.reshape(-1, n, L)[b][~miss.reshape(-1, n, L)[b]]
            problems[b][dead[b]] = (
                float(observed_all.mean()) if observed_all.size else 0.0
            )
    return out.reshape(shape)


class BaseImputer:
    """Base class for all imputation algorithms.

    Subclasses set the class attribute ``name`` and implement a kernel:
    :meth:`_impute_block`, which fills a ``(B, n, L)`` stack of
    independent problems, or :meth:`_impute`, which fills one ``(n, L)``
    problem and which the default :meth:`_impute_block` loops.  Kernels
    must return finite values at the missing positions;
    :meth:`impute_many` restores observed entries afterwards, so
    algorithms may overwrite them freely during internal iterations.
    """

    #: Registry key; subclasses must override.
    name: str = "base"

    def impute(self, matrix) -> np.ndarray:
        """Return a completed copy of ``matrix`` with NaNs replaced.

        ``matrix`` is an array of shape (n_series, length) (or one 1-D
        series) with NaN at missing positions; this is
        ``impute_many([matrix])[0]``.
        """
        return self.impute_many([matrix])[0]

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        """Fill a ``(B, n, L)`` stack of *independent* problems.

        The default loops :meth:`_impute` over the problems, each on a
        private copy.  Imputers with a block kernel override this; an
        override must NOT mutate ``X3``/``mask3``, which the caller reuses
        to restore observed entries afterwards.
        """
        return np.stack(
            [self._impute(X3[b].copy(), mask3[b]) for b in range(X3.shape[0])]
        )

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Fill NaNs in one problem ``X`` (a private copy) and return it.

        Only the default :meth:`_impute_block` calls this; imputers whose
        block kernel covers every shape leave it undefined.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no per-problem kernel"
        )

    def impute_many(self, problems, *, repair_ids=None) -> list[np.ndarray]:
        """Impute many independent problems in one batched call.

        Parameters
        ----------
        problems:
            One of: a :class:`~repro.timeseries.batch.SeriesBank` (each
            raw row becomes a single-series problem), a 2-D array (each
            row an independent single-series problem), or a sequence
            whose elements are :class:`~repro.timeseries.TimeSeries`,
            1-D arrays, or 2-D ``(n, L)`` matrices.
        repair_ids:
            Optional per-problem repair ids for ledger correlation.
            When omitted, every row carries the thread's
            :func:`~repro.observability.ledger.current_repair_id`.

        Returns the completed matrices in input order.  Infinite values
        raise :class:`ValidationError` and an all-missing problem raises
        :class:`ImputationError`, for the first such problem in input
        order; problems with nothing missing come back as copies.
        Problems of equal shape are stacked into ``(B, n, L)`` blocks and
        dispatched to :meth:`_impute_block`.  Under a repair context the
        ledger gets one ``impute`` row per imputed problem, written
        through :meth:`~repro.observability.ledger.RepairLedger.record_many`.
        """
        matrices = self._coerce_problems(problems)
        n_problems = len(matrices)
        if repair_ids is not None and len(repair_ids) != n_problems:
            raise ValidationError(
                f"repair_ids has {len(repair_ids)} entries for {n_problems} problems"
            )
        results: list[np.ndarray | None] = [None] * n_problems
        shapes: dict[tuple[int, int], list[int]] = {}
        for i, X in enumerate(matrices):
            shapes.setdefault(X.shape, []).append(i)
        # Validate one stacked pass per shape, then shape-group the
        # problems that need work; the first offending problem in input
        # order decides the error.
        blocks: list[tuple[list[int], np.ndarray, np.ndarray]] = []
        first_bad: tuple[int, bool] | None = None
        for indices in shapes.values():
            X3 = np.stack([matrices[i] for i in indices])
            mask3 = np.isnan(X3)
            n_missing = mask3.reshape(len(indices), -1).sum(axis=1)
            todo = n_missing > 0
            has_inf = np.isinf(X3).reshape(len(indices), -1).any(axis=1)
            bad = has_inf | (n_missing == X3[0].size) & todo
            if bad.any():
                pos = int(np.argmax(bad))
                if first_bad is None or indices[pos] < first_bad[0]:
                    first_bad = (indices[pos], bool(has_inf[pos]))
                continue
            if todo.all():
                blocks.append((indices, X3, mask3))
                continue
            for pos in np.flatnonzero(~todo):
                results[indices[pos]] = X3[pos]
            if todo.any():
                blocks.append(
                    ([indices[p] for p in np.flatnonzero(todo)], X3[todo], mask3[todo])
                )
        if first_bad is not None:
            if first_bad[1]:
                raise ValidationError("matrix contains infinite values")
            raise ImputationError("matrix is entirely missing; nothing to learn from")
        if not blocks:
            return results
        tracer = get_tracer()
        metrics = get_metrics()
        # Resilience context: the ``imputer.impute`` fault site fires
        # first (chaos testing), and a process-level FaultPolicy may put
        # each block kernel under a wall-clock deadline.
        injector = get_fault_injector()
        policy = get_fault_policy()
        deadline = policy.impute_deadline if policy is not None else None
        ledger = get_ledger()
        thread_repair_id = current_repair_id()
        n_imputed = sum(len(indices) for indices, _, _ in blocks)
        ledger_rows: list[dict] = []
        block_bytes = 0
        timer = Timer()
        with timer, tracer.span(
            f"impute_many.{self.name}",
            subsystem="imputation",
            algorithm=self.name,
            n_problems=int(n_problems),
            n_imputed=int(n_imputed),
            n_groups=int(len(blocks)),
        ):
            action = (
                injector.check("imputer.impute", self.name)
                if injector is not None
                else None
            )
            for indices, X3, mask3 in blocks:
                if deadline is not None:
                    completed3 = call_with_deadline(
                        lambda X3=X3, mask3=mask3: self._impute_block(X3, mask3),
                        deadline,
                        label=f"imputer.impute:{self.name}",
                    )
                else:
                    completed3 = self._impute_block(X3, mask3)
                completed3 = np.asarray(completed3, dtype=float)
                if completed3.shape != X3.shape:
                    raise ImputationError(
                        f"{self.name}: imputer changed shape "
                        f"{X3.shape} -> {completed3.shape}"
                    )
                if action == "nan":
                    # Poison the completion: the finite check below turns
                    # this into a typed ImputationError, exercising the
                    # path a numerically broken algorithm would take.
                    completed3 = completed3.copy()
                    completed3[mask3] = np.nan
                # Observed entries are ground truth; never let an
                # algorithm drift them.  They are finite, so the whole
                # block is finite iff the filled entries are.
                np.copyto(completed3, X3, where=~mask3)
                if not np.isfinite(completed3).all():
                    raise ImputationError(
                        f"{self.name}: imputer left non-finite values at "
                        "missing positions"
                    )
                block_bytes += X3.nbytes + mask3.nbytes + completed3.nbytes
                for pos, i in enumerate(indices):
                    results[i] = completed3[pos]
                # Provenance is per *repair*: only problems with a repair
                # id emit rows, so labeling-time races never flood the
                # ledger.
                if ledger.enabled and (
                    repair_ids is not None or thread_repair_id is not None
                ):
                    ledger_rows.extend(
                        self._ledger_rows(
                            indices, mask3, completed3, repair_ids, thread_repair_id
                        )
                    )
        if ledger_rows:
            per_problem_s = timer.elapsed / n_imputed
            for row in ledger_rows:
                row["elapsed_s"] = per_problem_s
            ledger.record_many("impute", ledger_rows)
        count_kernel(
            f"impute_block.{self.name}",
            bytes_moved=block_bytes,
            chunks=len(blocks),
            scratch_allocations=len(blocks),
        )
        metrics.counter(
            "repro_imputation_runs_total",
            "Imputation invocations per algorithm",
            labels={"algorithm": self.name},
        ).inc(n_imputed)
        metrics.histogram(
            "repro_imputation_seconds",
            "Per-invocation imputation wall seconds",
            labels={"algorithm": self.name},
        ).observe(timer.elapsed)
        return results

    def _ledger_rows(
        self, indices, mask3, completed3, repair_ids, thread_repair_id
    ) -> list[dict]:
        """``impute`` ledger rows for one block (``elapsed_s`` left unset)."""
        hyperparams = {
            k: v
            for k, v in sorted(vars(self).items())
            if not k.startswith("_")
            and isinstance(v, (str, int, float, bool, type(None)))
        }
        quality = repair_quality_stats_block(completed3, mask3)
        rows = []
        for pos, i in enumerate(indices):
            rid = repair_ids[i] if repair_ids is not None else thread_repair_id
            if rid is None:
                continue
            rows.append(
                {
                    "repair_id": rid,
                    "algorithm": self.name,
                    "hyperparameters": hyperparams,
                    "n_series": int(mask3.shape[1]),
                    "length": int(mask3.shape[2]),
                    "n_missing": int(mask3[pos].sum()),
                    "elapsed_s": None,
                    "quality": quality[pos],
                }
            )
        return rows

    @staticmethod
    def _coerce_problems(problems) -> list[np.ndarray]:
        """Normalize ``impute_many`` input to a list of 2-D float matrices."""
        from repro.timeseries.batch import SeriesBank

        if isinstance(problems, SeriesBank):
            items = [problems.raw[i] for i in range(problems.raw.shape[0])]
        elif isinstance(problems, np.ndarray):
            if problems.ndim == 1:
                items = [problems]
            elif problems.ndim == 2:
                items = list(problems)
            elif problems.ndim == 3:
                items = list(problems)
            else:
                raise ValidationError(
                    f"problems array must be 1-D..3-D, got shape {problems.shape}"
                )
        else:
            items = list(problems)
        matrices = []
        for item in items:
            if isinstance(item, TimeSeries):
                X = np.asarray(item.values, dtype=float)
            else:
                X = np.asarray(item, dtype=float)
            if X.ndim == 1:
                X = X[None, :]
            if X.ndim != 2:
                raise ValidationError(
                    f"each problem must be 1-D or 2-D, got shape {X.shape}"
                )
            matrices.append(X)
        return matrices

    def impute_series_many(
        self, series_list, *, repair_ids=None
    ) -> list[TimeSeries]:
        """Batched :meth:`impute_series` over a corpus of univariate series."""
        series_list = list(series_list)
        completed = self.impute_many(
            [s.values[None, :] for s in series_list], repair_ids=repair_ids
        )
        return [
            s.with_values(c[0]) for s, c in zip(series_list, completed)
        ]

    def impute_series(self, series: TimeSeries) -> TimeSeries:
        """Impute a single univariate series."""
        completed = self.impute(series.values[None, :])[0]
        return series.with_values(completed)

    def impute_dataset(self, dataset: TimeSeriesDataset) -> TimeSeriesDataset:
        """Jointly impute all series of an equal-length dataset."""
        completed = self.impute(dataset.to_matrix())
        return TimeSeriesDataset(
            [s.with_values(row) for s, row in zip(dataset.series, completed)],
            name=dataset.name,
            category=dataset.category,
        )

    def _record_convergence(self, n_iterations: int, converged: bool) -> None:
        """Report an iterative algorithm's loop outcome to the telemetry.

        Iterative imputers (CDRec, SVDImp) call this once per problem
        at the end of their kernel so the metrics registry accumulates
        per-algorithm iteration counts and convergence rates.
        """
        metrics = get_metrics()
        labels = {"algorithm": self.name}
        metrics.counter(
            "repro_imputation_iterations_total",
            "Inner-loop iterations spent by iterative imputers",
            labels=labels,
        ).inc(max(0, int(n_iterations)))
        metrics.counter(
            "repro_imputation_convergence_total",
            "Iterative-imputer runs by convergence outcome",
            labels={**labels, "converged": str(bool(converged)).lower()},
        ).inc()

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}" for k, v in sorted(vars(self).items()) if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


IMPUTER_REGISTRY: dict[str, type[BaseImputer]] = {}


def register_imputer(cls: type[BaseImputer]) -> type[BaseImputer]:
    """Class decorator adding an imputer to the global registry by name."""
    key = cls.name
    if not key or key == "base":
        raise RegistryError(f"imputer class {cls.__name__} must define a unique name")
    if key in IMPUTER_REGISTRY and IMPUTER_REGISTRY[key] is not cls:
        raise RegistryError(f"imputer name {key!r} already registered")
    if (
        cls._impute is BaseImputer._impute
        and cls._impute_block is BaseImputer._impute_block
    ):
        raise RegistryError(f"imputer class {cls.__name__} defines no kernel")
    IMPUTER_REGISTRY[key] = cls
    return cls


def available_imputers() -> list[str]:
    """Sorted list of registered imputer names."""
    return sorted(IMPUTER_REGISTRY)


def get_imputer(name: str, **params) -> BaseImputer:
    """Instantiate a registered imputer by name with keyword parameters."""
    try:
        cls = IMPUTER_REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown imputer {name!r}; available: {available_imputers()}"
        ) from None
    return cls(**params)
