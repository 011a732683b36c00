"""Batched similarity kernels over a prepared series bank.

The per-pair functions in :mod:`repro.timeseries.correlation` are the
*reference implementation* of the similarity layer: readable, scalar, and
exactly the semantics of the paper (zero-lag Pearson correlation for the
clustering stage, max normalized cross-correlation / SBD for K-Shape).
They are also O(n²) Python loops — every pair re-cleans, re-z-norms, and
runs its own FFT, which is what made corpus-scale clustering (§VI) the
dominant training cost.

This module is the batched counterpart with a **bit-for-bit parity
contract** (≤ 1e-9 against the scalar path; identical argmax shifts):

* :class:`SeriesBank` cleans (NaN interpolation), truncates to the common
  minimum length, and z-normalizes a corpus *once* into a contiguous
  ``(n, L)`` float64 matrix, caching the rFFT bank per FFT size.
* :meth:`SeriesBank.corr_matrix` computes the full zero-lag correlation
  matrix as a single blockwise GEMM ``Z @ Z.T / L``.
* :func:`ncc_cross` / :meth:`SeriesBank.ncc_matrix` compute full NCC
  value *and argmax-shift* matrices with one rFFT per series, blockwise
  spectral products, and batched inverse FFTs — the kernel under both
  ``pairwise_correlation_matrix(shifted=True)`` / ``sbd_distance_matrix``
  and the K-Shape assignment / shape-extraction loops.

Every blockwise product is capped at :data:`DEFAULT_BLOCK_BYTES` of
scratch memory, so a 67K-series corpus streams through in fixed-size
slabs instead of materializing an ``(n, n, fft)`` cube.
"""

from __future__ import annotations

import json
import mmap as _mmap
import pathlib
import weakref

import numpy as np

from repro.exceptions import ValidationError
from repro.observability.metrics import get_metrics
from repro.observability.resources import count_kernel, get_accounting

#: On-disk bank layout version (``meta.json`` of a memmap bank directory).
BANK_FORMAT_VERSION = 1

#: Scratch-memory cap (bytes) for one blockwise spectral product.  The
#: inverse-FFT slab for a block of ``b`` rows against ``m`` columns at FFT
#: size ``s`` costs ``b * m * s * (16 + 8)`` bytes (complex spectrum +
#: real cross-correlation); blocks are sized to stay under this cap.
DEFAULT_BLOCK_BYTES = 64 * 1024 * 1024

#: Registry counters of every :meth:`SeriesBank.cached` lookup (rFFT
#: banks, feature-extractor spectra, ...), read by :func:`bank_cache_stats`.
_BANK_HITS = "repro_series_bank_cache_hits_total"
_BANK_MISSES = "repro_series_bank_cache_misses_total"


def bank_cache_stats() -> dict:
    """Process-wide ``{hits, misses, hit_rate}`` of the bank derived-array
    caches (all :class:`SeriesBank` instances combined)."""
    metrics = get_metrics()
    hits = int(metrics.total(_BANK_HITS))
    misses = int(metrics.total(_BANK_MISSES))
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else 0.0,
    }


def _release_bank_bytes(holder: list) -> None:
    """Finalizer of a garbage-collected bank: release its live bytes."""
    get_accounting().account_sub("series_bank", holder[0])
    holder[0] = 0


def _release_bank_disk_bytes(holder: list) -> None:
    """Finalizer of a garbage-collected memmap bank: release its disk bytes."""
    if holder[0]:
        get_accounting().account_sub("series_bank_disk", holder[0])
        holder[0] = 0


def _clean_array(series) -> np.ndarray:
    """Clean one series exactly like the scalar reference path."""
    # Import here to avoid a circular import at module load time
    # (correlation.py dispatches into this module).
    from repro.timeseries.correlation import _as_clean_array

    return _as_clean_array(series)


def znorm_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise z-normalization matching the scalar ``_znorm``.

    Constant rows become all-zero rows (the scalar convention: constant
    series correlate 0 with everything).
    """
    matrix = np.asarray(matrix, dtype=float)
    means = matrix.mean(axis=1, keepdims=True)
    stds = matrix.std(axis=1, keepdims=True)
    out = np.zeros_like(matrix)
    np.divide(matrix - means, stds, out=out, where=stds != 0.0)
    return out


def _fft_size(length: int) -> int:
    """FFT size used by the scalar kernels: next pow2 ≥ 2L - 1."""
    return 1 << (2 * length - 1).bit_length()


def _block_rows(n_cols: int, fft_size: int, block_bytes: int) -> int:
    """Rows per blockwise spectral product under the memory cap."""
    per_row = max(1, n_cols) * fft_size * 24  # complex spec + real irfft
    return max(1, int(block_bytes // per_row))


def ncc_cross(
    X: np.ndarray,
    Y: np.ndarray,
    *,
    max_shift: int | None = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    fx: np.ndarray | None = None,
    fy_conj: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched max normalized cross-correlation values and argmax shifts.

    For every row pair ``(i, j)`` this computes exactly what the scalar
    ``_ncc_shift(X[i], Y[j])`` computes: the maximum of the zero-padded
    cross-correlation over shifts ``-(L-1) .. L-1`` divided by
    ``||X[i]|| * ||Y[j]||``, plus the (first) argmax shift.  Pairs where
    either norm is zero yield ``(0.0, 0)``.

    Parameters
    ----------
    X, Y:
        Float matrices of shape ``(nx, L)`` and ``(ny, L)`` (same L).
    max_shift:
        Optional symmetric restriction of the shift window.
    block_bytes:
        Scratch cap for each blockwise spectral product.
    fx, fy_conj:
        Optional precomputed ``rfft(X, size, axis=1)`` and
        ``conj(rfft(Y, size, axis=1))`` banks (see :class:`SeriesBank`).

    Returns
    -------
    (values, shifts):
        ``values`` is ``(nx, ny)`` float64, ``shifts`` ``(nx, ny)`` int64.
    """
    X = np.ascontiguousarray(X, dtype=float)
    Y = np.ascontiguousarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValidationError(
            f"ncc_cross expects 2-D matrices, got {X.shape} and {Y.shape}"
        )
    if X.shape[1] != Y.shape[1]:
        raise ValidationError(
            f"row lengths differ: {X.shape[1]} vs {Y.shape[1]}"
        )
    nx, L = X.shape
    ny = Y.shape[0]
    if L == 0:
        raise ValidationError("cannot correlate zero-length series")
    size = _fft_size(L)
    if fx is None:
        fx = np.fft.rfft(X, size, axis=1)
    if fy_conj is None:
        fy_conj = np.conj(np.fft.rfft(Y, size, axis=1))
    norm_x = np.linalg.norm(X, axis=1)
    norm_y = np.linalg.norm(Y, axis=1)
    denom = norm_x[:, None] * norm_y[None, :]

    # Shift window (matching the scalar reordering and slicing).
    if L > 1:
        n_shifts = 2 * L - 1
        center = L - 1
    else:
        n_shifts, center = 1, 0
    lo, hi = 0, n_shifts
    if max_shift is not None:
        lo = max(0, center - int(max_shift))
        hi = min(n_shifts, center + int(max_shift) + 1)

    values = np.zeros((nx, ny))
    shifts = np.zeros((nx, ny), dtype=np.int64)
    rows_per_block = _block_rows(ny, size, block_bytes)
    n_chunks = 0
    scratch_bytes = 0
    for start in range(0, nx, rows_per_block):
        stop = min(nx, start + rows_per_block)
        spec = fx[start:stop][:, None, :] * fy_conj[None, :, :]
        cc = np.fft.irfft(spec, size, axis=2)
        n_chunks += 1
        scratch_bytes += spec.nbytes + cc.nbytes
        if L > 1:
            # Reorder to shifts -(L-1) .. (L-1), exactly like the scalar
            # `np.concatenate((cc[-(L-1):], cc[:L]))`.
            cc = np.concatenate((cc[:, :, -(L - 1):], cc[:, :, :L]), axis=2)
        else:
            cc = cc[:, :, :1]
        cc = cc[:, :, lo:hi]
        idx = cc.argmax(axis=2)
        best = np.take_along_axis(cc, idx[:, :, None], axis=2)[:, :, 0]
        values[start:stop] = best
        shifts[start:stop] = idx + lo - center
    nonzero = denom != 0.0
    np.divide(values, denom, out=values, where=nonzero)
    values[~nonzero] = 0.0
    shifts[~nonzero] = 0
    count_kernel(
        "ncc_cross",
        bytes_moved=(
            X.nbytes + Y.nbytes + values.nbytes + shifts.nbytes
            + scratch_bytes
        ),
        chunks=n_chunks,
        scratch_allocations=2 * n_chunks,
    )
    return values, shifts


def ncc_rowwise(
    X: np.ndarray, Y: np.ndarray, *, return_shifts: bool = False
):
    """Row-aligned batched NCC: ``values[i] = max-NCC(X[i], Y[i])``.

    The batched form of calling the scalar ``_ncc_shift(X[i], Y[i])``
    once per row — used by K-Shape's empty-cluster reseeding, where each
    series is compared against *its own* assigned centroid.
    """
    X = np.ascontiguousarray(X, dtype=float)
    Y = np.ascontiguousarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim != 2:
        raise ValidationError(
            f"ncc_rowwise expects matching 2-D matrices, got {X.shape} / {Y.shape}"
        )
    n, L = X.shape
    if L == 0:
        raise ValidationError("cannot correlate zero-length series")
    size = _fft_size(L)
    cc = np.fft.irfft(
        np.fft.rfft(X, size, axis=1) * np.conj(np.fft.rfft(Y, size, axis=1)),
        size,
        axis=1,
    )
    if L > 1:
        cc = np.concatenate((cc[:, -(L - 1):], cc[:, :L]), axis=1)
        center = L - 1
    else:
        cc = cc[:, :1]
        center = 0
    idx = cc.argmax(axis=1)
    values = np.take_along_axis(cc, idx[:, None], axis=1)[:, 0]
    denom = np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1)
    nonzero = denom != 0.0
    np.divide(values, denom, out=values, where=nonzero)
    values[~nonzero] = 0.0
    if return_shifts:
        shifts = idx.astype(np.int64) - center
        shifts[~nonzero] = 0
        return values, shifts
    return values


class SeriesBank:
    """A corpus prepared once for batched similarity kernels.

    Cleaning (NaN interpolation), truncation to the common minimum
    length, and z-normalization happen exactly once at construction; the
    resulting contiguous ``(n, L)`` matrix plus its cached rFFT bank feed
    every downstream kernel.

    Parameters
    ----------
    matrix:
        Pre-cleaned ``(n, L)`` float matrix (rows are the *raw* truncated
        series; z-normalization is applied internally).
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValidationError(
                f"SeriesBank expects an (n, L) matrix, got shape {matrix.shape}"
            )
        if matrix.shape[1] == 0:
            raise ValidationError("SeriesBank rows must have length >= 1")
        if np.isnan(matrix).any():
            raise ValidationError(
                "SeriesBank matrix must be NaN-free (use from_series)"
            )
        self.raw = matrix
        self.znorm = znorm_rows(matrix)
        #: Row norms of the z-normed matrix (0.0 marks constant rows).
        self.norms = np.linalg.norm(self.znorm, axis=1)
        #: Bank directory for disk-backed banks; ``None`` for in-RAM banks.
        self.path: pathlib.Path | None = None
        #: Generic memo of arrays derived from the (immutable) bank
        #: contents, keyed by caller-chosen hashable keys; see
        #: :meth:`cached`.  The rFFT banks live here too.
        self._derived: dict = {}
        self._register_accounting(
            self.raw.nbytes + self.znorm.nbytes + self.norms.nbytes, 0
        )

    def _register_accounting(self, resident: int, disk: int) -> None:
        # Resource accounting: the bank's live bytes (base matrices now,
        # derived arrays as ``cached`` builds them) are tracked in the
        # shared ``series_bank`` account — memmap banks charge their
        # on-disk arrays to ``series_bank_disk`` instead — and released
        # when the bank is garbage-collected.  The mutable holders let
        # ``cached`` grow the figures after the finalizers are registered.
        registry = get_accounting()
        self._account_bytes = [resident]
        self._disk_bytes = [disk]
        registry.account_add("series_bank", resident)
        weakref.finalize(self, _release_bank_bytes, self._account_bytes)
        if disk:
            registry.account_add("series_bank_disk", disk)
        weakref.finalize(self, _release_bank_disk_bytes, self._disk_bytes)

    # ------------------------------------------------------------------
    @classmethod
    def from_series(cls, series_list) -> "SeriesBank":
        """Clean + truncate a heterogeneous corpus into a bank.

        Accepts :class:`~repro.timeseries.series.TimeSeries` or arrays;
        NaNs are linearly interpolated and all series are truncated to
        the common minimum length (the semantics of the per-pair path
        when lengths are equal).
        """
        arrays = [_clean_array(s) for s in series_list]
        if not arrays:
            raise ValidationError("cannot build a SeriesBank from no series")
        min_len = min(a.shape[0] for a in arrays)
        if min_len == 0:
            raise ValidationError("cannot bank zero-length series")
        return cls(np.vstack([a[:min_len] for a in arrays]))

    # ------------------------------------------------------------------
    # Out-of-core (memmap) banks
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path,
        series_list,
        *,
        length: int | None = None,
        n_series: int | None = None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> "SeriesBank":
        """Build a disk-backed bank under the ``path`` directory.

        Series are cleaned exactly like :meth:`from_series` but written
        straight into an on-disk memmap one at a time, so peak RAM is one
        series plus one z-norm block — never the corpus.  ``path`` ends
        up holding ``meta.json``, ``raw.npy``, ``znorm.npy`` and
        ``norms.npy`` (plus rFFT banks as kernels request them); reopen
        it later — or from another process — with :meth:`open`.

        Parameters
        ----------
        series_list:
            A sequence of series (two passes: one to find the common
            minimum length, one to write), or a single-pass iterable
            when both ``length`` and ``n_series`` are given.
        length, n_series:
            Explicit bank geometry for single-pass iterables.  Rows
            longer than ``length`` are truncated; shorter rows are an
            error (the sequence form derives the common minimum length
            instead).
        """
        from numpy.lib.format import open_memmap

        path = pathlib.Path(path)
        path.mkdir(parents=True, exist_ok=True)
        if length is None or n_series is None:
            series_list = list(series_list)
            if not series_list:
                raise ValidationError(
                    "cannot build a SeriesBank from no series"
                )
            n = len(series_list)
            min_len = min(_clean_array(s).shape[0] for s in series_list)
            if length is not None:
                min_len = min(min_len, int(length))
            if min_len == 0:
                raise ValidationError("cannot bank zero-length series")
            L = min_len
        else:
            n, L = int(n_series), int(length)
            if n <= 0 or L <= 0:
                raise ValidationError(
                    f"bank geometry must be positive, got ({n}, {L})"
                )
        raw = open_memmap(
            path / "raw.npy", mode="w+", dtype=np.float64, shape=(n, L)
        )
        written = 0
        for i, series in enumerate(series_list):
            if i >= n:
                raise ValidationError(
                    f"more than the declared {n} series were provided"
                )
            arr = _clean_array(series)
            if arr.shape[0] < L:
                raise ValidationError(
                    f"series {i} is shorter ({arr.shape[0]}) than the "
                    f"bank length {L}"
                )
            row = arr[:L]
            if np.isnan(row).any():
                raise ValidationError(
                    "SeriesBank matrix must be NaN-free (series "
                    f"{i} still contains NaN after cleaning)"
                )
            raw[i] = row
            written += 1
        if written != n:
            raise ValidationError(
                f"expected {n} series, got {written}"
            )
        znorm = open_memmap(
            path / "znorm.npy", mode="w+", dtype=np.float64, shape=(n, L)
        )
        norms = np.empty(n)
        rows = max(1, int(block_bytes // max(1, L * 8 * 2)))
        n_chunks = 0
        for start in range(0, n, rows):
            stop = min(n, start + rows)
            block = znorm_rows(raw[start:stop])
            znorm[start:stop] = block
            norms[start:stop] = np.linalg.norm(block, axis=1)
            n_chunks += 1
        raw.flush()
        znorm.flush()
        np.save(path / "norms.npy", norms)
        meta = {"version": BANK_FORMAT_VERSION, "n": n, "length": L}
        # meta.json is written last, atomically: a crash mid-create
        # leaves a directory that ``open`` rejects instead of a
        # truncated bank that serves garbage.
        tmp = path / "meta.json.tmp"
        tmp.write_text(json.dumps(meta))
        tmp.replace(path / "meta.json")
        del raw, znorm
        count_kernel(
            "bank_create",
            bytes_moved=2 * n * L * 8 + norms.nbytes,
            chunks=n_chunks,
            scratch_allocations=1,
        )
        return cls.open(path)

    @classmethod
    def open(cls, path) -> "SeriesBank":
        """Reopen a disk-backed bank created by :meth:`create`.

        The raw and z-normed matrices (and any rFFT banks derived later)
        are read-only memmaps: kernels stream them blockwise and the
        corpus never has to fit in RAM.  On-disk bytes are charged to the
        ``series_bank_disk`` account; only the row norms are resident.
        """
        path = pathlib.Path(path)
        meta_path = path / "meta.json"
        if not meta_path.exists():
            raise ValidationError(
                f"{path} does not contain a series bank (missing meta.json)"
            )
        try:
            meta = json.loads(meta_path.read_text())
        except ValueError as exc:
            raise ValidationError(
                f"unreadable bank metadata under {path}: {exc}"
            ) from None
        if not isinstance(meta, dict):
            raise ValidationError(
                f"bank metadata under {path} is not a JSON object"
            )
        if meta.get("version") != BANK_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported bank format version {meta.get('version')!r} "
                f"under {path}"
            )
        try:
            shape = (int(meta.get("n", -1)), int(meta.get("length", -1)))
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"unreadable bank geometry under {path}: {exc}"
            ) from None
        # Truncated or missing array files surface as OSError/ValueError/
        # EOFError from numpy; report them as a corrupt bank instead.
        try:
            raw = np.load(path / "raw.npy", mmap_mode="r")
            znorm = np.load(path / "znorm.npy", mmap_mode="r")
            norms = np.load(path / "norms.npy")
        except (OSError, ValueError, EOFError) as exc:
            raise ValidationError(
                f"corrupt series bank under {path}: {exc}"
            ) from None
        if raw.shape != shape or znorm.shape != shape or norms.shape != shape[:1]:
            raise ValidationError(
                f"series bank files under {path} disagree with meta.json"
            )
        bank = object.__new__(cls)
        bank.raw = raw
        bank.znorm = znorm
        bank.norms = norms
        bank.path = path
        bank._derived = {}
        bank._register_accounting(norms.nbytes, raw.nbytes + znorm.nbytes)
        return bank

    @property
    def on_disk(self) -> bool:
        """Whether this bank's matrices are disk-backed memmaps."""
        return self.path is not None

    def handle(self) -> tuple:
        """Picklable descriptor of a disk-backed bank.

        Workers rebuild a zero-copy bank from it with :meth:`attach`; the
        pickle moves ~bytes of path, not the corpus.  In-RAM banks have
        no standalone handle — use :meth:`share` for those.
        """
        if not self.on_disk:
            raise ValidationError(
                "in-RAM banks have no standalone handle; use share()"
            )
        return ("memmap", str(self.path))

    def release_pages(self) -> None:
        """Drop this process's resident pages of every on-disk array.

        ``madvise(MADV_DONTNEED)`` on the read-only file mappings: the
        data stays in the OS page cache, but the process's RSS no longer
        charges for it.  Blockwise kernels call this between passes so
        the out-of-core path's peak RSS tracks the scratch cap, not the
        corpus.  No-op for in-RAM banks and platforms without madvise.
        """
        if not self.on_disk:
            return
        advice = getattr(_mmap, "MADV_DONTNEED", None)
        if advice is None:  # pragma: no cover - platform-dependent
            return
        arrays = [self.raw, self.znorm]
        arrays.extend(
            value
            for value in self._derived.values()
            if isinstance(value, np.memmap)
        )
        for arr in arrays:
            mapping = getattr(arr, "_mmap", None)
            if mapping is None:
                continue
            try:
                mapping.madvise(advice)
            except (OSError, ValueError):  # pragma: no cover - best effort
                return

    # ------------------------------------------------------------------
    def share(self):
        """Copy the raw matrix into a shared-memory segment.

        Returns the owning :class:`~repro.parallel.shm.SharedArray`;
        pass its ``.handle`` to workers and rebuild a zero-copy bank
        there with :meth:`attach`.  The caller owns the segment and must
        ``unlink()`` it when the fan-out completes.
        """
        from repro.parallel.shm import SharedArray

        return SharedArray.create(self.raw)

    @classmethod
    def attach(cls, handle) -> "SeriesBank":
        """Rebuild a bank from a :meth:`share` or :meth:`handle` handle.

        Shared-memory handles map the segment without copying (kept
        mapped by the per-process attach cache) and derive z-norm/rFFT
        locally; ``("memmap", path)`` handles from :meth:`handle` simply
        reopen the disk-backed bank.
        """
        if (
            isinstance(handle, tuple)
            and len(handle) == 2
            and handle[0] == "memmap"
        ):
            return cls.open(handle[1])
        from repro.parallel.shm import attach_cached

        return cls(attach_cached(handle).array)

    @property
    def n(self) -> int:
        return self.raw.shape[0]

    @property
    def length(self) -> int:
        return self.raw.shape[1]

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    def cached(self, key, builder):
        """Memoize an array derived from the bank's (immutable) contents.

        ``builder`` is a zero-argument callable evaluated on the first
        lookup of ``key``; later lookups return the stored value.  Every
        kernel that re-derives data from the bank (rFFT banks, the
        feature extractor's detrended spectra, ...) routes through here,
        so repeated batched calls over the same corpus share work.
        Hits/misses are counted in the metrics registry and read back
        by :func:`bank_cache_stats` for the serving health snapshot.
        """
        metrics = get_metrics()
        if key in self._derived:
            metrics.counter(
                _BANK_HITS, "Series-bank derived-array lookups served"
            ).inc()
            return self._derived[key]
        metrics.counter(
            _BANK_MISSES, "Series-bank derived-array lookups that built"
        ).inc()
        value = builder()
        self._derived[key] = value
        nbytes = getattr(value, "nbytes", 0)
        if nbytes:
            # Disk-resident derivations (rFFT banks of a memmap bank)
            # are charged to the on-disk account, not resident RAM.
            if isinstance(value, np.memmap):
                self._disk_bytes[0] += nbytes
                get_accounting().account_add(
                    "series_bank_disk", nbytes, items=0
                )
            else:
                self._account_bytes[0] += nbytes
                get_accounting().account_add("series_bank", nbytes, items=0)
        return value

    def rfft(self, size: int | None = None) -> np.ndarray:
        """Cached ``rfft(znorm, size, axis=1)`` bank (one FFT per series).

        On-disk banks stream the FFT to a memmap next to the matrices so
        the spectral bank never has to fit in RAM either.
        """
        if size is None:
            size = _fft_size(self.length)
        if self.on_disk:
            return self.cached(
                ("rfft", size),
                lambda: self._disk_spectrum(f"rfft_{size}.npy", size, conj=False),
            )
        return self.cached(
            ("rfft", size), lambda: np.fft.rfft(self.znorm, size, axis=1)
        )

    def rfft_conj(self, size: int | None = None) -> np.ndarray:
        """Conjugate rFFT bank of an on-disk bank, itself stored on disk.

        ``ncc_matrix`` needs ``conj(rfft(znorm))`` for every row;
        materializing the conjugate of a memmapped spectrum would pull
        the whole bank into RAM, so disk-backed banks keep a second
        memmap with the conjugate precomputed.  In-RAM banks just
        conjugate the cached spectrum.
        """
        if size is None:
            size = _fft_size(self.length)
        if not self.on_disk:
            return np.conj(self.rfft(size))
        return self.cached(
            ("rfftc", size),
            lambda: self._disk_spectrum(f"rfftc_{size}.npy", size, conj=True),
        )

    def _disk_spectrum(self, filename: str, size: int, *, conj: bool):
        """Build (or reopen) an on-disk rFFT bank, blockwise.

        The spectrum is computed in scratch-cap-sized row blocks into a
        temp file and atomically renamed, then reopened read-only — so a
        crash mid-build never leaves a half-written bank behind, and a
        bank directory can be shared by many worker processes that each
        reuse the first build.
        """
        from numpy.lib.format import open_memmap

        target = self.path / filename
        if not target.exists():
            n = self.n
            n_bins = size // 2 + 1
            tmp = self.path / (filename + ".tmp")
            out = open_memmap(
                tmp, mode="w+", dtype=np.complex128, shape=(n, n_bins)
            )
            # 8B input row + 16B spectrum row + FFT scratch ~ 3x spectrum.
            per_row = self.length * 8 + n_bins * 16 * 3
            rows = max(1, int(DEFAULT_BLOCK_BYTES // per_row))
            for start in range(0, n, rows):
                stop = min(n, start + rows)
                block = np.fft.rfft(self.znorm[start:stop], size, axis=1)
                out[start:stop] = np.conj(block) if conj else block
            out.flush()
            del out
            tmp.replace(target)
        return np.load(target, mmap_mode="r")

    # ------------------------------------------------------------------
    def corr_matrix(
        self, *, block_bytes: int = DEFAULT_BLOCK_BYTES
    ) -> np.ndarray:
        """Zero-lag correlation matrix as a blockwise GEMM ``Z @ Z.T / L``.

        Matches ``pairwise_correlation_matrix(..., shifted=False)``:
        symmetric, unit diagonal, constant series correlate 0.
        """
        Z = self.znorm
        n, L = Z.shape
        out = np.empty((n, n))
        rows = max(1, int(block_bytes // max(1, n * 8)))
        n_chunks = 0
        for start in range(0, n, rows):
            stop = min(n, start + rows)
            out[start:stop] = Z[start:stop] @ Z.T
            n_chunks += 1
            if self.on_disk:
                self.release_pages()
        out /= L
        count_kernel(
            "corr_matrix",
            bytes_moved=Z.nbytes + out.nbytes,
            chunks=n_chunks,
            scratch_allocations=1,
        )
        # Mirror the reference construction: values from the upper
        # triangle, exact symmetry, exact unit diagonal.
        upper = np.triu(out, k=1)
        out = upper + upper.T
        np.fill_diagonal(out, 1.0)
        return out

    def ncc_matrix(
        self,
        *,
        max_shift: int | None = None,
        return_shifts: bool = False,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        """Full NCC similarity matrix (and optionally argmax shifts).

        Matches ``max_cross_correlation`` applied to every (i, j) pair of
        the bank: symmetric values (mirrored from the upper triangle,
        like the reference loop), unit diagonal.  Only the columns at or
        right of each row block are computed — the lower triangle is the
        mirror, so spectral products / inverse FFTs for it would be
        discarded work (close to a 2x saving on square matrices).
        """
        fz = self.rfft()
        fz_conj = self.rfft_conj()
        n = self.n
        values = np.zeros((n, n))
        shifts = np.zeros((n, n), dtype=np.int64)
        rows = _block_rows(n, _fft_size(self.length), block_bytes)
        for start in range(0, n, rows):
            stop = min(n, start + rows)
            block_v, block_s = ncc_cross(
                self.znorm[start:stop],
                self.znorm[start:],
                max_shift=max_shift,
                block_bytes=block_bytes,
                fx=fz[start:stop],
                fy_conj=fz_conj[start:],
            )
            values[start:stop, start:] = block_v
            shifts[start:stop, start:] = block_s
            if self.on_disk:
                self.release_pages()
        upper = np.triu(values, k=1)
        values = upper + upper.T
        np.fill_diagonal(values, 1.0)
        if return_shifts:
            upper_s = np.triu(shifts, k=1)
            shifts = upper_s - upper_s.T
            return values, shifts
        return values

    def sbd_matrix(
        self, *, block_bytes: int = DEFAULT_BLOCK_BYTES
    ) -> np.ndarray:
        """Shape-based distance matrix ``1 - NCC`` with an exact zero diagonal."""
        ncc = self.ncc_matrix(block_bytes=block_bytes)
        upper = np.triu(1.0 - ncc, k=1)
        dist = upper + upper.T
        np.fill_diagonal(dist, 0.0)
        return dist

    def average_correlation(self) -> float:
        """Mean upper-triangle zero-lag correlation (``rho-bar`` of Alg. 2)."""
        if self.n == 1:
            return 1.0
        corr = self.corr_matrix()
        iu = np.triu_indices(self.n, k=1)
        return float(corr[iu].mean())
