"""Shared batched linear-algebra kernels for the matrix-imputer family.

The SVD-family imputers (SVDImp, SoftImpute, SVT, ROSL) all iterate
"decompose → reconstruct → refill missing → check convergence" loops.
:meth:`BaseImputer.impute_many <repro.imputation.base.BaseImputer.impute_many>`
hands them a ``(B, n, L)`` stack of *independent* problems, and numpy's
gufunc ``svd`` runs the same LAPACK factorization over the whole stack in
one call — one Python-loop iteration per *corpus* instead of per series.
Every problem shape, one-series problems included, goes through that one
factorization; there is no closed form for single rows, whose last bits
would differ from LAPACK's and could decide a labeling tie.

Each problem sees the arithmetic of the scalar loop it replaced
(``tests/imputer_oracles.py``): the batched ops are the same BLAS/LAPACK
routines per matrix.  The convergence norms are taken as masked
full-matrix sums instead of per-problem extractions, which can only
differ in summation order.  A problem that converges is *frozen*:
dropped from the active stack while the rest keep iterating, so
mixed-difficulty corpora don't pay for their hardest member.
"""

from __future__ import annotations

import numpy as np

from repro.observability.resources import get_accounting


def svd_block(stack: np.ndarray):
    """Thin SVD of every matrix in a ``(B, n, L)`` stack."""
    get_accounting().record_kernel(
        "svd_block",
        bytes_moved=stack.nbytes,
        chunks=1,
        scratch_allocations=3,
    )
    return np.linalg.svd(stack, full_matrices=False)


def reconstruct_truncated(
    U: np.ndarray, s: np.ndarray, Vt: np.ndarray, rank: int
) -> np.ndarray:
    """Batched rank-``rank`` reconstruction from a stacked SVD."""
    return (U[:, :, :rank] * s[:, None, :rank]) @ Vt[:, :rank, :]


def reconstruct_shrunk(
    U: np.ndarray, s_shrunk: np.ndarray, Vt: np.ndarray
) -> np.ndarray:
    """Batched full-rank reconstruction with (already shrunk) spectra."""
    return (U * s_shrunk[:, None, :]) @ Vt


def masked_norms(values3: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack (zeros where unmasked)."""
    return np.sqrt(np.einsum("bij,bij->b", values3, values3))


class ActiveStack:
    """Compacted active-problem state for a frozen-stack iteration loop.

    Reproduces the per-problem relative-change test
    ``||new - prev|| / (||prev|| + 1e-12) < tol`` over each problem's
    imputed entries, batched: ``prev`` is held as a masked full matrix
    (zeros at observed cells) so the norms reduce over the whole stack
    in one einsum.  Converged problems are written back to the output
    stack and *compacted away* — on iterations where nothing converges
    (the common case) no fancy indexing happens at all, so a steady
    iteration costs a handful of whole-stack array passes.
    """

    def __init__(self, cur3: np.ndarray, mask3: np.ndarray, tol: float):
        B = cur3.shape[0]
        self.tol = float(tol)
        self.out = cur3
        self.idx = np.arange(B)
        self.cur = cur3.copy()
        self.mask = mask3
        self.prev = np.where(mask3, cur3, 0.0)
        self.converged = np.zeros(B, dtype=bool)
        self.iters = np.zeros(B, dtype=int)
        self.iteration = 0

    @property
    def alive(self) -> bool:
        return self.idx.size > 0

    def advance(self, new_cur: np.ndarray, iteration: int, extras=()):
        """Fold one iteration's refreshed stack into the state.

        ``extras`` are optional per-problem arrays (thresholds, sparse
        terms, ...) compacted alongside; the (possibly shrunk) tuple is
        returned for the caller to keep using.
        """
        newm = np.where(self.mask, new_cur, 0.0)
        num = masked_norms(newm - self.prev)
        den = masked_norms(self.prev) + 1e-12
        conv = num / den < self.tol
        self.iteration = iteration
        if conv.any():
            frozen = self.idx[conv]
            self.converged[frozen] = True
            self.iters[frozen] = iteration
            self.out[frozen] = new_cur[conv]
            keep = ~conv
            self.idx = self.idx[keep]
            self.cur = new_cur[keep]
            self.mask = self.mask[keep]
            self.prev = newm[keep]
            return tuple(e[keep] for e in extras)
        self.cur = new_cur
        self.prev = newm
        return extras

    def finalize(self) -> np.ndarray:
        """Write any still-active problems back; returns the full stack."""
        if self.idx.size:
            self.out[self.idx] = self.cur
            self.iters[self.idx] = self.iteration
        return self.out
