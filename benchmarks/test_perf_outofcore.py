"""Perf — out-of-core corpus engine: memmap banks.

Measures what a memmap bank trades against an in-RAM one.

Workload:

* ``bank_training_rss`` — the full training-side bank workload (build
  the bank, correlation matrix, blockwise feature extraction) run twice
  in *subprocess arms* — once on an in-RAM :class:`SeriesBank`, once on
  a memmap bank — each arm reporting its wall seconds, peak RSS
  (``VmHWM``) and a result checksum as JSON.  The acceptance gate (full
  mode only: the tiny CI corpus is dwarfed by interpreter overhead):
  memmap peak RSS < 50% of in-RAM within 1.5x wall clock.  Checksums
  must match exactly — the memmap path cannot "win" by computing
  something else.

The end-to-end benchmark (``benchmarks/e2e``) never builds a memmap
bank, so this is the one gate on its memory.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

#: Corpus geometry for the RSS workload.  Full mode is sized so the
#: corpus (raw + znorm, ~400 MiB) dwarfs interpreter overhead and the
#: RSS ratio is meaningful; tiny mode just exercises both arms.
RSS_N, RSS_LENGTH = (32, 2048) if TINY else (96, 262_144)
#: Full-mode acceptance thresholds (ISSUE 10).
RSS_CEILING = 0.5
WALLCLOCK_CEILING = 1.5


# ---------------------------------------------------------------------------
# Subprocess arms (self-invocation): build + corr + blockwise extraction
# ---------------------------------------------------------------------------
def _arm_corpus(n: int, length: int, seed: int = 31) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=length).cumsum() for _ in range(n)]


def _run_arm(arm: str, n: int, length: int, bank_dir: str | None) -> dict:
    """One measurement arm; executed in a fresh subprocess."""
    from repro.features import FeatureExtractor
    from repro.observability.resources import sample_rss
    from repro.timeseries.batch import SeriesBank

    series = _arm_corpus(n, length)
    start = time.perf_counter()
    if arm == "memmap":
        bank = SeriesBank.create(bank_dir, series)
    else:
        bank = SeriesBank.from_series(series)
    del series  # the bank owns (or memmaps) the corpus from here
    corr = bank.corr_matrix()
    features = FeatureExtractor().extract_many(bank)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "hwm_bytes": sample_rss()["hwm_bytes"],
        "checksum": f"{float(corr.sum()):.12e}|{float(np.nansum(features)):.12e}",
    }


def _spawn_arm(arm: str, n: int, length: int, bank_dir=None) -> dict:
    import repro

    env = dict(os.environ)
    src_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else os.pathsep.join([src_root, existing])
    )
    argv = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--arm", arm, "--n", str(n), "--length", str(length),
    ]
    if bank_dir is not None:
        argv += ["--bank-dir", str(bank_dir)]
    proc = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=1800
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_memmap_bank_peak_rss(tmp_path):
    inram = _spawn_arm("inram", RSS_N, RSS_LENGTH)
    memmap = _spawn_arm(
        "memmap", RSS_N, RSS_LENGTH, bank_dir=tmp_path / "bank"
    )
    # Parity first: both arms computed the exact same corr + features.
    assert memmap["checksum"] == inram["checksum"]
    rss_ratio = memmap["hwm_bytes"] / inram["hwm_bytes"]
    wallclock_ratio = memmap["seconds"] / inram["seconds"]
    print(
        f"\n== outofcore bank_training_rss "
        f"({RSS_N}x{RSS_LENGTH}, {os.cpu_count()} CPUs) ==\n"
        f"inram  {inram['seconds']:.2f}s  hwm {inram['hwm_bytes'] / 2**20:.0f} MiB\n"
        f"memmap {memmap['seconds']:.2f}s  hwm {memmap['hwm_bytes'] / 2**20:.0f} MiB\n"
        f"rss_ratio {rss_ratio:.3f}  wallclock_ratio {wallclock_ratio:.3f}"
    )
    if not TINY:
        assert rss_ratio < RSS_CEILING, (
            f"memmap peak RSS is {rss_ratio:.2f}x of in-RAM "
            f"(must be < {RSS_CEILING})"
        )
        assert wallclock_ratio <= WALLCLOCK_CEILING, (
            f"memmap wall clock is {wallclock_ratio:.2f}x of in-RAM "
            f"(must be <= {WALLCLOCK_CEILING})"
        )


# ---------------------------------------------------------------------------
# Self-invocation: one measurement arm per process
# ---------------------------------------------------------------------------
if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--arm", choices=("inram", "memmap"), required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--bank-dir", default=None)
    args = parser.parse_args()
    print(json.dumps(_run_arm(args.arm, args.n, args.length, args.bank_dir)))
