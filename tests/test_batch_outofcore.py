"""Out-of-core SeriesBank tests: create/open parity with the in-RAM
bank, mixed-length truncation semantics, format validation, handle
transport, and accounting."""

import json
import pickle
import re

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.observability.resources import get_accounting
from repro.timeseries.batch import SeriesBank
from repro.timeseries.series import TimeSeries


@pytest.fixture(autouse=True)
def _reset_accounting():
    get_accounting().reset()
    yield
    get_accounting().reset()


def _corpus(n=12, length=64, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 4 * np.pi, length)
    return [
        np.sin(t * (1 + i % 3)) + 0.1 * rng.normal(size=length)
        for i in range(n)
    ]


def _truncate(path, keep=None):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2 if keep is None else keep])


def _set_meta(path, **fields):
    doc = json.loads(path.read_text())
    doc.update(fields)
    path.write_text(json.dumps(doc))


#: One way each of a bank's files can be damaged on disk.
_CORRUPTIONS = {
    "truncated-raw": lambda d: _truncate(d / "raw.npy"),
    "truncated-norms": lambda d: _truncate(d / "norms.npy", keep=8),
    "missing-znorm": lambda d: (d / "znorm.npy").unlink(),
    "meta-not-object": lambda d: (d / "meta.json").write_text("[]"),
    "meta-n-not-int": lambda d: _set_meta(d / "meta.json", n="x"),
}


class TestCreateOpenParity:
    def test_disk_bank_matches_in_ram(self, tmp_path):
        series = _corpus()
        ram = SeriesBank.from_series(series)
        disk = SeriesBank.create(tmp_path / "bank", series)
        assert disk.on_disk and not ram.on_disk
        np.testing.assert_array_equal(np.asarray(disk.raw), ram.raw)
        np.testing.assert_array_equal(np.asarray(disk.znorm), ram.znorm)
        np.testing.assert_array_equal(disk.norms, ram.norms)

    def test_kernels_byte_identical(self, tmp_path):
        series = _corpus(n=10, length=96, seed=1)
        ram = SeriesBank.from_series(series)
        disk = SeriesBank.create(tmp_path / "bank", series)
        np.testing.assert_array_equal(disk.corr_matrix(), ram.corr_matrix())
        v_d, s_d = disk.ncc_matrix(return_shifts=True)
        v_r, s_r = ram.ncc_matrix(return_shifts=True)
        np.testing.assert_array_equal(v_d, v_r)
        np.testing.assert_array_equal(s_d, s_r)
        np.testing.assert_array_equal(disk.sbd_matrix(), ram.sbd_matrix())

    def test_tiny_block_bytes_still_exact(self, tmp_path):
        """A pathologically small scratch cap changes chunking, not values."""
        series = _corpus(n=7, length=48, seed=2)
        ram = SeriesBank.from_series(series)
        disk = SeriesBank.create(tmp_path / "bank", series, block_bytes=1)
        np.testing.assert_array_equal(np.asarray(disk.znorm), ram.znorm)
        # Different chunking reorders float accumulation; values agree to
        # ulp-scale, and the default chunking (tested above) is exact.
        np.testing.assert_allclose(
            disk.corr_matrix(block_bytes=256), ram.corr_matrix(),
            rtol=1e-12, atol=1e-14,
        )

    def test_reopen_is_stable(self, tmp_path):
        series = _corpus(n=5, length=32)
        first = SeriesBank.create(tmp_path / "bank", series)
        again = SeriesBank.open(tmp_path / "bank")
        np.testing.assert_array_equal(
            np.asarray(first.raw), np.asarray(again.raw)
        )
        assert (again.n, again.length) == (5, 32)


class TestMixedLengthBoundary:
    def test_truncates_to_common_minimum(self, tmp_path):
        """Heterogeneous lengths truncate exactly like from_series."""
        rng = np.random.default_rng(3)
        series = [rng.normal(size=n) for n in (40, 33, 57, 33, 41)]
        ram = SeriesBank.from_series(series)
        disk = SeriesBank.create(tmp_path / "bank", series)
        assert disk.length == 33 == ram.length
        np.testing.assert_array_equal(np.asarray(disk.raw), ram.raw)

    def test_timeseries_with_nans_cleaned(self, tmp_path):
        values = np.linspace(0.0, 1.0, 30)
        values[10:13] = np.nan
        series = [TimeSeries(values.copy(), name=f"s{i}") for i in range(3)]
        disk = SeriesBank.create(tmp_path / "bank", series)
        assert not np.isnan(np.asarray(disk.raw)).any()

    def test_explicit_length_truncates_single_pass(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = [rng.normal(size=20) for _ in range(4)]
        disk = SeriesBank.create(
            tmp_path / "bank", iter(rows), length=16, n_series=4
        )
        assert (disk.n, disk.length) == (4, 16)
        np.testing.assert_array_equal(
            np.asarray(disk.raw), np.vstack([r[:16] for r in rows])
        )

    def test_single_pass_short_row_is_error(self, tmp_path):
        rows = [np.ones(16), np.ones(8)]
        with pytest.raises(ValidationError, match="shorter"):
            SeriesBank.create(
                tmp_path / "bank", iter(rows), length=16, n_series=2
            )

    def test_single_pass_count_mismatch_is_error(self, tmp_path):
        with pytest.raises(ValidationError, match="expected 3"):
            SeriesBank.create(
                tmp_path / "bank", iter([np.ones(8)]), length=8, n_series=3
            )
        with pytest.raises(ValidationError, match="more than the declared"):
            SeriesBank.create(
                tmp_path / "bank2",
                iter([np.ones(8)] * 3),
                length=8,
                n_series=2,
            )

    def test_empty_corpus_is_error(self, tmp_path):
        with pytest.raises(ValidationError):
            SeriesBank.create(tmp_path / "bank", [])


class TestFormatValidation:
    def test_crash_mid_create_is_rejected(self, tmp_path):
        """Without the final meta.json the directory is not a bank."""
        series = _corpus(n=4, length=16)
        SeriesBank.create(tmp_path / "bank", series)
        (tmp_path / "bank" / "meta.json").unlink()  # simulate the crash
        with pytest.raises(ValidationError, match="missing meta.json"):
            SeriesBank.open(tmp_path / "bank")

    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    def test_corrupt_bank_rejected(self, tmp_path, corruption):
        """Damaged bank files raise ValidationError naming the bank."""
        bank_dir = tmp_path / "bank"
        SeriesBank.create(bank_dir, _corpus(n=4, length=16))
        _CORRUPTIONS[corruption](bank_dir)
        with pytest.raises(ValidationError, match=re.escape(str(bank_dir))):
            SeriesBank.open(bank_dir)

    def test_unknown_version_rejected(self, tmp_path):
        SeriesBank.create(tmp_path / "bank", _corpus(n=3, length=16))
        meta = tmp_path / "bank" / "meta.json"
        doc = json.loads(meta.read_text())
        doc["version"] = 99
        meta.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="version"):
            SeriesBank.open(tmp_path / "bank")

    def test_geometry_mismatch_rejected(self, tmp_path):
        SeriesBank.create(tmp_path / "bank", _corpus(n=3, length=16))
        meta = tmp_path / "bank" / "meta.json"
        doc = json.loads(meta.read_text())
        doc["n"] = 5
        meta.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="disagree"):
            SeriesBank.open(tmp_path / "bank")


class TestHandleTransport:
    def test_handle_attach_roundtrip(self, tmp_path):
        disk = SeriesBank.create(tmp_path / "bank", _corpus(n=4, length=24))
        handle = disk.handle()
        assert handle == ("memmap", str(tmp_path / "bank"))
        assert len(pickle.dumps(handle)) < 512
        clone = SeriesBank.attach(handle)
        assert clone.on_disk
        np.testing.assert_array_equal(
            np.asarray(clone.znorm), np.asarray(disk.znorm)
        )

    def test_in_ram_bank_has_no_handle(self):
        bank = SeriesBank.from_series(_corpus(n=3, length=16))
        with pytest.raises(ValidationError, match="share"):
            bank.handle()

    def test_release_pages_is_safe(self, tmp_path):
        disk = SeriesBank.create(tmp_path / "bank", _corpus(n=4, length=24))
        disk.rfft()  # populate a derived memmap too
        disk.release_pages()
        np.testing.assert_array_equal(
            disk.corr_matrix(),
            SeriesBank.from_series(_corpus(n=4, length=24)).corr_matrix(),
        )
        # In-RAM banks: explicit no-op.
        SeriesBank.from_series(_corpus(n=3, length=16)).release_pages()


class TestAccounting:
    def test_disk_bytes_charged_and_released(self, tmp_path):
        registry = get_accounting()
        disk = SeriesBank.create(tmp_path / "bank", _corpus(n=6, length=32))
        expected = disk.raw.nbytes + disk.znorm.nbytes
        assert registry.account_bytes("series_bank_disk") == expected
        assert registry.account_bytes("series_bank") == disk.norms.nbytes
        disk.rfft()  # derived memmap lands on the disk account
        assert registry.account_bytes("series_bank_disk") > expected
        del disk
        import gc

        gc.collect()
        assert registry.account_bytes("series_bank_disk") == 0

    def test_resource_stamp_reports_disk_bytes(self, tmp_path):
        from repro.observability.resources import resource_stamp

        bank = SeriesBank.create(tmp_path / "bank", _corpus(n=4, length=16))
        stamp = resource_stamp()
        assert stamp["series_bank_disk_bytes"] == (
            bank.raw.nbytes + bank.znorm.nbytes
        )
