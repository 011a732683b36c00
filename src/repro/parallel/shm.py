"""POSIX shared-memory transport for large read-only arrays.

Serving shards attach the published engine's training matrix, and
:meth:`SeriesBank.share <repro.timeseries.batch.SeriesBank.share>` hands a
corpus to other processes, without pickling the data: the owner copies an
array once into a :mod:`multiprocessing.shared_memory` segment, only the
tiny ``(name, shape, dtype)`` handle crosses the process boundary, and
each worker attaches the segment once (see :func:`attach_cached`) and
reads it in place.

Lifecycle rules:

* the **creator** owns the segment and must :meth:`SharedArray.unlink`
  it (``SharedEngine.release`` does this when the shard pool stops);
* **attachers** only :meth:`SharedArray.close`; they never unlink.
  Attaching also unregisters the segment from the attacher's resource
  tracker (CPython registers on attach too, which would otherwise
  produce spurious "leaked shared_memory" noise at worker shutdown);
* :func:`active_segments` lists the names created by this process and
  not yet unlinked, so tests can assert nothing leaked.

On platforms or sandboxes without shared-memory support
(:func:`shm_available` is False) callers fall back to ordinary pickling.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.observability.resources import get_accounting

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic minimal builds
    resource_tracker = None
    shared_memory = None


_REGISTRY_LOCK = threading.Lock()
#: Segment names created (and not yet unlinked) by this process.
_CREATED: set[str] = set()
#: Per-process cache of attached segments, keyed by segment name.
_ATTACHED: dict[str, "SharedArray"] = {}


def shm_available() -> bool:
    """Whether shared-memory segments can be created in this process."""
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=1)
    except (OSError, ValueError, NotImplementedError):
        return False
    probe.close()
    probe.unlink()
    return True


def active_segments() -> tuple[str, ...]:
    """Names of segments created by this process and not yet unlinked."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_CREATED))


class SharedArray:
    """A numpy array backed by a named shared-memory segment.

    Build with :meth:`create` (copies an existing array in, owner side)
    or :meth:`attach` (maps an existing segment by handle, worker side).
    ``array`` is a zero-copy view of the segment; it is invalidated by
    :meth:`close`.
    """

    def __init__(self, shm, array: np.ndarray, *, owner: bool):
        self._shm = shm
        self.array = array
        self.owner = owner
        self._closed = False
        # Snapshot the descriptor: ``handle`` must survive ``close()``
        # (which drops the array view).
        self._handle = (shm.name, array.shape, array.dtype.str)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh segment owned by this process."""
        if shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        source = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, source.nbytes)
        )
        view = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        view[...] = source
        with _REGISTRY_LOCK:
            _CREATED.add(shm.name)
        registry = get_accounting()
        registry.account_add("shared_memory", shm.size)
        registry.record_kernel("shm_create", bytes_moved=source.nbytes)
        return cls(shm, view, owner=True)

    @property
    def handle(self) -> tuple:
        """Picklable ``(name, shape, dtype)`` descriptor of the segment."""
        return self._handle

    @classmethod
    def attach(cls, handle: tuple) -> "SharedArray":
        """Map an existing segment by :attr:`handle` (non-owning view)."""
        if shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        name, shape, dtype = handle
        # CPython registers the segment with the resource tracker on
        # attach as well as on create.  Forked pool workers share the
        # parent's tracker, so that extra registration (or undoing it
        # with ``unregister``) unbalances the creator's register/unlink
        # pair and the tracker logs spurious KeyErrors at shutdown.
        # Suppress the attach-side registration instead: only the
        # creator's tracker feels responsible for cleanup.
        with _REGISTRY_LOCK:
            if resource_tracker is not None:
                original_register = resource_tracker.register
                resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                if resource_tracker is not None:
                    resource_tracker.register = original_register
        view = np.ndarray(
            tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf
        )
        return cls(shm, view, owner=False)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent)."""
        with _REGISTRY_LOCK:
            was_live = self._shm.name in _CREATED
            _CREATED.discard(self._shm.name)
        if was_live:
            get_accounting().account_sub("shared_memory", self._shm.size)
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


def attach_cached(handle: tuple) -> SharedArray:
    """Attach a segment once per process and reuse the mapping.

    Pool workers run many tasks against the same corpus segment; caching
    the attachment keeps the per-task cost at one dict lookup.

    Segment names are recycled by the OS, so a cached mapping is only
    reused when its geometry still matches the incoming handle: a
    same-named segment recreated with a different shape or dtype (a new
    batch after the old segment was unlinked) drops the stale mapping
    and re-attaches instead of serving a view into the wrong memory.
    """
    name = handle[0]
    shape = tuple(handle[1])
    dtype = np.dtype(handle[2]).str
    with _REGISTRY_LOCK:
        seg = _ATTACHED.get(name)
    if seg is not None:
        stale = (
            seg.array is None
            or tuple(seg.handle[1]) != shape
            or np.dtype(seg.handle[2]).str != dtype
        )
        if stale:
            with _REGISTRY_LOCK:
                if _ATTACHED.get(name) is seg:
                    del _ATTACHED[name]
            seg.close()
            seg = None
    if seg is None:
        seg = SharedArray.attach(handle)
        with _REGISTRY_LOCK:
            _ATTACHED[name] = seg
    return seg


def clear_attach_cache() -> None:
    """Close and drop every cached attachment (tests / batch teardown)."""
    with _REGISTRY_LOCK:
        segments = list(_ATTACHED.values())
        _ATTACHED.clear()
    for seg in segments:
        seg.close()
