"""Outside-in layer timer for the service benchmark.

The timer wraps the public functions of each layer *where its caller
looks them up* and records one span per call: name, start, end, parent
span and op id. Nothing inside the library is changed: module-level
functions that ``repro.service.store`` imports by name are patched on
that module, methods are patched on their classes, and every original
is put back by :meth:`LayerTimer.uninstall`.

``run_in_executor`` does not carry ``contextvars``, so spans are tied
to work by two rules that hold for every workload of this benchmark:

* a read-side op is driven by a single client, so at most one op is in
  flight; the client opens a root span for it (:meth:`begin_op`) and
  every span that starts with an empty stack on its thread becomes a
  child of that root;
* ingest work reaches the store through the front-end's single worker,
  one ``put_many`` batch at a time; the ``put_many`` wrapper opens the
  root span of its batch itself.

A layer's self time is its span's duration minus that of its direct
children. The root's self time is the store's unattributed remainder
(keyring, audit, SHA checks, the executor hop), reported as
``store.self_ms``. Self times are only meaningful if every span lies
inside its parent and every read-side root inside the time its client
measured for the op; :meth:`LayerTimer.check` verifies both.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.codec.decoder import Decoder
from repro.crypto.streams import StreamEncryptor
from repro.service import frontend as service_frontend
from repro.service import store as service_store
from repro.service.cache import GopCache
from repro.service.shards import Shard
from repro.service.store import VideoObjectStore

#: Span name of every op root; its self time is ``store.self_ms``.
ROOT = "store.self_ms"

#: Per-layer time metrics, in the order the benchmark reports them.
TIME_LAYERS = (
    "codec.encode_ms", "core.importance_ms", "core.partition_ms",
    "core.merge_ms", "crypto.encrypt_ms", "crypto.decrypt_ms",
    "crypto.decrypt_at_ms", "codec.decode_ms", "codec.decode_range_ms",
    "codec.closure_ms", "shards.write_ms", "shards.read_ms",
    "shards.read_range_ms", "repair.pass_ms", "metrics.psnr_ms", ROOT,
)


class LayerTimer:
    """Span recorder plus the patch table of the traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, op]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: ``id(clip) -> perf_counter()`` of its ``frontend.ingest`` call.
        self.ingest_called: Dict[int, float] = {}
        #: Last repair pass's backlog (a state, not a per-op count).
        self.repair_backlog = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``root span -> (start, end)`` of the op as its client timed it.
        self.windows: Dict[int, Tuple[float, float]] = {}
        self._root: Optional[int] = None
        self._ops = 0
        #: ``(owner, attr, original)`` of the current or last install.
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str, parent: Optional[int]) -> int:
        with self._lock:
            if parent is None:
                self._ops += 1
                op = self._ops
            else:
                op = self.spans[parent][4]
            self.spans.append([name, time.perf_counter(), None, parent,
                               op])
            return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()

    def begin_op(self) -> int:
        """Open the root span of the single in-flight read-side op."""
        self._root = self._open(ROOT, None)
        return self._root

    def end_op(self, root: int, started: float) -> None:
        """Close the root span opened by :meth:`begin_op`.

        ``started`` is when the client's own timing of the op began; the
        op's window ends now, after the root closes.
        """
        self._close(root)
        self._root = None
        self.windows[root] = (started, time.perf_counter())

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: Optional[str],
              before: Optional[Callable],
              after: Optional[Callable]) -> Callable:
        timer = self

        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack = timer._stack()
                parent = stack[-1] if stack else timer._root
                index = timer._open(name, parent)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    timer._close(index)
            if after:
                after(args, result, pre)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patch table ----------------------------------------------------

    def _patch(self, owner, attr: str, name: Optional[str],
               after: Optional[Callable] = None,
               before: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr``; ``name=None`` counts without a span."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, before, after))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports."""
        self._patches = []
        counts = self.counts

        def encoded(args, result, pre):
            counts["codec.encoded_frames"] += sum(
                len(video) for video in args[0])

        def crypted(args, result, pre):
            counts["crypto.bytes"] += sum(
                len(data) for data in args[1].values())

        def crypted_at(args, result, pre):
            counts["crypto.bytes"] += len(args[2])

        def decoded(args, result, pre):
            counts["codec.decoded_frames"] += len(result)

        def cache_got(args, result, pre):
            counts["cache.hits" if result is not None
                   else "cache.misses"] += 1

        def cache_put(args, result, pre):
            counts["cache.evictions"] += args[0].evictions - pre

        def shard_read(args, result, pre):
            data, report = result[0], result[1]
            counts["shards.bytes_read"] += len(data)
            counts["shards.replica_reads"] += 1
            counts["storage.failed_blocks"] += report.failed_blocks
            counts["storage.retry_successes"] += report.retry_successes

        def repaired(args, result, pre):
            counts["repair.streams_rewritten"] += result.streams_rewritten
            counts["repair.cell_writes"] += result.cell_writes
            self.repair_backlog = result.backlog

        def batch_entered(args):
            videos = args[2]
            now = time.perf_counter()
            counts["frontend.batch_clips"] += len(videos)
            counts["frontend.batch_clips_sq"] += len(videos) ** 2
            for video in videos:
                called = self.ingest_called.pop(id(video), None)
                if called is not None:
                    counts["frontend.queue_wait_ms"] += (
                        (now - called) * 1e3)

        store = service_store
        self._patch(VideoObjectStore, "put_many", ROOT,
                    before=batch_entered)
        self._patch(store, "encode_batch_with_recon", "codec.encode_ms",
                    encoded)
        self._patch(store, "compute_importance", "core.importance_ms")
        self._patch(store, "partition_video", "core.partition_ms")
        for fn in ("merge_streams", "stream_ranges_for_frames",
                   "map_stream_damage"):
            self._patch(store, fn, "core.merge_ms")
        self._patch(store, "dependency_closure", "codec.closure_ms")
        self._patch(store, "video_psnr", "metrics.psnr_ms")
        self._patch(StreamEncryptor, "encrypt_streams",
                    "crypto.encrypt_ms", crypted)
        self._patch(StreamEncryptor, "decrypt_streams",
                    "crypto.decrypt_ms", crypted)
        self._patch(StreamEncryptor, "decrypt_at", "crypto.decrypt_at_ms",
                    crypted_at)
        self._patch(Decoder, "decode", "codec.decode_ms", decoded)
        self._patch(Decoder, "decode_range", "codec.decode_range_ms",
                    decoded)
        self._patch(GopCache, "get", None, cache_got)
        self._patch(GopCache, "put", None, cache_put,
                    before=lambda args: args[0].evictions)
        self._patch(Shard, "write", "shards.write_ms")
        self._patch(Shard, "read", "shards.read_ms", shard_read)
        self._patch(Shard, "read_range", "shards.read_range_ms",
                    shard_read)
        self._patch(service_frontend, "run_repair_pass", "repair.pass_ms",
                    repaired)

    def uninstall(self) -> None:
        """Put every patched name back, in reverse patch order."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds by span name, summed over every span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: Dict[str, float] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + end - start - child[index]
        return self_s

    def check(self) -> List[str]:
        """Self-test after :meth:`uninstall`; returns the failures."""
        problems = []
        if not self._patches:
            problems.append("the layer timer never installed")
        for owner, attr, original in self._patches:
            current = (owner.__dict__.get(attr) if isinstance(owner, type)
                       else getattr(owner, attr))
            if current is not original:
                problems.append(f"{getattr(owner, '__name__', owner)}."
                                f"{attr} was not restored")
        if any(span[2] is None for span in self.spans):
            problems.append("a span was never closed")
            return problems
        orphans = {span[0] for span in self.spans
                   if span[3] is None and span[0] != ROOT}
        if orphans:
            problems.append(f"spans outside any op: {sorted(orphans)}")
        outside = sorted({
            name for name, start, end, parent, _ in self.spans
            if parent is not None
            and not self.spans[parent][1] <= start <= end
            <= self.spans[parent][2]})
        if outside:
            problems.append(f"spans not inside their parent: {outside}")
        late = sum(1 for root, (start, end) in self.windows.items()
                   if not start <= self.spans[root][1]
                   <= self.spans[root][2] <= end)
        if late:
            problems.append(f"{late} op roots not inside the client's "
                            f"measured op time")
        return problems

    def write_spans(self, path) -> None:
        """Write one JSON object per span (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "op": op,
                    "parent": parent,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "end_ms": round((end - origin) * 1e3, 4)}) + "\n")
