"""The four closed-loop workloads of the service benchmark.

Every workload drives the service only through its public API
(:class:`~repro.service.frontend.ServiceFrontend` and
:class:`~repro.service.store.VideoObjectStore`) on one asyncio loop.
Clips and op plans are made here from the workload seed; the service
sees only the clips and the ops. Callers wait for each reply (closed
loop), so a slower service receives less load.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.codec.config import EncoderConfig
from repro.service import config as service_config
from repro.service.frontend import ServiceFrontend
from repro.service.keyring import Keyring
from repro.service.shards import ShardPool
from repro.service.store import REFUSED, VideoObjectStore, object_id_for
from repro.service.store import stream_key
from repro.storage.device import ApproximateDevice
from repro.storage.ecc import scheme_by_name
from repro.video.frame import VideoSequence
from repro.video.synthesis import SceneConfig, synthesize_scene

WIDTH, HEIGHT, FRAMES = 64, 48, 16
GOP, CRF = 8, 24
SHARDS, REPLICAS = 4, 2
#: Library of the read workloads: 32 clips = 64 GOPs, 4x the default
#: 16-GOP cache, split across two tenants.
LIBRARY_CLIPS = 32
#: Hot set of ``aged_repair``: 8 clips = 16 GOPs, fits the cache.
HOT_CLIPS = 8
#: Zipf exponent of ``seek``'s object choice; 0.4 keeps the GOP-cache
#: hit share inside 0.2-0.35 so both latency percentiles are misses.
ZIPF_S = 0.4
#: Days every shard clock advances per ``aged_repair`` round; measured
#: to give a mix of corrected and concealed reads.
AGE_STEP_DAYS = 3e5
#: One ingest in this many repeats an earlier clip byte for byte.
DUP_EVERY = 8
#: Seed of the fixed clip corpus every workload's clips come from. The
#: content is the same for every ``--seed``, so run-to-run spread is
#: the code's and the host's, not which clips a seed drew; the seed
#: sets the op plan (which clips repeat, which objects and frames are
#: read), the tenant keys and every device-error draw.
CORPUS_SEED = 0
#: Objects ``ingest`` reads back after its measured phase.
VERIFY_READS = 32
#: Library clips per ``put_many`` call while preloading (the default
#: front-end ingest batch).
PRELOAD_BATCH = 8
#: Upper bound on ingest rate the pre-synthesized plan provides for,
#: about 4x the rate measured when the benchmark was written. A run
#: that uses up the plan before its deadline fails its checks.
MAX_INGESTS_PER_S = 24
#: Seconds between host-speed probes during the measured phase.
YARDSTICK_EVERY_S = 0.25
#: ``aged_repair`` warm-up stops once quarantine count and repair
#: backlog repeat, after at least two and at most this many rounds.
MAX_WARMUP_ROUNDS = 10

#: The op whose latency is the workload's ``op_p50_ms``/``op_p90_ms``.
PRIMARY_OP = {"ingest": "put", "playback": "get", "seek": "get_frame",
              "aged_repair": "get"}

# SeedSequence spawn keys of the independent input streams.
_CLIPS, _PLAN, _OPS, _WARM, _VERIFY = range(5)


def yardstick_ms() -> float:
    """Wall milliseconds of one fixed probe of this host's speed.

    The probe mixes an interpreted integer loop with small matrix
    products, like the service's own hot paths. It is benchmark code,
    so no change to the library can change the work it does. It runs
    while no op is in flight, so wall time counts the host's speed and
    any stall in which the process is not running, and nothing else.
    """
    start = time.perf_counter()
    total = 0
    for i in range(15000):
        total += (i * 2654435761) & 0xFFFF
    matrix = np.arange(1024, dtype=np.float64).reshape(32, 32)
    for _ in range(20):
        matrix = (matrix @ matrix) % 7.0
    return (time.perf_counter() - start) * 1e3


def encoder_config() -> EncoderConfig:
    """The encoder settings every workload ingests with."""
    return EncoderConfig(crf=CRF, gop_size=GOP)


def make_clip(seed: int, stream: int, index: int) -> VideoSequence:
    """Deterministic synthetic clip ``index`` of input ``stream``."""
    clip_seed = int(np.random.SeedSequence(
        seed, spawn_key=(stream, index)).generate_state(1)[0] >> 1)
    return synthesize_scene(SceneConfig(
        width=WIDTH, height=HEIGHT, num_frames=FRAMES, seed=clip_seed))


def op_rng(seed: int, index: int, stream: int = _OPS
           ) -> np.random.Generator:
    """The device-error RNG of planned op ``index``."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(stream, index)))


def resolved_config() -> Dict[str, object]:
    """Every service knob as this process resolves it."""
    resolvers = {name[len("resolve_"):]: getattr(service_config, name)
                 for name in dir(service_config)
                 if name.startswith("resolve_")}
    values = {name: fn() for name, fn in sorted(resolvers.items())}
    values["seek_disabled"] = service_config.seek_disabled()
    values["shards"] = SHARDS
    values["replicas"] = REPLICAS
    return values


@dataclass
class Op:
    """One planned client operation."""

    index: int
    kind: str  # put | get | get_frame | advance | repair
    tenant: str = ""
    #: ``put``: the clip; reads: the library slot of the object.
    clip: Optional[VideoSequence] = None
    slot: int = -1
    display: int = 0
    #: ``put`` duplicates: the op index of the original ingest.
    original: int = -1


class Workload:
    """Set-up, closed-loop op execution and checks shared by all four."""

    name = ""
    clients = 1
    #: Ops covered by ``read_psnr_db``: the first ``check_ops`` of the
    #: plan, which every run completes.
    check_ops = 160
    #: Ops covered by the replay digest: the first ``replay_ops`` of the
    #: plan, which a fresh process replays after its set-up.
    replay_ops = 32

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.records: List[dict] = []
        #: :func:`yardstick_ms` samples taken between ops.
        self.yardstick: List[float] = []
        self.problems: List[str] = []
        self.first_op_ms = 0.0
        self.cells_per_pixel = 0.0
        self.library: List[tuple] = []  # (tenant, object id) per slot
        #: Index of the first planned op after set-up.
        self.first_op = 0
        self.frontend: Optional[ServiceFrontend] = None
        self._plan: Optional[Iterator[Op]] = None

    # -- set-up -----------------------------------------------------------

    @staticmethod
    def new_store(seed: int) -> VideoObjectStore:
        return VideoObjectStore(
            pool=ShardPool(count=SHARDS), keyring=Keyring(seed=seed),
            config=encoder_config(), replicas=REPLICAS)

    async def warm_up(self) -> None:
        """Absorb first-call table builds on a throwaway store.

        The first ingest of the process is timed as ``first_op_ms``.
        Then a two-clip batch, a read and a frame read warm the batch
        encoder, the read path and the executor threads.
        """
        clips = [make_clip(CORPUS_SEED, _WARM, i) for i in range(3)]
        frontend = ServiceFrontend(self.new_store(self.seed))
        await frontend.start()
        start = time.perf_counter()
        first = await frontend.ingest("warm", clips[0])
        self.first_op_ms = (time.perf_counter() - start) * 1e3
        await asyncio.gather(frontend.ingest("warm", clips[1]),
                             frontend.ingest("warm", clips[2]))
        await frontend.read("warm", first,
                            rng=op_rng(self.seed, 0, _WARM))
        await frontend.read_frame("warm", first, FRAMES - 1,
                                  rng=op_rng(self.seed, 1, _WARM))
        await frontend.stop()

    async def setup(self) -> None:
        """Warm up, then build the workload's own store and plan."""
        await self.warm_up()
        self.frontend = ServiceFrontend(self.new_store(self.seed))
        await self.frontend.start()
        self.preload()
        self._plan = self.plan()

    def preload(self) -> None:
        """Place the library (read workloads) before the clock starts."""

    def plan(self) -> Iterator[Op]:
        raise NotImplementedError

    async def close(self) -> None:
        if self.frontend is not None:
            await self.frontend.stop()

    def _place_library(self, count: int, tenants: int) -> None:
        store = self.frontend.store
        clips = [make_clip(CORPUS_SEED, _CLIPS, i) for i in range(count)]
        ids: Dict[int, str] = {}
        for tenant_no in range(tenants):
            slots = [i for i in range(count) if i % tenants == tenant_no]
            for at in range(0, len(slots), PRELOAD_BATCH):
                batch = slots[at:at + PRELOAD_BATCH]
                placed = store.put_many(f"tenant-{tenant_no}",
                                        [clips[i] for i in batch])
                ids.update(zip(batch, placed))
        self.library = [(f"tenant-{i % tenants}", ids[i])
                        for i in range(count)]
        self.cells_per_pixel = cells_per_pixel(
            store, self.library, count)

    # -- measured phase ---------------------------------------------------

    async def run_block(self, seconds: float, timer=None) -> float:
        """Run the clients closed-loop for ``seconds``; return elapsed.

        Clients stop issuing at the deadline and the block ends when
        the last in-flight op has returned. Between its ops, the first
        client probes the host's speed every ``YARDSTICK_EVERY_S``; on
        ``ingest`` both clients' clips ride one batch, so no op is in
        flight then either. With ``seconds`` infinite the clients run
        the plan to its end and nobody probes.
        """
        start = time.perf_counter()
        deadline = start + seconds
        next_probe = start if math.isfinite(seconds) else math.inf
        used_up = None

        async def client(probes: bool) -> None:
            nonlocal next_probe, used_up
            while time.perf_counter() < deadline:
                if probes and time.perf_counter() >= next_probe:
                    self.yardstick.append(yardstick_ms())
                    next_probe += YARDSTICK_EVERY_S
                op = next(self._plan, None)
                if op is None:
                    used_up = used_up or time.perf_counter() - start
                    return
                await self.execute(op, timer)

        await asyncio.gather(*(client(number == 0)
                               for number in range(self.clients)))
        if used_up is not None and math.isfinite(seconds):
            self.problems.append(f"op plan used up {used_up:.1f} s into a "
                                 f"{seconds:.1f} s block; raise "
                                 f"MAX_INGESTS_PER_S")
        return time.perf_counter() - start

    async def replay(self) -> None:
        """Run only the first ``replay_ops`` planned ops, unclocked."""
        limit = self.first_op + self.replay_ops
        self._plan = itertools.takewhile(lambda op: op.index < limit,
                                         self._plan)
        await self.run_block(math.inf)

    async def execute(self, op: Op, timer) -> None:
        """Run one planned op and append its record."""
        frontend = self.frontend
        if op.kind == "advance":
            frontend.store.pool.advance_all(AGE_STEP_DAYS)
            return
        start = time.perf_counter()
        root = timer.begin_op() if timer and op.kind != "put" else None
        if op.kind == "repair":
            try:
                await frontend.repair_pass()
            finally:
                if root is not None:
                    timer.end_op(root, start)
            return
        record = {"op": op.index, "kind": op.kind, "object_id": "",
                  "outcome": "ok", "psnr": None, "cache_hit": None,
                  "bytes_read": None, "bytes_total": None,
                  "original": op.original, "failed": False}
        result = None
        try:
            if op.kind == "put":
                if timer is not None:
                    timer.ingest_called[id(op.clip)] = start
                record["object_id"] = await frontend.ingest(op.tenant,
                                                            op.clip)
            elif op.kind == "get":
                tenant, record["object_id"] = self.library[op.slot]
                result = await frontend.read(
                    tenant, record["object_id"],
                    rng=op_rng(self.seed, op.index))
            else:
                tenant, record["object_id"] = self.library[op.slot]
                result = await frontend.read_frame(
                    tenant, record["object_id"], op.display,
                    rng=op_rng(self.seed, op.index))
        except Exception as exc:  # a raised error is a failed op
            record["outcome"] = f"error:{type(exc).__name__}"
            record["failed"] = True
        finally:
            if root is not None:
                timer.end_op(root, start)
            record["ms"] = (time.perf_counter() - start) * 1e3
        if result is not None:
            self.check_read(op, result)
            record["outcome"] = result.outcome
            record["failed"] = result.outcome == REFUSED
            if result.psnr_db is not None:
                record["psnr"] = round(result.psnr_db, 2)
            if op.kind == "get_frame":
                record["cache_hit"] = result.cache_hit
                record["bytes_read"] = result.bytes_read
                record["bytes_total"] = result.bytes_total
        self.records.append(record)

    def check_read(self, op: Op, result) -> None:
        """No refused read carries frames; geometry matches the record."""
        store = self.frontend.store
        record = store.record(*self.library[op.slot])
        shape = record.recon.shape[1:]
        if op.kind == "get":
            frames = None if result.video is None else result.video.frames
        else:
            frames = None if result.frame is None else [result.frame]
        if result.outcome == REFUSED:
            if frames is not None:
                self.problems.append(f"op {op.index}: refused read "
                                     f"carries frames")
            return
        if frames is None:
            self.problems.append(f"op {op.index}: served read has no "
                                 f"frames")
            return
        if op.kind == "get" and len(frames) != record.frames:
            self.problems.append(f"op {op.index}: {len(frames)} frames, "
                                 f"record has {record.frames}")
        if any(frame.shape != shape for frame in frames):
            self.problems.append(f"op {op.index}: frame geometry differs "
                                 f"from the record's {shape}")

    # -- results ----------------------------------------------------------

    def checked(self, count: Optional[int] = None) -> List[dict]:
        """Records of the first ``count`` ops after set-up, in op order.

        ``count`` defaults to ``check_ops``.
        """
        limit = self.first_op + (count or self.check_ops)
        return sorted((r for r in self.records if r["op"] < limit),
                      key=lambda r: r["op"])

    def digest(self) -> str:
        """Replay digest of the first ``replay_ops`` planned ops."""
        h = hashlib.sha256()
        for r in self.checked(self.replay_ops):
            h.update(json.dumps([r["op"], r["object_id"], r["outcome"],
                                 r["psnr"], r["cache_hit"],
                                 r["bytes_read"]]).encode())
        return h.hexdigest()

    def read_psnr_db(self) -> float:
        """Mean PSNR of the served reads among the checked ops."""
        values = [r["psnr"] for r in self.checked()
                  if r["psnr"] is not None]
        return float(np.mean(values)) if values else float("nan")

    def finish(self) -> None:
        """Checks that need the whole run; appends to ``problems``."""
        if len(self.checked()) < self.check_ops:
            self.problems.append(
                f"only {len(self.checked())} of the first {self.check_ops} "
                f"planned ops ran; raise --seconds")


def cells_per_pixel(store: VideoObjectStore, objects, clips: int) -> float:
    """MLC cells of every replica of every stream per ingested pixel."""
    cells = 0
    for tenant, object_id in sorted(set(objects)):
        record = store.record(tenant, object_id)
        for name in record.protected.streams:
            key = stream_key(tenant, object_id, name)
            for shard_id in record.replica_chain(name):
                shard = store.pool.shard(shard_id)
                device = ApproximateDevice(cell_model=shard.cell_model)
                cells += device.cells_used(8 * len(shard.blobs[key]),
                                           scheme_by_name(name))
    return cells / (clips * FRAMES * WIDTH * HEIGHT)


class Ingest(Workload):
    """Two clients ingest into one tenant of an empty store."""

    name = "ingest"
    clients = 2
    check_ops = 64
    replay_ops = 8

    async def setup(self) -> None:
        count = max(self.check_ops,
                    int(MAX_INGESTS_PER_S * self.seconds) + 1)
        self._ops = self._make_ops(count)
        await super().setup()

    def _make_ops(self, count: int) -> List[Op]:
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(_PLAN,)))
        ops: List[Op] = []
        distinct: List[int] = []
        for index in range(count):
            if index % DUP_EVERY == DUP_EVERY - 1:
                original = distinct[int(rng.integers(len(distinct)))]
                source = ops[original].clip
                clip = VideoSequence(frames=[f.copy() for f in source],
                                     fps=source.fps)
            else:
                original = -1
                clip = make_clip(CORPUS_SEED, _CLIPS, len(distinct))
                distinct.append(index)
            ops.append(Op(index=index, kind="put", tenant="tenant-0",
                          clip=clip, original=original))
        return ops

    def plan(self) -> Iterator[Op]:
        return iter(self._ops)

    def finish(self) -> None:
        super().finish()
        store = self.frontend.store
        ids = {r["op"]: r["object_id"] for r in self.records
               if not r["failed"]}
        for record in self.records:
            object_id = ids.get(record["op"])
            if object_id is None:
                continue
            stored = store.record("tenant-0", object_id)
            if object_id_for(stored.protected.encoded.serialize()) \
                    != object_id:
                self.problems.append(f"op {record['op']}: id is not the "
                                     f"container's content address")
            original = record["original"]
            if original >= 0 and ids.get(original) != object_id:
                self.problems.append(f"op {record['op']}: duplicate got "
                                     f"a different id than op {original}")
        checked = [("tenant-0", r["object_id"]) for r in self.checked()
                   if not r["failed"]]
        self.library = list(dict.fromkeys(checked))
        self.cells_per_pixel = cells_per_pixel(store, checked,
                                               self.check_ops)
        self._verify_psnr = []
        for slot in range(min(VERIFY_READS, len(self.library))):
            op = Op(index=slot, kind="get", slot=slot)
            result = store.get(*self.library[slot],
                               rng=op_rng(self.seed, slot, _VERIFY))
            self.check_read(op, result)
            if result.psnr_db is not None:
                self._verify_psnr.append(result.psnr_db)

    def read_psnr_db(self) -> float:
        """Mean PSNR of read-backs of the first distinct ingests."""
        return float(np.mean(self._verify_psnr))


class Playback(Workload):
    """One client, full reads, uniform over the 32-clip library."""

    name = "playback"
    replay_ops = 16

    def preload(self) -> None:
        self._place_library(LIBRARY_CLIPS, tenants=2)

    def plan(self) -> Iterator[Op]:
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(_PLAN,)))
        index = 0
        while True:
            yield Op(index=index, kind="get",
                     slot=int(rng.integers(LIBRARY_CLIPS)))
            index += 1


class Seek(Workload):
    """One client, frame reads, Zipf-skewed objects, uniform frames."""

    name = "seek"

    def preload(self) -> None:
        self._place_library(LIBRARY_CLIPS, tenants=2)

    def plan(self) -> Iterator[Op]:
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(_PLAN,)))
        weights = 1.0 / np.arange(1, LIBRARY_CLIPS + 1) ** ZIPF_S
        weights /= weights.sum()
        ranking = rng.permutation(LIBRARY_CLIPS)
        index = 0
        while True:
            rank = int(rng.choice(LIBRARY_CLIPS, p=weights))
            yield Op(index=index, kind="get_frame",
                     slot=int(ranking[rank]),
                     display=int(rng.integers(FRAMES)))
            index += 1


class AgedRepair(Workload):
    """Rounds of aging, equal full and frame reads, one repair pass."""

    name = "aged_repair"
    #: One round: its reads, frame reads and repair pass.
    replay_ops = 2 * HOT_CLIPS

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.warmup_rounds = 0

    def preload(self) -> None:
        self._place_library(HOT_CLIPS, tenants=1)

    def plan(self) -> Iterator[Op]:
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(_PLAN,)))
        index = 0
        while True:
            yield Op(index=-1, kind="advance")
            reads = rng.permutation(HOT_CLIPS)
            seeks = rng.permutation(HOT_CLIPS)
            for read, seek in zip(reads, seeks):
                yield Op(index=index, kind="get", slot=int(read))
                yield Op(index=index + 1, kind="get_frame",
                         slot=int(seek), display=int(rng.integers(FRAMES)))
                index += 2
            yield Op(index=-1, kind="repair")

    async def setup(self) -> None:
        await super().setup()
        # Warm-up rounds run from the same plan, so the measured phase
        # continues the deterministic op sequence where they stop.
        store = self.frontend.store
        seen = []
        while self.warmup_rounds < MAX_WARMUP_ROUNDS:
            for op in self._plan:
                await self.execute(op, None)
                if op.kind == "repair":
                    break
            self.warmup_rounds += 1
            seen.append((len(store.pool.quarantined()),
                         store.repair.backlog()))
            if len(seen) >= 2 and seen[-1] == seen[-2]:
                break
        self.first_op = self.records[-1]["op"] + 1 if self.records else 0
        self.records = []


def make(workload: str, seed: int, seconds: float) -> Workload:
    """The workload named ``workload``."""
    classes = {cls.name: cls for cls in (Ingest, Playback, Seek,
                                         AgedRepair)}
    return classes[workload](seed, seconds)
