"""The failure ladder on the random-access read path.

``get_frame`` walks each stream's replica chain over an aligned byte
window, exactly as ``get`` walks it over whole streams, and refuses by
the same rule. These are the seek-side twins of the full-read tests in
``test_failure_ladder.py`` and ``test_replication.py``.
"""

import numpy as np
import pytest

from repro.core.assignment import UNIFORM_ASSIGNMENT
from repro.errors import TransientShardError
from repro.obs import metrics as obs_metrics
from repro.runtime import chaos
from repro.service import Keyring, ShardPool, VideoObjectStore, stream_key
from repro.video import SceneConfig, synthesize_scene


def _clip(seed: int = 1):
    # Four frames fit in one GOP at the default encoder config, so the
    # seek window of any display covers every stream whole.
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=4, seed=seed))


def _counter(name: str) -> int:
    snapshot = obs_metrics.get_registry().snapshot()["counters"]
    return int(snapshot.get(name, 0))


def _store(replicas=2, **kwargs):
    store = VideoObjectStore(pool=ShardPool(count=4),
                             keyring=Keyring(seed=5), seek_cache=0,
                             replicas=replicas, **kwargs)
    return store, store.put("alice", _clip())


def test_tampered_stream_on_every_replica_refuses_the_seek():
    store, object_id = _store()
    record = store.record("alice", object_id)
    name = next(n for n in sorted(record.stream_sha) if n != "None")
    key = stream_key("alice", object_id, name)
    for shard_id in record.replica_chain(name):
        shard = store.pool.shard(shard_id)
        blob = bytearray(shard.blobs[key])
        blob[0] ^= 0xFF
        shard.blobs[key] = bytes(blob)
    result = store.get_frame("alice", object_id, 2,
                             rng=np.random.default_rng(0))
    assert result.outcome == "refused"
    assert "integrity hash mismatch" in result.refusal_reason
    assert result.frame is None and result.psnr_db is None
    # One GOP: the window was the whole object.
    assert result.bytes_read == result.bytes_total


def test_storm_on_primary_escalates_the_seek_to_the_secondary():
    store, object_id = _store()
    record = store.record("alice", object_id)
    primaries = list(record.placement.values())
    victim = max(sorted(set(primaries)), key=primaries.count)
    before = _counter("service_read_escalations_total")
    chaos.arm(chaos.ChaosPolicy(seed=0, shard_storm=victim))
    try:
        for attempt in range(3):
            result = store.get_frame(
                "alice", object_id, attempt,
                rng=np.random.default_rng(100 + attempt))
            assert result.outcome != "refused"
            assert result.frame is not None
    finally:
        chaos.disarm()
    assert _counter("service_read_escalations_total") > before
    assert store.repair.backlog() == 1


def test_all_replicas_flaking_raises_transient_on_the_seek():
    store, object_id = _store(replicas=1)
    chaos.arm(chaos.ChaosPolicy(
        seed=0, shard_flake_reads=tuple(range(16))))
    try:
        with pytest.raises(TransientShardError):
            store.get_frame("alice", object_id, 0,
                            rng=np.random.default_rng(0))
    finally:
        chaos.disarm()


def test_uncorrectable_precise_stream_refuses_the_seek():
    # Every class on the precise scheme: the payload lands in the
    # header scheme's stream, which may never be served concealed.
    store, object_id = _store(assignment=UNIFORM_ASSIGNMENT)
    header = UNIFORM_ASSIGNMENT.header_scheme.name
    assert header in store.record("alice", object_id).protected.streams
    chaos.arm(chaos.ChaosPolicy(seed=0, device_fault_rate=1.0))
    try:
        result = store.get_frame("alice", object_id, 1,
                                 rng=np.random.default_rng(0))
    finally:
        chaos.disarm()
    assert result.outcome == "refused"
    assert (f"stream {header}: uncorrectable damage in a precise-scheme "
            f"stream") == result.refusal_reason
    assert result.frame is None
