"""CTR keystream uniqueness across a multi-tenant store.

Counter mode is only private while no (key, counter block) pair is used
twice. The store encrypts every object of a tenant under one key, so
each object's master IV is diversified by its content address; these
tests check that across objects, tenants and streams, both from the
derivation and from the ciphertext actually parked on the shards.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import CTR, derive_stream_iv
from repro.service import (
    Keyring,
    ShardPool,
    VideoObjectStore,
    stream_key,
)
from repro.video import SceneConfig, synthesize_scene

TENANTS = ("alice", "bob", "carol")
WRAP = 1 << 128


def _clip(seed: int):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=4, seed=seed))


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _overlapping(ranges):
    """True when any two ``(first_counter, blocks)`` runs share a
    counter value mod 2^128."""
    segments = []
    for first, blocks in ranges:
        end = first + blocks
        if end <= WRAP:
            segments.append((first, end))
        else:
            segments += [(first, WRAP), (0, end - WRAP)]
    segments.sort()
    return any(nxt[0] < prev[1] for prev, nxt in zip(segments,
                                                     segments[1:]))


def _counter_ranges(keyring, tenant, object_id, stream_lengths):
    encryptor = keyring.encryptor(tenant, object_id)
    return [(int.from_bytes(derive_stream_iv(encryptor.master_iv, i,
                                             encryptor.key), "big"),
             -(-length // 16))
            for i, length in enumerate(stream_lengths)]


@pytest.fixture(scope="module")
def store():
    """Three tenants, four objects each (one clip shared by all)."""
    store = VideoObjectStore(pool=ShardPool(count=4),
                             keyring=Keyring(seed=11))
    for offset, tenant in enumerate(TENANTS):
        store.put_many(tenant, [_clip(seed) for seed in
                                (1, 2 + offset, 5 + offset, 8 + offset)])
    return store


def _stored_streams(store, record):
    """``(plaintext, ciphertext)`` per stream, in encryption order."""
    out = []
    for name in sorted(record.protected.streams):
        shard = store.pool.shard(record.placement[name])
        out.append((record.protected.streams[name],
                    shard.blobs[stream_key(record.tenant, record.object_id,
                                           name)]))
    return out


class TestPerObjectKeystreams:
    def test_objects_of_one_tenant_are_not_a_two_time_pad(self, store):
        """c1 XOR c2 must not equal p1 XOR p2 for two objects of one
        tenant: that equality is the CTR two-time pad."""
        for tenant in TENANTS:
            records = store.objects(tenant)
            assert len(records) == 4
            for i, first in enumerate(records):
                for second in records[i + 1:]:
                    for (p1, c1), (p2, c2) in zip(
                            _stored_streams(store, first),
                            _stored_streams(store, second)):
                        n = min(len(p1), len(p2))
                        if n >= 16:
                            assert _xor(c1[:n], c2[:n]) != \
                                _xor(p1[:n], p2[:n])

    def test_no_keystream_block_repeats_across_the_store(self, store):
        seen = set()
        total = 0
        for record in store.objects():
            for plaintext, ciphertext in _stored_streams(store, record):
                keystream = _xor(plaintext, ciphertext)
                for at in range(0, len(keystream) - 15, 16):
                    seen.add(keystream[at:at + 16])
                    total += 1
        assert total > 100
        assert len(seen) == total

    def test_derived_counter_ranges_are_disjoint(self, store):
        """The derivation reproduces what is on the shards, and no two
        (tenant, object, stream) counter runs overlap."""
        ranges = []
        for record in store.objects():
            streams = _stored_streams(store, record)
            runs = _counter_ranges(store.keyring, record.tenant,
                                   record.object_id,
                                   [len(p) for p, _ in streams])
            material = store.keyring.key(record.tenant)
            for (first, _), (plaintext, ciphertext) in zip(runs, streams):
                iv = first.to_bytes(16, "big")
                assert CTR(material.key, iv).encrypt(plaintext) == \
                    ciphertext
            ranges += runs
        assert len(store.objects()) == 12
        assert len(ranges) >= 2 * 12
        assert not _overlapping(ranges)

    def test_same_content_encrypts_deterministically(self, store):
        """Dedupe and repair rely on a content address mapping to one
        ciphertext: a fresh store under the same keyring seed parks the
        same bytes."""
        again = VideoObjectStore(pool=ShardPool(count=4),
                                 keyring=Keyring(seed=11))
        object_id = again.put("alice", _clip(1))
        assert again.record("alice", object_id).stream_sha == \
            store.record("alice", object_id).stream_sha


class TestCounterRangeProperty:
    @given(tenants=st.lists(st.sampled_from(TENANTS), min_size=2,
                            max_size=24),
           object_ids=st.lists(st.binary(min_size=32, max_size=32),
                               min_size=24, max_size=24, unique=True),
           lengths=st.lists(st.integers(0, 1 << 20), min_size=1,
                            max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_no_two_triples_share_a_counter(self, tenants, object_ids,
                                            lengths):
        keyring = Keyring(seed=3)
        ranges = []
        for tenant, object_id in zip(tenants, object_ids):
            keyring.add_tenant(tenant)
            ranges += _counter_ranges(keyring, tenant, object_id.hex(),
                                      lengths)
        assert not _overlapping(ranges)

    def test_overlap_check_sees_the_wrap(self):
        assert _overlapping([(WRAP - 2, 4), (1, 1)])
        assert not _overlapping([(WRAP - 2, 2), (0, 1)])
