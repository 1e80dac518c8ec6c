"""Tests for the tenant keyring and access policy."""

import pytest

from repro.errors import AccessDeniedError, ServiceError, StaleKeyError
from repro.service import Keyring, derive_tenant_key

OBJECT_ID = "ab" * 32


class TestDerivation:
    def test_deterministic_per_tenant_and_seed(self):
        assert derive_tenant_key("alice", 7) == derive_tenant_key(
            "alice", 7)
        assert derive_tenant_key("alice", 7) != derive_tenant_key(
            "alice", 8)
        assert derive_tenant_key("alice", 7) != derive_tenant_key(
            "bob", 7)

    def test_key_material_sized_for_aes128(self):
        material = derive_tenant_key("alice", 0)
        assert len(material.key) == 16
        assert len(material.master_iv) == 16
        assert material.key != material.master_iv


class TestKeyring:
    def test_add_is_idempotent(self):
        ring = Keyring(seed=1)
        assert ring.add_tenant("alice") == ring.add_tenant("alice")
        assert ring.tenants() == ["alice"]

    def test_rejects_unusable_tenant_names(self):
        ring = Keyring()
        with pytest.raises(ServiceError):
            ring.add_tenant("")
        with pytest.raises(ServiceError):
            ring.add_tenant("a/b")  # '/' is the stream-key separator

    def test_owner_always_reads_own_objects(self):
        ring = Keyring()
        ring.add_tenant("alice")
        ring.check_read("alice", "alice")  # must not raise

    def test_share_grants_and_revoke_removes(self):
        ring = Keyring()
        ring.add_tenant("alice")
        with pytest.raises(AccessDeniedError):
            ring.check_read("alice", "bob")
        ring.share("alice", "bob")
        ring.check_read("alice", "bob")
        ring.revoke("alice", "bob")
        with pytest.raises(AccessDeniedError):
            ring.check_read("alice", "bob")

    def test_retired_key_refuses_use(self):
        ring = Keyring()
        ring.add_tenant("alice")
        assert ring.encryptor("alice", OBJECT_ID) is not None
        ring.retire("alice")
        with pytest.raises(StaleKeyError):
            ring.key("alice")
        with pytest.raises(StaleKeyError):
            ring.encryptor("alice", OBJECT_ID)

    def test_encryptor_round_trips(self):
        ring = Keyring(seed=3)
        ring.add_tenant("alice")
        enc = ring.encryptor("alice", OBJECT_ID)
        blob = bytes(range(64))
        sealed = enc.encrypt_streams({0: blob})
        assert sealed[0] != blob
        assert ring.encryptor("alice", OBJECT_ID).decrypt_streams(
            sealed)[0] == blob
