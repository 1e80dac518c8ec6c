"""Tests for the AES-128 implementation (FIPS-197)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_aes as ref
from repro.crypto import AES128, expand_key
from repro.crypto.aes import INV_SBOX, SBOX, decrypt_blocks, encrypt_blocks
from repro.errors import CryptoError


class TestSBox:
    def test_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_sbox(self):
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value


class TestKeyExpansion:
    def test_fips197_appendix_a(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        round_keys = expand_key(key)
        assert len(round_keys) == 11
        assert bytes(round_keys[0]) == key
        assert bytes(round_keys[10]).hex() == \
            "d014f9a8c9ee2589e13f0cc8b6630ca6"

    def test_rejects_wrong_key_size(self):
        with pytest.raises(CryptoError):
            expand_key(b"short")

    @given(key=st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_schedule_matches_reference(self, key):
        schedule = expand_key(key)
        assert schedule.shape == (11, 16)
        assert schedule.tolist() == ref.expand_key(key)

    def test_schedule_is_shared_and_read_only(self):
        key = bytes(range(16))
        assert expand_key(key) is expand_key(bytearray(key))
        with pytest.raises(ValueError):
            expand_key(key)[0, 0] = 1


class TestBlockCipher:
    def test_fips197_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        aes = AES128(key)
        assert aes.encrypt_block(plaintext) == expected
        assert aes.decrypt_block(expected) == plaintext

    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, key, block):
        aes = AES128(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    def test_avalanche(self):
        """One flipped plaintext bit must change ~half the ciphertext."""
        key = bytes(range(16))
        aes = AES128(key)
        a = aes.encrypt_block(bytes(16))
        flipped = bytearray(16)
        flipped[0] = 0x80
        b = aes.encrypt_block(bytes(flipped))
        differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert 40 <= differing <= 88

    def test_wrong_block_size_rejected(self):
        aes = AES128(bytes(16))
        with pytest.raises(CryptoError):
            aes.encrypt_block(b"short")
        with pytest.raises(CryptoError):
            aes.decrypt_block(b"short")


class TestBatchedCore:
    """The ``(N, 16)`` core against the block-at-a-time reference."""

    @given(key=st.binary(min_size=16, max_size=16),
           data=st.binary(min_size=0, max_size=64 * 16))
    @settings(max_examples=40, deadline=None)
    def test_every_row_matches_the_reference(self, key, data):
        data = data[:len(data) - len(data) % 16]
        blocks = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
        reference = ref.ReferenceAES128(key)
        encrypted = encrypt_blocks(expand_key(key), blocks)
        assert encrypted.tobytes() == b"".join(
            reference.encrypt_block(data[i:i + 16])
            for i in range(0, len(data), 16))
        assert decrypt_blocks(expand_key(key), encrypted).tobytes() == data

    def test_empty_batch(self):
        empty = np.empty((0, 16), dtype=np.uint8)
        assert encrypt_blocks(expand_key(bytes(16)), empty).shape == (0, 16)
        assert decrypt_blocks(expand_key(bytes(16)), empty).shape == (0, 16)

    def test_rejects_ragged_blocks(self):
        with pytest.raises(CryptoError):
            encrypt_blocks(expand_key(bytes(16)), np.zeros((2, 15), np.uint8))
