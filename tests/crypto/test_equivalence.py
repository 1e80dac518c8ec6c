"""The batched AES modes and stream encryptor against the retained
block-at-a-time reference (``reference_aes.py``), plus the published
CTR test vector.

Counter mode is the one place the batched path does its own integer
arithmetic: the 128-bit counter add is split over two 64-bit halves.
Two IVs are therefore always in the draw: one whose low half is all
ones (the first increment must carry into the high half) and the
all-ones IV (the counter wraps mod 2^128).
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_aes as ref
from repro.crypto import MODES, StreamEncryptor, make_mode
from repro.crypto.modes import counter_blocks

#: Low 64-bit half all ones: block 1 carries into the high half.
CARRY_IV = bytes.fromhex("0123456789abcd00ffffffffffffffff")
#: All ones: block 1 wraps to zero mod 2^128.
WRAP_IV = b"\xff" * 16

keys = st.binary(min_size=16, max_size=16)
ivs = st.one_of(st.sampled_from([CARRY_IV, WRAP_IV]),
                st.binary(min_size=16, max_size=16))
#: Lengths drawn explicitly so long multi-block messages are common.
messages = st.integers(0, 3000).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))
EXAMPLES = settings(max_examples=30, deadline=None)


class TestCounterArithmetic:
    def test_carry_crosses_the_64_bit_halves(self):
        blocks = counter_blocks(CARRY_IV, 0, 3)
        assert [row.tobytes().hex() for row in blocks] == [
            "0123456789abcd00ffffffffffffffff",
            "0123456789abcd010000000000000000",
            "0123456789abcd010000000000000001",
        ]

    def test_counter_wraps_mod_2_128(self):
        blocks = counter_blocks(WRAP_IV, 0, 2)
        assert blocks[0].tobytes() == WRAP_IV
        assert blocks[1].tobytes() == bytes(16)

    @given(iv=ivs, first=st.integers(0, 1 << 130),
           count=st.integers(0, 40))
    @EXAMPLES
    def test_matches_python_integers(self, iv, first, count):
        base = int.from_bytes(iv, "big")
        want = b"".join(((base + first + i) % (1 << 128)).to_bytes(16, "big")
                        for i in range(count))
        assert counter_blocks(iv, first, count).tobytes() == want


class TestPublishedVectors:
    def test_sp800_38a_f51_ctr_aes128(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710")
        ciphertext = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee")
        assert make_mode("CTR", key, counter).encrypt(plaintext) == ciphertext
        assert make_mode("CTR", key, counter).decrypt(ciphertext) == plaintext
        assert make_mode("CTR", key, counter).decrypt_range(
            ciphertext[37:], 37) == plaintext[37:]


class TestModesMatchReference:
    @pytest.mark.parametrize("name", sorted(MODES))
    @given(key=keys, iv=ivs, plaintext=messages)
    @EXAMPLES
    def test_encrypt(self, name, key, iv, plaintext):
        assert make_mode(name, key, iv).encrypt(plaintext) == \
            ref.encrypt(name, key, iv, plaintext)

    @pytest.mark.parametrize("name", sorted(MODES))
    @given(key=keys, iv=ivs, ciphertext=messages)
    @EXAMPLES
    def test_decrypt(self, name, key, iv, ciphertext):
        if name in ("ECB", "CBC", "CFB"):
            ciphertext = ciphertext[:len(ciphertext) - len(ciphertext) % 16]
        assert make_mode(name, key, iv).decrypt(ciphertext) == \
            ref.decrypt(name, key, iv, ciphertext)

    @pytest.mark.parametrize("name", ["OFB", "CTR"])
    @given(key=keys, iv=ivs, ciphertext=messages,
           offset=st.integers(0, 3000))
    @EXAMPLES
    def test_decrypt_range(self, name, key, iv, ciphertext, offset):
        assert make_mode(name, key, iv).decrypt_range(ciphertext, offset) \
            == ref.decrypt_range(name, key, iv, ciphertext, offset)


stream_sets = st.dictionaries(st.integers(0, 7), messages, max_size=5)


class TestStreamEncryptorMatchesReference:
    """One batched call over every stream equals per-stream reference
    CTR/OFB under the reference IV derivation."""

    @pytest.mark.parametrize("mode", ["CTR", "OFB"])
    @given(key=keys, master_iv=ivs, streams=stream_sets)
    @EXAMPLES
    def test_encrypt_and_decrypt_streams(self, mode, key, master_iv,
                                         streams):
        encryptor = StreamEncryptor(key=key, master_iv=master_iv, mode=mode)
        want = {stream_id: ref.encrypt(
                    mode, key, ref.stream_iv(master_iv, stream_id, key),
                    data)
                for stream_id, data in streams.items()}
        assert encryptor.encrypt_streams(streams) == want
        assert encryptor.decrypt_streams(want) == streams

    @pytest.mark.parametrize("mode", ["CTR", "OFB"])
    @given(key=keys, master_iv=ivs, stream_id=st.integers(0, 7),
           data=messages, offset=st.integers(0, 3000))
    @EXAMPLES
    def test_decrypt_at(self, mode, key, master_iv, stream_id, data,
                        offset):
        encryptor = StreamEncryptor(key=key, master_iv=master_iv, mode=mode)
        iv = ref.stream_iv(master_iv, stream_id, key)
        assert encryptor.decrypt_at(stream_id, data, offset) == \
            ref.decrypt_range(mode, key, iv, data, offset)
