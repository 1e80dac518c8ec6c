"""Block-at-a-time AES-128 and modes: the reference the batched core is
checked against.

This is the scalar implementation the library used before its cipher
was batched over NumPy: list-based SubBytes / ShiftRows / MixColumns /
AddRoundKey on one 16-byte block, and the five modes walking a message
one block at a time with Python-integer counters. It is deliberately
independent of ``repro.crypto`` (its own S-box, GF tables, key schedule
and counter arithmetic) so an equivalence test compares two
implementations, not one implementation with itself.
"""

from __future__ import annotations

from typing import List

BLOCK_SIZE = 16
ROUNDS = 10


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_multiply(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple:
    exp = [0] * 510
    log = [0] * 256
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value ^= _xtime(value)
    exp[255:510] = exp[:255]
    sbox = [0] * 256
    for byte in range(256):
        value = 0 if byte == 0 else exp[255 - log[byte]]
        transformed = value
        for _ in range(4):
            value = ((value << 1) | (value >> 7)) & 0xFF
            transformed ^= value
        sbox[byte] = transformed ^ 0x63
    inv_sbox = [0] * 256
    for byte, mapped in enumerate(sbox):
        inv_sbox[mapped] = byte
    return tuple(sbox), tuple(inv_sbox)


SBOX, INV_SBOX = _build_sbox()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)
_MUL_TABLES = {
    coefficient: tuple(_gf_multiply(byte, coefficient) for byte in range(256))
    for coefficient in (1, 2, 3, 9, 11, 13, 14)
}
_MIX = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
_INV_MIX = ((14, 11, 13, 9), (9, 14, 11, 13), (13, 9, 14, 11), (11, 13, 9, 14))
# state[4*c + r] is row r, column c.
_SHIFT_MAP = [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)]
_INV_SHIFT_MAP = [4 * ((c - r) % 4) + r for c in range(4) for r in range(4)]


def expand_key(key: bytes) -> List[List[int]]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 4 * (ROUNDS + 1)):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]
            word = [SBOX[b] for b in word]
            word[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(word, words[i - 4])])
    return [sum(words[4 * r : 4 * r + 4], []) for r in range(ROUNDS + 1)]


def _sub_bytes(state: List[int], box: tuple) -> List[int]:
    return [box[b] for b in state]


def _shift_rows(state: List[int], shift_map: List[int]) -> List[int]:
    return [state[i] for i in shift_map]


def _mix_single_column(column: List[int], matrix: tuple) -> List[int]:
    out = []
    for row in matrix:
        value = 0
        for coefficient, byte in zip(row, column):
            value ^= _MUL_TABLES[coefficient][byte]
        out.append(value)
    return out


def _mix_columns(state: List[int], matrix: tuple) -> List[int]:
    out = []
    for c in range(4):
        out += _mix_single_column(state[4 * c : 4 * c + 4], matrix)
    return out


def _add_round_key(state: List[int], round_key: List[int]) -> List[int]:
    return [a ^ b for a, b in zip(state, round_key)]


class ReferenceAES128:
    """One 16-byte block at a time, straight from FIPS-197."""

    def __init__(self, key: bytes) -> None:
        self.round_keys = expand_key(key)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        state = _add_round_key(list(plaintext), self.round_keys[0])
        for round_index in range(1, ROUNDS):
            state = _shift_rows(_sub_bytes(state, SBOX), _SHIFT_MAP)
            state = _mix_columns(state, _MIX)
            state = _add_round_key(state, self.round_keys[round_index])
        state = _shift_rows(_sub_bytes(state, SBOX), _SHIFT_MAP)
        return bytes(_add_round_key(state, self.round_keys[ROUNDS]))

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        state = _add_round_key(list(ciphertext), self.round_keys[ROUNDS])
        state = _sub_bytes(_shift_rows(state, _INV_SHIFT_MAP), INV_SBOX)
        for round_index in range(ROUNDS - 1, 0, -1):
            state = _add_round_key(state, self.round_keys[round_index])
            state = _mix_columns(state, _INV_MIX)
            state = _sub_bytes(_shift_rows(state, _INV_SHIFT_MAP), INV_SBOX)
        return bytes(_add_round_key(state, self.round_keys[0]))


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _pad(data: bytes) -> bytes:
    return data + b"\x00" * (-len(data) % BLOCK_SIZE)


def _blocks(data: bytes):
    return [data[i : i + BLOCK_SIZE] for i in range(0, len(data), BLOCK_SIZE)]


def _ofb_keystream(aes: ReferenceAES128, iv: bytes, length: int) -> bytes:
    stream = bytearray()
    feedback = iv
    while len(stream) < length:
        feedback = aes.encrypt_block(feedback)
        stream += feedback
    return bytes(stream[:length])


def _ctr_keystream(
    aes: ReferenceAES128, iv: bytes, byte_offset: int, length: int
) -> bytes:
    skip_blocks, phase = divmod(byte_offset, BLOCK_SIZE)
    counter = (int.from_bytes(iv, "big") + skip_blocks) % (1 << 128)
    stream = bytearray()
    while len(stream) < phase + length:
        stream += aes.encrypt_block(counter.to_bytes(BLOCK_SIZE, "big"))
        counter = (counter + 1) % (1 << 128)
    return bytes(stream[phase : phase + length])


def encrypt(mode: str, key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """Reference encryption of a whole message under ``mode``."""
    aes = ReferenceAES128(key)
    if mode == "ECB":
        return b"".join(aes.encrypt_block(b) for b in _blocks(_pad(plaintext)))
    if mode == "CBC":
        out, previous = [], iv
        for block in _blocks(_pad(plaintext)):
            previous = aes.encrypt_block(_xor(block, previous))
            out.append(previous)
        return b"".join(out)
    if mode == "CFB":
        out, feedback = [], iv
        for block in _blocks(_pad(plaintext)):
            feedback = _xor(block, aes.encrypt_block(feedback))
            out.append(feedback)
        return b"".join(out)
    if mode == "OFB":
        return _xor(plaintext, _ofb_keystream(aes, iv, len(plaintext)))
    if mode == "CTR":
        return _xor(plaintext, _ctr_keystream(aes, iv, 0, len(plaintext)))
    raise ValueError(mode)


def decrypt(mode: str, key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """Reference decryption of a whole message under ``mode``."""
    aes = ReferenceAES128(key)
    if mode == "ECB":
        return b"".join(aes.decrypt_block(b) for b in _blocks(ciphertext))
    if mode in ("CBC", "CFB"):
        out, previous = [], iv
        for block in _blocks(ciphertext):
            if mode == "CBC":
                out.append(_xor(aes.decrypt_block(block), previous))
            else:
                out.append(_xor(block, aes.encrypt_block(previous)))
            previous = block
        return b"".join(out)
    return encrypt(mode, key, iv, ciphertext)


def decrypt_range(
    mode: str, key: bytes, iv: bytes, ciphertext: bytes, byte_offset: int
) -> bytes:
    """Reference random-access decrypt for the keystream modes."""
    aes = ReferenceAES128(key)
    if mode == "OFB":
        stream = _ofb_keystream(aes, iv, byte_offset + len(ciphertext))
        return _xor(ciphertext, stream[byte_offset:])
    if mode == "CTR":
        return _xor(ciphertext, _ctr_keystream(aes, iv, byte_offset, len(ciphertext)))
    raise ValueError(f"{mode} has no random access")


def stream_iv(master_iv: bytes, stream_id: int, key: bytes) -> bytes:
    """Reference per-stream IV: E_k(master_iv XOR stream_id)."""
    identifier = stream_id.to_bytes(BLOCK_SIZE, "big")
    return ReferenceAES128(key).encrypt_block(_xor(master_iv, identifier))
