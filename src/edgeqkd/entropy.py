"""Byte-stream entropy sources.

A deterministic stream (keyed BLAKE2b in counter mode, domain separated)
makes whole runs reproducible from one seed; the system stream backs the
real-entropy mode.
"""

from __future__ import annotations

import hashlib
import os
import threading

_BLOCK = 64  # blake2b digest size


class ByteStream:
    def read(self, n: int) -> bytes:
        raise NotImplementedError


class DeterministicStream(ByteStream):
    def __init__(self, seed: bytes, domain: str) -> None:
        material = domain.encode("utf-8") + b"\x00" + seed
        self._key = hashlib.blake2b(material, digest_size=32).digest()
        self._counter = 0
        self._buffer = b""
        self._lock = threading.Lock()

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("read size must be non-negative")
        with self._lock:
            while len(self._buffer) < n:
                block = hashlib.blake2b(
                    self._counter.to_bytes(8, "big"), digest_size=_BLOCK, key=self._key
                ).digest()
                self._buffer += block
                self._counter += 1
            out, self._buffer = self._buffer[:n], self._buffer[n:]
            return out


class SystemEntropyStream(ByteStream):
    def read(self, n: int) -> bytes:
        return os.urandom(n)


def make_stream(seed: bytes | None, domain: str) -> ByteStream:
    """Seeded streams are reproducible; a None seed selects real entropy."""
    if seed is None:
        return SystemEntropyStream()
    return DeterministicStream(seed, domain)


def uuid4_from(stream: ByteStream) -> str:
    """Draw a random-format UUID (lowercase, hyphenated) from a byte stream.

    The version and variant bits are set as RFC 9562 §5.4 says, and the hex
    of the 16 bytes is grouped 8-4-4-4-12 directly, so the text is exactly
    what `str(uuid.UUID(bytes=...))` gives without building a UUID object.
    """
    raw = bytearray(stream.read(16))
    raw[6] = (raw[6] & 0x0F) | 0x40
    raw[8] = (raw[8] & 0x3F) | 0x80
    h = raw.hex()
    return f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}"
