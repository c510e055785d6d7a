"""Self-describing binary container for model checkpoints.

Layout: a magic/version line, UTF-8 header sections (named blocks of
text lines), raw little-endian float64 tensor payloads, and a trailing
SHA-256 checksum over everything that precedes it::

    SEQTAG-CKPT v1\\n
    [section <name> <line-count>]\\n   (repeated)
    <line>\\n ...
    [tensors <count>]\\n
    <name> <ndim> <d0> <d1>\\n<raw bytes>   (repeated)
    [checksum <hex sha256>]\\n

A truncated or modified file fails the checksum; a different version
line fails with an explicit unsupported-version error.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import IntegrityError, UnsupportedVersionError, replacing

MAGIC_PREFIX = b"SEQTAG-CKPT v"
VERSION = 1
MAGIC = MAGIC_PREFIX + str(VERSION).encode() + b"\n"
_CHECKSUM_LEN = len("[checksum ]\n") + 64


def write_container(path, sections: dict[str, list[str]], tensors: dict[str, np.ndarray]):
    """Write a container to ``path``, or leave ``path`` as it was if the write fails.

    The bytes go to a file beside ``path`` that replaces it once complete
    (:func:`replacing`).  Each tensor's memory is written and hashed where
    it lies, without a copy.
    """
    for name, lines in sections.items():
        if any("\n" in ln for ln in lines):
            raise ValueError(f"section {name!r} lines must not contain newlines")
    digest = hashlib.sha256()
    with replacing(path, "xb") as fh:

        def put(data):
            digest.update(data)
            fh.write(data)

        put(MAGIC)
        for name, lines in sections.items():
            put("".join([f"[section {name} {len(lines)}]\n", *(ln + "\n" for ln in lines)])
                .encode("utf-8"))
        put(f"[tensors {len(tensors)}]\n".encode("utf-8"))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            dims = " ".join(str(d) for d in arr.shape)
            put(f"{name} {arr.ndim} {dims}".rstrip().encode("utf-8") + b"\n")
            put(arr)
        fh.write(f"[checksum {digest.hexdigest()}]\n".encode("ascii"))


class _Cursor:
    """Reads ``data[pos:end]``: header lines and raw tensor payloads."""

    def __init__(self, data: bytes, pos: int, end: int):
        self.data = data
        self.pos = pos
        self.end = end

    def line(self) -> str:
        end = self.data.find(b"\n", self.pos, self.end)
        if end < 0:
            raise IntegrityError("checkpoint ended in the middle of a header line")
        try:
            out = self.data[self.pos : end].decode("utf-8")
        except UnicodeDecodeError:
            raise IntegrityError("checkpoint header is not valid UTF-8") from None
        self.pos = end + 1
        return out

    def raw(self, n: int) -> memoryview:
        if self.pos + n > self.end:
            raise IntegrityError("checkpoint ended inside a tensor payload")
        out = memoryview(self.data)[self.pos : self.pos + n]
        self.pos += n
        return out


def _count(text: str, header: str) -> int:
    """A count field, in decimal digits, of the header line ``header``."""
    if not (text.isascii() and text.isdigit()):
        raise IntegrityError(f"checkpoint header {header!r} holds {text!r}, not a count")
    return int(text)


def read_container(path) -> tuple[dict[str, list[str]], dict[str, np.ndarray]]:
    """The sections and tensors of a checkpoint; each tensor is a read-only view of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < len(MAGIC) + _CHECKSUM_LEN:
        raise IntegrityError("checkpoint file is too short")
    end = len(data) - _CHECKSUM_LEN  # the payload is data[:end]
    trailer = data[end:]
    if not trailer.startswith(b"[checksum ") or not trailer.endswith(b"]\n"):
        raise IntegrityError("checkpoint has no checksum trailer (truncated file?)")
    try:
        stated = trailer[len(b"[checksum ") : -2].decode("ascii")
    except UnicodeDecodeError:
        raise IntegrityError("checkpoint checksum trailer is corrupt") from None
    actual = hashlib.sha256(memoryview(data)[:end]).hexdigest()
    if stated != actual:
        raise IntegrityError("checkpoint checksum mismatch; the file is corrupt")

    if not data.startswith(MAGIC):
        first = data[:end].split(b"\n", 1)[0]
        if first.startswith(MAGIC_PREFIX):
            raise UnsupportedVersionError(
                f"unsupported checkpoint version {first.decode('utf-8', 'replace')!r}; "
                f"this build reads v{VERSION}"
            )
        raise IntegrityError("not a checkpoint file (bad magic)")

    cur = _Cursor(data, len(MAGIC), end)
    sections: dict[str, list[str]] = {}
    tensors: dict[str, np.ndarray] = {}
    while True:
        header = cur.line()
        if header.startswith("[section ") and header.endswith("]"):
            name, _, count = header[len("[section ") : -1].rpartition(" ")
            sections[name] = [cur.line() for _ in range(_count(count, header))]
        elif header.startswith("[tensors ") and header.endswith("]"):
            for _ in range(_count(header[len("[tensors ") : -1], header)):
                line = cur.line()
                name, *dims = line.split(" ")
                dims = [_count(d, line) for d in dims]
                if not dims or len(dims) != 1 + dims[0]:
                    raise IntegrityError(f"checkpoint tensor header {line!r} is malformed")
                shape = tuple(dims[1:])
                buf = cur.raw(8 * math.prod(shape))
                tensors[name] = np.frombuffer(buf, dtype="<f8").reshape(shape)
            break
        else:
            raise IntegrityError(f"unexpected checkpoint block {header!r}")
    if cur.pos != end:
        raise IntegrityError("trailing bytes after the tensor block")
    return sections, tensors
