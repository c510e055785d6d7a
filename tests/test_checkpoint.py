import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtag.checkpoint import read_container, write_container
from seqtag.errors import IntegrityError, SeqtagError

CHECKSUM_LEN = len("[checksum ]\n") + 64


def rewrite(path, payload: bytes):
    """Write ``payload`` to ``path`` under a valid checksum trailer."""
    digest = hashlib.sha256(payload).hexdigest()
    path.write_bytes(payload + f"[checksum {digest}]\n".encode("ascii"))


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    """The bytes before the checksum of a small container: two sections and
    three tensors, one of them empty."""
    path = tmp_path_factory.mktemp("container") / "small.ckpt"
    sections = {"config": ["variant = crf", "seed = 3"], "vocab": ["<unk>", "aspirin"]}
    tensors = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2), "e": np.zeros((0, 2))}
    write_container(path, sections, tensors)
    return path.read_bytes()[:-CHECKSUM_LEN]


class TestHeaderNumbers:
    """A header number that is not a count fails integrity, under a valid checksum."""

    @pytest.mark.parametrize("old, new", [
        (b"[section config 2]", b"[section config x]"),
        (b"[section config 2]", b"[section config -1]"),
        (b"[tensors 3]", b"[tensors x]"),
        (b"\nw 2 2 3\n", b"\nw q 2 3\n"),
        (b"\nw 2 2 3\n", b"\nw 2 -2 3\n"),
        (b"\nw 2 2 3\n", b"\nw 2 2\n"),  # fewer dimensions than its ndim says
        (b"b 1 2\n", b"b\n"),  # no ndim
    ])
    def test_malformed_number(self, tmp_path, payload, old, new):
        assert old in payload
        path = tmp_path / "edited.ckpt"
        rewrite(path, payload.replace(old, new, 1))
        with pytest.raises(IntegrityError):
            read_container(path)

    def test_unedited_container_reads(self, tmp_path, payload):
        path = tmp_path / "same.ckpt"
        rewrite(path, payload)
        sections, tensors = read_container(path)
        assert sections["vocab"] == ["<unk>", "aspirin"]
        assert {name: t.shape for name, t in tensors.items()} == {
            "w": (2, 3), "b": (2,), "e": (0, 2),
        }


class TestIntegrity:
    def test_flipped_tensor_byte_fails_the_checksum(self, tmp_path, payload):
        path = tmp_path / "flipped.ckpt"
        rewrite(path, payload)
        blob = bytearray(path.read_bytes())
        header = b"\nw 2 2 3\n"
        blob[payload.index(header) + len(header) + 11] ^= 0x01  # the second value of w
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            read_container(path)

    def test_file_shorter_than_magic_and_trailer(self, tmp_path, payload):
        path = tmp_path / "short.ckpt"
        path.write_bytes(payload[:CHECKSUM_LEN])
        with pytest.raises(IntegrityError, match="too short"):
            read_container(path)


@given(data=st.data())
def test_mutated_container_reads_or_raises_a_seqtag_error(tmp_path_factory, payload, data):
    start = data.draw(st.integers(0, len(payload)), label="start")
    end = data.draw(st.integers(start, min(start + 3, len(payload))), label="end")
    texts = st.sampled_from([b"", b"x", b"-1", b"9" * 19, b" ", b"\n", b"]", b"\xff"])
    insert = data.draw(texts | st.binary(max_size=3), label="insert")
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    rewrite(path, payload[:start] + insert + payload[end:])
    try:
        read_container(path)
    except SeqtagError:
        pass
