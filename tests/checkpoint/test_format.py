"""The on-disk checkpoint container: versioning, fingerprinting,
corruption rejection.

Every failure mode must raise :class:`CheckpointError` *before* any
payload unpickling happens — a corrupted or truncated checkpoint is
rejected, never silently restored.
"""

import json

import pytest

from repro.checkpoint import (CheckpointError, FORMAT_VERSION,
                              load_checkpoint, pack_state, save_checkpoint)
from repro.checkpoint.format import (MAGIC, read_container, read_header,
                                     write_container)


SIMPLE_STATE = {"answer": 42, "items": [1, 2, 3]}


def write_simple(tmp_path, meta=None):
    path = tmp_path / "simple.ckpt"
    save_checkpoint(path, SIMPLE_STATE, meta=meta or {"label": "simple"})
    return path


def rewrite_header(path, **fields):
    """Replace header fields of the container at ``path``, keeping its
    payload bytes."""
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header.update(fields)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        path = write_simple(tmp_path)
        state, meta = load_checkpoint(path)
        assert state == {"answer": 42, "items": [1, 2, 3]}
        assert meta["label"] == "simple"

    def test_header_is_one_json_line(self, tmp_path):
        path = write_simple(tmp_path)
        first_line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(first_line)
        assert header["magic"] == MAGIC
        assert header["version"] == FORMAT_VERSION
        assert header["fingerprint"].startswith("sha256:")

    def test_peek_reads_meta_without_payload(self, tmp_path):
        path = write_simple(tmp_path, meta={"sim_time": 1.5})
        header = read_header(path)
        assert header["meta"]["sim_time"] == 1.5

    def test_fingerprint_returned_matches_header(self, tmp_path):
        path = tmp_path / "fp.ckpt"
        fingerprint = save_checkpoint(path, {"x": 1})
        assert read_header(path)["fingerprint"] == fingerprint

    def test_payload_is_the_pack_state_blob(self, tmp_path):
        """An engine checkpoint is one pack_state blob in a container."""
        path = write_simple(tmp_path)
        header, payload = read_container(path)
        assert payload == pack_state(SIMPLE_STATE)
        assert header["payload_bytes"] == len(payload)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        write_simple(tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "random.ckpt"
        path.write_bytes(b"this is not a checkpoint at all\n")
        with pytest.raises(CheckpointError, match="magic|JSON"):
            load_checkpoint(path)

    def test_binary_garbage_without_newline(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"\x80\x04\x95" * 1000)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "magic.ckpt"
        header = {"magic": "other-format", "version": FORMAT_VERSION,
                  "payload_bytes": 0, "fingerprint": "sha256:0",
                  "meta": {}}
        path.write_bytes((json.dumps(header) + "\n").encode())
        with pytest.raises(CheckpointError, match="magic"):
            read_header(path)

    def test_future_version_refused(self, tmp_path):
        path = write_simple(tmp_path)
        rewrite_header(path, version=FORMAT_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = write_simple(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # crash mid-write simulation
        with pytest.raises(CheckpointError, match="truncat"):
            load_checkpoint(path)

    def test_single_flipped_byte_detected(self, tmp_path):
        path = write_simple(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF  # bit rot deep inside the payload
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = write_simple(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"EXTRA")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_header_missing_field(self, tmp_path):
        path = tmp_path / "partial.ckpt"
        header = {"magic": MAGIC, "version": FORMAT_VERSION,
                  "fingerprint": "sha256:0", "meta": {}}
        path.write_bytes((json.dumps(header) + "\n").encode())
        with pytest.raises(CheckpointError, match="payload_bytes"):
            read_header(path)

    @pytest.mark.parametrize("field, value", [
        ("payload_bytes", "abc"), ("payload_bytes", None),
        ("payload_bytes", -1), ("payload_bytes", True),
        ("payload_bytes", 1.5), ("fingerprint", None),
        ("meta", [1, 2]), ("meta", "label"), ("meta", None),
    ])
    def test_mistyped_header_field(self, tmp_path, field, value):
        path = write_simple(tmp_path)
        rewrite_header(path, **{field: value})
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    def test_forged_payload_size_is_truncation(self, tmp_path):
        """The payload is sized from the file, so a huge declared size
        is refused without being allocated."""
        path = write_simple(tmp_path)
        rewrite_header(path, payload_bytes=1 << 60)
        with pytest.raises(CheckpointError, match="truncat"):
            load_checkpoint(path)

    def test_corruption_rejected_before_unpickle(self, tmp_path):
        # The payload is arbitrary pickle; a fingerprint failure must
        # surface before pickle ever sees the bytes.  Plant a pickle bomb
        # marker that would raise if unpickled.
        path = tmp_path / "bomb.ckpt"
        write_container(path, b"\x00" * 96, {})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="fingerprint"):
            read_container(path)
