"""Hostile input: every malformed checkpoint or config either parses or raises ValueError.

The CLI maps ``ValueError`` to exit code 2 with a one-line message, so any
other exception escaping these readers would end a command in a traceback.
"""
import re
import struct
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gswin.checkpoint import (MAGIC, MODEL_KEYS, VERSION, model_config_from_mapping,
                              parse_config_text, read_checkpoint, save_checkpoint)
from gswin.cli import run
from gswin.model import GswinModel, ModelConfig

MICRO = ModelConfig(base_channels=4, depths=(1, 1, 1, 1), heads=2, window=(4, 4),
                    expansion=2, num_classes=2, image_size=32)
HOSTILE = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "micro.ckpt"
    save_checkpoint(path, GswinModel(MICRO))
    return path.read_bytes()


def _parses_or_names_the_path(tmp_path, blob):
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(blob)
    try:
        read_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc


@HOSTILE
@given(body=st.binary(max_size=300),
       head=st.sampled_from([b"", MAGIC, MAGIC + struct.pack("<B", VERSION)]))
def test_random_bytes_parse_or_are_rejected(tmp_path, head, body):
    _parses_or_names_the_path(tmp_path, head + body)


# Offsets below 400 reach the header, the config text and the first records.
_OFFSET = st.one_of(st.integers(0, 400), st.integers(0, 1 << 20))


@HOSTILE
@given(edit=st.sampled_from(["flip", "truncate", "extend"]), at=_OFFSET,
       byte=st.integers(1, 255), extra=st.binary(min_size=1, max_size=16))
def test_damaged_checkpoint_parses_or_is_rejected(tmp_path, valid_blob, edit, at, byte, extra):
    at %= len(valid_blob)
    if edit == "flip":
        blob = valid_blob[:at] + bytes([valid_blob[at] ^ byte]) + valid_blob[at + 1:]
    elif edit == "truncate":
        blob = valid_blob[:at]
    else:
        blob = valid_blob[:at] + extra + valid_blob[at:]
    _parses_or_names_the_path(tmp_path, blob)


@pytest.mark.parametrize("shape", [(2**31, 2**31, 2**31), (2**31, 2**31, 3), (0,) + (1,) * 99,
                                   (1,) * 100, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)])
def test_record_shape_that_overflows_or_numpy_refuses_names_the_path(tmp_path, valid_blob,
                                                                     shape):
    # swap the first record's shape for ``shape``; the values stay as they were
    (config_len,) = struct.unpack("<I", valid_blob[5:9])
    at = 9 + config_len + 4
    (nlen,) = struct.unpack("<H", valid_blob[at:at + 2])
    at += 2 + nlen
    ndim = valid_blob[at]
    record = struct.pack(f"<B{len(shape)}I", len(shape), *shape)
    blob = valid_blob[:at] + record + valid_blob[at + 1 + 4 * ndim:]
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
        read_checkpoint(path)


def test_edited_image_size_rebuilds_the_model_in_bounded_memory(tmp_path):
    # With 1x1 windows no stage window clamps, so the parameter count is the
    # same at every image size and read_checkpoint's guard passes this header.
    # Rebuilding the model must hold nothing in proportion to its 2^29-token maps.
    path = tmp_path / "huge.ckpt"
    save_checkpoint(path, GswinModel(replace(MICRO, window=(1, 1))))
    blob = path.read_bytes()
    (config_len,) = struct.unpack("<I", blob[5:9])
    config = blob[9:9 + config_len].replace(b"image_size = 32\n", b"image_size = 2147483648\n")
    path.write_bytes(blob[:5] + struct.pack("<I", len(config)) + config + blob[9 + config_len:])
    assert read_checkpoint(path)[0].image_size == 2**31
    tracemalloc.start()
    try:
        code = run(["export-weights", "--ckpt", str(path), "--stage", "3", "--layer", "0",
                    "--head", "1", "--out", str(tmp_path / "maps")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20, peak


_KEYS = st.one_of(st.sampled_from(sorted(MODEL_KEYS)), st.text(max_size=8))
_VALUES = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.lists(st.integers(-3, 70), max_size=5).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["gswin-t", "gswin-x", "true", "maybe", "nan", "-inf", "1e400", "0.5", ""]),
    st.text(max_size=12),
)
_LINES = st.lists(st.one_of(st.tuples(_KEYS, _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
                            st.text(max_size=20)), max_size=8).map("\n".join)


@HOSTILE
@given(text=_LINES)
def test_config_text_parses_or_is_rejected(text):
    try:
        config = model_config_from_mapping(parse_config_text(text, "drawn.cfg"))
    except ValueError:
        return
    assert isinstance(config, ModelConfig)
