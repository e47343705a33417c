"""On-disk formats: binary checkpoints and key=value config files.

Checkpoint layout (little-endian throughout):

    magic  b"GSWN"
    u8     format version (currently 2)
    u32    config byte length, followed by the model config as UTF-8
           ``key = value`` lines, the text a config file holds
    u32    parameter count
    then per parameter:
    u16    name byte length, followed by the UTF-8 name
    u8     rank, then u32 per-axis extents
    f32    raw values, row-major

Values are stored at 32-bit precision; the model computes in float64.
Version-1 files carried no config and are rejected.
"""
from __future__ import annotations

import math
import struct
import typing
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from .analysis import atomic_open, count_params
from .model import GswinModel, ModelConfig, PRESETS

MAGIC = b"GSWN"
VERSION = 2


def save_checkpoint(path: str | Path, model: GswinModel) -> None:
    params = model.parameters()
    config = format_config(model.config).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BI", VERSION, len(config)))
        f.write(config)
        f.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<B", p.ndim))
            f.write(struct.pack(f"<{p.ndim}I", *p.shape))
            f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint's parameters back as name -> float32 array."""
    return read_checkpoint(path)[1]


def read_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a checkpoint back as its model config and name -> float32 array.

    A file that is not a checkpoint, is cut short anywhere, holds a record
    that does not decode or a name twice, or holds a config that does not
    parse or does not match the parameter count raises ``ValueError`` naming
    the path.
    """
    blob = Path(path).read_bytes()
    try:
        return _decode_checkpoint(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decode_checkpoint(blob: bytes) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    if blob[:4] != MAGIC:
        raise ValueError(f"not a checkpoint (bad magic {blob[:4]!r})")
    view = memoryview(blob)
    off = 4

    def read(nbytes: int, what: str) -> memoryview:
        nonlocal off
        if off + nbytes > len(blob):
            raise ValueError(f"truncated at byte {len(blob)}: {what} needs "
                             f"{nbytes} bytes from offset {off}")
        off += nbytes
        return view[off - nbytes:off]

    version, config_len = struct.unpack("<BI", read(5, "header"))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    config_bytes = bytes(read(config_len, "config"))
    config = model_config_from_mapping(parse_config_text(config_bytes.decode("utf-8"), "config"))
    (count,) = struct.unpack("<I", read(4, "parameter count"))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", read(2, "name length"))
        name = bytes(read(nlen, "name")).decode("utf-8")
        (ndim,) = struct.unpack("<B", read(1, f"{name} rank"))
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"{name} shape"))
        n = math.prod(shape)  # Python ints: a hostile shape cannot wrap around
        if name in out:
            raise ValueError(f"parameter {name} is stored twice")
        out[name] = np.frombuffer(read(4 * n, f"{name} values"), dtype="<f4").reshape(shape).copy()
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} trailing bytes")
    # before anyone builds the model, so a hostile config allocates nothing
    expected, stored = count_params(config).total_params, sum(a.size for a in out.values())
    if expected != stored:
        raise ValueError(f"config describes {expected} parameters, file holds {stored}")
    return config, out


def apply_checkpoint(model: GswinModel, arrays: dict[str, np.ndarray]) -> None:
    """Load saved values into a model, strict on names and shapes."""
    names = set(n for n in arrays)
    for p in model.parameters():
        if p.name not in arrays:
            raise ValueError(f"checkpoint is missing parameter {p.name}")
        a = arrays[p.name]
        if tuple(a.shape) != p.shape:
            raise ValueError(f"{p.name}: checkpoint shape {a.shape} != model shape {p.shape}")
        p.data = a.astype(np.float64)
        names.discard(p.name)
    if names:
        raise ValueError(f"checkpoint has unknown parameters: {sorted(names)[:3]}...")


def model_from_checkpoint(path: str | Path) -> GswinModel:
    """Rebuild the model a checkpoint was saved from, config and values."""
    config, arrays = read_checkpoint(path)
    model = GswinModel(config)
    apply_checkpoint(model, arrays)
    return model


# -- config files -------------------------------------------------------------


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored.

    Errors name ``source`` and the line number.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or key in out:
            raise ValueError(f"{source}:{lineno}: bad or duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_config_file(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), str(path))


def format_config(config) -> str:
    """A dataclass config as the `key = value` lines :func:`typed_fields` reads."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{f.name} = {text}\n")
    return "".join(lines)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_KINDS = {int: "an integer", float: "a number", bool: "true or false"}


def typed_value(key: str, kind, text: str):
    """``text`` converted to type ``kind``; a failure raises ``ValueError`` naming ``key``.

    A tuple type reads a comma list of integers.
    """
    try:
        if kind is bool:
            return _BOOLS[text.lower()]
        if typing.get_origin(kind) is tuple:
            return tuple(int(v) for v in text.split(","))
        return kind(text)
    except (KeyError, ValueError):
        expected = _KINDS.get(kind, "comma-separated integers")
        raise ValueError(f"{key} must be {expected}, got {text!r}") from None


def typed_fields(cls, kv: dict[str, str]) -> dict[str, object]:
    """The values in ``kv`` of the fields of dataclass ``cls``, as field types.

    Keys that are not fields are left out.
    """
    hints = typing.get_type_hints(cls)
    return {f.name: typed_value(f.name, hints[f.name], kv[f.name])
            for f in fields(cls) if f.name in kv}


MODEL_KEYS = {"model"} | {f.name for f in fields(ModelConfig)}


def model_config_from_mapping(kv: dict[str, str]) -> ModelConfig:
    """Build a ModelConfig from config-file keys, optionally over a preset base."""
    unknown = set(kv) - MODEL_KEYS
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    typed = typed_fields(ModelConfig, kv)
    if "model" in kv:
        name = kv["model"]
        if name not in PRESETS:
            raise ValueError(f"unknown model preset {name!r}; have {sorted(PRESETS)}")
        return replace(PRESETS[name], **typed)
    missing = {f.name for f in fields(ModelConfig) if f.default is MISSING} - set(typed)
    if missing:
        raise ValueError(f"config is missing required keys: {sorted(missing)}")
    return ModelConfig(**typed)
