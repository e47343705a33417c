"""On-disk formats: binary checkpoints and key=value config files.

Checkpoint layout (little-endian throughout):

    magic  b"GSWN"
    u8     format version (currently 1)
    u32    parameter count
    then per parameter:
    u16    name byte length, followed by the UTF-8 name
    u8     rank, then u32 per-axis extents
    f32    raw values, row-major

Values are stored at 32-bit precision regardless of the in-memory dtype.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .model import GswinModel, ModelConfig, PRESETS

MAGIC = b"GSWN"
VERSION = 1


def save_checkpoint(path: str | Path, model: GswinModel) -> None:
    params = model.parameters()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BI", VERSION, len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<B", p.ndim))
            f.write(struct.pack(f"<{p.ndim}I", *p.shape))
            f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as name -> float32 array.

    A file that is not a checkpoint, or is cut short anywhere, raises
    ``ValueError`` naming the path and the byte offset.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {blob[:4]!r})")
    view = memoryview(blob)
    off = 4

    def read(nbytes: int, what: str) -> memoryview:
        nonlocal off
        if off + nbytes > len(blob):
            raise ValueError(f"{path}: truncated at byte {len(blob)}: {what} needs "
                             f"{nbytes} bytes from offset {off}")
        off += nbytes
        return view[off - nbytes:off]

    version, count = struct.unpack("<BI", read(5, "header"))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", read(2, "name length"))
        name = bytes(read(nlen, "name")).decode("utf-8")
        (ndim,) = struct.unpack("<B", read(1, f"{name} rank"))
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"{name} shape"))
        n = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        out[name] = np.frombuffer(read(4 * n, f"{name} values"), dtype="<f4").reshape(shape).copy()
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def apply_checkpoint(model: GswinModel, arrays: dict[str, np.ndarray]) -> None:
    """Load saved values into a model, strict on names and shapes."""
    names = set(n for n in arrays)
    for p in model.parameters():
        if p.name not in arrays:
            raise ValueError(f"checkpoint is missing parameter {p.name}")
        a = arrays[p.name]
        if tuple(a.shape) != p.shape:
            raise ValueError(f"{p.name}: checkpoint shape {a.shape} != model shape {p.shape}")
        p.data = a.astype(model.dtype)
        names.discard(p.name)
    if names:
        raise ValueError(f"checkpoint has unknown parameters: {sorted(names)[:3]}...")


def infer_config_from_arrays(arrays: dict[str, np.ndarray],
                             image_size: int = 224) -> ModelConfig:
    """Reconstruct a ModelConfig from checkpoint parameter names and shapes.

    The image size is not stored in checkpoints; the caller may override it
    (it only affects grid construction, not parameter shapes).
    """
    if "patch_embed.proj.w" not in arrays:
        raise ValueError("checkpoint lacks patch_embed.proj.w; cannot infer config")
    C = arrays["patch_embed.proj.w"].shape[1]
    depths = []
    for s in range(4):
        d = 0
        while f"stages.{s}.blocks.{d}.norm.gamma" in arrays:
            d += 1
        if d == 0:
            raise ValueError(f"checkpoint has no blocks in stage {s}")
        depths.append(d)
    w0 = arrays["stages.0.blocks.0.sgu.w_win"]
    heads = w0.shape[2]
    dim0 = arrays["stages.0.blocks.0.proj_in.w"].shape[0]
    hidden0 = arrays["stages.0.blocks.0.proj_in.w"].shape[1]
    expansion = hidden0 // dim0
    num_classes = arrays["head.fc.w"].shape[1]
    rel_bias = "stages.0.blocks.0.sgu.rel_table" in arrays
    # stage-1 window may have been clamped below the nominal one; pick the
    # smallest nominal window consistent with every stage's stored extent
    base = image_size // 4
    win = None
    for s in range(4):
        T = arrays[f"stages.{s}.blocks.0.sgu.w_win"].shape[0]
        side = int(round(T ** 0.5))
        if side * side != T:
            raise ValueError(f"stage-{s} window of {T} tokens is not square")
        res = base >> s
        if side < res:
            win = side if win is None else max(win, side)
    if win is None:
        win = base  # every stage clamped to its full map
    return ModelConfig(base_channels=C, depths=tuple(depths), heads=heads,
                       window=(win, win), expansion=expansion,
                       num_classes=num_classes, image_size=image_size,
                       rel_bias=rel_bias)


def model_from_checkpoint(path: str | Path, image_size: int = 224) -> GswinModel:
    arrays = load_checkpoint(path)
    model = GswinModel(infer_config_from_arrays(arrays, image_size=image_size))
    apply_checkpoint(model, arrays)
    return model


# -- config files -------------------------------------------------------------


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or key in out:
            raise ValueError(f"{path}:{lineno}: bad or duplicate key {key!r}")
        out[key] = value.strip()
    return out


_MODEL_KEYS = {
    "model", "base_channels", "depths", "heads", "window", "expansion",
    "drop_path_rate", "num_classes", "image_size", "rel_bias",
}


def model_config_from_mapping(kv: dict[str, str]) -> ModelConfig:
    """Build a ModelConfig from config-file keys, optionally from a preset base."""
    base = None
    if "model" in kv:
        name = kv["model"]
        if name not in PRESETS:
            raise ValueError(f"unknown model preset {name!r}; have {sorted(PRESETS)}")
        base = PRESETS[name]
    fields = {}
    if base is not None:
        fields = dict(base_channels=base.base_channels, depths=base.depths,
                      heads=base.heads, window=base.window, expansion=base.expansion,
                      drop_path_rate=base.drop_path_rate, num_classes=base.num_classes,
                      image_size=base.image_size, rel_bias=base.rel_bias)
    for key in ("base_channels", "heads", "expansion", "num_classes", "image_size"):
        if key in kv:
            fields[key] = int(kv[key])
    if "depths" in kv:
        fields["depths"] = tuple(int(v) for v in kv["depths"].split(","))
    if "window" in kv:
        parts = [int(v) for v in kv["window"].split(",")]
        fields["window"] = (parts[0], parts[-1]) if len(parts) == 2 else (parts[0], parts[0])
    if "drop_path_rate" in kv:
        fields["drop_path_rate"] = float(kv["drop_path_rate"])
    if "rel_bias" in kv:
        val = kv["rel_bias"].lower()
        if val not in ("true", "false", "1", "0", "yes", "no"):
            raise ValueError(f"rel_bias must be boolean-like, got {kv['rel_bias']!r}")
        fields["rel_bias"] = val in ("true", "1", "yes")
    missing = {"base_channels", "depths", "heads"} - set(fields)
    if missing:
        raise ValueError(f"config is missing required keys: {sorted(missing)}")
    return ModelConfig(**fields)
