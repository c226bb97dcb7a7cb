"""Loss-free (de)serialisation of nested training-state trees.

A checkpoint state is an arbitrary nesting of dicts, lists, tuples,
NumPy arrays, and JSON scalars (plus NumPy scalars and RNG bit-generator
states).  :func:`encode_state` packs the arrays into a compressed
``.npz`` archive and the structure into an embedded JSON document, so a
whole snapshot is one byte string that can be checksummed and written
atomically.  :func:`decode_state` inverts it bit-exactly: float64
payloads survive as the same bits (arrays verbatim, scalars through
Python's shortest-round-trip float repr) and arbitrary-precision ints
(e.g. PCG64's 128-bit state words) survive through JSON integers.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, is_dataclass
from typing import Any, Dict

import numpy as np

#: npz entry holding the JSON structure document.
TREE_KEY = "__tree__"

#: Format version written into every payload.
FORMAT_VERSION = 1

#: Config fields that never affect the optimisation trajectory and are
#: therefore excluded from :func:`config_fingerprint`: a resumed run may
#: legitimately extend the epoch budget, toggle logging, or move or
#: re-point its checkpointing.
VOLATILE_CONFIG_FIELDS = frozenset(
    {
        "epochs",
        "verbose",
        "checkpoint_dir",
        "checkpoint_every",
        "keep_last",
        "resume_from",
    }
)


def _encode(node: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if isinstance(node, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = node
        return {"t": "nd", "k": key}
    if isinstance(node, np.generic):
        node = node.item()
    if node is None or isinstance(node, (bool, int, float, str)):
        return {"t": "v", "v": node}
    if isinstance(node, dict):
        encoded = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"checkpoint dict keys must be str, got {type(key).__name__}"
                )
            encoded[key] = _encode(value, arrays)
        return {"t": "d", "v": encoded}
    if isinstance(node, (list, tuple)):
        return {
            "t": "l" if isinstance(node, list) else "tu",
            "v": [_encode(item, arrays) for item in node],
        }
    raise TypeError(
        f"cannot checkpoint object of type {type(node).__name__}: {node!r}"
    )


def _decode(spec: Any, archive) -> Any:
    tag = spec["t"]
    if tag == "nd":
        return archive[spec["k"]]
    if tag == "v":
        return spec["v"]
    if tag == "d":
        return {key: _decode(value, archive) for key, value in spec["v"].items()}
    if tag == "l":
        return [_decode(item, archive) for item in spec["v"]]
    if tag == "tu":
        return tuple(_decode(item, archive) for item in spec["v"])
    raise ValueError(f"unknown checkpoint node tag {tag!r}")


def encode_state(state: Any) -> bytes:
    """Serialise a state tree to a self-contained ``.npz`` byte string."""
    arrays: Dict[str, np.ndarray] = {}
    tree = _encode(state, arrays)
    document = json.dumps({"version": FORMAT_VERSION, "tree": tree})
    arrays[TREE_KEY] = np.frombuffer(document.encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def decode_state(data: bytes) -> Any:
    """Invert :func:`encode_state`; raises ``ValueError`` on bad payloads."""
    with np.load(io.BytesIO(data)) as archive:
        if TREE_KEY not in archive.files:
            raise ValueError("not a repro checkpoint: missing structure document")
        document = json.loads(bytes(archive[TREE_KEY].tobytes()).decode("utf-8"))
        if document.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format version {document.get('version')!r}"
            )
        return _decode(document["tree"], archive)


def checksum(data: bytes) -> str:
    """SHA-256 hex digest used for corruption detection."""
    return hashlib.sha256(data).hexdigest()


def rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """Capture a generator's bit-exact state (bit-generator name + words)."""
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a state captured by :func:`rng_state` onto ``rng``.

    The generator must wrap the same bit-generator type (``PCG64`` for
    ``np.random.default_rng``); NumPy validates and raises otherwise.
    """
    rng.bit_generator.state = state


def config_fingerprint(*parts: Any) -> str:
    """Digest of the optimisation-relevant configuration.

    Accepts dataclass instances, dicts, or scalars; dataclass/dict
    fields named in :data:`VOLATILE_CONFIG_FIELDS` are dropped so a
    resumed run may extend ``epochs`` or move the checkpoint directory
    without tripping the mismatch guard.
    """
    normalised = []
    for part in parts:
        if is_dataclass(part) and not isinstance(part, type):
            part = asdict(part)
        if isinstance(part, dict):
            part = {
                key: value
                for key, value in sorted(part.items())
                if key not in VOLATILE_CONFIG_FIELDS
            }
        normalised.append(part)
    blob = json.dumps(normalised, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
