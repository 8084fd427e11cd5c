"""Canonical hashing and deterministic seed derivation.

Every layer that fans work out -- sweep cells across worker processes,
workload streams within a cell, fleet tenants across shard simulators --
derives child seeds through :func:`derive_seed` so that

* no two children ever share an RNG stream (seeds are SHA-256-separated by
  the child's identity, not produced by arithmetic that can collide), and
* the derivation depends only on *logical* identity (scenario seed, tenant
  name, device index, ...), never on the execution layout (worker count,
  shard assignment), which is what makes serial and parallel/sharded runs
  bit-identical.

They live here, below both the experiments and the cluster layer, so
every layer uses the same derivation without an upward import.  The sweep
cache publishes its entries through :func:`write_atomic`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

__all__ = ["canonical_json", "spec_hash", "derive_seed", "write_atomic"]


def canonical_json(payload: Any) -> str:
    """Canonical (sorted-keys, compact) JSON used for hashing and caching."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_hash(payload: Any) -> str:
    """Stable SHA-256 hex digest of any JSON-serialisable payload."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def derive_seed(base_seed: int, params: Mapping[str, Any]) -> int:
    """Deterministic, collision-free child seed from a base seed + identity."""
    digest = spec_hash({"seed": base_seed, "params": dict(params)})
    return int(digest[:12], 16)


def write_atomic(path: Path, text: str) -> None:
    """Publish ``text`` as the file ``path``, atomically.

    The text goes to a private temp file in the same directory, which
    ``os.replace`` then renames over ``path``.  Concurrent writers of one
    path (sweep-pool workers, several serve jobs, a serve job racing a
    batch CLI) each rename a complete file of their own, so a reader never
    sees a torn entry and no writer loses its temp file to another.  A
    write that fails removes its temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.stem}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
