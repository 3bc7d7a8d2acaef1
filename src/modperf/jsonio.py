"""How the pipeline's artifacts are encoded and written.

Graphs, semantics, curves and the per-unit analysis documents
(hardness rows, columnar opportunities, stage 1) are written with sorted
keys and no whitespace, which lets `json` use its C encoder. The small
documents people read (config, manifests, summaries, matrices and tests)
keep `indent=2`. Every artifact, the CSV tables and a trial's binary
`.npy` rows included, is written through `write_atomic`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def compact_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_atomic(path: Path, data: str | bytes):
    """Write `data`, text or bytes, to a temporary file next to `path`, then
    rename it into place, so that a crash never leaves a truncated artifact
    behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
