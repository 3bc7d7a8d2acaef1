"""The JSON encoding of the pipeline's bulk documents.

Graphs, semantics, knowledge, curves and the per-unit analysis rows are
written with sorted keys and no whitespace, which lets `json` use its C
encoder. The small documents people read (config, manifests, summaries,
matrices and tests) keep `indent=2`.
"""

from __future__ import annotations

import json


def compact_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
