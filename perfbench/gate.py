"""Correctness gate on a saved study store.

A run counts only if its artefact is right: exactly the planned number of
records, every record round-tripping byte for byte through the record
registry, and - at the seed the digests were pinned for - the same sha256
as the pinned artefact.  A later change that speeds a study up by changing
its output fails this gate instead of reading as a gain.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def pinned_digests(workload: str, seed: int) -> Optional[List[str]]:
    """The sha256 of each of ``workload``'s stores pinned at ``seed``, if pinned."""
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        pins: Dict = json.load(fh)
    if seed != pins["seed"]:
        return None
    return pins["sha256"][workload]


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_store(
    path: str, planned: int, pinned: Optional[str] = None
) -> Tuple[str, List[str]]:
    """Return the store's sha256 and every problem found with it."""
    from repro.trace.records import TransferRecord

    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    problems: List[str] = []
    if not data.endswith(b"\n"):
        problems.append("store does not end with a newline")
    lines = data.split(b"\n")[:-1] if data.endswith(b"\n") else data.split(b"\n")
    if len(lines) != planned:
        problems.append(f"{len(lines)} records, {planned} planned")
    for n, raw in enumerate(lines, 1):
        try:
            text = raw.decode("utf-8")
            again = json.dumps(
                TransferRecord.from_dict(json.loads(text)).to_dict(), sort_keys=True
            )
        except (UnicodeDecodeError, ValueError, TypeError, KeyError) as exc:
            problems.append(f"record {n} does not decode: {exc}")
            continue
        if again != text:
            problems.append(f"record {n} does not round-trip")
    if pinned is not None and digest != pinned:
        problems.append(f"sha256 {digest} differs from the pinned {pinned}")
    return digest, problems
