"""Where a result was measured: host, toolchain and source revision.

Results from different hosts or revisions must never be compared
silently, so every result carries this block and the compare command
refuses to pair results whose hosts differ.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from typing import Dict


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_digest(root: str) -> str:
    """sha256 over every ``.py`` file under ``src/``, path and content.

    Identifies the measured code where no git metadata exists (an exported
    checkout), and also catches uncommitted edits.
    """
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(root: str) -> Dict[str, object]:
    """The environment block every result carries."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(root),
        "source_sha256": source_digest(root),
    }
