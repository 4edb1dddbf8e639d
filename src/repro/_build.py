"""The compile-once cache of ``core/_kernels.c`` and ``spark/ReproSum.java``.

Each is built into a file named by the hash of what it is built from, in
a temporary directory beside it, then renamed into place: processes that
build at once never see a half-written file, and later loads reuse it.
"""
from __future__ import annotations

import os
import subprocess
import tempfile
from collections.abc import Callable
from pathlib import Path


def cached(path: Path, build: Callable[[Path], Path]) -> Path:
    """``path``, first built if missing by ``build(tmp)``, which writes
    into the temporary directory ``tmp`` and returns the file it made."""
    path = Path(path)
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=path.parent, prefix=f"{path.stem}.") as tmp:
        os.replace(build(Path(tmp)), path)
    return path


def run(cmd: list[str], what: str, missing: str, stdin: bytes | None = None) -> bytes:
    """``cmd``'s standard output; ``RuntimeError`` naming ``cmd`` after
    ``missing`` if it cannot start, after ``what`` if it fails."""
    try:
        return subprocess.run(cmd, input=stdin, check=True, capture_output=True).stdout
    except FileNotFoundError:
        raise RuntimeError(f"{missing}: {' '.join(cmd)} could not start") from None
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(f"{what} failed: {' '.join(cmd)}\n"
                           f"{exc.stderr.decode(errors='replace')}") from None
