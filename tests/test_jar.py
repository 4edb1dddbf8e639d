"""How the ``ReproSum`` jar is built: the same guarantees as the C kernels'
build in ``test_kernels.py``."""
import functools
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import repro
from repro.spark import _jar

_CLASS_FILE = "repro/spark/ReproSum.class"

_LOAD = """
import sys
from pathlib import Path
from repro.spark import _jar
print(_jar._artifact(Path(sys.argv[1])))
"""


def _complete(jar: Path) -> bool:
    with zipfile.ZipFile(jar) as z:
        return z.testzip() is None and _CLASS_FILE in z.namelist()


def test_concurrent_first_loads_share_one_artifact(tmp_path):
    """Four processes load from an empty cache at once: each compiles into
    a temporary directory and renames its jar into place, so every one
    of them returns a complete jar, and no temporary file is left."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    procs = [subprocess.Popen([sys.executable, "-c", _LOAD, str(tmp_path)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(4)]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0] * 4, [err for _, err in outs]
    paths = {out.strip() for out, _ in outs}
    assert len(paths) == 1
    jar = Path(paths.pop())
    assert sorted(os.listdir(tmp_path)) == [jar.name]
    assert _complete(jar)


def test_second_load_reuses_artifact(tmp_path, monkeypatch):
    jar = _jar._artifact(tmp_path)

    def no_compile(*a, **kw):
        raise AssertionError("recompiled")

    monkeypatch.setattr(subprocess, "run", no_compile)
    assert _jar._artifact(tmp_path) == jar


def test_changed_source_gives_new_artifact(tmp_path, monkeypatch):
    old = _jar._artifact(tmp_path / "cache")
    src = tmp_path / "ReproSum.java"
    src.write_text(_jar._SRC.read_text() + "\n// changed\n")
    monkeypatch.setattr(_jar, "_SRC", src)
    new = _jar._artifact(tmp_path / "cache")
    assert new != old and new.exists() and old.exists()
    assert _complete(new)


def test_missing_javac_names_the_command(tmp_path, monkeypatch):
    _jar._javac_version()  # probed while javac is on PATH
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(RuntimeError, match=r"javac on PATH .* javac --release 17 .*"
                                           r"could not start"):
        _jar._artifact(tmp_path / "cache")
    assert os.listdir(tmp_path / "cache") == []  # no temporary file left
    # a fresh process probes the version first
    monkeypatch.setattr(_jar, "_javac_version",
                        functools.cache(_jar._javac_version.__wrapped__))
    with pytest.raises(RuntimeError, match=r"javac -version could not start"):
        _jar._artifact(tmp_path / "cache")
