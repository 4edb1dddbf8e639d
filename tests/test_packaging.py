"""The built package carries the sources its kernels are compiled from,
and every public name it declares."""
import importlib
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_build_ships_the_kernel_sources(tmp_path):
    """``python setup.py build`` of a copy of the project puts
    ``core/_kernels.c`` and ``spark/ReproSum.java`` next to the modules
    that compile them, so an installed package can build its kernels."""
    for name in ("pyproject.toml", "setup.py"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run([sys.executable, "setup.py", "-q", "build"], cwd=tmp_path,
                   check=True, capture_output=True)
    lib = tmp_path / "build" / "lib" / "repro"
    assert (lib / "core" / "_kernels.py").is_file()
    for src in ("core/_kernels.c", "spark/ReproSum.java"):
        assert (lib / src).read_bytes() == (ROOT / "src" / "repro" / src).read_bytes()


def test_every_public_name_resolves():
    """Each name in each module's ``__all__`` under ``repro`` exists."""
    import repro
    names = [(m.name, n) for m in pkgutil.walk_packages(repro.__path__, "repro.")
             for n in getattr(importlib.import_module(m.name), "__all__", ())]
    assert names
    missing = [(m, n) for m, n in names if not hasattr(sys.modules[m], n)]
    assert not missing
