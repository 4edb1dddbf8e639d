"""The ``reprosum`` aggregate (``ReproSum.java``), compiled and loaded into Spark.

The Java source is compiled on first use with ``javac`` into a jar named
by the hash of the source, ``javac -version`` and the PySpark version,
under this package's ``__pycache__``; later loads, in any process, reuse
it. The jar is built in a temporary directory and then renamed into
place, so processes that build it at the same time never see a
half-written file. A session adds the jar once, with ``ADD JAR``, and
loads the class from its own jar class loader; no Spark conf is set. A
JDK's ``javac`` on ``PATH`` is therefore a requirement of
:func:`repro.spark.repro_sum` and :func:`repro.spark.rsum_groupby`; there
is no fallback.
"""
from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pyspark
from py4j.protocol import Py4JJavaError
from pyspark.find_spark_home import _find_spark_home

from ..core.params import FloatFormat

_SRC = Path(__file__).with_name("ReproSum.java")
_CACHE = Path(__file__).with_name("__pycache__")
_CLASS = "repro.spark.ReproSum"
#: the Spark jars the class compiles against, by name prefix
_DEPS = ("spark-sql_", "spark-sql-api_", "spark-catalyst_", "spark-core_",
         "scala-library-", "scala-reflect-")
_JAVAC = ("javac", "--release", "17", "-encoding", "UTF-8")


def _run(cmd: list[str], what: str) -> bytes:
    try:
        return subprocess.run(cmd, check=True, capture_output=True).stdout
    except FileNotFoundError:
        raise RuntimeError(
            f"repro_sum needs a JDK's javac on PATH to build {_SRC.name}: "
            f"{' '.join(cmd)} could not start") from None
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(f"{what} failed: {' '.join(cmd)}\n"
                           f"{exc.stderr.decode(errors='replace')}") from None


def _classpath() -> str:
    """The jars of the Spark that PySpark launches (``SPARK_HOME`` if set)."""
    home = Path(_find_spark_home())
    deps = [str(j) for j in sorted((home / "jars").glob("*.jar"))
            if j.name.startswith(_DEPS)]
    if len(deps) != len(_DEPS):
        raise RuntimeError(f"{home / 'jars'} lacks one of {_DEPS}: {deps}")
    return os.pathsep.join(deps)


@functools.cache
def _javac_version() -> bytes:
    return _run(["javac", "-version"], "javac -version")


def _artifact(cache_dir: Path = _CACHE) -> Path:
    """Path of the compiled jar in ``cache_dir``, compiling if missing."""
    src = _SRC.read_bytes()
    tag = hashlib.sha256(src + _javac_version()
                         + pyspark.__version__.encode()).hexdigest()[:16]
    jar = Path(cache_dir) / f"reprosum-{tag}.jar"
    if jar.exists():
        return jar
    jar.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=jar.parent, prefix=f"{jar.stem}.") as tmp:
        # compile the bytes that were hashed
        (Path(tmp) / _SRC.name).write_bytes(src)
        classes = Path(tmp) / "classes"
        _run([*_JAVAC, "-cp", _classpath(), "-d", str(classes),
              str(Path(tmp) / _SRC.name)], f"compiling {_SRC.name}")
        out = Path(tmp) / jar.name
        with zipfile.ZipFile(out, "w") as z:
            for f in sorted(classes.rglob("*.class")):
                z.write(f, f.relative_to(classes).as_posix())
        os.replace(out, jar)
    return jar


@functools.cache
def _jar() -> Path:
    return _artifact()


def udaf(spark, column: str, fmt: FloatFormat, L: int):
    """A new ``ReproSum`` for one value column, as a py4j object.

    The session adds the jar the first time its class loader misses the
    class."""
    loader = spark._jsparkSession.sharedState().jarClassLoader()
    try:
        cls = loader.loadClass(_CLASS)
    except Py4JJavaError as exc:
        if exc.java_exception.getClass().getName() != "java.lang.ClassNotFoundException":
            raise
        path = str(_jar()).replace("\\", "\\\\").replace("'", "\\'")
        spark.sql(f"ADD JAR '{path}'")
        cls = loader.loadClass(_CLASS)
    gw = spark.sparkContext._gateway
    args = [column, fmt.dtype == np.float32, L, fmt.W, fmt.e_bot_min, fmt.e_top_max]
    jargs = gw.new_array(gw.jvm.java.lang.Object, len(args))
    for i, a in enumerate(args):
        jargs[i] = a
    return cls.getConstructors()[0].newInstance(jargs)
