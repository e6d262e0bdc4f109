"""Shared generators for the test suite, and the compiled kernel that the
backend parity tests compare with the pure-Python one."""

import importlib.util
import random
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import pytest

from pqc.morton import Config
from pqc.reference import EpsilonNetSpec, generate_epsilon_net

KERNEL_SOURCE = Path(__file__).resolve().parent.parent / "src" / "pqc" / "_bits_c.c"
_kernel = {"module": None, "dir": None}


def pytest_sessionstart(session):
    """Compile the committed Cython output of the kernel into a temporary
    directory and load it as ``pqc._bits_c``, when gcc and the Python
    headers are present.  It is not put in ``sys.modules`` and nothing is
    written under ``src/``, so the backend that ``pqc`` selected at import
    stays the one every other test runs on; only :func:`compiled_kernel`
    hands it out."""
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not (Path(include) / "Python.h").is_file():
        return
    out = Path(tempfile.mkdtemp(prefix="pqc-kernel-"))
    _kernel["dir"] = out
    target = out / ("_bits_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        [gcc, "-O0", "-shared", "-fPIC", f"-I{include}", str(KERNEL_SOURCE)]
        + ["-o", str(target)],
        capture_output=True,
        text=True,
    )
    if build.returncode:
        warnings.warn(f"compiled kernel not built: {build.stderr[-500:]}")
        return
    spec = importlib.util.spec_from_file_location("pqc._bits_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _kernel["module"] = module


def pytest_sessionfinish(session):
    if _kernel["dir"] is not None:
        shutil.rmtree(_kernel["dir"], ignore_errors=True)


def compiled_kernel():
    """The kernel compiled at session start, or None without a compiler."""
    return _kernel["module"]


def jittered_net(cfg, seed, f0=32, epsilon=0.9, cols=None, rows=None, origin=(0, 0)):
    """Deterministic jittered grid satisfying the epsilon-net clauses.

    By default the grid tiles the whole domain box, which keeps boundary
    Voronoi cells shapely; pass cols/rows to lay a partial grid instead.
    """
    if cols is None:
        spec = EpsilonNetSpec.fill(f0, epsilon, cfg)
    else:
        spec = EpsilonNetSpec(
            f0=f0, epsilon=epsilon, cols=cols, rows=rows or cols, origin=origin
        )
    return generate_epsilon_net(spec, cfg, seed)


def random_points(cfg, seed, n, lo=0, hi=None):
    """n distinct uniform grid points; no spacing guarantees."""
    rng = random.Random(seed)
    hi = cfg.coord_limit if hi is None else hi
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randrange(lo, hi) for _ in range(cfg.d)))
    return sorted(pts)


def clustered_points(cfg, seed, n):
    """n distinct 2D points in tight clumps of mixed spread plus a sparse
    background.  Most Voronoi cells reach past a small multiple of their
    nearest-neighbour distance, so clipped cells are mostly clip-bounded."""
    rng = random.Random(seed)
    lim = cfg.coord_limit
    pts = set()
    while len(pts) < n:
        if rng.random() < 0.1:
            pts.add((rng.randrange(lim), rng.randrange(lim)))
            continue
        cx, cy = rng.randrange(lim), rng.randrange(lim)
        spread = rng.choice((2, 8, 32))
        for _ in range(rng.randint(2, 4)):
            p = (cx + rng.randint(-spread, spread), cy + rng.randint(-spread, spread))
            if 0 <= p[0] < lim and 0 <= p[1] < lim:
                pts.add(p)
    return sorted(pts)[:n]
