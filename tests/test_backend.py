"""Kernel selection and the twin-kernel API.

The compiled twin is rarely built, so its API is checked from the source of
``_kernels.pyx`` against ``_kernels_py`` on every machine; the numeric
parity test in test_bessel.py runs only where the extension imports.
"""

import inspect
import re
from pathlib import Path

import specpack
from specpack import _kernels_py, backend, bessel

PYX = Path(_kernels_py.__file__).with_name("_kernels.pyx")


def _pyx_api():
    """Module-level ``def`` signatures and constants parsed from the .pyx."""
    text = PYX.read_text(encoding="utf-8")
    defs = {}
    for name, params in re.findall(r"^def (\w+)\((.*?)\):", text, re.M | re.S):
        # "int order, double x" -> ["order", "x"]
        defs[name] = [p.split("=")[0].split()[-1] for p in params.split(",") if p.strip()]
    kinds = {k: int(v) for k, v in re.findall(r"^(KIND_\w+) = (\d+)$", text, re.M)}
    (backend_name,) = re.findall(r'^BACKEND = "(\w+)"$', text, re.M)
    return defs, kinds, backend_name


def _py_api():
    defs = {
        name: list(inspect.signature(fn).parameters)
        for name, fn in vars(_kernels_py).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    }
    kinds = {k: v for k, v in vars(_kernels_py).items() if k.startswith("KIND_")}
    return defs, kinds, _kernels_py.BACKEND


class TestTwinAPI:
    def test_pyx_defs_match_python_twin(self):
        assert _pyx_api()[0] == _py_api()[0]

    def test_pyx_kind_codes_match_python_twin(self):
        kinds = _pyx_api()[1]
        assert kinds == _py_api()[1]
        assert len(set(kinds.values())) == len(kinds)

    def test_backend_names(self):
        assert _pyx_api()[2] == "cython"
        assert _py_api()[2] == "python"


class TestBenchmarkContract:
    """Names the benchmark harness binds: ``specpack.BACKEND`` in its setup
    probe, ``specpack.backend.kernels`` and ``bessel._KIND_CODE`` in its
    tracer."""

    def test_backend_recorded(self):
        assert specpack.BACKEND in ("python", "cython")
        assert specpack.BACKEND == backend.kernels.BACKEND

    def test_kernels_expose_traced_names(self):
        for name in ("bessel_j", "bessel_j_prime", "spherical_j_prime", "next_zero"):
            assert callable(getattr(backend.kernels, name))
        for name in ("KIND_BESSEL_PRIME", "KIND_BESSEL", "KIND_SPHERICAL_PRIME"):
            assert isinstance(getattr(backend.kernels, name), int)

    def test_kind_codes_cover_kinds(self):
        assert set(bessel._KIND_CODE) == set(bessel.KINDS)
