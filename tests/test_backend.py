"""The kernel module and the names the benchmark harness binds."""

import specpack
from specpack import backend, bessel


class TestBenchmarkContract:
    """Names the benchmark harness binds: ``specpack.BACKEND`` in its setup
    probe, ``specpack.backend.kernels`` and ``bessel._KIND_CODE`` in its
    tracer."""

    def test_backend_recorded(self):
        assert specpack.BACKEND == "python"
        assert specpack.BACKEND == backend.kernels.BACKEND

    def test_kernels_expose_traced_names(self):
        for name in ("bessel_j", "bessel_j_prime", "spherical_j_prime", "next_zero"):
            assert callable(getattr(backend.kernels, name))
        for name in ("KIND_BESSEL_PRIME", "KIND_BESSEL", "KIND_SPHERICAL_PRIME"):
            assert isinstance(getattr(backend.kernels, name), int)

    def test_kind_codes_cover_kinds(self):
        assert set(bessel._KIND_CODE) == set(bessel.KINDS)
