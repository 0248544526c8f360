"""The kernel module and the names the benchmark harness binds."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import specpack
from specpack import backend, bessel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

    def test_tracer_runs_certify(self, tmp_path, monkeypatch):
        # the tracer run as a script, in a fresh interpreter: it installs its
        # wrappers (each raises if the name it binds is gone), runs the CLI
        # and writes the record that its per-layer metrics read
        out = tmp_path / "trace.json"
        cp = subprocess.run(
            [sys.executable, str(PERFBENCH / "tracer.py"), str(out), "certify", "--n", "22"],
            capture_output=True,
            text=True,
        )
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == (PERFBENCH / "reference" / "certify_n22.txt").read_text()
        record = json.loads(out.read_text())
        names = {span[0] for span in record["spans"]}
        assert {"cli.main", "kernels.next_zero", "bessel.positive_zero"} <= names
        assert record["tables"]["bessel_prime"]["zeros"] > 0

        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache in perfbench/
        spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        metrics = tracer.pass_metrics([record], wall_s=1.0)
        assert set(metrics) == set(tracer.METRICS)
