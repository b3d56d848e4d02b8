"""The benchmark harness runs the program through names no other test
covers (`homdeg.kernel.KERNEL_NAME`, `GroebnerEngine.compute`/`add` and
`eng.basis`, `verify.find_dseq_generators`/`is_d_sequence`,
`invariants._duals`/`h0_length`, `ring.degree_cap`); its self-test must
keep passing."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "benchmark/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
