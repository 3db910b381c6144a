"""Smoke test of the benchmark harness: `perfbench/selftest.py` must pass.

The self-test runs every workload of BENCHMARK.json at tiny sizes, with
tracing off and on, and checks each run's outputs and declared metrics. It
has no timing bound. Running it here guards the call shapes the tracer
reads from the package, such as `train_step(state, ds, batch)` and
`hap_surrogate(scores, relevance, ...)`: a change to one of them fails this
test instead of the next benchmark run. It takes about 15 s on two cores.

The harness still imports scipy in `perfbench/run.py` (`environment()`),
which the package no longer depends on, so this test fails where scipy is
missing. That import can only be dropped by a change to the benchmark
itself; the test is left to fail rather than skipped there.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
