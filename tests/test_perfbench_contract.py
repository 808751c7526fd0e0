"""The benchmark in perfbench/ wraps and profiles named library functions.

It finds each wrapped function as ``owner.__dict__[name]`` and keys its
profile on ``Mat2.__mul__`` and ``Mat3.__mul__``, which both resolve to the
one product defined on ``Mat3``, so a refactor that moves or removes it
breaks the benchmark.  Its self-test catches that here rather than in a
benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
