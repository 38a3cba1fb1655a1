"""The example scripts run end to end.

Each example runs in its own interpreter with ``src`` on the path, the
way a reader runs it, and must exit 0 within the timeout.  Examples that
check their own results (byte-exact recovery) raise on a mismatch.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = [
    "bulk_distribution",
    "streaming_server",
    "lossy_relay",
    "live_streaming",
    "quickstart",
]


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
