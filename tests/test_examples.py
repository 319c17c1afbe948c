"""The examples are the public API's documentation: each must still run.

Every example that takes an instruction count as its one positional
argument runs in a fresh interpreter at a small size, with a private disk
cache and temporary directory, and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = (
    "quickstart",
    "custom_scheduler",
    "memory_hog_attack",
    "priority_qos",
    "scaling_study",
    "campaign_sweep",
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(tmp_path, name):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    # campaign_sweep keeps its store in the temporary directory.
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py"), "10000"],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
