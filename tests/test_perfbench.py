"""The benchmark harness runs each workload once against the source tree.

perfbench binds many library names (the basis-product cache, the oracle's
counts, element equality, the CLI's parser), so a renamed one shows here as
a failed session rather than as a failed benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oracle_count", "algebra_products", "cli_session")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    # a copy, because a traced session writes .perfbench_out/ under its root
    root = tmp_path_factory.mktemp("bench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("mode", ("pass", "traced", "control"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_session_runs_and_only_the_control_fails(tree, workload, mode):
    spec = json.dumps({"mode": mode, "workload": workload, "seed": "1:0"})
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "session.py"), spec],
        cwd=tree,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    if mode == "control":  # the perturbed table must be caught
        assert result["failures"], result["failures"]
    else:
        assert result["failures"] == {}, result["failures"]
    if mode == "traced":
        assert (tree / ".perfbench_out" / f"{workload}.spans").is_file()
