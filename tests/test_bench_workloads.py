"""Smoke test of the benchmark workloads in bench/workloads.py.

Each workload is built at seed 1, its set-up checks are run, and every
operation runs once and is judged by its own check, so a change that breaks
a workload fails here before any timed benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_op_passes_its_check(name):
    w = workloads.build(name, 1)
    assert w.ops
    assert [i for i, check in enumerate(w.setup_checks) if not check()] == []
    assert [(i, op.kind) for i, op in enumerate(w.ops) if not op.check(op.run())] == []
