"""Each benchmark workload builds, prepares and passes its own checks for one round.

The workloads call program paths no other test builds (`sweep_pipeline`,
`enumerate_planted`), so a broken one would otherwise first show as a
refused benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(PERFBENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_passes_every_check(name):
    _functions, api = run.load_program()
    wl = workloads.WORKLOADS[name](api, 0)
    wl.prepare()
    for op in wl.ops:
        assert op.check(op.run(api)) is None, op.kind
