"""Every demo runs to the end, and the first prints what it always printed."""
from pathlib import Path

import pytest

from test_cli import run_python

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# demo 01 prints a decode report's `recovered` mapping, so these lines also
# pin that mapping's repr
BATCH_DECODING_LINES = [
    "transfer matrix: [[1, 0], [0, 1], [1, 1], [1, 1]]",
    "rank: 2 outputs: ['dddddddd', 'eeeeeeee']",
    "resolving subsets for the last row: [[1, 2, 3], [1, 3], [2, 3]]",
    "no side info, batched: {}",
    "given packet 0, batched recovers: [1]",
    "payload correct: True",
    "given packet 0, ordinary recovers: []",
]


@pytest.mark.parametrize(
    "demo", ["01_batch_decoding.py", "02_frame_monte_carlo.py", "03_asymptotics.py", "04_rate_design.py"],
)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demo 04 writes its chart to the working directory
    done = run_python(str(DEMOS / demo))
    assert done.returncode == 0, done.stderr
    if demo == "01_batch_decoding.py":
        assert done.stdout.splitlines() == BATCH_DECODING_LINES

