"""Seeded outputs pinned in the repository.

``seeded_outputs.json`` holds the output digests of the three benchmark
workloads (``perfbench/workloads.py``) at seeds 1-3: each one's report
digest, and the delay-horizon CSV digest.  A change that moves one must
say why and rewrite the file:

    PYTHONPATH=src python tests/test_seeded_outputs.py --write

Digests depend on numpy (example 1's ``worst_margin`` comes from a matrix
product), so they are compared only under the Python (major.minor) and
numpy versions they were recorded with; elsewhere the test skips and says
so.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "seeded_outputs.json"
SEEDS = (1, 2, 3)

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def versions() -> dict:
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__}


def digests(name: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[name](seed)
    return wl.digests(wl.run(wl.spec))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeded_outputs_match_the_pinned_digests(name, seed):
    pinned = json.loads(PINNED.read_text())
    here = versions()
    if here != pinned["versions"]:
        pytest.skip(f"digests were recorded under {pinned['versions']}, "
                    f"this is {here}")
    assert digests(name, seed) == pinned["digests"][name][str(seed)]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    PINNED.write_text(json.dumps({
        "versions": versions(),
        "digests": {name: {str(seed): digests(name, seed) for seed in SEEDS}
                    for name in workloads.WORKLOADS}}, indent=1) + "\n")
