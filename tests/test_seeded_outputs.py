"""Seeded outputs pinned in the repository.

``seeded_outputs.json`` holds the output digests of the three benchmark
workloads (``perfbench/workloads.py``) at seeds 1-3: each one's report
digest, and the delay-horizon CSV digest.  It also holds the byte outputs
of criterion 7's five CLI commands (``tests/test_acceptance.py``): each
one's JSON report, and the trajectory and plot-data CSVs of ``simulate``.
A change that moves one must say why and rewrite the file:

    PYTHONPATH=src python tests/test_seeded_outputs.py --write

Digests depend on numpy (example 1's ``worst_margin`` comes from a matrix
product), so they are compared only under the Python (major.minor) and
numpy versions they were recorded with; elsewhere the test skips and says
so.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hymem.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "seeded_outputs.json"
SEEDS = (1, 2, 3)

#: Criterion 7's commands, by name.
CLI_COMMANDS = {
    "simulate": ["simulate", "--system", "example1", "--t-max", "2"],
    "check-razumikhin": ["check-razumikhin", "--system", "example1",
                         "--samples", "200", "--seed", "0"],
    "check-halanay": ["check-halanay", "--system", "example1", "--samples", "200",
                      "--seed", "0"],
    "check-krasovskii": ["check-krasovskii", "--system", "example2", "--samples",
                         "200", "--seed", "0", "--sampler-mode", "both"],
    "check-kl": ["check-kl", "--system", "example2", "--t-max", "4",
                 "--trajectories", "5", "--seed", "0"],
}

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def versions() -> dict:
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__}


def digests(name: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[name](seed)
    return wl.digests(wl.run(wl.spec))


def cli_digests(name: str) -> dict:
    """sha256 of each file the command writes: its report, and for
    ``simulate`` the trajectory (csv) and plot-data (plot) CSVs."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"report": Path(tmp, "report.json")}
        args = CLI_COMMANDS[name] + ["--report", str(files["report"])]
        if name == "simulate":
            files |= {"csv": Path(tmp, "out.csv"), "plot": Path(tmp, "plot.csv")}
            args += ["--out", str(files["csv"]), "--plot-out", str(files["plot"])]
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code in (0, 1), result.output
        return {key: hashlib.sha256(path.read_bytes()).hexdigest()
                for key, path in files.items()}


def pinned() -> dict:
    record = json.loads(PINNED.read_text())
    here = versions()
    if here != record["versions"]:
        pytest.skip(f"digests were recorded under {record['versions']}, "
                    f"this is {here}")
    return record


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeded_outputs_match_the_pinned_digests(name, seed):
    assert digests(name, seed) == pinned()["digests"][name][str(seed)]


@pytest.mark.parametrize("name", list(CLI_COMMANDS))
def test_cli_outputs_match_the_pinned_digests(name):
    assert cli_digests(name) == pinned()["cli"][name]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    PINNED.write_text(json.dumps({
        "versions": versions(),
        "digests": {name: {str(seed): digests(name, seed) for seed in SEEDS}
                    for name in workloads.WORKLOADS},
        "cli": {name: cli_digests(name) for name in CLI_COMMANDS}}, indent=1) + "\n")
