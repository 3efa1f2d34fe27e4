"""CLI behavior: exit codes, schema strictness, reproducibility, artifacts."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hymem
from hymem import cli, system
from hymem.solver import SimOptions

CLI = [sys.executable, "-m", "hymem"]
# the subprocess imports this checkout's package, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(hymem.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


MINIMAL_CONFIG = {"dimension": 1, "memory_size": 0.0, "flow": {"A0": [[-1.0]]}}


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd, timeout=timeout, env=ENV)


class TestSimulate:
    def test_writes_trajectory_and_summary(self, tmp_path):
        out = tmp_path / "traj.csv"
        rep = tmp_path / "sum.json"
        r = run_cli("simulate", "--system", "example1", "--t-max", "2",
                    "--out", str(out), "--report", str(rep))
        assert r.returncode == 0, r.stderr
        doc = json.loads(rep.read_text())
        assert doc["termination"] == "horizon_reached"
        rows = out.read_text().strip().splitlines()
        # columns: t, j, z1, z2, u, tau
        assert all(len(line.split(",")) == 6 for line in rows)
        t_final, j_final = rows[-1].split(",")[:2]
        assert float(t_final) == pytest.approx(2.0, abs=1e-9)
        assert int(j_final) == doc["j_final"]

    def test_history_override(self, tmp_path):
        rep = tmp_path / "s.json"
        r = run_cli("simulate", "--system", "example2", "--t-max", "0.5",
                    "--history", "2,0", "--report", str(rep))
        assert r.returncode == 0
        assert json.loads(rep.read_text())["sup_norm_initial"] == 2.0

    def test_plot_data(self, tmp_path):
        plot = tmp_path / "plot.csv"
        r = run_cli("simulate", "--system", "example1", "--t-max", "3",
                    "--plot-out", str(plot), "--report", str(tmp_path / "r.json"))
        assert r.returncode == 0
        lines = plot.read_text().strip().splitlines()
        assert lines[0] == "t_plus_j,dist_w,is_jump"
        body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.all(np.diff(body[:, 0]) >= 0)       # hybrid time advances
        assert body[-1, 1] < body[0, 1]               # decay
        assert set(body[:, 2]) <= {0.0, 1.0}
        assert np.any(body[:, 2] == 1.0)

    def test_zero_history_plot_is_zero(self, tmp_path):
        plot = tmp_path / "plot.csv"
        r = run_cli("simulate", "--system", "example2", "--t-max", "1",
                    "--history", "0,0", "--plot-out", str(plot),
                    "--report", str(tmp_path / "r.json"))
        assert r.returncode == 0
        body = [ln.split(",") for ln in
                plot.read_text().strip().splitlines()[1:]]
        assert all(abs(float(row[1])) <= 1e-12 for row in body)


class TestExitCodes:
    def test_clean_check_exits_zero(self):
        r = run_cli("check-razumikhin", "--system", "example1",
                    "--samples", "150", "--seed", "0")
        assert r.returncode == 0, r.stderr

    def test_violations_exit_one(self):
        r = run_cli("check-razumikhin", "--system", "example1",
                    "--set", "K=[[0,0]]", "--samples", "150")
        assert r.returncode == 1

    def test_vector_gain_override_form(self):
        # a single-row gain may be written as a flat vector
        r = run_cli("check-razumikhin", "--system", "example1",
                    "--set", "K=[0,0]", "--samples", "150")
        assert r.returncode == 1

    def test_one_sample_is_one_arc(self, tmp_path):
        rep = tmp_path / "check.json"
        r = run_cli("check-razumikhin", "--system", "example1",
                    "--samples", "1", "--report", str(rep))
        assert r.returncode == 0, r.stderr
        assert json.loads(rep.read_text())["samples"] == 1

    def test_unknown_parameter_exits_two(self):
        r = run_cli("simulate", "--system", "example1", "--set", "zeta=3")
        assert r.returncode == 2
        assert "zeta" in r.stderr

    def test_both_sources_exit_two(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        r = run_cli("simulate", "--system", "example1", "--config", str(cfg))
        assert r.returncode == 2

    def test_unknown_config_field_exits_two(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "dimension": 1, "memory_size": 0.0, "flow": {"A0": [[-1.0]]},
            "mystery": True}))
        r = run_cli("simulate", "--config", str(cfg))
        assert r.returncode == 2
        assert "mystery" in r.stderr

    def test_no_stock_certificate_exits_two(self):
        # each check command offers only the stock system with its certificate
        r = run_cli("check-krasovskii", "--system", "example1",
                    "--samples", "50")
        assert r.returncode == 2
        assert "Invalid value for '--system'" in r.stderr

    def test_check_commands_take_no_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(MINIMAL_CONFIG))
        r = run_cli("check-razumikhin", "--config", str(cfg))
        assert r.returncode == 2
        assert "No such option" in r.stderr

    @pytest.mark.parametrize("args, config", [
        (("check-razumikhin", "--system", "example1", "--set", "K=foo"), None),
        (("simulate", "--system", "example1", "--set", "A=foo"), None),
        (("simulate",), {"dimension": "abc"}),
        (("check-kl", "--system", "example1", "--eps-grid", "0.1,x"), None),
        (("check-kl", "--system", "example1", "--eps-grid", "0,0.1"), None),
        (("check-kl", "--system", "example1", "--eta-grid", "-1"), None),
        (("simulate", "--system", "example1", "--step", "0"), None),
        (("simulate", "--system", "example1", "--history", "1,x,0,0"), None),
        (("simulate",), {"sim": {"t_max": "long"}}),
        (("simulate",), {"initial_history": {
            "kind": "samples", "points": [[-1.0, 1.0], [0, "x"]]}}),
        (("simulate", "--system", "example1", "--t-max", "nan"), None),
        (("check-kl", "--system", "example1", "--step", "nan"), None),
        (("check-razumikhin", "--system", "example1", "--slack", "nan"), None),
        (("check-krasovskii", "--system", "example2", "--slack", "inf"), None),
        (("simulate", "--system", "example2", "--history", "nan,0"), None),
        (("simulate", "--system", "example2", "--history", "inf,0"), None),
        (("simulate", "--system", "example2", "--history", "1,nan"), None),
        (("simulate",), {"initial_history": {"kind": "constant",
                                             "value": [float("nan")]}}),
        (("simulate",), {"initial_history": {
            "kind": "samples", "points": [[-1.0, 1.0], [0.0, float("inf")]]}}),
        (("simulate", "--set", "initial_history.value=[NaN]"),
         {"initial_history": {"kind": "constant", "value": [1.0]}}),
        (("simulate", "--system", "example2", "--set", "r=Infinity"), None),
        (("simulate", "--system", "example2", "--set", "delta=NaN"), None),
        (("simulate", "--system", "example2", "--set", "r=NaN"), None),
        (("simulate",), {"memory_size": float("inf")}),
        (("simulate",), {"jump": {"period": float("nan")}}),
        (("simulate", "--system", "example1", "--set", "K=[[Infinity, 0]]"), None),
        (("simulate",), {"flow": {"A0": [[float("nan")]]}}),
        (("simulate", "--system", "example2", "--set", "a=foo"), None),
        (("simulate", "--system", "example1", "--set", "delta=foo"), None),
        (("simulate", "--system", "example1", "--set", "sigma=[1]"), None),
        (("simulate", "--system", "example2", "--set", "a=true"), None),
        (("check-kl", "--system", "example1", "--eta-grid", "0.5,x"), None),
        # refused before the history grid of step * 4 is allocated
        (("simulate", "--system", "example2", "--step", "1e-13", "--t-max", "0.1"),
         None),
        # sampled rows the memory arc of memory size 0.5 cannot hold
        (("simulate",), {"memory_size": 0.5, "initial_history": {
            "kind": "samples", "points": [[-0.5, 1.0], [-0.1, 2.0]]}}),
        (("simulate",), {"memory_size": 0.5, "initial_history": {
            "kind": "samples", "points": [[-0.5, 1.0], [0.0, 2.0], [0.25, 3.0]]}}),
        (("simulate",), {"memory_size": 0.5, "initial_history": {
            "kind": "samples", "points": [[-0.5, 1.0], [1e-13, 2.0]]}}),
        (("simulate",), {"memory_size": 0.5, "initial_history": {
            "kind": "samples", "points": [[-0.5, 1.0], [-5e-13, 2.0], [0.0, 3.0]]}}),
        (("simulate",), {"memory_size": 0.5, "initial_history": {
            "kind": "samples", "points": [[-0.3, 1.0], [0.0, 2.0]]}}),
        (("simulate",), {"memory_size": 0.5, "initial_history": {
            "kind": "samples", "points": [[-1.6, 1.0], [0.0, 2.0]]}}),
    ], ids=["set-K", "set-A", "config-dimension", "eps-grid", "eps-grid-zero",
            "eta-grid-negative", "step-zero", "history", "config-t-max",
            "config-history-point", "t-max-nan", "step-nan", "slack-nan",
            "slack-inf", "history-nan", "history-inf", "history-nan-clock",
            "config-history-nan", "config-history-point-inf",
            "set-config-history-nan", "set-r-inf", "set-delta-nan", "set-r-nan",
            "config-memory-size-inf", "config-period-nan", "set-K-inf",
            "config-A0-nan", "set-a-foo", "set-delta-foo", "set-sigma-list",
            "set-a-bool", "eta-grid-word", "step-below-time-tol",
            "points-no-row-at-zero", "points-row-after-zero",
            "points-row-just-after-zero", "points-two-rows-at-zero",
            "points-too-shallow", "points-too-deep"])
    def test_malformed_input_exits_two(self, tmp_path, request, args, config):
        # read before anything runs: exit 2 with the reason, no traceback
        if config is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({**MINIMAL_CONFIG, **config}))
            args = (*args, "--config", str(cfg))
        r = run_cli(*args, "--report", str(tmp_path / "r.json"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error:")
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "r.json").exists()
        # a non-finite or non-numeric parameter is named with its field
        named = {"set-r-inf": "r must be finite", "set-delta-nan": "delta must be finite",
                 "set-r-nan": "r must be finite",
                 "config-memory-size-inf": "memory_size must be finite",
                 "config-period-nan": "jump.period must be finite",
                 "set-K-inf": "K must be finite", "config-A0-nan": "flow.A0 must be finite",
                 "set-K": "K must be a matrix of numbers, got 'foo'",
                 "set-A": "A must be a matrix of numbers, got 'foo'",
                 "set-a-foo": "a must be a number, got 'foo'",
                 "set-delta-foo": "delta must be a number, got 'foo'",
                 "set-sigma-list": "sigma must be a number, got [1]",
                 "set-a-bool": "a must be a number, got True",
                 # each item of a comma list is read as its flag's number
                 "history": "--history must be a number, got 'x'",
                 "eps-grid": "--eps-grid must be a number, got 'x'",
                 "eta-grid-word": "--eta-grid must be a number, got 'x'",
                 "step-below-time-tol": "step must exceed 1e-12, got 1e-13",
                 }.get(request.node.callspec.id)
        if request.node.callspec.id.startswith("points-"):
            named = "initial_history.points: "
        if named is not None:
            assert r.stderr.startswith(f"config error: {named}"), r.stderr

    @pytest.mark.parametrize("config, message", [
        ({"flow": {"A0": "x"}}, "flow.A0 must be a matrix of numbers, got 'x'"),
        ({"dimension": "two"}, "dimension must be a number, got 'two'"),
        ({"dimension": 1.7}, "dimension must be an integer, got 1.7"),
        ({"memory_size": [0]}, "memory_size must be a number, got [0]"),
        ({"flow": {"A0": [[-1.0]], "delayed": [{"delay": "x", "A": [[1.0]]}]}},
         "flow.delayed[0].delay must be a number, got 'x'"),
        ({"jump": {"period": 1.0, "J0": [["x"]]}},
         "jump.J0 must be a matrix of numbers, got [['x']]"),
        ({"initial_history": {"kind": "constant", "value": "x"}},
         "initial_history.value must be a vector of numbers, got 'x'"),
        ({"initial_history": {"kind": "samples", "points": [[-1.0, 1.0], [0.0]]}},
         "initial_history.points must be rows of numbers"),
        ({"sim": {"step": "x"}}, "sim.step must be a number, got 'x'"),
        ({"sim": {"j_max": 2.9}}, "sim.j_max must be an integer, got 2.9"),
        # JSON booleans are not numbers
        ({"dimension": True}, "dimension must be a number, got True"),
        ({"sim": {"t_max": True}}, "sim.t_max must be a number, got True"),
        ({"flow": {"A0": [[True]]}}, "flow.A0 must be a matrix of numbers, got [[True]]"),
        (("--system", "example1", "--set", "K=[[true, 0]]", "--t-max", "0.1"),
         "K must be a matrix of numbers, got [[True, 0]]"),
    ], ids=["A0", "dimension", "dimension-fraction", "memory-size", "delay", "J0",
            "history-value", "history-points-ragged", "step", "j-max-fraction",
            "dimension-bool", "t-max-bool", "matrix-bool", "override-matrix-bool"])
    def test_config_errors_name_their_field(self, tmp_path, config, message):
        # a tuple is the command line of a stock system, a dict a config
        if isinstance(config, tuple):
            args = config
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({**MINIMAL_CONFIG, **config}))
            args = ("--config", str(cfg))
        r = run_cli("simulate", *args, "--report", str(tmp_path / "r.json"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith(f"config error: {message}"), r.stderr

    @pytest.mark.parametrize("args, config, message", [
        (("--system", "example2", "--history", "nan,0"), None,
         "--history must be finite, got 'nan,0'"),
        (("--set", "initial_history.value=[Infinity]"),
         {"initial_history": {"kind": "constant", "value": [1.0]}},
         "initial_history.value must be finite, got [inf]"),
    ], ids=["history", "config"])
    def test_non_finite_history_names_its_source(self, tmp_path, args, config,
                                                 message):
        # it used to run and exit 3: "window is empty above the depth floor"
        if config is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({**MINIMAL_CONFIG, **config}))
            args = (*args, "--config", str(cfg))
        r = run_cli("simulate", *args, "--t-max", "0.5")
        assert r.returncode == 2
        assert r.stderr.strip() == f"config error: {message}"

    @pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
    def test_open_loop_with_a_non_finite_slack_exits_two(self, slack):
        # the open loop violates the conditions; a NaN slack used to hide
        # every violation and exit 0
        r = run_cli("check-razumikhin", "--system", "example1",
                    "--set", "K=[[0,0]]", "--samples", "200", "--slack", slack)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error: --slack must be finite")

    @pytest.mark.parametrize("args", [
        ("check-razumikhin", "--system", "example1", "--samples", "0"),
        ("check-kl", "--system", "example2", "--trajectories", "0"),
    ], ids=["samples", "trajectories"])
    def test_counts_below_one_exit_two(self, args):
        r = run_cli(*args)
        assert r.returncode == 2
        assert "is not in the range x>=1" in r.stderr

    @pytest.mark.parametrize("args", [
        ("check-razumikhin", "--system", "example1"),
        ("check-kl", "--system", "example1"),
    ], ids=["check-razumikhin", "check-kl"])
    def test_negative_seed_exits_two(self, args):
        r = run_cli(*args, "--seed", "-1")
        assert r.returncode == 2, r.stderr
        assert "is not in the range x>=0" in r.stderr

    def test_small_eta_grid_runs(self):
        # initial sizes are drawn below the largest eta, however small
        r = run_cli("check-kl", "--system", "example2", "--t-max", "1",
                    "--trajectories", "2", "--eta-grid", "0.01")
        assert r.returncode in (0, 1), r.stderr

    def test_failure_while_running_exits_three(self):
        # a well-formed history that starts outside both the flow and jump sets
        r = run_cli("simulate", "--system", "example1", "--history", "1,1,0,0.5")
        assert r.returncode == 3
        assert r.stderr.startswith("runtime error: initial data lies outside both")

    def test_infinite_horizon_without_jumps_exits_three(self, tmp_path):
        # a jump-free system never reaches j_max: the run used to go on until
        # it was killed
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(MINIMAL_CONFIG))
        r = run_cli("simulate", "--config", str(cfg), "--t-max", "inf",
                    timeout=60)
        assert r.returncode == 3
        assert r.stderr.startswith("runtime error: an infinite t_max needs")

    def test_simulate_takes_no_seed(self):
        # simulate draws nothing at random, so a seed would change nothing
        r = run_cli("simulate", "--system", "example1", "--seed", "1")
        assert r.returncode == 2
        assert "No such option '--seed'" in r.stderr

    def test_bad_history_length_exits_two(self):
        r = run_cli("simulate", "--system", "example2", "--history", "1,2,3")
        assert r.returncode == 2


class TestConfigSystems:
    def config_doc(self):
        return {
            "dimension": 1,
            "memory_size": 1.05,
            "flow": {"A0": [[0.5]], "delayed": [{"delay": 0.05, "A": [[0.25]]}]},
            "jump": {"period": 0.1, "J0": [[0.5]]},
            "target_set": "origin_times_clock",
            "initial_history": {"kind": "constant", "value": [1.0, 0.0]},
            "sim": {"t_max": 3.0, "step": 0.002},
        }

    def test_simulate_from_config(self, tmp_path):
        cfg = tmp_path / "sys.json"
        cfg.write_text(json.dumps(self.config_doc()))
        rep = tmp_path / "sum.json"
        r = run_cli("simulate", "--config", str(cfg), "--report", str(rep))
        assert r.returncode == 0, r.stderr
        doc = json.loads(rep.read_text())
        assert doc["jumps"] >= 25
        assert doc["final_distW"] < 1e-3  # contracting resets dominate

    def test_dotted_override(self, tmp_path):
        cfg = tmp_path / "sys.json"
        cfg.write_text(json.dumps(self.config_doc()))
        rep = tmp_path / "sum.json"
        r = run_cli("simulate", "--config", str(cfg), "--set",
                    "jump.J0=[[1.6]]", "--report", str(rep))
        assert r.returncode == 0, r.stderr
        assert json.loads(rep.read_text())["final_distW"] > 1.0

    def test_constant_kind_is_the_history_flag(self, tmp_path):
        # a config's constant history and --history with its value run from
        # one arc: depth memory_size + 0.5 on a grid of 4 steps
        doc = {**MINIMAL_CONFIG, "memory_size": 0.5,
               "flow": {"A0": [[-1.0]], "delayed": [{"delay": 0.5, "A": [[0.5]]}]}}
        outs = []
        for name, extra, args in (
                ("kind", {"initial_history": {"kind": "constant", "value": [1.0]}}, ()),
                ("flag", {}, ("--history", "1.0"))):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**doc, **extra}))
            r = run_cli("simulate", "--config", str(cfg), "--t-max", "1", *args,
                        "--out", str(tmp_path / f"{name}.csv"),
                        "--report", str(tmp_path / f"{name}.json"))
            assert r.returncode == 0, r.stderr
            outs.append(((tmp_path / f"{name}.csv").read_bytes(),
                         (tmp_path / f"{name}.json").read_bytes()))
        assert outs[0] == outs[1]
        first, end = hymem.arc_from_csv(outs[0][0].decode()).levels()[0]
        assert end - first == 26  # samples of the memory side, from s = -1

    @pytest.mark.parametrize("last", [0.0, -1e-13, -hymem.TIME_TOL],
                             ids=["zero", "just-before", "time-tol-before"])
    def test_sampled_history_round_trips_through_the_csv(self, tmp_path, last):
        # a last row within TIME_TOL before s = 0 is taken at s = 0
        points = [[-0.5, 1.0], [-0.123, 3.0], [last, 2.0]]
        cfg, out = tmp_path / "sys.json", tmp_path / "traj.csv"
        cfg.write_text(json.dumps({
            **MINIMAL_CONFIG, "memory_size": 0.5,
            "flow": {"A0": [[-1.0]], "delayed": [{"delay": 0.5, "A": [[0.5]]}]},
            "initial_history": {"kind": "samples", "points": points}}))
        r = run_cli("simulate", "--config", str(cfg), "--t-max", "1",
                    "--out", str(out), "--report", str(tmp_path / "sum.json"))
        assert r.returncode == 0, r.stderr
        text = out.read_text()
        arc = hymem.arc_from_csv(text)
        assert hymem.arc_to_csv(arc) == text
        memory = arc.memory_side(0.5)
        assert np.column_stack((memory.times, memory.values)).tolist() == \
            [[-0.5, 1.0], [-0.123, 3.0], [0.0, 2.0]]
        assert arc.value(-0.123)[0] == 3.0


class TestSimFlags:
    """An explicit flag beats the config's sim section, which beats the
    solver default, also when the flag's value equals that default."""

    def run_config(self, tmp_path, sim, *flags):
        cfg = tmp_path / "sys.json"
        cfg.write_text(json.dumps({
            "dimension": 1, "memory_size": 0.0, "flow": {"A0": [[-1.0]]},
            "jump": {"period": 0.1, "J0": [[0.5]]}, "sim": sim}))
        rep = tmp_path / "sum.json"
        r = run_cli("simulate", "--config", str(cfg), "--report", str(rep),
                    *flags)
        assert r.returncode == 0, r.stderr
        return json.loads(rep.read_text())

    @pytest.mark.parametrize("flags, t_final", [
        ((), 2.0), (("--t-max", "10"), 10.0), (("--t-max", "1"), 1.0)])
    def test_t_max(self, tmp_path, flags, t_final):
        doc = self.run_config(tmp_path, {"t_max": 2.0, "step": 0.05}, *flags)
        assert doc["t_final"] == pytest.approx(t_final, abs=1e-9)

    @pytest.mark.parametrize("jump, step", [
        ({"period": 1.0}, 0.01), ({"period": 0.2}, 0.005), (None, 0.01)],
        ids=["period-1", "period-0.2", "no-jumps"])
    def test_default_step(self, tmp_path, jump, step):
        # min(period / 40, 0.01), and 0.01 without a jump period
        doc = {"dimension": 1, "memory_size": 0.0, "flow": {"A0": [[-1.0]]},
               "sim": {"t_max": 0.1}}
        if jump is not None:
            doc["jump"] = jump
        cfg, out = tmp_path / "sys.json", tmp_path / "traj.csv"
        cfg.write_text(json.dumps(doc))
        r = run_cli("simulate", "--config", str(cfg), "--out", str(out),
                    "--report", str(tmp_path / "sum.json"))
        assert r.returncode == 0, r.stderr
        times = [float(line.split(",")[0])
                 for line in out.read_text().splitlines()]
        forward = np.unique([t for t in times if t >= 0.0])
        assert np.allclose(np.diff(forward), step, rtol=0, atol=1e-12)

    def test_j_max_flag_equal_to_the_default(self, tmp_path):
        sim = {"t_max": 1.0, "step": 0.01, "j_max": 3}
        assert self.run_config(tmp_path, sim)["jumps"] == 3
        doc = self.run_config(tmp_path, sim, "--j-max", "1000000")
        assert doc["jumps"] >= 9


def test_sim_options_are_what_the_flags_and_a_config_set(monkeypatch):
    """SimOptions has exactly the fields _sim_options reads from a config's
    sim section (each one a flag) and that section allows; a field that
    nothing sets fails here."""
    fields = {f.name for f in dataclasses.fields(SimOptions)}
    read, allowed = set(), []

    class Recorded(dict):
        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    spec, _ = system.build_example2(system.Example2Params.case2())
    cli._sim_options(spec, {"sim": Recorded()}, None, None, None, None)

    def recording(d, where, names):
        if where == "sim":
            allowed.append(names)
        return d

    monkeypatch.setattr(system, "_object", recording)
    system.parse_linear_delay_config({**MINIMAL_CONFIG, "sim": {}})
    assert read == fields and allowed == [fields]


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("simulate", "--system", "example1", "--t-max", "2"),
        ("check-razumikhin", "--system", "example1", "--samples", "120",
         "--seed", "1"),
        ("check-krasovskii", "--system", "example2", "--samples", "120",
         "--seed", "1", "--sampler-mode", "both"),
        ("check-kl", "--system", "example2", "--t-max", "4",
         "--trajectories", "4", "--seed", "2"),
    ], ids=["simulate", "razumikhin", "krasovskii", "kl"])
    def test_byte_identical_outputs(self, tmp_path, args):
        outs = []
        for i in (1, 2):
            rep = tmp_path / f"r{i}.json"
            extra = ["--report", str(rep)]
            if args[0] == "simulate":
                extra += ["--out", str(tmp_path / f"t{i}.csv")]
            r = run_cli(*args, *extra)
            assert r.returncode in (0, 1), r.stderr
            payload = rep.read_bytes()
            if args[0] == "simulate":
                payload += (tmp_path / f"t{i}.csv").read_bytes()
            outs.append(payload)
        assert outs[0] == outs[1]
