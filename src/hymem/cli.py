"""Command-line front end.

Builds a system from a stock name or a JSON config, runs simulations or
certificate checks, and writes deterministic CSV/JSON artifacts.  Exit
codes: 0 success with no violations, 1 violations found, 2 usage or config
error, 3 runtime error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from .builtin import (example1_halanay_certificate,
                      example1_razumikhin_certificate,
                      example2_krasovskii_certificate)
from .certificates import (CertificateValidationError, check_halanay,
                           check_kl_envelope, check_krasovskii,
                           check_razumikhin)
from .hybrid_time import constant_memory_arc, write_arc_csv
from .sampling import ArcSampler
from .solver import SimOptions, Trajectory, run_summary, simulate
from .system import (ConfigError, Example1Params, Example2Params, SystemSpec,
                     TargetSet, build_example1, build_example2,
                     build_linear_delay_system, history_from_config,
                     parse_linear_delay_config)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs; exactly one system source."""

    command: str
    system: str | None = None
    config_path: str | None = None
    overrides: tuple[str, ...] = ()
    t_max: float | None = None
    j_max: int | None = None
    step: float | None = None
    jump_priority: str | None = None
    samples: int = 1000
    seed: int = 0
    slack: float | None = None
    sampler_mode: str = "reachable"
    history: str | None = None
    out: str | None = None
    report: str | None = None
    plot_out: str | None = None
    trajectories: int = 20
    eps_grid: tuple[float, ...] = (0.01, 0.1, 1.0)
    eta_grid: tuple[float, ...] = (0.25, 0.5, 1.0)


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like key=value")
    key, raw = item.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {item!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _apply_dotted(doc: dict, key: str, value: object) -> None:
    parts = key.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"override path {key!r} does not exist in the config")
        node = node[part]
    if not isinstance(node, dict):
        raise ConfigError(f"override path {key!r} does not reach an object field")
    node[parts[-1]] = value


def _build_system(cfg: RunConfig):
    """Returns (kind, params_or_cfg, spec, target, extras)."""
    if (cfg.system is None) == (cfg.config_path is None):
        raise ConfigError("exactly one of --system and --config is required")
    overrides = [_parse_override(o) for o in cfg.overrides]
    if cfg.system is not None:
        if cfg.system == "example1":
            params = Example1Params.paper()
        elif cfg.system == "example2":
            params = Example2Params.case2()
        else:
            raise ConfigError(f"unknown system {cfg.system!r}; "
                              "expected 'example1' or 'example2'")
        fields = {f.name for f in dataclasses.fields(params)}
        updates = {}
        for key, value in overrides:
            if key not in fields:
                raise ConfigError(f"unknown parameter {key!r} for {cfg.system}")
            updates[key] = value
        if updates:
            params = dataclasses.replace(params, **updates)
        if cfg.system == "example1":
            spec, target = build_example1(params)
        else:
            spec, target = build_example2(params)
        return cfg.system, params, spec, target, {}
    with open(cfg.config_path) as fh:
        doc = json.load(fh)
    for key, value in overrides:
        _apply_dotted(doc, key, value)
    ld_cfg, extras = parse_linear_delay_config(doc)
    spec, target = build_linear_delay_system(ld_cfg)
    return "linear_delay", ld_cfg, spec, target, extras


def _sim_options(cfg: RunConfig, spec: SystemSpec, extras: dict) -> SimOptions:
    """Each option from its flag, else the config's sim section, else the
    SimOptions default (the step defaults to min(period / 40, 0.01))."""
    sim = extras.get("sim", {})
    period = spec.meta.get("period")
    step = cfg.step if cfg.step is not None else sim.get("step")
    if step is None:
        step = min(period / 40.0, 1e-2) if period else 1e-2
    chosen = {}
    for name, cast in (("t_max", float), ("j_max", int), ("jump_priority", str)):
        value = getattr(cfg, name)
        if value is None:
            value = sim.get(name)
        if value is not None:
            chosen[name] = cast(value)
    return SimOptions(step=float(step), **chosen)


def _initial_history(cfg: RunConfig, spec: SystemSpec, extras: dict,
                     opts: SimOptions):
    if cfg.history is not None:
        value = np.array([float(x) for x in cfg.history.split(",")])
        if value.shape != (spec.dimension,):
            raise ConfigError(f"--history needs {spec.dimension} components")
    elif "initial_history" in extras:
        return history_from_config(extras["initial_history"], spec)
    else:
        value = np.ones(spec.dimension)
        clock = spec.meta.get("clock_index")
        if clock is not None:
            value[clock] = 0.0
    return constant_memory_arc(value, spec.memory_size,
                               depth=spec.memory_size + 0.5,
                               grid_step=opts.step * 4)


def emit_plot_data(traj: Trajectory, target: TargetSet, out: str) -> None:
    """Write (t+j, |x(t,j)|_W) pairs with per-jump markers to a CSV file."""
    jump_set = {(t, j) for (t, j) in traj.jumps}
    lines = ["t_plus_j,dist_w,is_jump"]
    for t, j, x in traj.sample_points():
        marker = 1 if (t, j) in jump_set or (t, j - 1) in jump_set else 0
        lines.append(f"{t + j!r},{float(target.dist(x))!r},{marker}")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        click.echo(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        kind, params, spec, target, extras = _build_system(cfg)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG

    try:
        if cfg.command == "simulate":
            opts = _sim_options(cfg, spec, extras)
            init = _initial_history(cfg, spec, extras, opts)
            traj = simulate(spec, init, opts)
            if cfg.out:
                write_arc_csv(traj.arc, cfg.out)
            _write_json(run_summary(traj, target), cfg.report)
            if cfg.plot_out:
                emit_plot_data(traj, target, cfg.plot_out)
            return EXIT_OK

        if cfg.command in ("check-razumikhin", "check-halanay",
                           "check-krasovskii"):
            if kind == "example1" and cfg.command == "check-razumikhin":
                cert, info = example1_razumikhin_certificate(params)
                checker = check_razumikhin
            elif kind == "example1" and cfg.command == "check-halanay":
                cert, info = example1_halanay_certificate(params)
                checker = check_halanay
            elif kind == "example2" and cfg.command == "check-krasovskii":
                cert, info = example2_krasovskii_certificate(params)
                checker = check_krasovskii
            else:
                click.echo(f"config error: no stock certificate for "
                           f"{cfg.command} on system {kind!r}", err=True)
                return EXIT_CONFIG
            sampler = ArcSampler(spec, seed=cfg.seed, mode=cfg.sampler_mode)
            report = checker(spec, cert, sampler, slack=cfg.slack,
                             samples=cfg.samples, target=target)
            _write_json(report.to_json_dict(), cfg.report)
            return EXIT_OK if report.passed else EXIT_VIOLATIONS

        if cfg.command == "check-kl":
            opts = _sim_options(cfg, spec, extras)
            rng_root = np.random.SeedSequence((cfg.seed, 4097))
            trajs = []
            clock = spec.meta.get("clock_index")
            for child in rng_root.spawn(cfg.trajectories):
                rng = np.random.Generator(np.random.Philox(child))
                v = rng.normal(size=spec.dimension)
                if clock is not None:
                    v[clock] = 0.0
                norm = np.linalg.norm(v)
                if norm > 0:
                    v = v / norm * rng.uniform(0.05, max(cfg.eta_grid))
                init = constant_memory_arc(v, spec.memory_size,
                                           depth=spec.memory_size + 0.5,
                                           grid_step=opts.step * 4)
                trajs.append(simulate(spec, init, opts))
            report = check_kl_envelope(trajs, target, cfg.eps_grid, cfg.eta_grid)
            _write_json(report.to_json_dict(), cfg.report)
            return EXIT_OK if report.passed else EXIT_VIOLATIONS

        raise ValueError(f"unknown command {cfg.command!r}")
    except (ConfigError, CertificateValidationError) as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"runtime error: {exc}", err=True)
        return EXIT_RUNTIME


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

_system_options = [
    click.option("--system", type=click.Choice(["example1", "example2"]),
                 default=None, help="Stock system."),
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="Linear-delay system config (JSON)."),
    click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                 help="Parameter override (JSON value; dotted path for configs)."),
    click.option("--report", type=click.Path(), default=None,
                 help="Write the JSON report here instead of stdout."),
]

# Only the commands that draw random arcs or initial states take a seed.
_seed_option = click.option("--seed", type=int, default=0, show_default=True,
                            help="Seed of the sampled arcs or initial states.")

_sim_flag_options = [
    click.option("--t-max", type=float, default=None,
                 help="Time horizon (default: the config's sim.t_max, else "
                      "the solver default)."),
    click.option("--j-max", type=int, default=None,
                 help="Jump horizon (default: the config's sim.j_max, else "
                      "the solver default)."),
    click.option("--step", type=float, default=None,
                 help="Integrator step (default: the config's sim.step, else "
                      "min(period/40, 0.01), or 0.01 without a jump period)."),
    click.option("--jump-priority", type=click.Choice(["jump", "flow"]),
                 default=None,
                 help="Branch taken in both sets (default: the config's "
                      "sim.jump_priority, else the solver default)."),
]

_check_options = [
    click.option("--samples", type=int, default=1000, show_default=True),
    click.option("--slack", type=float, default=None,
                 help="Override both condition slacks."),
    click.option("--sampler-mode", type=click.Choice(["reachable", "cover", "both"]),
                 default="reachable", show_default=True),
]


def _add(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@click.group()
def main():
    """Simulate hybrid systems with memory and check stability certificates."""


@main.command("simulate")
@_add(_system_options)
@_add(_sim_flag_options)
@click.option("--history", default=None,
              help="Constant initial history, comma-separated components.")
@click.option("--out", type=click.Path(), default=None,
              help="Trajectory CSV path.")
@click.option("--plot-out", type=click.Path(), default=None,
              help="(t+j, |x|_W) plot-data CSV path.")
def cmd_simulate(system, config_path, overrides, report, t_max, j_max,
                 step, jump_priority, history, out, plot_out):
    """Integrate one solution and write its trajectory and summary."""
    cfg = RunConfig(command="simulate", system=system, config_path=config_path,
                    overrides=tuple(overrides), report=report,
                    t_max=t_max, j_max=j_max, step=step,
                    jump_priority=jump_priority, history=history, out=out,
                    plot_out=plot_out)
    sys.exit(run(cfg))


def _check_command(name: str, doc: str):
    @main.command(name, help=doc)
    @_add(_system_options)
    @_seed_option
    @_add(_check_options)
    def cmd(system, config_path, overrides, report, seed, samples, slack,
            sampler_mode):
        cfg = RunConfig(command=name, system=system, config_path=config_path,
                        overrides=tuple(overrides), seed=seed, report=report,
                        samples=samples, slack=slack, sampler_mode=sampler_mode)
        sys.exit(run(cfg))

    return cmd


_check_command("check-razumikhin",
               "Check the threshold certificate on sampled arcs.")
_check_command("check-halanay",
               "Check the linear-form certificate on sampled arcs.")
_check_command("check-krasovskii",
               "Check the functional certificate on sampled arcs.")


@main.command("check-kl")
@_add(_system_options)
@_seed_option
@_add(_sim_flag_options)
@click.option("--trajectories", type=int, default=20, show_default=True)
@click.option("--eps-grid", default="0.01,0.1,1.0", show_default=True)
@click.option("--eta-grid", default="0.25,0.5,1.0", show_default=True)
def cmd_check_kl(system, config_path, overrides, report, seed, t_max, j_max,
                 step, jump_priority, trajectories, eps_grid, eta_grid):
    """Empirical boundedness and attractivity over a trajectory bundle."""
    cfg = RunConfig(command="check-kl", system=system, config_path=config_path,
                    overrides=tuple(overrides), seed=seed, report=report,
                    t_max=t_max, j_max=j_max, step=step,
                    jump_priority=jump_priority, trajectories=trajectories,
                    eps_grid=tuple(float(x) for x in eps_grid.split(",")),
                    eta_grid=tuple(float(x) for x in eta_grid.split(",")))
    sys.exit(run(cfg))


if __name__ == "__main__":
    main()
