"""Command-line front end.

Builds a system from a stock name or a JSON config, runs simulations or
certificate checks, and writes deterministic CSV/JSON artifacts.

Every command takes ``--set`` and ``--report``.  ``simulate`` and
``check-kl`` take ``--system`` or ``--config`` and the simulation flags
(``--t-max``, ``--j-max``, ``--step``, ``--jump-priority``); ``simulate``
adds ``--history``, ``--out`` and ``--plot-out``, ``check-kl`` adds
``--seed``, ``--trajectories``, ``--eps-grid`` and ``--eta-grid``.  The
check commands take ``--seed``, ``--samples``, ``--slack`` and
``--sampler-mode``, and only the stock system that has their certificate:
``--system example1`` for ``check-razumikhin`` and ``check-halanay``,
``--system example2`` for ``check-krasovskii``.

Each command reads all of its input (system, overrides, options, initial
history, stock certificate) before it runs anything, so malformed input
exits 2 with ``config error: ...`` and writes nothing.  Exit codes: 0
success with no violations, 1 violations found, 2 usage or config error
(also a certificate that fails its screening), 3 runtime error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager

import click
import numpy as np

from .builtin import (example1_halanay_certificate,
                      example1_razumikhin_certificate,
                      example2_krasovskii_certificate)
from .certificates import (CertificateValidationError, check_halanay,
                           check_kl_envelope, check_krasovskii,
                           check_razumikhin)
from .hybrid_time import HybridMemoryArc, write_arc_csv
from .sampling import ArcSampler
from .solver import SimOptions, Trajectory, run_summary, simulate
from .system import (ConfigError, Example1Params, Example2Params, SystemSpec,
                     TargetSet, _number, build_example1, build_example2,
                     build_linear_delay_system, constant_history,
                     history_from_config, parse_linear_delay_config)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


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


_STOCK_SYSTEMS = {"example1": (Example1Params.paper, build_example1),
                  "example2": (Example2Params.case2, build_example2)}


def _build_system(system: str | None, config_path: str | None,
                  overrides: tuple[str, ...]):
    """Returns (params_or_cfg, spec, target, extras)."""
    if (system is None) == (config_path is None):
        raise ConfigError("exactly one of --system and --config is required")
    pairs = [_parse_override(o) for o in overrides]
    if system is not None:
        default_params, build = _STOCK_SYSTEMS[system]
        params = default_params()
        fields = {f.name for f in dataclasses.fields(params)}
        updates = {}
        for key, value in pairs:
            if key not in fields:
                raise ConfigError(f"unknown parameter {key!r} for {system}")
            updates[key] = value
        if updates:
            params = dataclasses.replace(params, **updates)
        spec, target = build(params)
        return params, spec, target, {}
    with open(config_path) as fh:
        doc = json.load(fh)
    for key, value in pairs:
        _apply_dotted(doc, key, value)
    ld_cfg, extras = parse_linear_delay_config(doc)
    spec, target = build_linear_delay_system(ld_cfg)
    return ld_cfg, spec, target, extras


def _sim_options(spec: SystemSpec, extras: dict, t_max: float | None,
                 j_max: int | None, step: float | None,
                 jump_priority: str | None) -> SimOptions:
    """Each option from its flag, else the config's sim section, else the
    SimOptions default (the step defaults to min(period / 40, 0.01))."""
    sim = extras.get("sim", {})
    period = spec.meta.get("period")
    chosen = {}
    for name, value, read in (
            ("step", step, _number), ("t_max", t_max, _number),
            ("j_max", j_max, lambda x, where: _number(x, where, integer=True)),
            ("jump_priority", jump_priority, lambda x, where: str(x))):
        if value is None and sim.get(name) is not None:
            value = read(sim[name], f"sim.{name}")
        if value is not None:
            chosen[name] = value
    chosen.setdefault("step", min(period / 40.0, 1e-2) if period else 1e-2)
    return SimOptions(**chosen)


def _initial_history(history: str | None, spec: SystemSpec, extras: dict,
                     opts: SimOptions) -> HybridMemoryArc:
    if history is not None:
        value = np.array([_number(x, "--history") for x in history.split(",")])
        if value.shape != (spec.dimension,):
            raise ConfigError(f"--history needs {spec.dimension} components")
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"--history must be finite, got {history!r}")
    elif "initial_history" in extras:
        return history_from_config(extras["initial_history"], spec, opts.step)
    else:
        value = np.ones(spec.dimension)
        clock = spec.meta.get("clock_index")
        if clock is not None:
            value[clock] = 0.0
    return constant_history(spec, value, opts.step)


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


# Exceptions that exit 2 while a command reads its input, and while it runs.
_READ_ERRORS = (ValueError, TypeError, OSError)
_RUN_ERRORS = (CertificateValidationError,)


@contextmanager
def _exit_on_failure(config_errors):
    """Exit 2 on ``config_errors``, 3 on any other exception."""
    try:
        yield
    except config_errors as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)


_source_options = [
    click.option("--system", type=click.Choice(sorted(_STOCK_SYSTEMS)),
                 default=None, help="Stock system."),
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="Linear-delay system config (JSON)."),
]

_io_options = [
    click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                 help="Parameter override (JSON value; dotted path for configs)."),
    click.option("--report", type=click.Path(), default=None,
                 help="Write the JSON report here instead of stdout."),
]

# Only the commands that draw random arcs or initial states take a seed.
_seed_option = click.option("--seed", type=click.IntRange(0), default=0,
                            show_default=True,
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
    click.option("--samples", type=click.IntRange(1), default=1000, show_default=True),
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
@_add(_source_options)
@_add(_io_options)
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
    with _exit_on_failure(_READ_ERRORS):
        _, spec, target, extras = _build_system(system, config_path, overrides)
        opts = _sim_options(spec, extras, t_max, j_max, step, jump_priority)
        init = _initial_history(history, spec, extras, opts)
    with _exit_on_failure(_RUN_ERRORS):
        traj = simulate(spec, init, opts)
        if out:
            write_arc_csv(traj.arc, out)
        _write_json(run_summary(traj, target), report)
        if plot_out:
            emit_plot_data(traj, target, plot_out)
    sys.exit(EXIT_OK)


def _check_command(name: str, system: str, certificate, checker, doc: str):
    """A check command on the one stock system with that certificate."""
    @main.command(name, help=doc)
    @click.option("--system", "system_name", type=click.Choice([system]),
                  required=True, help="Stock system with this certificate.")
    @_add(_io_options)
    @_seed_option
    @_add(_check_options)
    def cmd(system_name, overrides, report, seed, samples, slack, sampler_mode):
        with _exit_on_failure(_READ_ERRORS):
            if slack is not None and not np.isfinite(slack):
                raise ConfigError(f"--slack must be finite, got {slack}")
            params, spec, target, _ = _build_system(system_name, None, overrides)
            cert, _ = certificate(params)
        with _exit_on_failure(_RUN_ERRORS):
            sampler = ArcSampler(spec, seed=seed, mode=sampler_mode)
            result = checker(spec, cert, sampler, slack=slack,
                             samples=samples, target=target)
            _write_json(result.to_json_dict(), report)
        sys.exit(EXIT_OK if result.passed else EXIT_VIOLATIONS)

    return cmd


_check_command("check-razumikhin", "example1", example1_razumikhin_certificate,
               check_razumikhin, "Check the threshold certificate on sampled arcs.")
_check_command("check-halanay", "example1", example1_halanay_certificate,
               check_halanay, "Check the linear-form certificate on sampled arcs.")
_check_command("check-krasovskii", "example2", example2_krasovskii_certificate,
               check_krasovskii, "Check the functional certificate on sampled arcs.")


@main.command("check-kl")
@_add(_source_options)
@_add(_io_options)
@_seed_option
@_add(_sim_flag_options)
@click.option("--trajectories", type=click.IntRange(1), default=20, show_default=True)
@click.option("--eps-grid", default="0.01,0.1,1.0", show_default=True)
@click.option("--eta-grid", default="0.25,0.5,1.0", show_default=True)
def cmd_check_kl(system, config_path, overrides, report, seed, t_max, j_max,
                 step, jump_priority, trajectories, eps_grid, eta_grid):
    """Empirical boundedness and attractivity over a trajectory bundle."""
    with _exit_on_failure(_READ_ERRORS):
        _, spec, target, extras = _build_system(system, config_path, overrides)
        opts = _sim_options(spec, extras, t_max, j_max, step, jump_priority)
        eps, eta = (tuple(_number(x, flag) for x in grid.split(","))
                    for flag, grid in (("--eps-grid", eps_grid), ("--eta-grid", eta_grid)))
        bad = [v for v in eps + eta if not (np.isfinite(v) and v > 0)]
        if bad:
            raise ConfigError(f"grid values must be positive and finite, got {bad[0]}")
    with _exit_on_failure(_RUN_ERRORS):
        clock = spec.meta.get("clock_index")
        top = max(eta)  # initial sizes are drawn below the largest eta
        trajs = []
        for child in np.random.SeedSequence((seed, 4097)).spawn(trajectories):
            rng = np.random.Generator(np.random.Philox(child))
            v = rng.normal(size=spec.dimension)
            if clock is not None:
                v[clock] = 0.0
            norm = np.linalg.norm(v)
            if norm > 0:
                v = v / norm * rng.uniform(min(0.05, 0.5 * top), top)
            trajs.append(simulate(spec, constant_history(spec, v, opts.step), opts))
        result = check_kl_envelope(trajs, target, eps, eta)
        _write_json(result.to_json_dict(), report)
    sys.exit(EXIT_OK if result.passed else EXIT_VIOLATIONS)


if __name__ == "__main__":
    main()
