"""Command-line entry points.

Subcommands: ``generate``, ``invert``, ``edit``, ``sweep``, ``demo`` produce
CSV artifacts (plus SVG scatter plots for two-dimensional models) in the
configured output directory; ``serve`` exposes the configured model over the
wire protocol.  Every run prints its seed and config digest.  Exit codes:
0 success, 1 validation failure, 2 runtime failure.  Each artifact appears
whole or not at all, and no artifact survives a failed run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .config import (RunConfig, apply_overrides, canonical_json, config_digest)
from .edits import ManipulationConfig, prompt_switches, run_edit
from .errors import ConfigError, ParameterError
from .metrics import (SweepRow, SweepScenario, inversion_report, path_divergence, run_sweep,
                      score_edit, sweep_digest)
from .output import path_csv, svg_scatter, sweep_table_csv, table_csv
from .presets import demo_config_dict, preset_manipulation
from .remote import RemoteDenoiser, serve_stream, serve_tcp
from .rng import standard_normals, substream
from .sampler import ddim_invert, generate
from .schedule import ScheduleSpec, TimestepGrid

DEMO_SCENARIOS = ("prompt-switch", "window-grid", "schedule-grid", "guidance-grid")


class ArtifactWriter:
    """Writes a run's artifacts in the configured formats and lists them for cleanup."""

    def __init__(self, config: RunConfig):
        self.directory = Path(config.output.directory)
        # scatter plots are drawn for planar models only
        self.formats = [f for f in config.output.formats if f != "svg" or config.model.d == 2]
        self.written: list[Path] = []

    def write(self, name: str, render: Callable[[], str]) -> None:
        """Write ``render()`` as ``name`` if its format is on, through a temporary file.

        The temporary file sits in the same directory and then replaces
        ``name``, so no reader ever sees a partial artifact.
        """
        if name.rsplit(".", 1)[1] not in self.formats:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / name
        temp = path.with_name(f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            with open(temp, "x", encoding="utf-8") as out:
                out.write(render())
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        self.written.append(path)


@contextlib.contextmanager
def _artifacts(config: RunConfig, denoiser):
    """Writer for one run's artifacts.

    On failure every file written so far is removed; the denoiser is closed
    either way; on success the seed, config digest and written files are
    announced.
    """
    writer = ArtifactWriter(config)
    try:
        yield writer
    except BaseException:
        for path in writer.written:
            path.unlink(missing_ok=True)
        raise
    finally:
        close = getattr(denoiser, "close", None)
        if close is not None:
            close()
    print(f"seed={config.seed} config_digest={config_digest(config)}")
    for path in writer.written:
        print(f"wrote {path}")


def _load_config(args) -> RunConfig:
    if args.config is not None:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
    else:
        data = demo_config_dict()
    if getattr(args, "preset", None):
        manip = preset_manipulation(args.preset)
        base = data.get("manipulation", {})
        manip.setdefault("condition_a", base.get("condition_a", "a"))
        manip.setdefault("condition_b", base.get("condition_b", "b"))
        data["manipulation"] = manip
    apply_overrides(data, args.set or [])
    if getattr(args, "output", None):
        data.setdefault("output", {})["directory"] = args.output
    return RunConfig.from_dict(data)


def _pick_denoiser(args, config: RunConfig):
    """The configured analytic model, or a protocol peer when --remote is given."""
    spec = getattr(args, "remote", None)
    if not spec:
        return config.build_denoiser()
    d, m = config.model.d, config.model.m
    if spec.startswith("tcp:"):
        try:
            _, host, port = spec.split(":")
            port = int(port)
        except ValueError as err:
            raise ConfigError(f"bad --remote address {spec!r}: {err}") from err
        return RemoteDenoiser.from_address(host, port, d, m)
    if spec.startswith("cmd:"):
        import shlex
        argv = shlex.split(spec[4:])
        if not argv:
            raise ConfigError("--remote cmd: needs a command line")
        return RemoteDenoiser.from_command(argv, d, m)
    raise ConfigError("--remote must be 'tcp:HOST:PORT' or 'cmd:ARGV...'")


def _latent_steps(grid: TimestepGrid):
    """Sampling step and training level of each latent of a generation path."""
    return list(range(grid.t_sample, -1, -1)), [*grid.steps, 0]


def _condition(config: RunConfig, name: str):
    conditions = config.build_conditions()
    if name not in conditions:
        raise ConfigError(f"unknown condition {name!r}")
    return conditions[name]


def cmd_generate(args) -> int:
    config = _load_config(args)
    denoiser = _pick_denoiser(args, config)
    with _artifacts(config, denoiser) as writer:
        c = _condition(config, args.condition)
        sampling, levels = _latent_steps(config.grid)
        x_top = standard_normals(substream(config.seed, "x_top"), config.model.d)
        path = generate(denoiser, x_top, c, config.grid, config.noise_schedule)
        writer.write("path.csv", lambda: path_csv(path.latents, path.noises,
                                                  sampling, levels, config.seed))
        writer.write("path.svg", lambda: svg_scatter(
            [("trajectory", np.array(path.latents)), ("endpoint", path.x0[None, :])],
            title=f"generation under {args.condition!r} (seed {config.seed})",
            connect=True))
    return 0


def cmd_invert(args) -> int:
    config = _load_config(args)
    denoiser = config.build_denoiser()
    c = _condition(config, args.condition)
    grid, schedule = config.grid, config.noise_schedule
    sampling, levels = _latent_steps(grid)
    x0 = denoiser.sample_clean(c, 1, substream(config.seed, "x0"))[0]
    inv = ddim_invert(denoiser, x0, c, grid, schedule)
    regen = generate(denoiser, inv.x_top, c, grid, schedule)
    rel_err = float(np.linalg.norm(regen.x0 - x0) / np.linalg.norm(x0))
    with _artifacts(config, denoiser) as writer:
        writer.write("inversion.csv", lambda: path_csv(
            inv.latents, inv.noises, sampling[::-1], levels[::-1], config.seed))
        writer.write("reconstruction.csv", lambda: table_csv(
            ["t_sample", "rel_error", "seed"], [[grid.t_sample, rel_err, config.seed]]))
        writer.write("inversion.svg", lambda: svg_scatter(
            [("inversion", np.array(inv.latents)),
             ("regenerated", np.array(regen.latents))],
            title=f"round trip under {args.condition!r} (seed {config.seed})",
            connect=True))
    print(f"round-trip relative error: {rel_err:.6e}")
    return 0


def _edit_setup(config: RunConfig):
    """The configured manipulation and its reference and editing conditions."""
    manip = config.build_manipulation()
    conditions = config.build_conditions()
    return manip, conditions[config.condition_a], conditions[config.condition_b]


def cmd_edit(args) -> int:
    config = _load_config(args)
    denoiser = _pick_denoiser(args, config)
    with _artifacts(config, denoiser) as writer:
        manip, c_a, c_b = _edit_setup(config)
        grid, schedule = config.grid, config.noise_schedule
        x_top = standard_normals(substream(config.seed, "x_top"), config.model.d)
        path_b = generate(denoiser, x_top, c_b, grid, schedule)
        result = run_edit(denoiser, x_top, c_a, c_b, manip, grid, schedule, path_b=path_b)
        row = SweepRow.of(manip, config.seed, score_edit(result, path_b, config.model))
        writer.write("edit.csv", lambda: sweep_table_csv([row]))
        writer.write("edit_profile.csv", lambda: table_csv(
            ["index", "sampling_step", "divergence_from_reference", "seed"],
            [[i, grid.t_sample - i, div, config.seed]
             for i, div in enumerate(path_divergence(result))]))
        writer.write("edit.svg", lambda: svg_scatter(
            [("path A endpoint", result.path_a.x0[None, :]),
             ("path B endpoint", path_b.x0[None, :]),
             ("edited endpoint", result.path.x0[None, :])],
            title=f"{manip.kind} edit (seed {config.seed})"))
    return 0


def _parse_axes(args, config: RunConfig) -> dict:
    axes: dict[str, tuple] = {}
    for item in args.axis or []:
        if "=" not in item:
            raise ConfigError(f"--axis {item!r} is not of the form name=v1,v2,...")
        name, raw = item.split("=", 1)
        values = []
        for chunk in raw.split(","):
            chunk = chunk.strip()
            try:
                values.append(json.loads(chunk))
            except json.JSONDecodeError:
                values.append(chunk)
        axes[name.strip()] = tuple(values)
    return axes or _window_axes(config.grid.t_sample)


def _window_axes(total: int) -> dict:
    """The default sweep and the window-grid demo: window tops by window lengths."""
    return {"t_max": (total, total - 2, total - 4, total - 6, total - 8),
            "t_m": (5, 10, 15, 20, 25)}


def _sweep_and_write(config: RunConfig, denoiser, axes: dict, writer: ArtifactWriter,
                     csv_name: str, svg_name: str) -> tuple[SweepRow, ...]:
    manip, c_a, c_b = _edit_setup(config)
    scenario = SweepScenario(denoiser=denoiser, score_params=config.model,
                             c_a=c_a, c_b=c_b, grid=config.grid,
                             noise_schedule=config.noise_schedule, base=manip)
    rows = run_sweep(scenario, axes, config.seed)
    writer.write(csv_name, lambda: sweep_table_csv(rows))
    writer.write(svg_name, lambda: svg_scatter(
        [("grid points (layout vs alignment)",
          np.array([[row.metrics.layout_preservation, row.metrics.semantic_alignment]
                    for row in rows]))],
        title=f"sweep (seed {config.seed})"))
    return rows


def cmd_sweep(args) -> int:
    config = _load_config(args)
    axes = _parse_axes(args, config)
    denoiser = _pick_denoiser(args, config)
    with _artifacts(config, denoiser) as writer:
        rows = _sweep_and_write(config, denoiser, axes, writer, "sweep.csv", "sweep.svg")
    print(f"rows={len(rows)} sweep_digest="
          f"{sweep_digest(axes, config.build_manipulation(), config.seed)}")
    return 0


def cmd_demo(args) -> int:
    config = _load_config(args)
    total = config.grid.t_sample
    if args.scenario == "guidance-grid":
        config.build_manipulation()  # the scenario keeps the configured conditions
        config = dataclasses.replace(config, manipulation=ManipulationConfig(
            "guidance", ScheduleSpec("constant", 0, total, total), beta=-0.3))
    denoiser = _pick_denoiser(args, config)
    with _artifacts(config, denoiser) as writer:
        if args.scenario == "prompt-switch":
            _, c_a, c_b = _edit_setup(config)
            grid, schedule = config.grid, config.noise_schedule
            x_top = standard_normals(substream(config.seed, "x_top"), config.model.d)
            t = grid.t_sample
            endpoints = [path.x0 for path in prompt_switches(
                denoiser, x_top, c_a, c_b, range(t, -1, -1), grid, schedule)]
            pure_a, pure_b = endpoints[0], endpoints[-1]
            rows = [[k, *x0, float(np.linalg.norm(x0 - pure_a)),
                     float(np.linalg.norm(x0 - pure_b)), config.seed]
                    for k, x0 in zip(range(t, -1, -1), endpoints)]
            header = ["k"] + [f"x{j}" for j in range(config.model.d)] \
                + ["dist_to_pure_a", "dist_to_pure_b", "seed"]
            writer.write("prompt_switch.csv", lambda: table_csv(header, rows))
            writer.write("prompt_switch.svg", lambda: svg_scatter(
                [("switch endpoints", np.array(endpoints)),
                 ("pure A", pure_a[None, :]), ("pure B", pure_b[None, :])],
                title=f"condition switch sweep (seed {config.seed})", connect=True))
        else:
            if args.scenario == "window-grid":
                axes = _window_axes(total)
            elif args.scenario == "schedule-grid":
                axes = {"schedule": ("linear", "cosine", "exponential"),
                        "t_m": (20, 25, 30, 35, 40, 45, 50)}
            else:  # guidance-grid
                axes = {"beta": (0.7, 0.3, 0.0, -0.3, -0.7),
                        "t_m": (10, 20, 30, 40, 50)}
            name = args.scenario.replace("-", "_")
            _sweep_and_write(config, denoiser, axes, writer, f"{name}.csv", f"{name}.svg")
    return 0


def cmd_serve(args) -> int:
    config = _load_config(args)
    denoiser = config.build_denoiser()
    if args.tcp is not None:
        serve_tcp(denoiser, port=args.tcp)
        return 0
    serve_stream(denoiser, sys.stdin, sys.stdout)
    return 0


def cmd_report(args) -> int:
    config = _load_config(args)
    denoiser = config.build_denoiser()
    c = _condition(config, args.condition)
    t_values = tuple(int(v) for v in (args.t_sample or [50, 100, 200]))
    rows = inversion_report(denoiser, c, config.noise_schedule, t_values, args.samples,
                            config.seed)
    with _artifacts(config, denoiser) as writer:
        writer.write("inversion_report.csv", lambda: table_csv(
            ["t_sample", "mean_rel_error", "max_rel_error", "seed"],
            [[r.t_sample, r.mean_rel_error, r.max_rel_error, config.seed] for r in rows]))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="diffpath",
        description="deterministic sampling-path engine with editing operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset=False, condition=False, remote=False):
        p.add_argument("--config", help="path to a JSON run config (default: bundled demo)")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a config entry by dotted path")
        p.add_argument("--output", help="override the output directory")
        if preset:
            p.add_argument("--preset", help="named manipulation preset")
        if condition:
            p.add_argument("--condition", default="a", help="condition name (default: a)")
        if remote:
            p.add_argument("--remote", metavar="SPEC",
                           help="use a remote denoiser: 'tcp:HOST:PORT' or 'cmd:ARGV...'")

    p = sub.add_parser("generate", help="run one generation pass")
    common(p, condition=True, remote=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("invert", help="invert a sampled clean latent and report the round trip")
    common(p, condition=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("edit", help="run the configured manipulation once and score it")
    common(p, preset=True, remote=True)
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("sweep", help="evaluate a grid of manipulation parameters")
    common(p, preset=True, remote=True)
    p.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                   help="sweep axis (t_max, t_min, t_m, schedule, weight, beta)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo", help="run a canned scenario")
    common(p, preset=True, remote=True)
    p.add_argument("--scenario", choices=DEMO_SCENARIOS, default="prompt-switch")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("report", help="inversion round-trip error table")
    common(p, condition=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--t-sample", type=int, action="append", dest="t_sample",
                   help="grid size to test (repeatable)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("serve", help="answer wire-protocol requests for the configured model")
    common(p)
    p.add_argument("--tcp", type=int, default=None, metavar="PORT",
                   help="listen on TCP instead of stdio")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("config", help="print the canonical form of a config")
    common(p, preset=True)
    p.set_defaults(func=cmd_config)
    return parser


def cmd_config(args) -> int:
    config = _load_config(args)
    sys.stdout.write(canonical_json(config))
    print(f"seed={config.seed} config_digest={config_digest(config)}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, KeyError, FileNotFoundError,
            json.JSONDecodeError) as err:
        detail = str(err).replace("\n", " ")
        print(f'diffpath-error kind=validation message="{detail}"', file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 2
    except Exception as err:
        detail = str(err).replace("\n", " ")
        print(f'diffpath-error kind=runtime message="{detail}"', file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
