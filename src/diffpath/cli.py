"""Command-line entry points.

Subcommands: ``generate``, ``invert``, ``edit``, ``sweep``, ``demo`` produce
CSV artifacts (plus SVG scatter plots for two-dimensional models) in the
configured output directory; ``serve`` exposes the configured model over the
wire protocol.  Every run prints its seed and config digest.  Exit codes:
0 success, 1 validation failure, 2 runtime failure.  Each artifact appears
whole or not at all, and no artifact survives a failed run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

# edits, sampler, metrics, output and remote are imported by the commands that run them
from .config import (AXIS_NAMES, ManipulationConfig, RunConfig, apply_overrides,
                     canonical_json, config_digest, json_literal)
from .errors import ConfigError, ParameterError
from .presets import demo_config_dict, preset_manipulation
from .rng import standard_normals, substream
from .schedule import ScheduleSpec

DEMO_SCENARIOS = ("prompt-switch", "window-grid", "schedule-grid", "guidance-grid")


@contextlib.contextmanager
def _artifacts(config: RunConfig, denoiser):
    """``write(name, render)`` for one run's artifacts.

    ``write`` writes ``render()`` as ``name`` if its format is on, through a
    temporary file in the same directory that then replaces ``name``, so no
    reader ever sees a partial artifact.  On failure every file written so
    far is removed; the denoiser is closed either way; on success the seed,
    config digest and written files are announced.
    """
    directory = Path(config.output_dir)
    # scatter plots are drawn for planar models only
    formats = [f for f in config.formats if f != "svg" or config.model.d == 2]
    written: list[Path] = []

    def write(name: str, render: Callable[[], str]) -> None:
        if name.rsplit(".", 1)[1] not in formats:
            return
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        temp = path.with_name(f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            with open(temp, "x", encoding="utf-8") as out:
                out.write(render())
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        written.append(path)

    try:
        yield write
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    finally:
        close = getattr(denoiser, "close", None)
        if close is not None:
            close()
    print(f"seed={config.seed} config_digest={config_digest(config)}")
    for path in written:
        print(f"wrote {path}")


def _load_config(args) -> RunConfig:
    if args.config is not None:
        try:  # also non-UTF-8 bytes, integers past the digit limit, too deep a nesting
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"config file {args.config}: {err}") from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
    else:
        data = demo_config_dict()
    if getattr(args, "preset", None):
        manip = preset_manipulation(args.preset)
        base = data.get("manipulation")
        base = base if isinstance(base, dict) else {}
        manip.setdefault("condition_a", base.get("condition_a", "a"))
        manip.setdefault("condition_b", base.get("condition_b", "b"))
        data["manipulation"] = manip
    config = RunConfig.from_dict(apply_overrides(data, args.set or []))
    if getattr(args, "output", None):
        config = dataclasses.replace(config, output_dir=args.output)
    return config


def _port(port: int, flag: str) -> int:
    """A TCP port named on the command line, checked before any socket is opened."""
    if not 1 <= port <= 65535:
        raise ConfigError(f"{flag} port must be in 1-65535, got {port}")
    return port


def _pick_denoiser(args, config: RunConfig):
    """The configured analytic model, or a protocol peer when --remote is given."""
    spec = getattr(args, "remote", None)
    if not spec:
        return config.build_denoiser()
    from .remote import RemoteDenoiser
    d, m = config.model.d, config.model.m
    if spec.startswith("tcp:"):
        host, _, port = spec[4:].rpartition(":")
        try:
            port = int(port)
        except ValueError:
            raise ConfigError(f"bad --remote address {spec!r}: expected 'tcp:HOST:PORT' or "
                              "'tcp:[IPV6]:PORT'") from None
        return RemoteDenoiser.from_address(host.strip("[]"), _port(port, "--remote"), d, m)
    if spec.startswith("cmd:"):
        import shlex
        argv = shlex.split(spec[4:])
        if not argv:
            raise ConfigError("--remote cmd: needs a command line")
        return RemoteDenoiser.from_command(argv, d, m)
    raise ConfigError("--remote must be 'tcp:HOST:PORT' or 'cmd:ARGV...'")


def cmd_generate(args) -> int:
    from .output import path_csv, svg_scatter
    from .sampler import generate
    config = _load_config(args)
    denoiser = _pick_denoiser(args, config)
    with _artifacts(config, denoiser) as write:
        c = config.condition(args.condition)
        x_top = standard_normals(substream(config.seed, "x_top"), config.model.d)
        path = generate(denoiser, x_top, c, config.grid, config.noise_schedule)
        write("path.csv", lambda: path_csv(path, config.seed))
        write("path.svg", lambda: svg_scatter(
            [("trajectory", np.array(path.latents)), ("endpoint", path.x0[None, :])],
            title=f"generation under {args.condition!r} (seed {config.seed})",
            connect=True))
    return 0


def cmd_invert(args) -> int:
    from .output import path_csv, svg_scatter, table_csv
    from .sampler import ddim_invert, generate
    config = _load_config(args)
    denoiser = config.build_denoiser()
    c = config.condition(args.condition)
    grid, schedule = config.grid, config.noise_schedule
    x0 = denoiser.sample_clean(c, 1, substream(config.seed, "x0"))[0]
    inv = ddim_invert(denoiser, x0, c, grid, schedule)
    regen = generate(denoiser, inv.x_top, c, grid, schedule)
    rel_err = float(np.linalg.norm(regen.x0 - x0) / np.linalg.norm(x0))
    with _artifacts(config, denoiser) as write:
        write("inversion.csv", lambda: path_csv(inv, config.seed))
        write("reconstruction.csv", lambda: table_csv(
            ["t_sample", "rel_error", "seed"], [[grid.t_sample, rel_err, config.seed]]))
        write("inversion.svg", lambda: svg_scatter(
            [("inversion", np.array(inv.latents)),
             ("regenerated", np.array(regen.latents))],
            title=f"round trip under {args.condition!r} (seed {config.seed})",
            connect=True))
    print(f"round-trip relative error: {rel_err:.6e}")
    return 0


def cmd_edit(args) -> int:
    from .edits import run_edit
    from .metrics import path_divergence, score_edit
    from .output import svg_scatter, sweep_table_csv, table_csv
    config = _load_config(args)
    denoiser = _pick_denoiser(args, config)
    with _artifacts(config, denoiser) as write:
        manip, c_a, c_b = config.edit_setup()
        grid, schedule = config.grid, config.noise_schedule
        x_top = standard_normals(substream(config.seed, "x_top"), config.model.d)
        result = run_edit(denoiser, x_top, c_a, c_b, manip, grid, schedule, with_path_b=True)
        scores = score_edit(result, config.model)
        write("edit.csv", lambda: sweep_table_csv([(manip, scores)], config.seed))
        write("edit_profile.csv", lambda: table_csv(
            ["index", "sampling_step", "divergence_from_reference", "seed"],
            [[i, grid.t_sample - i, div, config.seed]
             for i, div in enumerate(path_divergence(result))]))
        write("edit.svg", lambda: svg_scatter(
            [("path A endpoint", result.path_a.x0[None, :]),
             ("path B endpoint", result.path_b.x0[None, :]),
             ("edited endpoint", result.path.x0[None, :])],
            title=f"{manip.kind} edit (seed {config.seed})"))
    return 0


def _parse_axes(args, config: RunConfig) -> dict:
    axes: dict[str, tuple] = {}
    for item in args.axis or []:
        if "=" not in item:
            raise ConfigError(f"--axis {item!r} is not of the form name=v1,v2,...")
        name, raw = item.split("=", 1)
        name = name.strip()
        if name in axes:
            raise ConfigError(f"--axis {name!r} is given more than once")
        axes[name] = tuple(json_literal(chunk.strip()) for chunk in raw.split(","))
    return axes or _window_axes(config.grid.t_sample)


def _window_axes(total: int) -> dict:
    """The default sweep and the window-grid demo: window tops by window lengths."""
    return {"t_max": (total, total - 2, total - 4, total - 6, total - 8),
            "t_m": (5, 10, 15, 20, 25)}


def _sweep_and_write(config: RunConfig, denoiser, axes: dict, write: Callable,
                     csv_name: str, svg_name: str) -> tuple:
    from .metrics import run_sweep
    from .output import svg_scatter, sweep_table_csv
    rows = run_sweep(denoiser, config, axes)
    write(csv_name, lambda: sweep_table_csv(rows, config.seed))
    write(svg_name, lambda: svg_scatter(
        [("grid points (layout vs alignment)",
          np.array([[scores.layout_preservation, scores.semantic_alignment]
                    for _, scores in rows]))],
        title=f"sweep (seed {config.seed})"))
    return rows


def cmd_sweep(args) -> int:
    from .metrics import sweep_digest
    config = _load_config(args)
    axes = _parse_axes(args, config)
    denoiser = _pick_denoiser(args, config)
    with _artifacts(config, denoiser) as write:
        rows = _sweep_and_write(config, denoiser, axes, write, "sweep.csv", "sweep.svg")
    print(f"rows={len(rows)} sweep_digest="
          f"{sweep_digest(axes, config.build_manipulation(), config.seed)}")
    return 0


def cmd_demo(args) -> int:
    from .edits import prompt_switches
    from .output import svg_scatter, table_csv
    config = _load_config(args)
    total = config.grid.t_sample
    if args.scenario == "guidance-grid":
        config.build_manipulation()  # the scenario keeps the configured conditions
        config = dataclasses.replace(config, manipulation=ManipulationConfig(
            "guidance", ScheduleSpec("constant", 0, total, total), beta=-0.3))
    denoiser = _pick_denoiser(args, config)
    with _artifacts(config, denoiser) as write:
        if args.scenario == "prompt-switch":
            _, c_a, c_b = config.edit_setup()
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
            write("prompt_switch.csv", lambda: table_csv(header, rows))
            write("prompt_switch.svg", lambda: svg_scatter(
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
            _sweep_and_write(config, denoiser, axes, write, f"{name}.csv", f"{name}.svg")
    return 0


def cmd_serve(args) -> int:
    from .remote import serve_stream, serve_tcp
    config = _load_config(args)
    denoiser = config.build_denoiser()
    if args.tcp is not None:
        port = _port(args.tcp, "--tcp")
        import socket
        serve_tcp(denoiser, socket.create_server(("127.0.0.1", port), backlog=1))
        return 0
    serve_stream(denoiser, sys.stdin, sys.stdout)
    return 0


def cmd_report(args) -> int:
    from .metrics import inversion_report
    from .output import table_csv
    config = _load_config(args)
    denoiser = config.build_denoiser()
    c = config.condition(args.condition)
    t_values = tuple(int(v) for v in (args.t_sample or [50, 100, 200]))
    rows = inversion_report(denoiser, c, config.noise_schedule, t_values, args.samples,
                            config.seed)
    with _artifacts(config, denoiser) as write:
        write("inversion_report.csv", lambda: table_csv(
            ["t_sample", "mean_rel_error", "max_rel_error", "seed"],
            [[r.t_sample, r.mean_rel_error, r.max_rel_error, config.seed] for r in rows]))
    return 0


@functools.cache
def build_parser():
    """The command-line ``argparse.ArgumentParser``, built once per process."""
    import argparse
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
                           help="use a remote denoiser: 'tcp:HOST:PORT', "
                           "'tcp:[IPV6]:PORT' or 'cmd:ARGV...'")

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
                   help=f"sweep axis ({', '.join(AXIS_NAMES)})")
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
    except BrokenPipeError:
        return 2
    except Exception as err:
        valid = isinstance(err, (ConfigError, ParameterError, FileNotFoundError))
        # one line, with the message's own backslashes and quotes escaped
        detail = str(err).replace("\n", " ").replace("\\", "\\\\").replace('"', '\\"')
        print(f'diffpath-error kind={"validation" if valid else "runtime"} message="{detail}"',
              file=sys.stderr)
        return 1 if valid else 2


if __name__ == "__main__":
    sys.exit(main())
