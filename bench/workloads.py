"""The three benchmark workloads: one closed-loop caller each.

Every workload runs a fixed cycle of ``CYCLE`` ops whose inputs are derived
from the workload seed; a run repeats whole cycles, so its op mix never
depends on how fast the host was.  ``op`` is the timed call; ``check``
verifies one op's output and runs outside the timed interval, against
references built in ``__init__`` before timing starts.

All module functions are looked up through their module (``sampler.generate``
rather than a bound name) so the tracer's wrappers, when installed, see the
calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from diffpath import cli, edits, remote, sampler
from diffpath.config import RunConfig
from diffpath.output import SWEEP_CSV_HEADER
from diffpath.presets import demo_config_dict, preset_manipulation
from diffpath.rng import standard_normals, substream

from tracer import TracedDenoiser, TracedTransport, Tracer

#: ops per cycle; the sweep workload's preset rotation has this length
CYCLE = 7

SWEEP_PRESETS = ("noise-interp-local", "noise-mask-demo", "latent-interp-local",
                 "latent-mask-demo", "cond-interp-local", "guidance-default",
                 "attention-local")
assert len(SWEEP_PRESETS) == CYCLE

SWEEP_ROWS = 25
NULLTEXT_BETA = 2.0
NULLTEXT_ITERATIONS = 10
REMOTE_PRESET = "guidance-default"


def demo_config(preset: str | None = None) -> RunConfig:
    """The bundled demo config, optionally with a manipulation preset."""
    data = demo_config_dict()
    if preset is not None:
        manip = preset_manipulation(preset)
        manip.update(condition_a="a", condition_b="b")
        data["manipulation"] = manip
    return RunConfig.from_dict(data)


def serve_argv() -> list[str]:
    return [sys.executable, "-m", "diffpath.cli", "serve"]


class Sweep:
    """``diffpath sweep --preset P`` in-process, P rotating over seven presets."""

    name = "sweep"

    def __init__(self, seed: int, scratch: Path, tracer: Tracer | None):
        self.outdir = scratch / f"sweep-{os.getpid()}"
        self.outdir.mkdir(parents=True, exist_ok=True)
        config = demo_config()
        den = config.build_denoiser()
        conds = config.build_conditions()
        grid, sched = config.build_grid(), config.build_noise_schedule()
        self.seeds = [int(substream(seed, "bench", "sweep", j).integers(1 << 31))
                      for j in range(CYCLE)]
        # independent ab_gap reference: the two pure endpoints from the
        # sweep's documented x_top derivation
        self.ab_gaps = []
        for run_seed in self.seeds:
            x_top = standard_normals(substream(run_seed, "sweep", "x_top"), config.model.d)
            x_a = sampler.generate(den, x_top, conds["a"], grid, sched).x0
            x_b = sampler.generate(den, x_top, conds["b"], grid, sched).x0
            self.ab_gaps.append(float(np.linalg.norm(x_a - x_b)))

    def op(self, slot: int, traced: bool):
        argv = ["sweep", "--preset", SWEEP_PRESETS[slot], "--set", f"seed={self.seeds[slot]}",
                "--output", str(self.outdir)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(self, slot: int, result, counts) -> bool:
        rc, stdout = result
        if rc != 0 or f"rows={SWEEP_ROWS} " not in stdout:
            return False
        csv_path = self.outdir / "sweep.csv"
        svg_path = self.outdir / "sweep.svg"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        if lines[0] != SWEEP_CSV_HEADER or len(lines) != SWEEP_ROWS + 1:
            return False
        for line in lines[1:]:
            cells = line.split(",")
            floats = [float(cells[i]) for i in (4, 7, 8, 9)]
            if not all(math.isfinite(v) for v in floats):
                return False
            # 17 significant digits round-trip a double exactly
            if floats[-1] != self.ab_gaps[slot]:
                return False
        svg = svg_path.read_bytes()
        if not svg.rstrip().endswith(b"</svg>"):
            return False
        if counts is not None:
            counts["cli.artifact_bytes"] += csv_path.stat().st_size + len(svg)
        return True

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


class NullText:
    """Null-text reconstruction of one sample: tune, then guided generate."""

    name = "nulltext"

    def __init__(self, seed: int, scratch: Path, tracer: Tracer | None):
        config = demo_config()
        self.den = config.build_denoiser()
        conds = config.build_conditions()
        self.c = conds["a"]
        self.grid, self.sched = config.build_grid(), config.build_noise_schedule()
        self.x0s, self.x_tops, self.baseline_errors = [], [], []
        for j in range(CYCLE):
            x0 = self.den.sample_clean(self.c, 1, substream(seed, "bench", "nulltext", j))[0]
            x_top = sampler.ddim_invert(self.den, x0, self.c, self.grid, self.sched).x_top
            baseline = sampler.generate(self.den, x_top, self.c, self.grid, self.sched,
                                        guidance=(NULLTEXT_BETA, conds["null"]))
            self.x0s.append(x0)
            self.x_tops.append(x_top)
            self.baseline_errors.append(self._rel_error(baseline.x0, x0))
        self.traced_den = None if tracer is None else TracedDenoiser(self.den, tracer)

    @staticmethod
    def _rel_error(x, x0) -> float:
        return float(np.linalg.norm(x - x0) / np.linalg.norm(x0))

    def op(self, slot: int, traced: bool):
        den = self.traced_den if traced else self.den
        res = sampler.null_text_invert(den, self.x0s[slot], self.c, NULLTEXT_BETA,
                                       self.grid, self.sched,
                                       iterations=NULLTEXT_ITERATIONS)
        tuned = sampler.generate(den, self.x_tops[slot], self.c, self.grid, self.sched,
                                 guidance=(NULLTEXT_BETA, res.embeddings))
        return tuned.x0, len(res.diagnostics)

    def check(self, slot: int, result, counts) -> bool:
        tuned_x0, reverted = result
        if counts is not None:
            counts["sampler.null_text_invert.reverted_steps"] += reverted
        return self._rel_error(tuned_x0, self.x0s[slot]) <= self.baseline_errors[slot]

    def close(self) -> None:
        pass


class Remote:
    """``run_edit`` with the guidance-default preset over one stdio connection.

    Only x_top varies between ops.  A traced run shares the one server
    between a plain client and a client on a counting transport, so traced
    and untraced cycles interleave on the same connection.
    """

    name = "remote"

    def __init__(self, seed: int, scratch: Path, tracer: Tracer | None):
        config = demo_config(REMOTE_PRESET)
        local = config.build_denoiser()
        conds = config.build_conditions()
        self.c_a, self.c_b = conds["a"], conds["b"]
        self.grid, self.sched = config.build_grid(), config.build_noise_schedule()
        self.manip = config.build_manipulation()
        self.x_tops = [standard_normals(substream(seed, "bench", "remote", j), config.model.d)
                       for j in range(CYCLE)]
        # the loopback identity: the wire path must equal the in-process one
        self.references = [edits.run_edit(local, x_top, self.c_a, self.c_b, self.manip,
                                          self.grid, self.sched) for x_top in self.x_tops]
        d, m = config.model.d, config.model.m
        self.traced_den = None
        if tracer is None:
            self.den = remote.RemoteDenoiser.from_command(serve_argv(), d, m, timeout=60.0)
        else:
            transport = remote._SubprocessTransport(serve_argv())
            self.den = remote.RemoteDenoiser(transport, d, m, timeout=60.0)
            self.traced_transport = TracedTransport(transport, tracer)
            self.traced_den = TracedDenoiser(
                remote.RemoteDenoiser(self.traced_transport, d, m, timeout=60.0), tracer)

    def op(self, slot: int, traced: bool):
        den = self.traced_den if traced else self.den
        return edits.run_edit(den, self.x_tops[slot], self.c_a, self.c_b, self.manip,
                              self.grid, self.sched)

    def check(self, slot: int, result, counts) -> bool:
        ref = self.references[slot]
        return all(np.array_equal(a, b) for a, b in
                   zip(result.path.latents + result.path.noises,
                       ref.path.latents + ref.path.noises))

    def close(self) -> None:
        self.den.close()


WORKLOADS = {cls.name: cls for cls in (Sweep, NullText, Remote)}
