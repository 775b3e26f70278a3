#!/usr/bin/env python3
"""diffpath benchmark: one closed-loop caller, three workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep|nulltext|remote --seed N \
        --seconds S --trace 0|1

The package is imported from the checkout's ``src`` directory, never from an
installed copy.  A run

1. times ``SETUPS`` fresh-interpreter set-ups (``setup_child.py``) between
   reference interpreter starts and keeps their median;
2. runs one untimed warm-up cycle of the workload's ops;
3. runs whole op cycles until ``S`` seconds of op time have been measured;
   each op's output is checked between ops, with the clock stopped;
4. prints one line per metric, then the result as one JSON line.  An
   untraced run prints the raw wall-clock figures as a JSON line of their
   own just before it.

With ``--trace 0`` the JSON carries the end-to-end metrics.  With
``--trace 1`` op cycles alternate between untraced and traced, the per-layer
metrics come from the traced half, exact call counts from the warm-up cycle
(run traced on fresh state), and the untraced/traced throughput ratio is
reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_out"
COUNTS_FILE = SCRATCH / "exact_counts.json"

SETUPS = 9
SETUP_TIMEOUT_S = 60.0

#: raw wall-clock figures, printed on every untraced run
RAW = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "error_rate": "share",
    "host_burst_ms": "ms",
    "setup_wall_s": "s",
}

#: the gated end-to-end metrics (BENCHMARK.json), op times host-normalised
END_TO_END = {
    "norm_ops_per_s": "1/s",
    "norm_op_ms_p50": "ms",
    "norm_op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

KINDS = ("noise_interp", "noise_mask", "latent_interp", "latent_mask",
         "cond_interp", "guidance", "attention")

PER_LAYER = {
    "schedule.alpha_at.calls": "count",
    "schedule.omega.calls": "count",
    "denoiser.predict_noise.calls": "count",
    "denoiser.predict_noise.us_p50": "us",
    "denoiser.predict_noise.busy_share": "share",
    "sampler.generate.calls": "count",
    "sampler.generate.ms_p50": "ms",
    "sampler.ddim_invert.ms_p50": "ms",
    "sampler.null_text_invert.ms_p50": "ms",
    "sampler.null_text_invert.self_share": "share",
    "sampler.null_text_invert.reverted_steps": "count",
    "edits.run_edit.calls": "count",
    **{f"edits.run_edit.{kind}.ms_p50": "ms" for kind in KINDS},
    "edits.run_edit.self_share": "share",
    "metrics.run_sweep.ms_p50": "ms",
    "metrics.run_sweep.self_ms_p50": "ms",
    "metrics.score_edit.us_p50": "us",
    "config.from_dict.us_p50": "us",
    "config.digest.us_p50": "us",
    "remote.round_trips": "count",
    "remote.bytes_out": "bytes",
    "remote.bytes_in": "bytes",
    "remote.round_trip_us_p50": "us",
    "remote.round_trip_us_p90": "us",
    "remote.wait_us_p50": "us",
    "remote.client_self_share": "share",
    "cli.main.self_ms_p50": "ms",
    "cli.render.ms_p50": "ms",
    "cli.artifact_bytes": "bytes",
    "cli.import_s": "s",
    "cli.server_ready_s": "s",
    "trace.ops_per_s_overhead": "share",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10)[-1]


def measure_setups(workload: str, env: dict) -> list[dict]:
    """Time ``SETUPS`` fresh-interpreter set-ups, spawn to ready line.

    A reference start runs before each set-up and after the last.  Each
    set-up's ``norm_setup_s`` is its wall time scaled by the mean of the two
    reference starts around it.
    """
    from calibrate import NOMINAL_START_S, reference_start

    samples = []
    before = reference_start()
    for _ in range(SETUPS):
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_child.py"), workload],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=env, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdin.close()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up child exited with code {proc.returncode}")
        sample = json.loads(line)
        sample["setup_s"] = ready - started
        after = reference_start()
        sample["norm_setup_s"] = sample["setup_s"] * NOMINAL_START_S / ((before + after) / 2.0)
        before = after
        samples.append(sample)
    return samples


class Loop:
    """Closed-loop runner: whole cycles, per-op latency, checks between ops."""

    def __init__(self, wl, cycle: int, tracer=None, patches=None):
        self.wl = wl
        self.cycle = cycle
        self.tracer = tracer
        self.patches = patches
        self.attempted = 0
        self.failed = 0
        self.op_id = 0

    def run_cycle(self, traced: bool, counts=None) -> list[float]:
        latencies = []
        if self.patches is not None:
            (self.patches.install if traced else self.patches.remove)()
        for slot in range(self.cycle):
            self.op_id += 1
            self.attempted += 1
            span = None
            if traced:
                self.tracer.op_id = self.op_id
                span = self.tracer.open("op")
            started = time.perf_counter()
            try:
                result = self.wl.op(slot, traced)
                error = None
            except Exception as err:  # a failed op is counted, not fatal
                result, error = None, err
            finally:
                elapsed = time.perf_counter() - started
                if span is not None:
                    self.tracer.close(span)
            latencies.append(elapsed)
            if error is not None or not self.wl.check(slot, result, counts):
                self.failed += 1
                print(f"bench: op {self.op_id} (slot {slot}) failed: {error!r}",
                      file=sys.stderr)
        if self.patches is not None:
            self.patches.remove()
        return latencies


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU.

    The remote workload's round trip wakes three threads in two processes.
    Spread over two vCPUs, each wakeup of an idle vCPU goes through the
    hypervisor, and throughput swung 2-4x between runs; on one CPU the
    hand-offs are plain context switches.  The highest-numbered CPU is used
    because CPU 0 usually takes more interrupt and housekeeping work.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(args) -> dict:
    pin_to_one_cpu()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    os.environ["PYTHONPATH"] = env["PYTHONPATH"]
    sys.path.insert(0, str(SRC))

    setups = measure_setups(args.workload, env)

    import diffpath
    if Path(diffpath.__file__).resolve().parent != SRC / "diffpath":
        raise RuntimeError(f"imported diffpath from {diffpath.__file__}, not {SRC}")
    from calibrate import NOMINAL_BURST_S, reference_burst
    from workloads import CYCLE, WORKLOADS
    from tracer import Patches, Tracer

    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, SCRATCH, tracer)
    try:
        patches = Patches(tracer) if tracer is not None else None
        loop = Loop(wl, CYCLE, tracer, patches)
        counts = tracer.counts if tracer is not None else None
        if counts is not None:
            counts.clear()  # drop the traced remote client's handshake
        loop.run_cycle(traced=tracer is not None, counts=counts)
        exact = {}
        if tracer is not None:
            exact = exact_counts(tracer, CYCLE)
            tracer.discard_spans()
            if args.workload == "remote":
                wl.traced_transport.round_trip_s.clear()

        # each cycle's op times are normalised by the reference bursts run
        # just before and just after it
        lat = {False: [], True: []}
        norm = {False: [], True: []}
        bursts = [reference_burst()]
        cycles = 0
        while sum(map(sum, lat.values())) < args.seconds or (tracer and cycles % 2):
            traced = tracer is not None and cycles % 2 == 1
            cycle_lat = loop.run_cycle(traced)
            bursts.append(reference_burst())
            slowness = (bursts[-2] + bursts[-1]) / (2.0 * NOMINAL_BURST_S)
            lat[traced].extend(cycle_lat)
            norm[traced].extend(t / slowness for t in cycle_lat)
            cycles += 1
    finally:
        wl.close()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced, untraced_norm = lat[False], norm[False]
    result = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "ops": len(untraced),
        "setups": setups,
        "raw": {
            "ops_per_s": len(untraced) / sum(untraced),
            "op_ms_p50": median(untraced) * 1e3,
            "op_ms_p90": p90(untraced) * 1e3,
            "error_rate": loop.failed / loop.attempted,
            "host_burst_ms": median(bursts) * 1e3,
            "setup_wall_s": median([s["setup_s"] for s in setups]),
        },
        "end_to_end": {
            "norm_ops_per_s": len(untraced_norm) / sum(untraced_norm),
            "norm_op_ms_p50": median(untraced_norm) * 1e3,
            "norm_op_ms_p90": p90(untraced_norm) * 1e3,
            "setup_s": median([s["norm_setup_s"] for s in setups]),
            "peak_rss_mb": peak_rss_mb,
        },
    }

    if tracer is not None:
        traced = lat[True]
        overhead = 1.0 - (len(traced) / sum(traced)) / result["raw"]["ops_per_s"]
        result["traced_ops"] = len(traced)
        result["exact"] = exact
        result["per_layer"] = per_layer(tracer, wl, setups, exact, overhead)
    return result


def exact_counts(tracer, cycle: int) -> dict:
    """Per-op counts that must repeat exactly for a given workload and seed."""
    counts = tracer.counts
    raw = {
        "schedule.alpha_at.calls": counts["schedule.alpha_at"],
        "schedule.omega.calls": counts["schedule.omega"],
        "denoiser.predict_noise.calls": counts["denoiser.predict_noise"],
        "sampler.generate.calls": counts["sampler.generate"],
        "sampler.null_text_invert.reverted_steps":
            counts["sampler.null_text_invert.reverted_steps"],
        "edits.run_edit.calls": sum(counts[f"edits.run_edit.{k}"] for k in KINDS),
        "remote.round_trips": counts["remote.round_trips"],
        "remote.bytes_out": counts["remote.bytes_out"],
        "remote.bytes_in": counts["remote.bytes_in"],
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
    }
    return {name: value / cycle for name, value in raw.items()}


def per_layer(tracer, wl, setups, exact, overhead) -> dict:
    dur = tracer.durations()
    own = tracer.self_times()
    op_total = sum(dur.get("op", ())) or 1.0

    def p50(name, scale):
        return median(dur.get(name, ())) * scale

    def share(values) -> float:
        return sum(values) / op_total

    run_edit_names = [f"edits.run_edit.{k}" for k in KINDS]
    run_edit_total = sum(sum(dur.get(n, ())) for n in run_edit_names)
    run_edit_self = sum(sum(own.get(n, ())) for n in run_edit_names)
    nti_total = sum(dur.get("sampler.null_text_invert", ()))
    round_trips = getattr(getattr(wl, "traced_transport", None), "round_trip_s", [])
    main_minus_sweep = [m - s for m, s in zip(
        dur.get("cli.main", ()), tracer.child_sum("cli.main", "metrics.run_sweep"))]
    # the client's own time in a remote prediction: the prediction span
    # minus its send/receive children; zero when no transport is traced
    client_self = sum(own.get("denoiser.predict_noise", ())) if round_trips else 0.0

    metrics = dict(exact)
    metrics.update({
        "denoiser.predict_noise.us_p50": p50("denoiser.predict_noise", 1e6),
        "denoiser.predict_noise.busy_share": share(dur.get("denoiser.predict_noise", ())),
        "sampler.generate.ms_p50": p50("sampler.generate", 1e3),
        "sampler.ddim_invert.ms_p50": p50("sampler.ddim_invert", 1e3),
        "sampler.null_text_invert.ms_p50": p50("sampler.null_text_invert", 1e3),
        "sampler.null_text_invert.self_share":
            sum(own.get("sampler.null_text_invert", ())) / nti_total if nti_total else 0.0,
        **{f"{n}.ms_p50": p50(n, 1e3) for n in run_edit_names},
        "edits.run_edit.self_share":
            run_edit_self / run_edit_total if run_edit_total else 0.0,
        "metrics.run_sweep.ms_p50": p50("metrics.run_sweep", 1e3),
        "metrics.run_sweep.self_ms_p50": median(own.get("metrics.run_sweep", ())) * 1e3,
        "metrics.score_edit.us_p50": p50("metrics.score_edit", 1e6),
        "config.from_dict.us_p50": p50("config.from_dict", 1e6),
        "config.digest.us_p50": p50("config.digest", 1e6),
        "remote.round_trip_us_p50": median(round_trips) * 1e6,
        "remote.round_trip_us_p90": p90(round_trips) * 1e6,
        "remote.wait_us_p50": p50("remote.wait", 1e6),
        "remote.client_self_share": client_self / op_total,
        "cli.main.self_ms_p50": median(main_minus_sweep) * 1e3,
        "cli.render.ms_p50": median(tracer.per_op_sum(
            ("output.sweep_table_csv", "output.svg_scatter"))) * 1e3,
        "cli.import_s": median([s["import_s"] for s in setups]),
        "cli.server_ready_s": median([s["server_ready_s"] for s in setups]),
        "trace.ops_per_s_overhead": overhead,
    })
    return {name: metrics[name] for name in PER_LAYER}


def source_digest() -> str:
    """sha256 over the paths and bytes of every file under ``src/diffpath``.

    It identifies the code under test, uncommitted edits included, so counts
    are only ever compared between runs of the same code.
    """
    h = hashlib.sha256()
    for path in sorted((SRC / "diffpath").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def flag_exact_counts(workload: str, seed: int, exact: dict) -> list[str]:
    """Compare with earlier runs of the same code; record the first run's counts.

    Returns the names of counts that differ from an earlier run of the same
    source digest, workload and seed.  Counts of other code are ignored, so a
    change that cuts calls is not blocked; only non-repeating counts are.
    """
    SCRATCH.mkdir(parents=True, exist_ok=True)
    seen = json.loads(COUNTS_FILE.read_text()) if COUNTS_FILE.exists() else {}
    key = f"{source_digest()}/{workload}/{seed}"
    if key not in seen:
        seen[key] = exact
        tmp = COUNTS_FILE.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        tmp.replace(COUNTS_FILE)
        return []
    return [name for name in exact if seen[key].get(name) != exact[name]]


def note_for(name: str, res: dict) -> str:
    if "op_ms" in name:
        return f" (n={res['ops']})"
    if name in ("setup_s", "setup_wall_s"):
        return f" (median of {SETUPS})"
    if name == "error_rate":
        return f" ({res['failed']} of {res['attempted']} ops)"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "nulltext", "remote"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diffpath" / "__init__.py").is_file():
        return fail(f"no diffpath sources under {SRC}; run from a source checkout")
    try:
        res = run(args)
    except Exception as err:
        return fail(f"run aborted: {err!r}")

    correct = res["failed"] == 0
    attempted, failed = res["attempted"], res["failed"]
    e2e = res["end_to_end"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"timed_ops={res['ops']} attempted={attempted} failed={failed}")
    if args.trace:
        moved = flag_exact_counts(args.workload, args.seed, res["exact"])
        if moved:
            correct = False
            print(f"bench: FLAG exact counts differ from an earlier run of the "
                  f"same code: {', '.join(moved)}", file=sys.stderr)
        metrics = res["per_layer"]
        units = PER_LAYER
        print(f"traced_ops={res['traced_ops']} (per-layer timings from these)")
    else:
        metrics = e2e
        units = END_TO_END
        for name, value in res["raw"].items():
            print(f"{name} {value:.6g} {RAW[name]}{note_for(name, res)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}{note_for(name, res)}")
    if not args.trace:
        print(json.dumps({"raw": {name: {"value": value, "unit": RAW[name]}
                                  for name, value in res["raw"].items()}}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
