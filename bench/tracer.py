"""In-memory spans and call counts, recorded from outside the package.

Every instrumented boundary is a wrapper installed by this file around a
public function, method or object of ``diffpath``; nothing inside the package
knows it is being traced.  Spans are kept in flat arrays and only summarised
when the run ends, so a traced call costs one clock read on entry and one on
exit.

Functions called at sub-microsecond granularity (``AlphaSchedule.at`` and
``omega``) are counted, not spanned: a span would cost more than the call.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

from diffpath import cli
from diffpath import config as config_mod
from diffpath import denoiser as denoiser_mod
from diffpath import edits, metrics, output, sampler, schedule

clock = time.perf_counter


class Tracer:
    """Spans (name, start, end, parent, op id) plus per-name call counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.op_ids = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_idx.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.counts[name] += 1
        self.starts.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = clock()
        self._stack.pop()

    def span(self, name: str, fn, label=None):
        """``fn`` wrapped in a span; ``label(args, kwargs)`` may refine the name."""
        def traced(*args, **kwargs):
            idx = self.open(name if label is None else label(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def discard_spans(self) -> None:
        for arr in (self.name_idx, self.starts, self.ends, self.parents, self.op_ids):
            del arr[:]

    # --- summaries -------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by name."""
        out: dict[str, list[float]] = {name: [] for name in self.names}
        for nid, start, end in zip(self.name_idx, self.starts, self.ends):
            out[self.names[nid]].append(end - start)
        return out

    def self_times(self) -> dict[str, list[float]]:
        """Per-span self time: duration minus the direct children's durations."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(own)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += own[idx]
        out: dict[str, list[float]] = {name: [] for name in self.names}
        for idx, nid in enumerate(self.name_idx):
            out[self.names[nid]].append(own[idx] - child[idx])
        return out

    def per_op_sum(self, names) -> list[float]:
        """For each op id, the summed duration of the spans with these names."""
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        totals: dict[int, float] = {}
        for nid, start, end, op in zip(self.name_idx, self.starts, self.ends, self.op_ids):
            if nid in wanted:
                totals[op] = totals.get(op, 0.0) + (end - start)
        return list(totals.values())

    def child_sum(self, parent_name: str, child_name: str) -> list[float]:
        """For each ``parent_name`` span, the summed duration of its
        ``child_name`` children."""
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        sums: dict[int, float] = {}
        for idx, nid in enumerate(self.name_idx):
            if nid == pid:
                sums.setdefault(idx, 0.0)
            elif nid == cid and self.parents[idx] >= 0 \
                    and self.name_idx[self.parents[idx]] == pid:
                parent = self.parents[idx]
                sums[parent] = sums.get(parent, 0.0) + self.ends[idx] - self.starts[idx]
        return list(sums.values())


class TracedDenoiser(denoiser_mod.Denoiser):
    """Wrapper ``Denoiser`` whose ``predict_noise`` calls are spans."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.d = inner.d
        self.m = inner.m
        self.concurrent_safe = inner.concurrent_safe
        self._predict = tracer.span("denoiser.predict_noise", inner.predict_noise)

    def predict_noise(self, x, c, alpha_bar, t):
        return self._predict(x, c, alpha_bar, t)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedTransport:
    """Wrapper transport: counts round trips and bytes, spans send and receive.

    A round trip runs from the start of ``send_line`` to the end of the
    matching ``recv_line``; the receive span is the time the client was
    blocked waiting for the reply.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._sent_at = 0.0
        self.round_trip_s: list[float] = []

    def send_line(self, line: str) -> None:
        self._tracer.counts["remote.bytes_out"] += len(line.encode("utf-8")) + 1
        idx = self._tracer.open("remote.send")
        self._sent_at = self._tracer.starts[idx]
        try:
            self._inner.send_line(line)
        finally:
            self._tracer.close(idx)

    def recv_line(self, timeout: float) -> str:
        idx = self._tracer.open("remote.wait")
        try:
            line = self._inner.recv_line(timeout)
        finally:
            self._tracer.close(idx)
        self.round_trip_s.append(self._tracer.ends[idx] - self._sent_at)
        self._tracer.counts["remote.round_trips"] += 1
        self._tracer.counts["remote.bytes_in"] += len(line.encode("utf-8"))
        return line

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _kind_label(args, kwargs) -> str:
    config = args[4] if len(args) > 4 else kwargs["config"]
    return f"edits.run_edit.{config.kind}"


class Patches:
    """Module-level wrappers, switchable on and off between op cycles.

    A wrapped function is replaced under every name that refers to it in any
    loaded ``diffpath`` module, so calls made through ``from .x import f``
    bindings are traced too.
    """

    def __init__(self, tracer: Tracer):
        self._modules = [m for name, m in sys.modules.items()
                         if name == "diffpath" or name.startswith("diffpath.")]
        run_config = config_mod.RunConfig
        build_denoiser = run_config.build_denoiser
        self._functions = [
            (cli.main, tracer.span("cli.main", cli.main)),
            (sampler.generate, tracer.span("sampler.generate", sampler.generate)),
            (sampler.ddim_invert, tracer.span("sampler.ddim_invert", sampler.ddim_invert)),
            (sampler.null_text_invert,
             tracer.span("sampler.null_text_invert", sampler.null_text_invert)),
            (edits.run_edit, tracer.span("edits.run_edit", edits.run_edit, _kind_label)),
            (metrics.run_sweep, tracer.span("metrics.run_sweep", metrics.run_sweep)),
            (metrics.score_edit, tracer.span("metrics.score_edit", metrics.score_edit)),
            (output.sweep_table_csv,
             tracer.span("output.sweep_table_csv", output.sweep_table_csv)),
            (output.svg_scatter, tracer.span("output.svg_scatter", output.svg_scatter)),
            (config_mod.config_digest,
             tracer.span("config.digest", config_mod.config_digest)),
            (schedule.omega, tracer.counted("schedule.omega", schedule.omega)),
        ]
        self._class_attrs = [
            (run_config, "from_dict", run_config.__dict__["from_dict"],
             staticmethod(tracer.span("config.from_dict", run_config.from_dict))),
            (run_config, "build_denoiser", build_denoiser,
             lambda cfg: TracedDenoiser(build_denoiser(cfg), tracer)),
            (schedule.AlphaSchedule, "at", schedule.AlphaSchedule.at,
             tracer.counted("schedule.alpha_at", schedule.AlphaSchedule.at)),
        ]
        self._bindings = [(module, name, orig, new)
                          for orig, new in self._functions
                          for module in self._modules
                          for name, value in vars(module).items() if value is orig]

    def install(self) -> None:
        for module, name, _, new in self._bindings:
            setattr(module, name, new)
        for cls, name, _, new in self._class_attrs:
            setattr(cls, name, new)

    def remove(self) -> None:
        for module, name, orig, _ in self._bindings:
            setattr(module, name, orig)
        for cls, name, orig, _ in self._class_attrs:
            setattr(cls, name, orig)
