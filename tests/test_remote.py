import io
import json
import math
import select
import shlex
import socket
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffpath import cli
from diffpath.config import ManipulationConfig, canonical_json
from diffpath.denoiser import ConditionEmbedding, Denoiser
from diffpath.edits import run_edit
from diffpath.errors import DenoiserError, ParameterError
from diffpath.metrics import run_sweep
from diffpath.remote import (DimensionMismatchError, IdMismatchError,
                             MalformedFrameError, RemoteDenoiser,
                             RemoteTimeoutError, TransportClosedError,
                             _SubprocessTransport, serve_stream, serve_tcp)
from diffpath.sampler import ddim_invert, generate, null_text_invert
from diffpath.schedule import ScheduleSpec

from conftest import WINDOW_AXES, preset_config
from test_artifact_bytes import DIGESTS, _run
from test_call_counts import CountingDenoiser


@pytest.fixture(scope="module")
def config_file(tmp_path_factory, demo_cfg):
    path = tmp_path_factory.mktemp("remote") / "config.json"
    path.write_text(canonical_json(demo_cfg))
    return path


def _spawn_server(config_file):
    return RemoteDenoiser.from_command(
        [sys.executable, "-m", "diffpath.cli", "serve", "--config", str(config_file)],
        d=2, m=2, timeout=30.0)


class RecordingTransport:
    """Forwards to a transport and keeps every line sent through it."""

    def __init__(self, inner):
        self._inner = inner
        self.sent: list[str] = []

    def send_line(self, line: str) -> None:
        self.sent.append(line)
        self._inner.send_line(line)

    def recv_line(self, timeout: float) -> str:
        return self._inner.recv_line(timeout)

    def close(self) -> None:
        self._inner.close()


def _guidance_edit(demo, denoiser):
    """The bare guidance-default edit of the demo's x_top: path A is its only pure row."""
    manip = preset_config("guidance-default").build_manipulation()
    return run_edit(denoiser, demo["x_top"], demo["c_a"], demo["c_b"], manip,
                    demo["grid"], demo["schedule"])


def _same_bytes(got, want) -> bool:
    arrays = [(g, w) for attr in ("path", "path_a")
              for field in ("latents", "noises")
              for g, w in zip(getattr(getattr(got, attr), field),
                              getattr(getattr(want, attr), field), strict=True)]
    return all(g.tobytes() == w.tobytes() for g, w in arrays)


class TestLoopback:
    def test_edit_bit_identical_to_in_process(self, demo, config_file):
        t = demo["grid"].t_sample
        config = ManipulationConfig("noise_interp",
                                    ScheduleSpec("constant", 28, 48, t, 0.7))
        local = run_edit(demo["denoiser"], demo["x_top"], demo["c_a"], demo["c_b"],
                         config, demo["grid"], demo["schedule"])
        with _spawn_server(config_file) as remote:
            assert remote.concurrent_safe
            over_wire = run_edit(remote, demo["x_top"], demo["c_a"], demo["c_b"],
                                 config, demo["grid"], demo["schedule"])
        assert all(np.array_equal(a, b)
                   for a, b in zip(local.path.latents, over_wire.path.latents))
        assert all(np.array_equal(a, b)
                   for a, b in zip(local.path.noises, over_wire.path.noises))

    def test_guidance_edit_is_fifty_round_trips(self, demo, config_file):
        transport = RecordingTransport(_SubprocessTransport(
            [sys.executable, "-m", "diffpath.cli", "serve", "--config", str(config_file)]))
        with RemoteDenoiser(transport, d=2, m=2, timeout=30.0) as remote:
            assert remote.batched
            over_wire = _guidance_edit(demo, remote)
        frames = [json.loads(line) for line in transport.sent]
        assert [frame["op"] for frame in frames] == ["hello"] + ["predict_noise_batch"] * 50
        # path A's row rides with the edit's c_a and c_b rows in every step
        assert [len(frame["X"]) for frame in frames[1:]] == [3] * 50
        assert _same_bytes(over_wire, _guidance_edit(demo, demo["denoiser"]))

    @pytest.mark.parametrize("preset", ["noise-interp-local", "guidance-default"])
    def test_sweep_is_one_round_trip_per_call(self, config_file, preset):
        # the call counts of tests/test_call_counts.py's RUN_SWEEP_COUNTS
        config = preset_config(preset)
        transport = RecordingTransport(_SubprocessTransport(
            [sys.executable, "-m", "diffpath.cli", "serve", "--config", str(config_file)]))
        with RemoteDenoiser(transport, d=2, m=2, timeout=30.0) as remote:
            run_sweep(remote, config, WINDOW_AXES)
        assert len(transport.sent) == 1 + 50

    def test_cli_edit_is_fifty_round_trips(self, monkeypatch, tmp_path, capsys):
        # the edit walks both pure paths, which it scores against, as its own rows
        ops = []
        round_trip = RemoteDenoiser._round_trip

        def recording(remote, payload):
            ops.append(payload["op"])
            return round_trip(remote, payload)

        monkeypatch.setattr(RemoteDenoiser, "_round_trip", recording)
        spec = "cmd:" + shlex.join([sys.executable, "-m", "diffpath.cli", "serve"])
        assert cli.main(["edit", "--preset", "guidance-default", "--remote", spec,
                         "--output", str(tmp_path)]) == 0
        assert ops == ["hello"] + ["predict_noise_batch"] * 50

    @pytest.mark.parametrize("mode", ["serve", "oracle"])
    def test_null_text_is_the_in_process_run(self, fake_server, config_file, demo, mode):
        # null-text inversion at 2 iterations, then the guided regeneration with
        # its per-step nulls; test_call_counts.py's counter gives the frames
        grid, sched, c = demo["grid"], demo["schedule"], demo["c_a"]
        x0 = generate(demo["denoiser"], demo["x_top"], c, grid, sched).x0
        x_top = ddim_invert(demo["denoiser"], x0, c, grid, sched).x_top

        def run(den):
            res = null_text_invert(den, x0, c, 2.0, grid, sched, iterations=2)
            path = generate(den, x_top, c, grid, sched, guidance=(2.0, res.embeddings))
            return ([e.values.tobytes() for e in res.embeddings], repr(res.objectives),
                    res.diagnostics, [a.tobytes() for a in (*path.latents, *path.noises)])

        counting = CountingDenoiser(demo["denoiser"])
        local = run(counting)
        # null-text: 200 calls, 650 rows; the guided generate: 50 calls, 100 rows
        assert (counting.calls, counting.rows) == (250, 750)
        transport = _recorded_peer(fake_server, config_file, mode)
        with RemoteDenoiser(transport, d=2, m=2, timeout=30.0) as remote:
            assert run(remote) == local
        frames = len(transport.sent) - 1
        assert frames == (counting.calls if mode == "serve" else counting.rows)

    def test_client_starts_no_thread(self, config_file, demo):
        before = set(threading.enumerate())
        with _spawn_server(config_file) as remote:
            remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 500)
            assert set(threading.enumerate()) <= before

    def test_server_reports_model_errors(self, config_file, demo):
        with _spawn_server(config_file) as remote:
            with pytest.raises(DenoiserError, match="training step"):
                remote.predict_noise(np.zeros(2), demo["c_a"], 1.0, 500)


def _strict_loads(text):
    """json.loads that rejects NaN, Infinity and literals overflowing to inf."""
    def reject(token):
        raise ValueError(token)

    def finite(token):
        value = float(token)
        if not math.isfinite(value):
            reject(token)
        return value

    return json.loads(text, parse_constant=reject, parse_float=finite)


#: JSON number tokens as written on the wire, some overflowing or non-finite
_numbers = st.one_of(st.integers(-3, 3).map(str),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.sampled_from(["1e400", "-1e400", "NaN", "Infinity", '"0.5"', "null"]))
_numbers = st.one_of(_numbers, st.sampled_from(["true", "10" + "0" * 400]))
_vectors = st.lists(_numbers, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
_matrices = st.lists(st.one_of(_vectors, _numbers), max_size=3).map(
    lambda rows: "[" + ", ".join(rows) + "]")
_frames = st.fixed_dictionaries(
    {"id": st.one_of(_numbers, st.text(max_size=4).map(json.dumps))},
    optional={"op": st.sampled_from(['"hello"', '"predict_noise"', '"predict_noise_batch"',
                                     '"warp"']),
              "d": _numbers, "m": _numbers, "batch": st.sampled_from(["true", "false", "1"]),
              "x": _vectors, "c": _vectors, "X": _matrices, "C": _matrices,
              "t": _numbers, "alpha_bar": _numbers},
).map(lambda fields: "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _batch_requests(draw):
    """A batch frame of 0-4 rows, some of the wrong width, ragged or huge."""
    n = draw(st.integers(0, 4))
    widths = draw(st.lists(st.sampled_from([2, 2, 2, 1, 3]), min_size=n, max_size=n))
    X = [draw(st.lists(_floats, min_size=w, max_size=w)) for w in widths]
    C = draw(st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
                      min_size=draw(st.sampled_from([n, n, max(n - 1, 0), n + 1])),
                      max_size=n + 1))
    return json.dumps({"id": draw(st.integers(0, 99)), "op": "predict_noise_batch", "X": X,
                       "C": C, "t": draw(st.integers(1, 1000)),
                       "alpha_bar": draw(st.floats(0.0, 1.0))})


#: well-formed requests, some with the wrong dimensions or a huge latent
_requests = st.one_of(
    st.builds(lambda i, d, m, batch: json.dumps({"id": i, "op": "hello", "d": d, "m": m,
                                                 **batch}),
              st.integers(0, 99), st.sampled_from([2, 3]), st.sampled_from([2, 1]),
              st.sampled_from([{}, {"batch": True}])),
    st.builds(lambda i, x, c, t, a: json.dumps({"id": i, "op": "predict_noise", "x": x,
                                                "c": c, "t": t, "alpha_bar": a}),
              st.integers(0, 99), st.lists(_floats, min_size=1, max_size=3),
              st.lists(st.floats(-10, 10), min_size=2, max_size=2),
              st.integers(1, 1000), st.floats(0.0, 1.0)),
    _batch_requests())

#: frames a parent client sends and the replies a parent server gave them,
#: byte for byte: a hello without the batch flag, predictions (integer
#: entries, a signed zero, a huge latent) and two error replies
PARENT_TRANSCRIPT = [
    ('{"id": 0, "op": "hello", "d": 2, "m": 2}',
     '{"id": 0, "op": "hello", "d": 2, "m": 2, "concurrent": true}'),
    ('{"id": 1, "op": "predict_noise", "x": [0.25, -1.5], "c": [1.0, 0.25], "t": 500, '
     '"alpha_bar": 0.5}',
     '{"id": 1, "eps": [-0.061538215887779246, -1.2475526871894427]}'),
    ('{"id": 2, "op": "predict_noise", "x": [-0.7436796225232284, 1.9181013457392315], '
     '"c": [0.3, -1.2], "t": 980, "alpha_bar": 0.0404}',
     '{"id": 2, "eps": [-0.7283543504520946, 1.9837550425900574]}'),
    ('{"id": 3, "op": "predict_noise", "x": [3, -0.0], "c": [0, 1], "t": 20, '
     '"alpha_bar": 0.999}',
     '{"id": 3, "eps": [0.08888504807629191, 0.005424275539658918]}'),
    ('{"id": 4, "op": "predict_noise", "x": [1e308, 1e308], "c": [1.0, 0.25], "t": 500, '
     '"alpha_bar": 0.5}',
     '{"id": 4, "eps": [7.252377242938948e+307, 7.252377242938948e+307]}'),
    ('{"id": 5, "op": "predict_noise", "x": [0.25, -1.5], "c": [1.0, 0.25], "t": 500, '
     '"alpha_bar": 1.0}',
     '{"id": 5, "error": "noise prediction is undefined at alpha_bar = 1 (clean endpoint)"}'),
    ('{"id": 6, "op": "warp"}', '{"id": 6, "error": "unknown op \'warp\'"}'),
]
#: other lines: bare text, blanks, non-objects and deep nesting
_raw_lines = st.one_of(
    st.text(st.characters(blacklist_characters="\n\r"), max_size=30),
    st.sampled_from(["", "   ", "null", "[]", "{}", "[" * 5000]))


class TestServeStream:
    def _roundtrip(self, demo, lines):
        out = io.StringIO()
        serve_stream(demo["denoiser"], io.StringIO(lines), out)
        return [json.loads(line) for line in out.getvalue().strip().splitlines()]

    def test_hello_and_predict(self, demo):
        x = [0.25, -1.5]
        lines = "\n".join([
            json.dumps({"id": 0, "op": "hello", "d": 2, "m": 2}),
            json.dumps({"id": 1, "op": "predict_noise", "x": x,
                        "c": [1.0, 0.25], "t": 500, "alpha_bar": 0.5}),
        ]) + "\n"
        replies = self._roundtrip(demo, lines)
        assert replies[0]["op"] == "hello" and replies[0]["id"] == 0
        expect = demo["denoiser"].predict_noise(
            np.array(x), demo["c_a"], 0.5, 500)
        assert np.array_equal(np.array(replies[1]["eps"]), expect)

    def test_dimension_mismatch_in_handshake(self, demo):
        replies = self._roundtrip(
            demo, json.dumps({"id": 0, "op": "hello", "d": 3, "m": 2}) + "\n")
        assert "error" in replies[0]

    def test_malformed_and_unknown_frames(self, demo):
        lines = "not json\n" + json.dumps({"id": 4, "op": "warp"}) + "\n"
        replies = self._roundtrip(demo, lines)
        assert "error" in replies[0]
        assert replies[1]["id"] == 4 and "error" in replies[1]

    def test_bad_frames_get_strict_error_replies(self, demo):
        class NanOnHugeLatents(Denoiser):
            """The demo oracle, except that it answers NaN for |x| > 1e300."""

            d, m = 2, 2

            def predict_noise(self, x, c, alpha_bar, t):
                if np.abs(x).max() > 1e300:
                    return np.full(2, np.nan)
                return demo["denoiser"].predict_noise(x, c, alpha_bar, t)

        def frame(i, x, c=(1.0, 0.25)):
            return json.dumps({"id": i, "op": "predict_noise", "x": list(x),
                               "c": list(c), "t": 500, "alpha_bar": 0.5})

        lines = "\n".join([
            frame(1, [0.5]),                          # x too short for d=2
            frame(2, [0.5, 0.5], c=[1.0]),            # c too short for m=2
            frame(3, [1e308, 1e308]),                 # answer would not be finite
            frame(4, [0.25, -1.5]),
        ]) + "\n"
        out = io.StringIO()
        serve_stream(NanOnHugeLatents(), io.StringIO(lines), out)
        replies = [_strict_loads(line) for line in out.getvalue().splitlines()]
        assert [r["id"] for r in replies] == [1, 2, 3, 4]
        assert all("error" in r and "eps" not in r for r in replies[:3])
        expect = demo["denoiser"].predict_noise(np.array([0.25, -1.5]), demo["c_a"], 0.5, 500)
        assert np.array_equal(np.array(replies[3]["eps"]), expect)

    def test_oracle_answers_huge_latents(self, demo):
        replies = self._roundtrip(demo, json.dumps(
            {"id": 3, "op": "predict_noise", "x": [1e308, 1e308], "c": [1.0, 0.25],
             "t": 500, "alpha_bar": 0.5}) + "\n")
        assert len(replies[0]["eps"]) == 2 and np.all(np.isfinite(replies[0]["eps"]))

    @pytest.mark.parametrize("line", [
        '{"id": 1e400, "op": "hello", "d": 2, "m": 2}',
        '{"id": 7, "op": "predict_noise", "x": [1e400, 0], "c": [1.0, 0.25], '
        '"t": 500, "alpha_bar": 0.5}',
        "[" * 100_000,
    ], ids=["overflowing-id", "overflowing-x", "deep-nesting"])
    def test_unreadable_frames_are_malformed(self, demo, line):
        out = io.StringIO()
        serve_stream(demo["denoiser"], io.StringIO(line + "\n"), out)
        assert out.getvalue() == '{"id": null, "error": "malformed frame"}\n'

    def test_parent_frames_get_the_parent_replies(self, demo):
        out = io.StringIO()
        serve_stream(demo["denoiser"],
                     io.StringIO("".join(f"{frame}\n" for frame, _ in PARENT_TRANSCRIPT)), out)
        assert out.getvalue() == "".join(f"{reply}\n" for _, reply in PARENT_TRANSCRIPT)

    @pytest.mark.parametrize("flag, echoed", [(True, True), (False, False), (1, False),
                                              ("true", False)])
    def test_hello_echoes_batch_only_when_asked(self, demo, flag, echoed):
        reply, = self._roundtrip(demo, json.dumps(
            {"id": 0, "op": "hello", "d": 2, "m": 2, "batch": flag}) + "\n")
        assert reply == {"id": 0, "op": "hello", "d": 2, "m": 2, "concurrent": True,
                         **({"batch": True} if echoed else {})}

    def test_batch_rows_are_the_single_replies(self, demo):
        X = [[0.25, -1.5], [3, -0.0], [1e308, 1e308]]
        C = [[1.0, 0.25], [0, 1], [0.3, -1.2]]
        singles = "".join(json.dumps({"id": i, "op": "predict_noise", "x": x, "c": c,
                                      "t": 500, "alpha_bar": 0.5}) + "\n"
                          for i, (x, c) in enumerate(zip(X, C)))
        batch = json.dumps({"id": 9, "op": "predict_noise_batch", "X": X, "C": C,
                            "t": 500, "alpha_bar": 0.5}) + "\n"
        out = io.StringIO()
        serve_stream(demo["denoiser"], io.StringIO(singles + batch), out)
        *rows, reply = out.getvalue().splitlines()
        # each row's text is the single frame's, so the floats are the same bits
        assert reply == '{"id": 9, "eps": [%s]}' % ", ".join(
            row[row.index("["):-1] for row in rows)

    @pytest.mark.parametrize("fields", [
        {"x": ["0.5", True]},
        {"x": [0.5, True]},
        {"c": [0, "1"]},
        {"x": [None, 0.5]},
        {"x": [[0.5], 0.5]},
        {"x": 0.5},
        {"t": "500"},
        {"t": True},
        {"t": 500.5},
        {"alpha_bar": "0.5"},
        {"alpha_bar": False},
        {"op": "predict_noise_batch", "X": [["0.5", 1.0]], "C": [[1.0, 0.25]]},
        {"op": "predict_noise_batch", "X": [[0.5, 1.0]], "C": [[True, 0.25]]},
        {"op": "predict_noise_batch", "X": [[0.5, 1.0], [0.5]], "C": [[1.0, 0.25]] * 2},
        {"op": "predict_noise_batch", "X": [[0.5, 1.0]], "C": [[1.0, 0.25]] * 2},
        {"op": "predict_noise_batch", "X": [[0.5, 1.0, 2.0]], "C": [[1.0, 0.25]]},
        {"op": "predict_noise_batch", "X": [], "C": []},
        {"op": "predict_noise_batch", "X": [0.5, 1.0], "C": [1.0, 0.25]},
    ])
    def test_non_numbers_get_an_error_reply(self, demo, fields):
        frame = {"id": 5, "op": "predict_noise", "x": [0.25, -1.5], "c": [1.0, 0.25],
                 "t": 500, "alpha_bar": 0.5, **fields}
        reply, = self._roundtrip(demo, json.dumps(frame) + "\n")
        assert reply["id"] == 5 and "error" in reply and "eps" not in reply

    def test_integer_beyond_the_float_range_gets_an_error_reply(self, demo):
        reply, = self._roundtrip(demo, '{"id": 5, "op": "predict_noise", "x": [1%s, 0], '
                                       '"c": [1.0, 0.25], "t": 500, "alpha_bar": 0.5}\n'
                                 % ("0" * 400))
        assert reply["id"] == 5 and "float range" in reply["error"]

    @given(lines=st.lists(st.one_of(_raw_lines, _frames, _requests), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_frames_get_one_strict_reply_each(self, demo, lines):
        out = io.StringIO()
        serve_stream(demo["denoiser"], io.StringIO("".join(f"{ln}\n" for ln in lines)), out)
        frames = [ln for ln in lines if ln.strip()]
        replies = out.getvalue().splitlines()
        assert len(replies) == len(frames)
        for line, text in zip(frames, replies):
            reply = _strict_loads(text)
            try:
                msg = _strict_loads(line)
                sent_id = msg.get("id") if isinstance(msg, dict) else None
            except (ValueError, RecursionError):
                sent_id = None
            assert reply["id"] == sent_id
            kinds = [k for k in ("eps", "op", "error") if k in reply]
            assert len(kinds) == 1
            if kinds == ["eps"]:
                batch = msg["op"] == "predict_noise_batch"
                rows = reply["eps"] if batch else [reply["eps"]]
                assert len(rows) == (len(msg["X"]) if batch else 1)
                assert all(len(row) == 2 for row in rows)
                assert all(type(v) is float and math.isfinite(v) for row in rows for v in row)
            elif kinds == ["op"]:
                assert reply["op"] == "hello"
                assert reply.get("batch", False) is (msg.get("batch") is True)


FAKE_SERVER = r"""
import json, select, sys, time
mode = sys.argv[1]
if mode == "hangup":  # wait for the hello, then exit without reading it
    select.select([sys.stdin], [], [])
    sys.exit(0)
if mode == "oracle":  # the demo model, served as by a peer without the batch op
    import numpy as np
    from diffpath.config import RunConfig
    from diffpath.denoiser import ConditionEmbedding
    from diffpath.presets import demo_config_dict
    oracle = RunConfig.from_dict(demo_config_dict()).build_denoiser()
#: eps replies as written on the wire
RAW_EPS = {"streps": '["0.5", 0.0]', "booleps": '[true, 0.0]', "nulleps": '[null, 0.0]',
           "nested": '[[0.0], 0.0]', "hugeint": '[1%s, 0]' % ("0" * 400),
           "batch-short": '[[0.0, 0.0]]', "batch-str": '[["0.5", 0.0], [0.0, 0.0]]'}
count = 0
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("op") == "hello":
        if mode.startswith("batch-"):
            reply = {"id": msg["id"], "op": "hello", "d": msg["d"], "m": msg["m"],
                     "batch": True}
        elif mode == "baddim":
            reply = {"id": msg["id"], "op": "hello", "d": 5, "m": 5}
        elif mode == "strdim":
            reply = {"id": msg["id"], "op": "hello", "d": "two", "m": msg["m"]}
        elif mode == "nodim":
            reply = {"id": msg["id"], "op": "hello", "m": msg["m"]}
        else:
            reply = {"id": msg["id"], "op": "hello", "d": msg["d"], "m": msg["m"]}
        print(json.dumps(reply), flush=True)
        continue
    count += 1
    if mode in RAW_EPS:
        print('{"id": %d, "eps": %s}' % (msg["id"], RAW_EPS[mode]), flush=True)
    elif mode == "oracle":
        if msg["op"] == "predict_noise":
            eps = oracle.predict_noise(np.array(msg["x"]), ConditionEmbedding(np.array(msg["c"])),
                                       msg["alpha_bar"], msg["t"])
            reply = {"id": msg["id"], "eps": [float(v) for v in eps]}
        else:
            reply = {"id": msg["id"], "error": "unknown op %r" % msg["op"]}
        print(json.dumps(reply), flush=True)
    elif mode == "shorteps":
        print(json.dumps({"id": msg["id"], "eps": [0.0]}), flush=True)
    elif mode == "wrongid":
        print(json.dumps({"id": msg["id"] + 900, "eps": [0.0, 0.0]}), flush=True)
    elif mode == "garbage":
        print("}{ nonsense", flush=True)
    elif mode == "silent":
        pass
    elif mode == "slow":  # replies after a 0.3 s client timeout, within a second one
        time.sleep(0.45)
        print(json.dumps({"id": msg["id"], "eps": [0.0, 0.0]}), flush=True)
    elif mode in ("nan", "infinity", "overflow"):
        token = {"nan": "NaN", "infinity": "Infinity", "overflow": "1e400"}[mode]
        print('{"id": %d, "eps": [%s, 0.0]}' % (msg["id"], token), flush=True)
    elif mode == "deep":
        print('{"id": %d, "eps": %s}' % (msg["id"], "[" * 100000), flush=True)
    elif mode == "badutf8":
        sys.stdout.buffer.write(b'{"id": %d, "eps": [0.0, 0.0], "note": "\xff"}\n' % msg["id"])
        sys.stdout.flush()
    elif mode == "die-mid-path":
        if count > 5:
            sys.exit(1)
        print(json.dumps({"id": msg["id"], "eps": [0.0, 0.0]}), flush=True)
"""


@pytest.fixture(scope="module")
def fake_server(tmp_path_factory):
    path = tmp_path_factory.mktemp("fake") / "fake_server.py"
    path.write_text(FAKE_SERVER)
    return path


def _recorded_peer(fake_server, config_file, mode) -> RecordingTransport:
    """``diffpath serve`` (mode ``serve``, with the batch op) or a fake peer, recorded."""
    argv = ([sys.executable, "-m", "diffpath.cli", "serve", "--config", str(config_file)]
            if mode == "serve" else [sys.executable, str(fake_server), mode])
    return RecordingTransport(_SubprocessTransport(argv))


def _fake(fake_server, mode, timeout=10.0):
    return RemoteDenoiser.from_command(
        [sys.executable, str(fake_server), mode], d=2, m=2, timeout=timeout)


class TestProtocolErrors:
    def test_wrong_eps_length_names_step(self, fake_server, demo):
        with _fake(fake_server, "shorteps") as remote:
            with pytest.raises(DimensionMismatchError, match="training step 640"):
                remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 640)

    def test_id_mismatch(self, fake_server, demo):
        with _fake(fake_server, "wrongid") as remote:
            with pytest.raises(IdMismatchError):
                remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 640)

    def test_malformed_reply(self, fake_server, demo):
        with _fake(fake_server, "garbage") as remote:
            with pytest.raises(MalformedFrameError):
                remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 640)

    @pytest.mark.parametrize("mode", ["nan", "infinity", "overflow", "deep", "badutf8"])
    def test_unreadable_reply_is_malformed(self, fake_server, demo, mode):
        with _fake(fake_server, mode) as remote:
            with pytest.raises(MalformedFrameError):
                remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 640)

    @pytest.mark.parametrize("mode", ["streps", "booleps", "nulleps", "nested", "hugeint"])
    def test_reply_of_non_numbers_is_malformed(self, fake_server, demo, mode):
        with _fake(fake_server, mode) as remote:
            with pytest.raises(MalformedFrameError, match="training step 640"):
                remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 640)

    def test_wrong_batch_reply_shape_names_step(self, fake_server, demo):
        with _fake(fake_server, "batch-short") as remote:
            assert remote.batched
            with pytest.raises(DimensionMismatchError, match="training step 640"):
                remote.predict_noise_batch(np.zeros((2, 2)), np.array([demo["c_a"].values] * 2),
                                          0.5, 640)

    def test_batch_reply_of_non_numbers_is_malformed(self, fake_server, demo):
        with _fake(fake_server, "batch-str") as remote:
            with pytest.raises(MalformedFrameError, match="training step 640"):
                remote.predict_noise_batch(np.zeros((2, 2)), np.array([demo["c_a"].values] * 2),
                                          0.5, 640)

    @pytest.mark.parametrize("mode", ["serve", "oracle"])
    def test_batch_conditions_of_the_wrong_width_send_no_frame(self, fake_server,
                                                               config_file, mode):
        transport = _recorded_peer(fake_server, config_file, mode)
        with RemoteDenoiser(transport, d=2, m=2, timeout=30.0) as remote:
            assert remote.batched == (mode == "serve")
            with pytest.raises(ParameterError, match=r"conditions C must have shape \(2, 2\)"):
                remote.predict_noise_batch(np.zeros((2, 2)), np.zeros((2, 3)), 0.5, 640)
        assert [json.loads(line)["op"] for line in transport.sent] == ["hello"]

    @pytest.mark.parametrize("mode", ["serve", "oracle"])
    def test_non_finite_latents_send_no_frame(self, fake_server, config_file, demo, mode):
        # strict JSON has no NaN or Infinity, and 1e309 overflows to infinity
        transport = _recorded_peer(fake_server, config_file, mode)
        C = np.array([demo["c_a"].values] * 2)
        with RemoteDenoiser(transport, d=2, m=2, timeout=30.0) as remote:
            for bad in (math.nan, math.inf, -math.inf, float("1e309")):
                X = np.zeros((2, 2))
                X[1, 0] = bad
                with pytest.raises(ParameterError, match="latents X must be finite"):
                    remote.predict_noise_batch(X, C, 0.5, 640)
                with pytest.raises(ParameterError, match="latent x must be finite"):
                    remote.predict_noise(X[1], demo["c_a"], 0.5, 640)
                with pytest.raises(ParameterError, match="predict_noise request: Out of range"):
                    remote.predict_noise(X[0], demo["c_a"], bad, 640)
            # the connection is still good: the next request is answered
            assert remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 640).shape == (2,)
        ops = [json.loads(line)["op"] for line in transport.sent]
        assert ops == ["hello", "predict_noise"]

    def test_edit_over_a_peer_without_the_batch_op(self, fake_server, demo):
        transport = RecordingTransport(
            _SubprocessTransport([sys.executable, str(fake_server), "oracle"]))
        with RemoteDenoiser(transport, d=2, m=2, timeout=30.0) as remote:
            assert not remote.batched
            over_wire = _guidance_edit(demo, remote)
        ops = [json.loads(line)["op"] for line in transport.sent]
        assert ops == ["hello"] + ["predict_noise"] * 150
        assert _same_bytes(over_wire, _guidance_edit(demo, demo["denoiser"]))

    def test_timeout(self, fake_server, demo):
        with _fake(fake_server, "silent", timeout=0.3) as remote:
            with pytest.raises(RemoteTimeoutError):
                remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 640)

    def test_timeout_closes_transport(self, fake_server, demo):
        with _fake(fake_server, "slow", timeout=0.3) as remote:
            with pytest.raises(RemoteTimeoutError):
                remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 640)
            # the late reply must not be read as the answer to a later request
            with pytest.raises(TransportClosedError):
                remote.predict_noise(np.zeros(2), demo["c_a"], 0.5, 620)

    def test_peer_hanging_up_unread_closes_the_transport(self, fake_server):
        with pytest.raises(TransportClosedError):
            _fake(fake_server, "hangup")

    def test_handshake_dimension_mismatch(self, fake_server):
        transport = _SubprocessTransport([sys.executable, str(fake_server), "baddim"])
        with pytest.raises(DimensionMismatchError):
            RemoteDenoiser(transport, d=2, m=2)
        # the failed handshake returns no client, so it must stop the child itself
        assert transport._proc.poll() is not None
        assert transport._sock.fileno() == -1

    @pytest.mark.parametrize("mode", ["strdim", "nodim"])
    def test_handshake_without_integer_dimensions_is_malformed(self, fake_server, mode):
        transport = _SubprocessTransport([sys.executable, str(fake_server), mode])
        with pytest.raises(MalformedFrameError, match="integer d and m"):
            RemoteDenoiser(transport, d=2, m=2)
        assert transport._proc.poll() is not None
        assert transport._sock.fileno() == -1

    def test_server_death_mid_path_carries_step_context(self, fake_server, demo):
        with _fake(fake_server, "die-mid-path") as remote:
            with pytest.raises(DenoiserError) as err:
                generate(remote, demo["x_top"], demo["c_a"], demo["grid"],
                         demo["schedule"])
            assert isinstance(err.value, (TransportClosedError, RemoteTimeoutError))
            assert err.value.sampling_step is not None


def _tcp_server(demo, host: str = "127.0.0.1") -> int:
    """The port of a ``serve_tcp`` of the demo model listening on ``host``."""
    server = socket.create_server((host, 0), family=socket.AF_INET6 if ":" in host
                                  else socket.AF_INET, backlog=1)
    threading.Thread(target=serve_tcp, args=(demo["denoiser"], server), daemon=True).start()
    return server.getsockname()[1]


def _hangup_tcp_server() -> int:
    """A TCP peer that accepts one connection and closes it without reading the hello."""
    listener = socket.create_server(("127.0.0.1", 0))

    def hang_up():
        with listener:
            conn, _ = listener.accept()
            with conn:  # closing with the hello unread resets the connection
                select.select([conn], [], [], 5.0)

    threading.Thread(target=hang_up, daemon=True).start()
    return listener.getsockname()[1]


class TestTcpTransport:
    def test_round_trip_over_tcp(self, demo):
        remote = RemoteDenoiser.from_address("127.0.0.1", _tcp_server(demo), d=2, m=2)
        try:
            x = np.array([0.7, -0.1])
            got = remote.predict_noise(x, demo["c_a"], 0.42, 840)
            expect = demo["denoiser"].predict_noise(x, demo["c_a"], 0.42, 840)
            assert np.array_equal(got, expect)
        finally:
            remote.close()

    def test_close_releases_the_connection(self, demo):
        port = _tcp_server(demo)
        first = RemoteDenoiser.from_address("127.0.0.1", port, d=2, m=2)
        first.close()
        # the server answers one connection at a time, so it must see the first end
        with RemoteDenoiser.from_address("127.0.0.1", port, d=2, m=2, timeout=5.0) as second:
            assert second.d == 2

    def test_undecodable_line_gets_a_malformed_frame_reply(self, demo):
        port = _tcp_server(demo)
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn, \
                conn.makefile("rb") as replies:
            conn.sendall(b"\xff\xfe\n")
            assert json.loads(replies.readline()) == {"id": None, "error": "malformed frame"}
            conn.sendall(b'{"id": 0, "op": "hello", "d": 2, "m": 2}\n')
            assert json.loads(replies.readline())["op"] == "hello"
        # the listener survives the bad line and serves the next connection
        with RemoteDenoiser.from_address("127.0.0.1", port, d=2, m=2, timeout=5.0) as second:
            assert second.d == 2

    def test_client_reset_with_replies_unread_ends_only_its_connection(self, demo):
        port = _tcp_server(demo)
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
            conn.sendall(b'{"id": 0, "op": "hello", "d": 2, "m": 2}\n' * 1000)
            # linger 0: closing resets the connection instead of ending it
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        with RemoteDenoiser.from_address("127.0.0.1", port, d=2, m=2, timeout=5.0) as second:
            assert second.d == 2

    def test_half_closed_client_reads_its_replies_to_the_end(self, demo):
        with socket.create_connection(("127.0.0.1", _tcp_server(demo)), timeout=5.0) as conn, \
                conn.makefile("rb") as replies:
            conn.sendall(b'{"id": 0, "op": "hello", "d": 2, "m": 2}\n')
            conn.shutdown(socket.SHUT_WR)
            # once the client's frames end, the server closes the connection
            assert [json.loads(line)["op"] for line in replies.read().splitlines()] == ["hello"]

    def test_refused_connect_names_the_peer(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
        with pytest.raises(TransportClosedError, match=f"127.0.0.1:{port}"):
            RemoteDenoiser.from_address("127.0.0.1", port, d=2, m=2)

    def test_connect_timeout_names_the_peer(self, monkeypatch):
        def no_answer(address, timeout):
            raise TimeoutError("timed out")

        monkeypatch.setattr(socket, "create_connection", no_answer)
        with pytest.raises(RemoteTimeoutError, match="127.0.0.1:7000"):
            RemoteDenoiser.from_address("127.0.0.1", 7000, d=2, m=2)

    def test_reset_connection_closes_the_transport(self):
        with pytest.raises(TransportClosedError):
            RemoteDenoiser.from_address("127.0.0.1", _hangup_tcp_server(), d=2, m=2)


@pytest.mark.parametrize("peer", ["cmd", "tcp", "tcp6"])
@pytest.mark.parametrize("command", [f"{command} --preset {preset}"
                                     for command in ("sweep", "edit")
                                     for preset in ("guidance-default", "noise-interp-local")])
def test_remote_artifacts_are_the_in_process_bytes(demo, command, peer, tmp_path,
                                                   monkeypatch, capsys):
    if peer == "cmd":
        spec = "cmd:" + shlex.join([sys.executable, "-m", "diffpath.cli", "serve"])
    elif peer == "tcp":
        spec = f"tcp:127.0.0.1:{_tcp_server(demo)}"
    else:
        try:
            spec = f"tcp:[::1]:{_tcp_server(demo, '::1')}"
        except OSError as err:
            pytest.skip(f"no IPv6 loopback: {err}")
    got = _run([*command.split(), "--remote", spec], tmp_path, monkeypatch, capsys)
    assert got == DIGESTS[command]
