import io
import json
import math
import select
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffpath.config import canonical_json
from diffpath.denoiser import ConditionEmbedding, Denoiser
from diffpath.edits import ManipulationConfig, run_edit
from diffpath.errors import DenoiserError
from diffpath.remote import (DimensionMismatchError, IdMismatchError,
                             MalformedFrameError, RemoteDenoiser,
                             RemoteTimeoutError, TransportClosedError,
                             serve_stream, serve_tcp)
from diffpath.sampler import generate
from diffpath.schedule import ScheduleSpec


@pytest.fixture(scope="module")
def config_file(tmp_path_factory, demo_cfg):
    path = tmp_path_factory.mktemp("remote") / "config.json"
    path.write_text(canonical_json(demo_cfg))
    return path


def _spawn_server(config_file):
    return RemoteDenoiser.from_command(
        [sys.executable, "-m", "diffpath.cli", "serve", "--config", str(config_file)],
        d=2, m=2, timeout=30.0)


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
_vectors = st.lists(_numbers, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
_frames = st.fixed_dictionaries(
    {"id": st.one_of(_numbers, st.text(max_size=4).map(json.dumps))},
    optional={"op": st.sampled_from(['"hello"', '"predict_noise"', '"warp"']),
              "d": _numbers, "m": _numbers, "x": _vectors, "c": _vectors,
              "t": _numbers, "alpha_bar": _numbers},
).map(lambda fields: "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
_floats = st.floats(allow_nan=False, allow_infinity=False)
#: well-formed requests, some with the wrong dimensions or a huge latent
_requests = st.one_of(
    st.builds(lambda i, d, m: json.dumps({"id": i, "op": "hello", "d": d, "m": m}),
              st.integers(0, 99), st.sampled_from([2, 3]), st.sampled_from([2, 1])),
    st.builds(lambda i, x, c, t, a: json.dumps({"id": i, "op": "predict_noise", "x": x,
                                                "c": c, "t": t, "alpha_bar": a}),
              st.integers(0, 99), st.lists(_floats, min_size=1, max_size=3),
              st.lists(st.floats(-10, 10), min_size=2, max_size=2),
              st.integers(1, 1000), st.floats(0.0, 1.0)))
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
                assert len(reply["eps"]) == 2
                assert all(math.isfinite(v) for v in reply["eps"])
            elif kinds == ["op"]:
                assert reply["op"] == "hello"


FAKE_SERVER = r"""
import json, select, sys, time
mode = sys.argv[1]
if mode == "hangup":  # wait for the hello, then exit without reading it
    select.select([sys.stdin], [], [])
    sys.exit(0)
count = 0
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("op") == "hello":
        if mode == "baddim":
            reply = {"id": msg["id"], "op": "hello", "d": 5, "m": 5}
        else:
            reply = {"id": msg["id"], "op": "hello", "d": msg["d"], "m": msg["m"]}
        print(json.dumps(reply), flush=True)
        continue
    count += 1
    if mode == "shorteps":
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
        with pytest.raises(DimensionMismatchError):
            _fake(fake_server, "baddim")

    def test_server_death_mid_path_carries_step_context(self, fake_server, demo):
        with _fake(fake_server, "die-mid-path") as remote:
            with pytest.raises(DenoiserError) as err:
                generate(remote, demo["x_top"], demo["c_a"], demo["grid"],
                         demo["schedule"])
            assert isinstance(err.value, (TransportClosedError, RemoteTimeoutError))
            assert err.value.sampling_step is not None


def _tcp_server(demo) -> int:
    ready = threading.Event()
    bound: list = []
    thread = threading.Thread(
        target=serve_tcp,
        args=(demo["denoiser"],), kwargs={"port": 0, "ready": ready, "bound": bound},
        daemon=True)
    thread.start()
    assert ready.wait(5.0)
    return bound[0]


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

    def test_reset_connection_closes_the_transport(self):
        with pytest.raises(TransportClosedError):
            RemoteDenoiser.from_address("127.0.0.1", _hangup_tcp_server(), d=2, m=2)
