import contextlib
import copy
import io
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffpath import cli, config, remote
from diffpath.cli import main
from diffpath.config import RunConfig, canonical_json, config_digest
from diffpath.output import SWEEP_CSV_HEADER
from diffpath.presets import demo_config_dict, preset_manipulation
from diffpath.remote import RemoteDenoiser, TransportClosedError

from conftest import NanRowDenoiser


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(demo_config_dict()))
    return path


def _read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestEdit:
    def test_smoke_contract(self, tmp_path, config_path, capsys):
        out = tmp_path / "artifacts"
        code = main(["edit", "--config", str(config_path), "--preset",
                     "noise-interp-local", "--output", str(out)])
        assert code == 0
        header, rows = _read_csv(out / "edit.csv")
        assert ",".join(header) == SWEEP_CSV_HEADER
        assert len(rows) == 1
        assert rows[0][0] == "noise_interp"
        assert (out / "edit.svg").read_text().startswith("<svg")
        profile_header, profile_rows = _read_csv(out / "edit_profile.csv")
        assert profile_header[-2] == "divergence_from_reference"
        t_sample = demo_config_dict()["sampler"]["t_sample"]
        assert len(profile_rows) == t_sample + 1
        assert float(profile_rows[0][2]) == 0.0
        stdout = capsys.readouterr().out
        assert "seed=" in stdout and "config_digest=" in stdout

    def test_config_digest_computed_once(self, tmp_path, config_path, monkeypatch):
        calls = []
        digest = cli.config_digest
        monkeypatch.setattr(cli, "config_digest",
                            lambda config: calls.append(config) or digest(config))
        assert main(["edit", "--config", str(config_path), "--output", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_set_overrides_apply(self, tmp_path, config_path):
        out = tmp_path / "o"
        code = main(["edit", "--config", str(config_path), "--output", str(out),
                     "--set", "manipulation.schedule.amplitude=0.5"])
        assert code == 0
        _, rows = _read_csv(out / "edit.csv")
        assert rows[0][4] == "0.5"


class TestDemo:
    def test_prompt_switch_extremes(self, tmp_path, config_path):
        out = tmp_path / "demo"
        code = main(["demo", "--config", str(config_path), "--scenario",
                     "prompt-switch", "--output", str(out)])
        assert code == 0
        header, rows = _read_csv(out / "prompt_switch.csv")
        assert header[0] == "k"
        t_sample = demo_config_dict()["sampler"]["t_sample"]
        assert len(rows) == t_sample + 1
        assert int(rows[0][0]) == t_sample and float(rows[0][-3]) == 0.0
        assert int(rows[-1][0]) == 0 and float(rows[-1][-2]) == 0.0
        assert all(int(row[-1]) == demo_config_dict()["seed"] for row in rows)

    def test_window_grid_shape(self, tmp_path, config_path):
        out = tmp_path / "demo"
        code = main(["demo", "--config", str(config_path), "--scenario",
                     "window-grid", "--output", str(out)])
        assert code == 0
        _, rows = _read_csv(out / "window_grid.csv")
        assert len(rows) == 25

    def test_guidance_grid(self, tmp_path, config_path):
        out = tmp_path / "demo"
        # the grid's two betas above 0 extrapolate beyond the interpolation range
        with pytest.warns(UserWarning, match="outside") as caught:
            code = main(["demo", "--config", str(config_path), "--scenario",
                         "guidance-grid", "--output", str(out)])
        assert code == 0
        assert {str(w.message).split()[1] for w in caught} == {"beta=0.3", "beta=0.7"}
        _, rows = _read_csv(out / "guidance_grid.csv")
        assert len(rows) == 25
        assert all(row[0] == "guidance" for row in rows)

    def test_schedule_grid(self, tmp_path, config_path):
        out = tmp_path / "demo"
        code = main(["demo", "--config", str(config_path), "--scenario",
                     "schedule-grid", "--output", str(out)])
        assert code == 0
        _, rows = _read_csv(out / "schedule_grid.csv")
        assert len(rows) == 21
        assert {row[1] for row in rows} == {"linear", "cosine", "exponential"}


class TestSweep:
    def test_default_grid_byte_stable_reruns(self, tmp_path, config_path):
        # no --axis: the default window-top x window-length grid, 25 points
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code = main(["sweep", "--config", str(config_path), "--output", str(out)])
            assert code == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]
        header, rows = _read_csv(tmp_path / "s1" / "sweep.csv")
        assert len(rows) == 25

    def test_schedule_axis(self, tmp_path, config_path):
        out = tmp_path / "s"
        code = main(["sweep", "--config", str(config_path), "--output", str(out),
                     "--axis", "schedule=linear,cosine", "--axis", "t_m=20,30"])
        assert code == 0
        _, rows = _read_csv(out / "sweep.csv")
        assert sorted({row[1] for row in rows}) == ["cosine", "linear"]


class TestGenerateInvert:
    def test_generate_writes_path(self, tmp_path, config_path):
        out = tmp_path / "g"
        assert main(["generate", "--config", str(config_path),
                     "--output", str(out)]) == 0
        header, rows = _read_csv(out / "path.csv")
        assert header[:3] == ["index", "sampling_step", "training_step"]
        assert header[-1] == "seed"
        t_sample = demo_config_dict()["sampler"]["t_sample"]
        assert len(rows) == t_sample + 1
        assert (out / "path.svg").exists()

    def test_svg_only_for_planar_models(self, tmp_path):
        data = demo_config_dict()
        data["model"]["d"] = 3
        for comp in data["model"]["components"]:
            comp["base_mean"] = comp["base_mean"] + [0.0]
            comp["condition_map"] = comp["condition_map"] + [[0.1, 0.1]]
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "g3"
        assert main(["generate", "--config", str(path), "--output", str(out)]) == 0
        assert (out / "path.csv").exists()
        assert not (out / "path.svg").exists()

    def test_invert_reports_round_trip(self, tmp_path, config_path, capsys):
        out = tmp_path / "i"
        assert main(["invert", "--config", str(config_path),
                     "--output", str(out)]) == 0
        assert (out / "inversion.csv").exists()
        assert (out / "reconstruction.csv").exists()
        assert "round-trip relative error" in capsys.readouterr().out

    def test_report_table(self, tmp_path, config_path):
        out = tmp_path / "r"
        assert main(["report", "--config", str(config_path), "--output", str(out),
                     "--samples", "2", "--t-sample", "25", "--t-sample", "50"]) == 0
        header, rows = _read_csv(out / "inversion_report.csv")
        assert header == ["t_sample", "mean_rel_error", "max_rel_error", "seed"]
        assert [int(r[0]) for r in rows] == [25, 50]


#: beta_1 = 0 leaves alpha_bar = 1 at level 1, the lowest level of a 1000-step grid
ZERO_NOISE = ["--set", "sampler.beta_min=0", "--set", "sampler.t_sample=1000"]


class TestFailures:
    def test_validation_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = demo_config_dict()
        data["sampler"]["t_sample"] = 5000
        bad.write_text(json.dumps(data))
        code = main(["generate", "--config", str(bad), "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("diffpath-error kind=validation")

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = demo_config_dict()
        data["mystery"] = 1
        bad.write_text(json.dumps(data))
        assert main(["generate", "--config", str(bad),
                     "--output", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("command", ["generate", "invert", "report"])
    def test_unknown_condition_exits_one(self, tmp_path, command, capsys):
        assert main([command, "--condition", "zz", "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == \
            'diffpath-error kind=validation message="unknown condition \'zz\'"\n'
        assert not (tmp_path / "x").exists()

    def test_unknown_preset_exits_one_in_one_quoted_message(self, tmp_path, capsys):
        assert main(["edit", "--preset", "nope", "--output", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            'diffpath-error kind=validation message="unknown preset \'nope\'; available: [')
        assert err.count('"') == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value, shown", [
        ('"it\'s"', '\\"it\'s\\"'),
        ('"a\\\\b"', "'a\\\\\\\\b'"),
    ], ids=["quotes", "backslash"])
    def test_quotes_and_backslashes_in_a_message_are_escaped(self, value, shown, capsys):
        assert main(["config", "--set", f"seed={value}"]) == 1
        assert capsys.readouterr().err == \
            f'diffpath-error kind=validation message="seed must be an integer, got {shown}"\n'

    def test_a_stray_key_error_is_a_runtime_failure(self, monkeypatch, capsys):
        def broken(args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "_load_config", broken)
        assert main(["config"]) == 2
        assert capsys.readouterr().err == 'diffpath-error kind=runtime message="\'x\'"\n'

    def test_repeated_axis_exits_one_naming_it(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["sweep", "--axis", "t_m=5,10", "--axis", "t_m=3",
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == \
            'diffpath-error kind=validation message="--axis \'t_m\' is given more than once"\n'
        assert not out.exists()

    def test_declared_dimension_mismatch_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = demo_config_dict()
        data["model"]["d"] = 3
        bad.write_text(json.dumps(data))
        assert main(["generate", "--config", str(bad),
                     "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("diffpath-error kind=validation")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "none.json")]) == 1

    def test_bad_json_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["config", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("diffpath-error kind=validation")

    @pytest.mark.parametrize("text", [
        b'{"seed": ' + b"9" * 5000 + b"}", b"[" * 100_000, b'{"seed": "\xff"}',
    ], ids=["over-digit-limit", "too-deep", "not-utf-8"])
    def test_unreadable_config_file_exits_one_naming_it(self, tmp_path, text, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["config", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            f'diffpath-error kind=validation message="config file {bad}: ')

    def test_overlong_schedule_is_rejected_before_it_is_built(self, monkeypatch, capsys):
        # 10**9 training steps would be three 8 GB arrays
        def unbuilt(*args):
            raise AssertionError("the schedule must not be built")

        monkeypatch.setattr(config, "build_linear_beta_schedule", unbuilt)
        monkeypatch.setattr(config, "make_timestep_grid", unbuilt)
        assert main(["config", "--set", "sampler.t_train=1000000000"]) == 1
        assert capsys.readouterr().err.startswith(
            'diffpath-error kind=validation message="sampler.t_train must be at most 1000000, '
            'got 1000000000"')

    def test_dying_server_exits_two_and_removes_partial_outputs(
            self, tmp_path, config_path, capsys):
        fake = tmp_path / "fake server.py"
        fake.write_text(
            "import json, sys\n"
            "count = 0\n"
            "for line in sys.stdin:\n"
            "    msg = json.loads(line)\n"
            "    if msg.get('op') == 'hello':\n"
            "        print(json.dumps({'id': msg['id'], 'op': 'hello',\n"
            "                          'd': msg['d'], 'm': msg['m']}), flush=True)\n"
            "        continue\n"
            "    count += 1\n"
            "    if count > 3:\n"
            "        sys.exit(1)\n"
            "    print(json.dumps({'id': msg['id'], 'eps': [0.0, 0.0]}), flush=True)\n")
        out = tmp_path / "partial"
        code = main(["edit", "--config", str(config_path), "--output", str(out),
                     "--remote", f"cmd:{sys.executable} '{fake}'"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("diffpath-error kind=runtime")
        assert not list(out.glob("*")) if out.exists() else True

    def test_tcp_peer_with_a_bad_hello_exits_two(self, tmp_path, config_path, capsys):
        # the address is fine, so the peer's reply is a runtime failure, not a bad address
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_hello():
            with listener, listener.accept()[0] as conn, conn.makefile("rw") as stream:
                msg = json.loads(stream.readline())
                stream.write(json.dumps({"id": msg["id"], "op": "hello", "d": "two", "m": 2})
                             + "\n")
                stream.flush()
                stream.readline()  # until the client hangs up

        server = threading.Thread(target=answer_hello, daemon=True)
        server.start()
        port = listener.getsockname()[1]
        code = main(["edit", "--config", str(config_path), "--output", str(tmp_path / "x"),
                     "--remote", f"tcp:127.0.0.1:{port}"])
        server.join(5.0)
        assert not server.is_alive()  # the client closed the connection
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("diffpath-error kind=runtime") and "integer d and m" in err

    def test_bad_row_in_a_sweep_exits_two_and_writes_nothing(
            self, tmp_path, config_path, monkeypatch, capsys):
        build = RunConfig.build_denoiser
        monkeypatch.setattr(RunConfig, "build_denoiser", lambda config: NanRowDenoiser(
            build(config), config.grid.steps[50 - 20], row=5))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diffpath-error kind=runtime")
        assert "non-finite noise (sampling step 20," in err
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("flag, value, field", [
        ("--set", "seed=1.5", "seed"),
        ("--set", "model.d=2.5", "model.d"),
        ("--set", "model.m=2.5", "model.m"),
        ("--set", "sampler.t_train=1000.5", "sampler.t_train"),
        ("--set", "sampler.t_sample=50.5", "sampler.t_sample"),
        ("--set", "sampler.t_sample=true", "sampler.t_sample"),
        ("--set", "manipulation.schedule.t_min=28.9", "manipulation.schedule.t_min"),
        ("--set", "manipulation.schedule.t_max=\"48\"", "manipulation.schedule.t_max"),
        ("--set", "manipulation.schedule.amplitude=true", "manipulation.schedule.amplitude"),
        ("--set", "manipulation.schedule.amplitude=\"0.5\"",
         "manipulation.schedule.amplitude"),
        ("--set", "manipulation.beta=x", "manipulation.beta"),
        ("--set", "manipulation.beta=false", "manipulation.beta"),
        ("--set", "sampler.beta_min=x", "sampler.beta_min"),
        ("--set", "sampler.beta_max=[0.02]", "sampler.beta_max"),
        ("--set", "conditions.a=[true,0.25]", "conditions.a[0]"),
        ("--set", "model.components.1.variance=true", "model.components[1].variance"),
        ("--set", 'manipulation.mask=[1,"0"]', "manipulation.mask[1]"),
        ("--axis", "t_m=10.7", "sweep axis 't_m'"),
        ("--axis", "t_m=abc", "sweep axis 't_m'"),
        ("--axis", "t_m=null", "sweep axis 't_m'"),
        ("--axis", "t_max=[1]", "sweep axis 't_max'"),
        ("--axis", "t_min=1.5", "sweep axis 't_min'"),
        ("--axis", "weight=x", "sweep axis 'weight'"),
        ("--axis", "beta=x", "sweep axis 'beta'"),
        ("--set", "conditions.a=[NaN,0]", "conditions.a[0]"),
        ("--set", "sampler.beta_min=1e400", "sampler.beta_min"),
        pytest.param("--set", f"model.components.0.variance={10**400}",
                     "model.components[0].variance", id="huge-integer-variance"),
        pytest.param("--axis", f"beta={10**400}", "sweep axis 'beta'", id="huge-integer-beta"),
        # past the interpreter's integer digit limit or its nesting depth, a
        # value is its own string
        pytest.param("--set", f"seed={'9' * 5000}", "seed", id="over-digit-limit-seed"),
        pytest.param("--axis", f"beta={'9' * 5000}", "sweep axis 'beta'",
                     id="over-digit-limit-beta"),
        pytest.param("--set", f"seed={'[' * 100_000}", "seed", id="too-deep-seed"),
        pytest.param("--axis", f"beta={'[' * 100_000}", "sweep axis 'beta'", id="too-deep-beta"),
    ])
    def test_malformed_number_exits_one_naming_its_field(self, tmp_path, flag, value, field,
                                                          capsys):
        assert main(["sweep", flag, value, "--output", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f'diffpath-error kind=validation message="{field} must be ')
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override, message", [
        ("model.components=5", "model.components must be a list, got 5"),
        ('model.components={"x":1}', "model.components must be a list, got {'x': 1}"),
        ("model.components.0.base_mean=5", "model.components[0].base_mean must be a list"),
        ("model.components.0.condition_map=[[1,0],[0]]",
         "model.components[0].condition_map[1] has length 1 but model.m is 2"),
        ("model.components.0.variance=1e308", "model: component 0's variance 1e+308 is too large"),
        ("conditions.c=[1]", "conditions.c has length 1 but model.m is 2"),
        ("sampler.t_sample=0", "sampler: t_sample must be >= 1"),
        ("manipulation.condition_a=5", "manipulation.condition_a must be a string, got 5"),
        ("manipulation.condition_b=c", "manipulation.condition_b: 'c' is not in conditions"),
        ("output.formats=[\"pdf\"]", "output.formats[0] must be 'csv' or 'svg', got 'pdf'"),
        ("manipulation.cam_hook=identity",
         "manipulation: cam_hook is only meaningful for the attention kind"),
    ])
    def test_malformed_field_exits_one_naming_its_path(self, tmp_path, override, message,
                                                       capsys):
        assert main(["edit", "--set", override, "--output", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f'diffpath-error kind=validation message="{message}')
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", [
        f"seed={'9' * 4000}", f'seed="{"x" * 5000}"',
        f"manipulation.condition_a=[{','.join(['1'] * 3000)}]",
    ], ids=["huge-integer", "long-string", "long-list"])
    def test_a_long_rejected_value_is_shown_cut(self, override, capsys):
        # the line names the field and shows the value's start and its length
        assert main(["config", "--set", override]) == 1
        err = capsys.readouterr().err
        field = override.split("=")[0]
        assert err.startswith(f'diffpath-error kind=validation message="{field} must be ')
        assert len(err) < 200 and "characters)" in err

    def test_output_flag_with_a_malformed_output_section_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["edit", "--set", "output=5", "--output", str(out)]) == 1
        assert capsys.readouterr().err == \
            'diffpath-error kind=validation message="output must be an object, got 5"\n'
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["generate", *ZERO_NOISE], "grid level 1 has alpha_bar = 1: it holds no noise"),
        (["invert", *ZERO_NOISE], "grid level 1 has alpha_bar = 1: it holds no noise"),
        (["report", "--t-sample", "1000", *ZERO_NOISE],
         "grid level 1 has alpha_bar = 1: it holds no noise"),
        (["sweep", "--axis", "schedule=linear,5"], "axis values must be mutually comparable: "
         "'<' not supported between instances of 'int' and 'str'"),
        (["sweep", "--axis", "t_max"], "--axis 't_max' is not of the form name=v1,v2,..."),
        (["edit", "--remote", "cmd:"], "--remote cmd: needs a command line"),
    ], ids=["zero-noise-generate", "zero-noise-invert", "zero-noise-report",
            "incomparable-axis", "axis-without-values", "remote-without-command"])
    def test_bad_input_exits_one_with_its_message(self, argv, message, tmp_path, capsys):
        assert main([*argv, "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == \
            f'diffpath-error kind=validation message="{message}"\n'
        assert not (tmp_path / "x").exists()

    def test_config_root_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1]")
        assert main(["config", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == \
            'diffpath-error kind=validation message="config root must be an object"\n'

    def test_bad_remote_spec_exits_one(self, config_path, capsys):
        assert main(["edit", "--config", str(config_path), "--remote", "ftp:x"]) == 1

    @pytest.mark.parametrize("spec", ["tcp:localhost", "tcp:[::1]:x", "tcp:127.0.0.1:"])
    def test_remote_address_without_a_port_names_both_forms(self, spec, tmp_path, capsys):
        assert main(["edit", "--remote", spec, "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            f'diffpath-error kind=validation message="bad --remote address \'{spec}\': '
            'expected \'tcp:HOST:PORT\' or \'tcp:[IPV6]:PORT\'"\n')
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, flag, port", [
        (["edit", "--remote", "tcp:127.0.0.1:101977"], "--remote", 101977),
        (["sweep", "--remote", "tcp:127.0.0.1:-1"], "--remote", -1),
        (["generate", "--remote", "tcp:127.0.0.1:0"], "--remote", 0),
        (["serve", "--tcp", "70000"], "--tcp", 70000),
        (["serve", "--tcp", "-1"], "--tcp", -1)])
    def test_port_out_of_range_exits_one_before_any_socket(self, argv, flag, port, tmp_path,
                                                           monkeypatch, capsys):
        # the resolver would wrap 101977 to 36441, and bind() rejects 70000 at run time
        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(socket, "create_connection", no_socket)
        monkeypatch.setattr(socket, "create_server", no_socket)
        monkeypatch.setattr(remote, "serve_tcp", no_socket)
        assert main([*argv, "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == ('diffpath-error kind=validation message='
                                           f'"{flag} port must be in 1-65535, got {port}"\n')
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("scenario", ["guidance-grid", "window-grid"])
    def test_demo_without_manipulation_exits_one(self, tmp_path, scenario, capsys):
        bare = tmp_path / "bare.json"
        data = demo_config_dict()
        del data["manipulation"]
        bare.write_text(json.dumps(data))
        assert main(["demo", "--config", str(bare), "--scenario", scenario,
                     "--output", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("diffpath-error kind=validation")
        assert "this command needs a manipulation section (or --preset)" in err


def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run this interpreter on ``argv``; conftest.py makes the package's sources importable."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True)


def _loaded(code: str, names: tuple[str, ...], stdin: str = "") -> tuple[str, str]:
    """A fresh interpreter's stdout after running ``code``, and which of ``names`` it loaded."""
    probe = f"{code}\nimport sys\nprint(sorted(set(sys.modules) & {set(names)!r}), file=sys.stderr)"
    result = subprocess.run([sys.executable, "-c", probe], input=stdin, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout, result.stderr.strip()


def test_cli_import_loads_only_what_main_needs():
    # the engine pieces and standard-library modules that only some commands run
    names = ("scipy", "diffpath.metrics", "diffpath.output", "diffpath.remote",
             "argparse", "statistics", "hashlib", "subprocess",
             "diffpath.edits", "diffpath.sampler", "socket")
    assert _loaded("import diffpath.cli", names) == ("", "[]")


def test_serve_loads_no_scoring_or_rendering():
    out, loaded = _loaded("from diffpath.cli import main; main(['serve'])",
                          ("scipy", "diffpath.metrics", "diffpath.output",
                           "diffpath.edits", "diffpath.sampler", "socket"),
                          stdin='{"id": 0, "op": "hello", "d": 2, "m": 2}\n')
    assert json.loads(out) == {"id": 0, "op": "hello", "d": 2, "m": 2, "concurrent": True}
    assert loaded == "[]"


def test_config_with_a_cam_hook_loads_no_engine():
    # attention-local names a cam hook, so the config checks the hook registry
    out, loaded = _loaded("from diffpath.cli import main; main(['config', '--preset', "
                          "'attention-local'])",
                          ("diffpath.edits", "diffpath.sampler", "diffpath.metrics",
                           "diffpath.output", "diffpath.remote"))
    assert json.loads(out)["manipulation"]["cam_hook"] == "identity"
    assert loaded.splitlines()[-1] == "[]"  # after the seed and digest line


def test_write_failing_midway_leaves_no_partial_or_temp_file(tmp_path, config_path):
    # files may not grow past 1000 bytes, so writing path.csv (about 5 kB) fails midway
    probe = ("import resource, sys; from diffpath.cli import main; "
             "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
             "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, hard)); "
             "sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "full"
    result = _python("-c", probe, "generate", "--config", str(config_path),
                     "--output", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith("diffpath-error kind=runtime")
    assert "File too large" in result.stderr
    assert list(out.iterdir()) == []


class TestServe:
    def test_serve_tcp_answers_with_the_oracles_bits(self, demo):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        threading.Thread(target=main, args=(["serve", "--tcp", str(port)],), daemon=True).start()
        deadline = time.monotonic() + 10.0
        while True:
            try:
                remote = RemoteDenoiser.from_address("127.0.0.1", port, d=2, m=2)
                break
            except TransportClosedError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        x = np.array([0.7, -0.1])
        with remote:
            got = remote.predict_noise(x, demo["c_a"], 0.42, 840)
        expect = demo["denoiser"].predict_noise(x, demo["c_a"], 0.42, 840)
        assert got.tobytes() == expect.tobytes()


class TestConfigCommand:
    def test_canonical_output_round_trips(self, config_path, capsys, demo_cfg):
        assert main(["config", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out == canonical_json(demo_cfg)

    def test_output_flag_sets_the_directory_the_digest_names(self, capsys):
        assert main(["config", "--output", "elsewhere"]) == 0
        data = demo_config_dict()
        data["output"]["directory"] = "elsewhere"
        captured = capsys.readouterr()
        assert captured.out == canonical_json(RunConfig.from_dict(data))
        assert f"config_digest={config_digest(RunConfig.from_dict(data))}" in captured.err

    def test_preset_replaces_a_manipulation_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**demo_config_dict(), "manipulation": 5}))
        assert main(["config", "--config", str(path), "--preset", "guidance-default"]) == 0
        manip = json.loads(capsys.readouterr().out)["manipulation"]
        assert (manip["kind"], manip["condition_a"], manip["condition_b"]) == ("guidance", "a", "b")

    def test_env_var_default_output_dir(self, tmp_path, monkeypatch):
        data = demo_config_dict()
        del data["output"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        target = tmp_path / "from-env"
        monkeypatch.setenv("DIFFPATH_OUTPUT_DIR", str(target))
        assert main(["edit", "--config", str(path), "--preset",
                     "noise-interp-local"]) == 0
        assert (target / "edit.csv").exists()


#: what a fuzzed leaf is swapped for
SWAPS = (True, "x", None, [], {}, 1e308, -1e308)


def _nodes(node, path=()):
    """Every (path, value) below ``node``; a path is a tuple of keys and indices."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _dotted(path) -> str:
    """``path`` as config errors name it, e.g. ``model.components[0].base_mean[1]``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@st.composite
def mutated_configs(draw):
    """The demo config, bare or under the guidance-default preset, with one mutation.

    A leaf is swapped for one of ``SWAPS``, a key dropped or added, or a list
    shortened or lengthened.  Returns the config and the mutated path.
    """
    data = demo_config_dict()
    if draw(st.booleans()):
        data["manipulation"] = {**preset_manipulation("guidance-default"),
                                "condition_a": "a", "condition_b": "b"}
    nodes = list(_nodes(data))
    mutation = draw(st.sampled_from(["swap", "drop", "add", "resize"]))
    value = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    if mutation == "swap":
        path = draw(st.sampled_from([p for p, v in nodes if not isinstance(v, (dict, list))]))
    elif mutation == "drop":
        path = draw(st.sampled_from([p for p, _ in nodes if isinstance(p[-1], str)]))
    elif mutation == "add":
        parent = draw(st.sampled_from([()] + [p for p, v in nodes if isinstance(v, dict)]))
        path = parent + (draw(st.sampled_from(["x", "beta", "mask", "cam_hook", "amplitude"])),)
    else:
        path = draw(st.sampled_from([p for p, v in nodes if isinstance(v, list) and v]))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "drop":
        del parent[key]
    elif mutation == "resize":
        parent[key].pop() if draw(st.booleans()) else parent[key].append(parent[key][-1])
    else:
        parent[key] = value
    return data, path


@settings(max_examples=200, deadline=None)
@given(case=mutated_configs())
def test_a_mutated_config_exits_zero_or_one_naming_its_path(case):
    data, path = case
    # the mutated path or one of its ancestors, as a whole dotted path
    named = re.compile("|".join(rf"(?<![\w.\[]){re.escape(_dotted(path[:i]))}(?!\w)"
                                for i in range(1, len(path) + 1)))
    manip = data.get("manipulation")
    manip = manip if isinstance(manip, dict) else {}
    beta = manip.get("beta")
    warns = manip.get("kind") == "guidance" and type(beta) is float and not -1 <= beta <= 0
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(data))
        for argv in (["config", "--config", str(config)],
                     ["edit", "--config", str(config), "--output", str(out)]):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                    pytest.warns(UserWarning, match="guidance beta") if warns \
                    else contextlib.nullcontext():
                code = main(argv)
            assert code in (0, 1)
            if code == 1:
                message = stderr.getvalue()
                assert message.startswith("diffpath-error kind=validation")
                # a valid config whose endpoints no float can score names the metric
                assert named.search(message) or argv[0] == "edit" and re.search(
                    "(layout_preservation|semantic_alignment|ab_gap) exceeds the float range",
                    message)
                assert not out.exists() or not any(out.iterdir())
