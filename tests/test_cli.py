import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from diffpath import cli
from diffpath.cli import main
from diffpath.config import RunConfig, canonical_json
from diffpath.output import SWEEP_CSV_HEADER
from diffpath.presets import demo_config_dict

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
            build(config), config.grid.level(50 - 20), row=5))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diffpath-error kind=runtime")
        assert "non-finite noise (sampling step 20," in err
        assert not out.exists() or os.listdir(out) == []

    def test_bad_remote_spec_exits_one(self, config_path, capsys):
        assert main(["edit", "--config", str(config_path), "--remote", "ftp:x"]) == 1

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
    """Run this interpreter on ``argv`` with the package's sources importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    probe = ("import diffpath.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = _python("-c", probe)
    assert result.returncode == 0
    assert result.stdout.strip() == "[]"


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


class TestConfigCommand:
    def test_canonical_output_round_trips(self, config_path, capsys, demo_cfg):
        assert main(["config", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out == canonical_json(demo_cfg)

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
