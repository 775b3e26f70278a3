"""One fresh-interpreter set-up of a workload, timed from inside.

Imports ``diffpath.cli``, builds the workload's config and model and, for
the remote workload, spawns ``diffpath serve`` and completes the handshake.
It then prints one JSON line with its phase times and waits for its standard
input to close before tearing down, so teardown is not part of the set-up.

Run by ``run.py`` with the package's ``src`` directory on ``PYTHONPATH``:

    python3 bench/setup_child.py sweep|nulltext|remote
"""

import json
import sys
import time


def main() -> int:
    workload = sys.argv[1]
    t = time.perf_counter()
    import diffpath.cli  # noqa: F401
    from diffpath.config import RunConfig
    from diffpath.presets import demo_config_dict, preset_manipulation
    from diffpath.remote import RemoteDenoiser
    import_s = time.perf_counter() - t

    data = demo_config_dict()
    if workload != "nulltext":
        preset = "guidance-default" if workload == "remote" else "noise-interp-local"
        data["manipulation"] = {**preset_manipulation(preset),
                                "condition_a": "a", "condition_b": "b"}
    config = RunConfig.from_dict(data)
    config.build_denoiser()
    config.build_conditions()
    config.build_grid()
    config.build_noise_schedule()

    server = None
    server_ready_s = 0.0
    if workload == "remote":
        t = time.perf_counter()
        server = RemoteDenoiser.from_command(
            [sys.executable, "-m", "diffpath.cli", "serve"],
            config.model.d, config.model.m, timeout=60.0)
        server_ready_s = time.perf_counter() - t
    try:
        print(json.dumps({"import_s": import_s, "server_ready_s": server_ready_s}),
              flush=True)
        sys.stdin.read()
    finally:
        if server is not None:
            server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
