"""Byte identity of every CLI artifact, pinned by digest.

Each command runs in-process from an empty working directory with
``--output out``, so the printed paths and config digests are stable.  A
command's digest is the sha256 of its exit code, its stdout and the name and
bytes of each artifact it wrote.  The digests were recorded with numpy 2.4.6
on CPython 3.11.7; a changed digest is a changed artifact, to be named in
CHANGES.md.
"""

import hashlib

import pytest

from diffpath import cli
from diffpath.presets import EDIT_PRESETS

DIGESTS = {
    "sweep --preset attention-local":
        "0c123baec21cbda0f51ebe804aa2b820d2e5cbd38ebdc20b966cf494d686b76c",
    "sweep --preset cond-interp-global":
        "e09e9bbadf74478ac1e798faf0d90556e3900e8a08effec83beccabdc8f061d0",
    "sweep --preset cond-interp-local":
        "d5992a0bb7a255669d9074d644054baa4b68ba991ad182335152298f9684c55f",
    "sweep --preset guidance-default":
        "973a24edf1c866f4f45c94d6232ff715e4bfff21a7d1138a6c692d9018e12d68",
    "sweep --preset guidance-local":
        "2d0f4fbccf3de4f1d5703e456e2ff8cf112f182747093700dc88dcc8f24b8bdc",
    "sweep --preset latent-interp-global":
        "f13cdbee84af8a419fb0a8e0f3d70657f2617a79e0b7f1f744922322beef9e77",
    "sweep --preset latent-interp-local":
        "4709eaa4a92f64cfb50a1e0c612c4875a3035b15af9e27cfee631bb5273a9d3f",
    "sweep --preset latent-mask-demo":
        "4ef9b6d051a783934322026d1a871a20d9c125feaa824a5b78376323e31d4b9d",
    "sweep --preset noise-interp-global":
        "4be97cbb96a0d8e500d2c7cc89ad994451964961d5bae933a402c71202497e4e",
    "sweep --preset noise-interp-local":
        "bcf5758c747d342748d620dd3f0710d4741174addd978c4730f8ef8a05bdb818",
    "sweep --preset noise-mask-demo":
        "6e5afcc96b247290ab1f4ff435179974cbf7c6230d8f242f32caa218f7bc7f30",
    "edit --preset attention-local":
        "19d1a045a9f0a6d330000c70f48ab72496321125a29e27b9dc86bce63db8e7b0",
    "edit --preset cond-interp-global":
        "2ea24c09c9cac5d4e3f4e25c84e2185d2053c9160d8383d4214a14fa03638c2f",
    "edit --preset cond-interp-local":
        "9a29db2294e1c7a7debc1b418ddf80f798a6922eb5855e5c40d7ced27578d899",
    "edit --preset guidance-default":
        "6ea4e41bf79f486967d06b8f4ec876b93bf5d57cfe7d73d46d9be64a1632ad39",
    "edit --preset guidance-local":
        "277219ef71b8ec52c699cbc722391f6d0511e2934c5aa4bd8c8fef27279a533b",
    "edit --preset latent-interp-global":
        "3680b2c2608797b0955b84d3d2040a01716a886d755c80a4707e79ecc622e9a9",
    "edit --preset latent-interp-local":
        "f0c7434bdcb4db6042c8145efb9d523b60b916f114b9306cc7f4fdd6dde918a1",
    "edit --preset latent-mask-demo":
        "5257daeb8277ea9f4e08703ac154f6abfd1b46a4f1aa90c833e8f94638645de5",
    "edit --preset noise-interp-global":
        "a57ecb6e769483b9e63ea36628de3422e23e073f18ba933c3f055b88ef80c60e",
    "edit --preset noise-interp-local":
        "34020cef8c2ff2dc3550c2294451e50a8ce4c0c639ed5458833e9afa679b225f",
    "edit --preset noise-mask-demo":
        "bd3ab2094f33b55197b44c6d616cd578b4af8a13e2edec5c08da40e6463a1b6c",
    "demo --scenario prompt-switch":
        "06c8b0aa81f700d950721efdc0f3182cfc39c27ae7fe57665040f65dd2538cf6",
    "demo --scenario window-grid":
        "084436e8696385fea51941f260533436936cca93d71372174911953b4932dfbd",
    "demo --scenario schedule-grid":
        "6138828669783de8ffad2133dccad034f9155a01c9c8320c3bd0f28b60baa080",
    "demo --scenario guidance-grid":
        "573c1273b0ed05c5f323c72cb77354b5e65bcb7ba7a6b10a3e30ea0ed77d3952",
    "generate":
        "826eb23e9c57fc95a132a4276c99d0f6614c4caf6516f94de0f4ba653f7cd143",
    "invert":
        "d8f8f321b367481eb29d9dd688ea4c955b15124006fdf4b3c5c54cb6b39fbc49",
    "report --samples 4":
        "91221f95af6e95d680e4d269548bec91273a696c327e2e8dbd77442df1767af1",
}


def _run(argv: list[str], tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    code = cli.main([*argv, "--output", "out"])
    digest = hashlib.sha256(f"exit {code}\n".encode())
    digest.update(capsys.readouterr().out.encode())
    for path in sorted((tmp_path / "out").iterdir()):
        data = path.read_bytes()
        digest.update(f"\n{path.name} {len(data)}\n".encode() + data)
    return digest.hexdigest()


COMMANDS = [*(f"{command} --preset {preset}" for command in ("sweep", "edit")
              for preset in sorted(EDIT_PRESETS)),
            *(f"demo --scenario {scenario}" for scenario in cli.DEMO_SCENARIOS),
            "generate", "invert", "report --samples 4"]


@pytest.mark.parametrize("command", COMMANDS)
def test_artifact_bytes(command, tmp_path, monkeypatch, capsys):
    if command == "demo --scenario guidance-grid":
        # its betas 0.7 and 0.3 extrapolate beyond the interpolation range
        with pytest.warns(UserWarning, match="outside"):
            got = _run(command.split(), tmp_path, monkeypatch, capsys)
    else:
        got = _run(command.split(), tmp_path, monkeypatch, capsys)
    assert got == DIGESTS[command]
