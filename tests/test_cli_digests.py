"""SHA-256 digests of the CLI's stdout for a fixed list of commands, run
in-process through `cli.main`: any change to a byte of their output fails
the command's own case. The `search` lines drop their two timing fields.

Regenerate them only when an output is meant to change:
`PYTHONPATH=src python tests/test_cli_digests.py` prints them (tests/golden.py).
"""

import contextlib
import io
import re

import pytest

import golden
from kurepa import _memo
from kurepa.cli import main

_TIMING = re.compile(r', "(elapsed_s|primes_per_second)": [^,}]*')

COMMANDS = [
    "catalog --to 1000 --format json",
    "catalog --to 60",
    *(f"residues --p {p} --pow {e} --format json"
      for p in (3, 13, 3001) for e in (1, 2, 3)),
    "residues --p 13 --format csv",
    *(f"table {name} --format json" for name in (
        "table1", "quotients", "gertsch", "agoh_giuga", "bell_wilson",
        "factorizations")),
    *(f"adele {name} --pmax 1000 --format json" for name in (
        "gamma_W", "gamma_M", "gamma_G", "gamma_L", "gamma_AG", "gamma_Kp",
        "gamma_Q")),
    "adele G_A --k 3 --pmax 1000 --format json",
    "adele Z_A --k 3 --pmax 1000 --format json",
    "check --id C31 --to 3000 --format json",
    "search wilson_zero --to 20000",
    "search gertsch_wilson --to 3000 --stride 7",
    "factor-ln1 --nmax 30",
]

DIGESTS = {
    "catalog --to 1000 --format json":
        "b991e9894c3c5e7781386b3d7304476f17738f0bf3ff2768011a8001d2dee8f0",
    "catalog --to 60":
        "9702dba5d8f9023b88c7e909dbccdc2996416427e5d8e240ca1debb1c0d65694",
    "residues --p 3 --pow 1 --format json":
        "98362bf43aa1688b313aa5bc780e3ce01716891e51da635ad49735e0132299fd",
    "residues --p 3 --pow 2 --format json":
        "57034cb2137827a029b2a7eab8ce0bd6d8f0404e41181a84ddd7a1f665748535",
    "residues --p 3 --pow 3 --format json":
        "786c509332fa49f4ff8a67ad1968db4750bf0fb77dc7eca5fa2d76f27a893cf2",
    "residues --p 13 --pow 1 --format json":
        "13c529b88aa271eb704153f1f01242375aad3cc3418ac1689d308a8cf1b85a2d",
    "residues --p 13 --pow 2 --format json":
        "3ae7da6b0fe3975de324669f6f56e001014d49a1b5c96bd80a03cdab9be48337",
    "residues --p 13 --pow 3 --format json":
        "1e63dc73c8ff7aafee5146a6b049f4358a3c59694554c5c7c09347b1130d12b4",
    "residues --p 3001 --pow 1 --format json":
        "3d398f51267e3c3c1e61a936f4a761e3a19d592caf013c15846abbc5a6797dbf",
    "residues --p 3001 --pow 2 --format json":
        "31c82368e117905a2963ad79e9579da36f55c5d09976f40b65087e332a8d79f4",
    "residues --p 3001 --pow 3 --format json":
        "28f9ff31cf6658f642d80d686794e1d4a31a8abe21d797f735bab5a2694f747f",
    "residues --p 13 --format csv":
        "a68e983ed3812e26eb6a9bdeed05bccff0754f8765b2a9c3b498a3fbd5efdf53",
    "table table1 --format json":
        "a08653d858aec5c4ce24a513cc688c592d27fc4052a42b342416b1d434dedb04",
    "table quotients --format json":
        "96ddf3f0e01ca27e428fdcb77d688acf9d43810aaf01a1d7de6bc333f4c98e8e",
    "table gertsch --format json":
        "8eefbd6e53163a83b1992e8e2005f7b3786b19a8f847b6bee65f2ec0c6764a2e",
    "table agoh_giuga --format json":
        "27f676230e987653f43400c9e89b3129acfa7a13964dfb717a9f608df11bb619",
    "table bell_wilson --format json":
        "61edbcb97c786b5d812e7b692a9bd794f9edae57f1c3bf147f0cca8c41193def",
    "table factorizations --format json":
        "c9b96b91eb4b78e26564c5afe89efdfa5245be7a490b31889e8841eb5cf92739",
    "adele gamma_W --pmax 1000 --format json":
        "98c2d44a5708f9d582e0412801b5969d0676acb7a87cac070ed3b2342de992e7",
    "adele gamma_M --pmax 1000 --format json":
        "fc55468147c2de76f41a7fbc7a37db83a3c875a609e4b293d6ed71c1a7bd365d",
    "adele gamma_G --pmax 1000 --format json":
        "8b429e15f26038f2363dbb6f64965ab13a7a78135e4e9631310746c48d9e2e7f",
    "adele gamma_L --pmax 1000 --format json":
        "478a338f3126a9a89a32bbb73dd2571a2f5d1d64b7d70b653d2fb9f1b837745c",
    "adele gamma_AG --pmax 1000 --format json":
        "81892a395a5620b72f5635e6924b998aef551f3711c6671e6e3137f669e90d13",
    "adele gamma_Kp --pmax 1000 --format json":
        "4185f855a503b33804698e2578ab6cb53a16c441bb5edc951ae16fe918ec3a25",
    "adele gamma_Q --pmax 1000 --format json":
        "c06e550b1bd3f8f7e0cbb4cb02e05120ff8be70f78f5a2aabf636252e60935cb",
    "adele G_A --k 3 --pmax 1000 --format json":
        "68b2723a05ed2ad1c4035b3144b03557c8d836a443f8896fc3f91ca6d7dcc34c",
    "adele Z_A --k 3 --pmax 1000 --format json":
        "343ea177ec78c5a2ad47c14ea300fc3a76e2bbb3837137ae465c8fb09b2f08a3",
    "check --id C31 --to 3000 --format json":
        "88384b93ddb6cb817411838d0b35dde1ac782d2a3bb42c313084aa129441727f",
    "search wilson_zero --to 20000":
        "7bbcf0997df2c80f3e18305b7353de163e4e4b926131f091cdb1d86ef89198cf",
    "search gertsch_wilson --to 3000 --stride 7":
        "7441bf85e48d919cc10d8f7c474624dce4eb1519ddb66a07e0cd3f54c779f603",
    "factor-ln1 --nmax 30":
        "d67322b2df0579c8fa5302489337f3450246a74022448798923943ed2266d3b6",
}


def stdout_of(command: str) -> str:
    _memo.clear_all()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    assert code == 0, command
    text = out.getvalue()
    return _TIMING.sub("", text) if command.startswith("search ") else text


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_digest(command):
    assert golden.sha(stdout_of(command)) == DIGESTS.get(command), command


if __name__ == "__main__":
    golden.show("DIGESTS", {c: golden.sha(stdout_of(c)) for c in COMMANDS})
