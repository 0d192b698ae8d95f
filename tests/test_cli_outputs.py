"""Pin of every seeded ``inru`` output: exit code and sha256 of stdout and ``--out``.

Each line of ``data/cli_outputs.txt`` reads ``EXIT STDOUT_SHA256 OUT_SHA256
ARGV``, where OUT_SHA256 is ``-`` when the command leaves no ``--out``
file.  The commands run in order in one directory that holds the input
files made by :func:`_make_inputs`, so ``decrypt`` and ``vectors verify``
read what earlier commands wrote.  A change to an entry must be named,
with its reason, where the change is recorded.  To rewrite the file after
such a change, run ``PYTHONPATH=src python tests/test_cli_outputs.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from inru.cli import main
from inru.quasigroup import format_square

PIN = Path(__file__).parent / "data" / "cli_outputs.txt"

KEY = "--key 0123456789abcdeffedcba9876543210"
_NIST = "analyze nist --mode {} --input {} --bits 40000 --seed 1"
_MODE_ARGS = {
    "cbc": "--mode cbc --mode-iv 0f1e2d3c4b5a6978",
    "cfb": "--mode cfb --mode-iv 0f1e2d3c4b5a6978",
    "ofb": "--mode ofb --mode-iv 0f1e2d3c4b5a6978",
    "ctr": "--mode ctr --nonce 89abcdef",
}
# (mode arguments, file-name tag): CBC under both paddings, the other modes once.
_CIPHERS = [(_MODE_ARGS["cbc"], "cbc"), (_MODE_ARGS["cbc"] + " --padding none", "cbcnone")]
_CIPHERS += [(_MODE_ARGS[m], m) for m in ("cfb", "ofb", "ctr")]

CASES = [
    *(_NIST.format(m, f) + " --keys 1" for m in _MODE_ARGS for f in ("zeros", "ones")),
    *(_NIST.format(m, f) + " --keys 3 --machine" for m in _MODE_ARGS for f in ("zeros", "ones")),
    *(_NIST.format(m, "ones") + f" --keys 3 --machine --jobs {j}" for m in ("cbc", "ctr") for j in (1, 2)),
    *(f"analyze {i} --trials 200 --keys 2 --seed 3 --jobs {j}" for i in ("avalanche", "sac") for j in (1, 2)),
    "analyze avalanche --trials 100 --keys 1 --rounds 3 --seed 4",
    "analyze sac --trials 100 --keys 1 --rounds 5 --seed 4",
    "analyze key-avalanche --trials 4 --seed 3",
    "analyze key-avalanche --trials 4 --rounds 2 --seed 5",
    "analyze diff-prop --rounds 4 --trials 500 --seed 2",
    "analyze diff-prop --trials 200 --delta 8000000000000001 --seed 6",
    *(f"analyze {t} {v}" for t in ("ddt", "lat")
      for v in ("--view wide", "--view row", "--view row --leader a", "--view row --leader 3 --square xor.txt")),
    "analyze ddt --view wide --square xor.txt --out ddt_xor.txt",
    "analyze algsys --rounds 1",
    "analyze algsys --rounds 1 --out sys1.txt",
    "analyze algsys --rounds 2 --out sys2.txt",
    "analyze algsys --rounds 17 --out sys17.txt",
    "analyze qg-check",
    "analyze qg-check --square xor.txt",
    f"keyschedule {KEY}",
    f"keyschedule {KEY} --iv 0011223344556677 --out ks.txt",
    "vectors generate --count 5 --seed 4",
    "vectors generate --count 20 --seed 9 --out vec.txt",
    "vectors verify vec.txt",
    "vectors verify bad_vec.txt",
    *(f"encrypt {KEY} {args} --in {src}.bin --out {src}.{tag}"
      for src in ("big", "small") for args, tag in _CIPHERS if (src, tag) != ("small", "cbcnone")),
    *(f"decrypt {KEY} {args} --in {src}.{tag} --out {src}.{tag}.pt"
      for src in ("big", "small") for args, tag in _CIPHERS if (src, tag) != ("small", "cbcnone")),
    f"encrypt {KEY} {_MODE_ARGS['cbc']} --padding none --in small.bin --out small.cbcnone",
]


def _make_inputs(workdir: Path) -> None:
    """The files the cases read: messages, a second square and a corrupted vector file."""
    rng = np.random.default_rng(2024)
    # 125 blocks past one 128 KiB piece of the streaming modes; and a partial block
    (workdir / "big.bin").write_bytes(rng.bytes(131_072 + 1000))
    (workdir / "small.bin").write_bytes(rng.bytes(1003))
    (workdir / "xor.txt").write_text(format_square([[a ^ b for b in range(16)] for a in range(16)]))
    (workdir / "bad_vec.txt").write_text(
        "key=00000000000000000000000000000000 iv=0000000000000000"
        " pt=0000000000000000 ct=0000000000000000\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: str) -> str:
    """The pin line of one command, run in the current directory."""
    args = argv.split()
    out = Path(args[args.index("--out") + 1]) if "--out" in args else None
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out_hash = _sha256(out.read_bytes()) if out is not None and out.exists() else "-"
    return f"{code} {_sha256(stdout.getvalue().encode())} {out_hash} {argv}"


def _run_all(workdir: Path) -> list[str]:
    _make_inputs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [_run(argv) for argv in CASES]
    finally:
        os.chdir(cwd)


def test_cli_outputs_match_the_pin(tmp_path):
    got = _run_all(tmp_path)
    want = [line for line in PIN.read_text().splitlines() if not line.startswith("#")]
    assert [line.split(" ", 3)[3] for line in want] == CASES
    assert [g for g, w in zip(got, want) if g != w] == []
    # --jobs never changes a result
    by_argv = {line.split(" ", 3)[3]: line.split(" ", 3)[:3] for line in got}
    for argv, pinned in by_argv.items():
        if argv.endswith("--jobs 2"):
            assert pinned == by_argv[argv[: -1] + "1"], argv


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = _run_all(Path(tmp))
    PIN.write_text("# exit stdout-sha256 out-sha256 argv; see tests/test_cli_outputs.py\n"
                   + "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} entries to {PIN}", file=sys.stderr)
