"""Command-line front end.

Exit codes: 0 success, 2 usage or parameter errors, 3 data or verification
failures (bad padding, mismatching vectors), 4 I/O problems.  Usage errors
include a flag the command or its mode does not use, a malformed value and
an empty one (``--out=``, ``--square=``, ``--delta=``, ``--iv=``, ...).
Output files are written to a temporary sibling and renamed into place, so
a failing run never leaves a partial file; an ``--out`` that names a
directory fails with exit 4 before any work.  ``encrypt`` and ``decrypt``
stream their input through :class:`inru.modes.ModeStream` in pieces of one
batch-engine slice (128 KiB), so memory does not grow with the file.
``vectors generate`` writes seeded random known-answer vectors and
``vectors verify FILE`` re-checks a vector file.  All randomness is drawn
from a seedable generator (``--seed``), never the OS entropy pool, so every
run with the same flags produces byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import tempfile
from contextlib import contextmanager
from functools import partial

import numpy as np

from .algsys import emit_algebraic_system
from .anf import algebraic_degree
from .batch import SLICE_BLOCKS
from .battery import nist_experiment
from .cipher import (
    Block,
    Diversifier,
    KnownAnswerVector,
    MasterKey,
    encrypt_block,
    expand_key,
    key_mixing,
    read_vectors,
    round_key_generation,
)
from .experiments import (
    avalanche_key,
    avalanche_plaintext,
    diff_propagation_experiment,
    render_ranges,
    sac_matrix,
)
from .modes import BLOCK_BYTES, MODES, ModeConfig, ModeStream, PaddingError
from .quasigroup import (
    INRU,
    LatinSquareError,
    conjugate,
    has_proper_subquasigroup,
    is_hex,
    is_medial,
    is_simple,
    load_square,
)
from .sboxes import build_ddt, build_lat, render_ddt, render_lat, row_sbox, wide_sbox

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4


class DataError(Exception):
    """Verification or data-format failure (exit code 3)."""


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with _output_file(path) as fh:
        fh.write(text.encode())


@contextmanager
def _output_file(path: str):
    """A binary file that replaces ``path`` on success and vanishes on any error."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _key_and_iv(args):
    """The --key and --iv values; a bad one is a usage error through ``main``."""
    iv = Diversifier.from_hex(args.iv) if args.iv is not None else None
    return MasterKey.from_hex(args.key), iv


def _hex_int(text: str, digits: int, what: str) -> int:
    if len(text) != digits or not is_hex(text):
        raise ValueError(f"{what} must be {digits} hex digits, got {text!r}")
    return int(text, 16)


def _reject_unused(args, flags, what: str) -> None:
    """Raise a usage error that names, sorted, each of ``flags`` given on the command line."""
    given = sorted(f for f in flags if getattr(args, f) is not None)
    if given:
        names = ", ".join("--" + f.replace("_", "-") for f in given)
        raise ValueError(f"{what} does not use {names}")


def _nonempty(text: str) -> str:
    """Argument type of file and value flags: an empty value is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty value")
    return text


# -- subcommands ---------------------------------------------------------------


# The modes each encrypt/decrypt flag applies to; giving it under another
# mode is a usage error instead of being silently ignored.
_MODE_FLAGS = {"mode_iv": ("cbc", "cfb", "ofb"), "nonce": ("ctr",), "padding": ("cbc",)}


def _mode_config(args):
    _reject_unused(args, [f for f, modes in _MODE_FLAGS.items() if args.mode not in modes],
                   f"{args.command} --mode {args.mode}")
    mode_iv = _hex_int(args.mode_iv, 16, "--mode-iv") if args.mode_iv is not None else 0
    nonce = _hex_int(args.nonce, 8, "--nonce") if args.nonce is not None else 0
    return ModeConfig(args.mode, mode_iv=mode_iv, nonce=nonce, padding=args.padding or "pkcs7")


def cmd_mode(args) -> int:
    """Stream ``--in`` through the mode into ``--out``; print the ciphertext's block count.

    The input is read in pieces of one batch-engine slice, so memory does
    not grow with the file.
    """
    decrypt = args.command == "decrypt"
    rk = expand_key(*_key_and_iv(args))
    stream = ModeStream(_mode_config(args), rk, decrypt)
    read = written = 0
    try:
        with open(args.infile, "rb") as src, _output_file(args.out) as dst:
            while piece := src.read(SLICE_BLOCKS * BLOCK_BYTES):
                read += len(piece)
                written += dst.write(stream.update(piece))
            written += dst.write(stream.finalize())
    except PaddingError as e:  # raised by decryption only
        raise DataError(f"decryption failed: {e}")
    print(f"{((read if decrypt else written) + 7) // 8} blocks")
    return EXIT_OK


def cmd_keyschedule(args) -> int:
    mixed = key_mixing(*_key_and_iv(args))
    rks = round_key_generation(mixed)
    lines = [f"mixed={mixed.to_hex()}"]
    lines += [f"rk{i}={rks[i].to_hex()}" for i in range(17)]
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_vectors_generate(args) -> int:
    if args.count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(args.seed)
    lines = [f"# {args.count} generated vectors, seed {args.seed}"]
    for _ in range(args.count):
        key = MasterKey(tuple(int(v) for v in rng.integers(0, 16, 32)))
        iv = Diversifier(tuple(int(v) for v in rng.integers(0, 16, 16)))
        pt = Block(tuple(int(v) for v in rng.integers(0, 16, 16)))
        ct = encrypt_block(pt, expand_key(key, iv))
        lines.append(KnownAnswerVector(key, iv, pt, ct).to_line())
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_vectors_verify(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            vectors = read_vectors(fh.read().decode())
    except ValueError as e:  # UnicodeDecodeError included
        raise DataError(str(e))
    if not vectors:
        raise DataError("no vectors in file")
    failures = []
    for lineno, vec in enumerate(vectors, 1):
        ct = encrypt_block(vec.plaintext, expand_key(vec.key, vec.iv))
        if ct != vec.ciphertext:
            failures.append((lineno, vec, ct))
    if failures:
        for lineno, vec, got in failures:
            print(f"vector {lineno}: expected ct={vec.ciphertext.to_hex()}, got {got.to_hex()}")
        raise DataError(f"{len(failures)} of {len(vectors)} vectors failed")
    print(f"{len(vectors)} vectors verified")
    return EXIT_OK


def _load_quasigroup(args):
    if args.square is None:
        return INRU
    try:
        return load_square(args.square)
    except (LatinSquareError, UnicodeDecodeError) as e:
        raise DataError(f"bad square file: {e}")


def cmd_analyze(args) -> int:
    analyze, honoured = _INSTRUMENTS[args.instrument]
    _reject_unused(args, _ANALYZE_FLAGS - honoured, f"analyze {args.instrument}")
    if args.leader is not None and args.view != "row":
        raise ValueError(f"analyze {args.instrument} uses --leader only with --view row")
    for flag, default in _ANALYZE_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    _write_output(args.out, analyze(args))
    return EXIT_OK


def _analyze_sbox(build, render, args) -> str:
    """The ``build`` table of the sbox view that --view, --leader and --square select."""
    q = _load_quasigroup(args)
    if args.view == "wide":
        view = wide_sbox(q)
    elif is_hex(args.leader):
        view = row_sbox(q, int(args.leader, 16))
    else:
        raise ValueError(f"leader must be in 0..{q.order - 1}, got {args.leader}")
    return render(view, build(view))


def _analyze_diff_prop(args) -> str:
    delta = Block.from_hex(args.delta.lower())
    res = diff_propagation_experiment(args.rounds, delta, args.trials, seed=args.seed)
    lines = [
        f"# difference propagation, {args.rounds} round(s), {args.trials} trials,"
        f" input difference {delta.to_hex()}, seed {args.seed}",
        "# rows: round; columns: Sbox position; entries: activation frequency",
    ]
    for r in range(res.rounds):
        lines.append(" ".join(f"{v:6.3f}" for v in res.activation[r]))
    return "\n".join(lines) + "\n"


def _analyze_avalanche(args) -> str:
    res = avalanche_plaintext(
        args.trials, keys=args.keys, rounds=args.rounds, seed=args.seed, jobs=args.jobs
    )
    lines = [
        f"# plaintext avalanche: {args.trials} trials, {res.keys} keys,"
        f" {args.rounds} round(s), seed {args.seed}",
        render_ranges("avalanche", res.ranges).rstrip(),
        "per-bit mean flip percentage:",
    ]
    for i in range(0, 64, 8):
        lines.append(" ".join(f"{v:6.2f}" for v in res.per_bit_mean[i : i + 8]))
    return "\n".join(lines) + "\n"


def _analyze_sac(args) -> str:
    res = sac_matrix(
        args.trials, keys=args.keys, rounds=args.rounds, seed=args.seed, jobs=args.jobs
    )
    lines = [
        f"# strict avalanche matrix: {args.trials} trials, {res.keys} keys,"
        f" {args.rounds} round(s), seed {args.seed}",
        render_ranges("strict avalanche", res.ranges).rstrip(),
        "# matrix rows: flipped plaintext bit; columns: ciphertext bit",
    ]
    for row in res.matrix:
        lines.append(" ".join(f"{v:5.3f}" for v in row))
    return "\n".join(lines) + "\n"


def _analyze_key_avalanche(args) -> str:
    res = avalanche_key(args.trials, rounds=args.rounds, seed=args.seed)
    lines = [
        f"# key avalanche: {args.trials} trials, {args.rounds} round(s), seed {args.seed}",
        f"min round-key bits flipped by any single key-bit flip: {res.min_roundkey_flips}",
        f"mean round-key flip fraction: {res.roundkey_flip_mean:.4f}",
        f"mean ciphertext flip fraction: {res.ct_flip_mean:.4f}",
    ]
    return "\n".join(lines) + "\n"


def _analyze_nist(args) -> str:
    report = nist_experiment(
        args.mode,
        input_fill=args.input,
        keys=args.keys,
        bits_per_seq=args.bits,
        seed=args.seed,
        jobs=args.jobs,
    )
    text = report.render_table()
    if args.machine:
        text += report.machine_lines()
    return text


def _analyze_algsys(args) -> str:
    return emit_algebraic_system(args.rounds).render()


def _analyze_qg_check(args) -> str:
    q = _load_quasigroup(args)
    medial, witness = is_medial(q)
    degrees = {algebraic_degree(q, m) for m in range(1, q.order)}
    conj_degrees = {algebraic_degree(conjugate(q, "left"), m) for m in range(1, q.order)}
    lines = [
        "latin=true",  # construction rejects non-Latin tables
        f"subquasigroup={'true' if has_proper_subquasigroup(q) else 'false'}",
        f"medial={'true' if medial else 'false'}"
        + (f" witness={witness}" if witness else ""),
        f"simple={'true' if is_simple(q) else 'false'}",
        f"degree={'/'.join(str(d) for d in sorted(degrees))}",
        f"left_conjugate_degree={'/'.join(str(d) for d in sorted(conj_degrees))}",
    ]
    return "\n".join(lines) + "\n"


# Each instrument's analyzer, which returns the report text, and the
# analyze flags it honours.  Any other flag given explicitly is a usage
# error instead of being silently ignored; --out applies to every instrument.
_INSTRUMENTS = {
    "ddt": (partial(_analyze_sbox, build_ddt, render_ddt), {"view", "leader", "square"}),
    "lat": (partial(_analyze_sbox, build_lat, render_lat), {"view", "leader", "square"}),
    "diff-prop": (_analyze_diff_prop, {"rounds", "trials", "delta", "seed"}),
    "avalanche": (_analyze_avalanche, {"rounds", "trials", "keys", "seed", "jobs"}),
    "sac": (_analyze_sac, {"rounds", "trials", "keys", "seed", "jobs"}),
    "key-avalanche": (_analyze_key_avalanche, {"rounds", "trials", "seed"}),
    "nist": (_analyze_nist, {"mode", "input", "keys", "bits", "seed", "jobs", "machine"}),
    "algsys": (_analyze_algsys, {"rounds"}),
    "qg-check": (_analyze_qg_check, {"square"}),
}
_ANALYZE_FLAGS = set().union(*(flags for _, flags in _INSTRUMENTS.values()))

# The parser leaves every analyze flag at None so that explicit use is
# visible to the check above; these defaults are filled in after it.
_ANALYZE_DEFAULTS = {
    "view": "wide", "leader": "0", "rounds": 16, "trials": 1000, "keys": 6,
    "bits": 1 << 20, "mode": "ctr", "input": "zeros", "delta": "000000000000000f",
    "seed": 0, "jobs": 1, "machine": False,
}


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="inru", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_key_iv(sp):
        sp.add_argument("--key", required=True, help="master key, 32 hex digits")
        sp.add_argument("--iv", help="key-schedule diversifier, 16 hex digits (default zero)")

    for name in ("encrypt", "decrypt"):
        sp = sub.add_parser(name, help=f"{name} a file under a mode of operation")
        add_key_iv(sp)
        sp.add_argument("--mode", choices=MODES, default="ctr")
        sp.add_argument("--mode-iv", help="CBC/CFB/OFB chaining IV, 16 hex digits")
        sp.add_argument("--nonce", help="CTR nonce, 8 hex digits")
        sp.add_argument("--padding", choices=["pkcs7", "none"], help="CBC padding (default pkcs7)")
        sp.add_argument("--in", dest="infile", required=True, help="input file")
        sp.add_argument("--out", type=_nonempty, required=True, help="output file")
        sp.set_defaults(func=cmd_mode)

    sp = sub.add_parser("keyschedule", help="print the mixed key state and round keys")
    add_key_iv(sp)
    sp.add_argument("--out", type=_nonempty, help="output file (default stdout)")
    sp.set_defaults(func=cmd_keyschedule)

    sp = sub.add_parser("vectors", help="generate or verify known-answer vectors")
    actions = sp.add_subparsers(dest="action", required=True)
    sp = actions.add_parser("generate", help="write seeded random known-answer vectors")
    sp.add_argument("--count", type=int, default=100, help="number of vectors (default 100)")
    sp.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    sp.add_argument("--out", type=_nonempty, help="output file (default stdout)")
    sp.set_defaults(func=cmd_vectors_generate)
    sp = actions.add_parser("verify", help="re-check a known-answer vector file")
    sp.add_argument("file", help="vector file to verify")
    sp.set_defaults(func=cmd_vectors_verify)

    sp = sub.add_parser("analyze", help="run an analysis instrument")
    sp.add_argument("instrument", choices=sorted(_INSTRUMENTS))
    sp.add_argument("--view", choices=["wide", "row"], help="sbox view for ddt/lat")
    sp.add_argument("--leader", help="row-sbox leader, one hex digit")
    sp.add_argument("--square", type=_nonempty, help="Latin square file (default: built-in)")
    sp.add_argument("--rounds", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--keys", type=int)
    sp.add_argument("--bits", type=int)
    sp.add_argument("--mode", choices=MODES)
    sp.add_argument("--input", choices=["zeros", "ones"])
    sp.add_argument("--delta", type=_nonempty, help="input difference for diff-prop, 16 hex digits")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--jobs", type=int, help="worker processes (default 1)")
    sp.add_argument("--machine", action="store_true", default=None,
                    help="append machine-readable lines")
    sp.add_argument("--out", type=_nonempty, help="output file (default stdout)")
    sp.set_defaults(func=cmd_analyze)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)  # "-" is stdout for the commands that print reports
        if out not in (None, "-") and os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, "--out names a directory", out)
        return args.func(args)
    except (DataError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, DataError):
            return EXIT_DATA
        return EXIT_IO if isinstance(e, OSError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
