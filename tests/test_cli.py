import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import inru.modes
from inru.batch import SLICE_BLOCKS
from inru.cli import main

KEY = "000102030405060708090a0b0c0d0e0f"


def run_cli(*args):
    return main(list(args))


def test_encrypt_decrypt_round_trip_ctr(tmp_path):
    src = tmp_path / "plain.bin"
    enc = tmp_path / "ct.bin"
    dec = tmp_path / "out.bin"
    data = bytes(range(256)) * 17 + b"tail"
    src.write_bytes(data)
    assert run_cli("encrypt", "--key", KEY, "--mode", "ctr", "--nonce", "0a0b0c0d",
                   "--in", str(src), "--out", str(enc)) == 0
    assert enc.read_bytes() != data
    assert run_cli("decrypt", "--key", KEY, "--mode", "ctr", "--nonce", "0a0b0c0d",
                   "--in", str(enc), "--out", str(dec)) == 0
    assert dec.read_bytes() == data


def test_encrypt_decrypt_megabyte_file(tmp_path):
    src = tmp_path / "big.bin"
    enc = tmp_path / "big.ct"
    dec = tmp_path / "big.out"
    data = os.urandom(1 << 20)
    src.write_bytes(data)
    assert run_cli("encrypt", "--key", KEY, "--mode", "ctr",
                   "--in", str(src), "--out", str(enc)) == 0
    assert run_cli("decrypt", "--key", KEY, "--mode", "ctr",
                   "--in", str(enc), "--out", str(dec)) == 0
    assert dec.read_bytes() == data


def test_empty_file_ctr(tmp_path):
    src = tmp_path / "empty"
    out = tmp_path / "out"
    src.write_bytes(b"")
    assert run_cli("encrypt", "--key", KEY, "--mode", "ctr",
                   "--in", str(src), "--out", str(out)) == 0
    assert out.read_bytes() == b""


def test_cbc_round_trip_with_mode_iv(tmp_path):
    src = tmp_path / "msg"
    enc = tmp_path / "ct"
    dec = tmp_path / "pt"
    src.write_bytes(b"attack at dawn")
    assert run_cli("encrypt", "--key", KEY, "--mode", "cbc",
                   "--mode-iv", "0123456789abcdef",
                   "--in", str(src), "--out", str(enc)) == 0
    assert run_cli("decrypt", "--key", KEY, "--mode", "cbc",
                   "--mode-iv", "0123456789abcdef",
                   "--in", str(enc), "--out", str(dec)) == 0
    assert dec.read_bytes() == b"attack at dawn"


def test_truncated_cbc_gives_data_error(tmp_path, capsys):
    src = tmp_path / "msg"
    enc = tmp_path / "ct"
    out = tmp_path / "pt"
    src.write_bytes(b"0123456789abcdef")
    run_cli("encrypt", "--key", KEY, "--mode", "cbc", "--in", str(src), "--out", str(enc))
    enc.write_bytes(enc.read_bytes()[:-8])  # drop the final block
    rc = run_cli("decrypt", "--key", KEY, "--mode", "cbc", "--in", str(enc), "--out", str(out))
    assert rc == 3
    assert not out.exists()  # no partial output


def test_empty_cbc_ciphertext_is_named_data_error(tmp_path, capsys):
    # Zero bytes is a whole number of blocks, but PKCS#7 needs at least one.
    src = tmp_path / "empty"
    out = tmp_path / "pt"
    src.write_bytes(b"")
    rc = run_cli("decrypt", "--key", KEY, "--mode", "cbc", "--in", str(src), "--out", str(out))
    assert rc == 3
    err = capsys.readouterr().err
    assert "ciphertext is empty; PKCS#7 needs at least one block" in err
    assert "whole number" not in err
    assert not out.exists()


# Each error reaches ModeStream.finalize after whole pieces of output were
# written to the temporary file (the empty ciphertext is the test above).
PIECE = SLICE_BLOCKS * 8


@pytest.mark.parametrize("plain, ct_bytes, padding, message", [
    (bytes(2 * PIECE + 8), None, "pkcs7", "bad padding bytes"),  # last plaintext byte 0
    (None, bytes(2 * PIECE + 3), "none", "CBC ciphertext length not a multiple of 8"),
    (None, bytes(2 * PIECE + 3), "pkcs7", "CBC ciphertext length not a multiple of 8"),
])
def test_cbc_errors_at_finalize_keep_message_and_exit_code(plain, ct_bytes, padding, message,
                                                           tmp_path, capsys):
    enc = tmp_path / "ct"
    if plain is None:
        enc.write_bytes(ct_bytes)
    else:  # a valid CBC ciphertext whose plaintext is not PKCS#7 padded
        (tmp_path / "msg").write_bytes(plain)
        assert run_cli("encrypt", "--key", KEY, "--mode", "cbc", "--padding", "none",
                       "--in", str(tmp_path / "msg"), "--out", str(enc)) == 0
        capsys.readouterr()
    inputs = sorted(tmp_path.iterdir())
    rc = run_cli("decrypt", "--key", KEY, "--mode", "cbc", "--padding", padding,
                 "--in", str(enc), "--out", str(tmp_path / "pt"))
    assert rc == 3
    assert capsys.readouterr().err == f"error: decryption failed: {message}\n"
    assert sorted(tmp_path.iterdir()) == inputs


def test_ctr_counter_exhaustion_mid_file_leaves_no_output(monkeypatch, tmp_path, capsys):
    # A counter space of one piece and 5 blocks stands in for 2^32 blocks:
    # the first piece is written, the second exhausts the counter.
    monkeypatch.setattr(inru.modes, "_CTR_LIMIT", SLICE_BLOCKS + 5)
    src, out = tmp_path / "msg", tmp_path / "ct"
    src.write_bytes(bytes(2 * PIECE))
    rc = run_cli("encrypt", "--key", KEY, "--mode", "ctr", "--in", str(src), "--out", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: CTR stream of {2 * SLICE_BLOCKS} blocks exceeds the 2^32 counter space\n"
    assert [p.name for p in tmp_path.iterdir()] == ["msg"]


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, mode_flags", [
    ("encrypt", ["--mode", "ctr"]),
    ("decrypt", ["--mode", "cbc", "--padding", "none"]),
    ("encrypt", ["--mode", "cfb"]),
])
def test_encrypt_and_decrypt_stream_in_bounded_memory(command, mode_flags, tmp_path):
    # The chained step walks the scalar cipher, ~20 us a block under
    # tracemalloc, so it streams files of 1/4 and 1 MiB (2 and 8 pieces)
    # and may grow by a quarter as much; the batch steps take 1 and 4 MiB.
    unit = 1 << 18 if command == "encrypt" and "ctr" not in mode_flags else 1 << 20
    peaks = []
    for n in (1, 4):
        src = tmp_path / f"in{n}"
        src.write_bytes(os.urandom(n * unit))
        peaks.append(_traced_peak([command, "--key", KEY, *mode_flags,
                                   "--in", str(src), "--out", str(tmp_path / f"out{n}")]))
    assert peaks[1] - peaks[0] < unit, peaks


@pytest.mark.parametrize("argv", [
    ["encrypt", "--in", "msg", "--out", "o"],
    ["decrypt", "--in", "msg", "--out", "o"],
    ["keyschedule"],
])
def test_empty_iv_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "msg").write_bytes(bytes(16))
    assert run_cli(*argv, "--key", KEY, "--iv=") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: iv hex needs 16 digits, got 0\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["msg"]


def test_bad_hex_is_usage_error(tmp_path):
    src = tmp_path / "msg"
    src.write_bytes(b"x")
    rc = run_cli("encrypt", "--key", "zz", "--in", str(src), "--out", str(tmp_path / "o"))
    assert rc == 2
    rc = run_cli("encrypt", "--key", KEY, "--nonce", "xyz",
                 "--in", str(src), "--out", str(tmp_path / "o"))
    assert rc == 2


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
@pytest.mark.parametrize("mode, flags, named", [
    ("ctr", ["--mode-iv", "0123456789abcdef"], "--mode-iv"),
    ("cbc", ["--nonce", "0a0b0c0d"], "--nonce"),
    ("cfb", ["--nonce", "0a0b0c0d"], "--nonce"),
    ("ofb", ["--nonce", "0a0b0c0d"], "--nonce"),
    ("cfb", ["--padding", "none"], "--padding"),
    ("ofb", ["--padding", "pkcs7"], "--padding"),
    ("ctr", ["--padding", "none"], "--padding"),
])
def test_mode_flags_a_mode_ignores_are_usage_errors(command, mode, flags, named, tmp_path, capsys):
    src = tmp_path / "msg"
    out = tmp_path / "o"
    src.write_bytes(bytes(16))
    rc = run_cli(command, "--key", KEY, "--mode", mode, *flags, "--in", str(src), "--out", str(out))
    assert rc == 2
    assert f"{command} --mode {mode} does not use {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, flag, named", [
    ("cbc", "--mode-iv=", "--mode-iv must be 16 hex digits"),
    ("ctr", "--nonce=", "--nonce must be 8 hex digits"),
])
def test_empty_mode_iv_or_nonce_is_usage_error(mode, flag, named, tmp_path, capsys):
    src = tmp_path / "msg"
    src.write_bytes(b"x")
    rc = run_cli("encrypt", "--key", KEY, "--mode", mode, flag, "--in", str(src), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert named in capsys.readouterr().err


# int(text, 16) also reads a 0x prefix, _ separators, a sign and non-ASCII
# digits; a hex field takes ASCII hex digits only.
ARABIC_INDIC_THREE = "\u0663"


@pytest.mark.parametrize("flags", [
    ["--mode", "ctr", "--nonce", "0x123456"],
    ["--mode", "ctr", "--nonce", "1_2_3_45"],
    ["--mode", "ctr", "--nonce", "+1234567"],
    ["--mode", "ctr", "--nonce", " 1234567"],
    ["--mode", "ctr", "--nonce", "1234567" + ARABIC_INDIC_THREE],
    ["--mode", "cbc", "--mode-iv", "0x0123456789abcd"],
    ["--mode", "cbc", "--mode-iv", "+123456789abcdef"],
    ["--iv", "0123456789abcde" + ARABIC_INDIC_THREE],
])
def test_hex_flags_take_ascii_hex_digits_only(flags, tmp_path, capsys):
    src, out = tmp_path / "msg", tmp_path / "o"
    src.write_bytes(bytes(16))
    rc = run_cli("encrypt", "--key", KEY, *flags, "--in", str(src), "--out", str(out))
    assert rc == 2
    assert "hex digit" in capsys.readouterr().err
    assert not out.exists()


def test_keyschedule_rejects_non_ascii_digits(capsys):
    assert run_cli("keyschedule", "--key", ARABIC_INDIC_THREE * 32) == 2
    captured = capsys.readouterr()
    assert "key hex" in captured.err
    assert captured.out == ""


def test_analyze_diff_prop_rejects_non_ascii_digits(capsys):
    delta = "0" * 15 + ARABIC_INDIC_THREE
    assert run_cli("analyze", "diff-prop", "--trials", "10", "--delta", delta) == 2
    assert capsys.readouterr().out == ""


def test_vectors_with_non_ascii_digits_fail_verification(tmp_path, capsys):
    vf = tmp_path / "vec.txt"
    run_cli("vectors", "generate", "--count", "3", "--seed", "2", "--out", str(vf))
    text = vf.read_text()
    assert "3" in text.splitlines()[1].split()[0]
    vf.write_text(text.replace("3", ARABIC_INDIC_THREE))
    capsys.readouterr()
    assert run_cli("vectors", "verify", str(vf)) == 3
    assert "hex digit" in capsys.readouterr().err


def test_cbc_padding_none_round_trip(tmp_path):
    src, enc, dec = tmp_path / "msg", tmp_path / "ct", tmp_path / "pt"
    src.write_bytes(bytes(range(16)))
    for command, infile, outfile in (("encrypt", src, enc), ("decrypt", enc, dec)):
        assert run_cli(command, "--key", KEY, "--mode", "cbc", "--padding", "none",
                       "--in", str(infile), "--out", str(outfile)) == 0
    assert enc.stat().st_size == 16
    assert dec.read_bytes() == bytes(range(16))


def test_missing_input_is_io_error(tmp_path):
    rc = run_cli("encrypt", "--key", KEY, "--in", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "o"))
    assert rc == 4


def test_keyschedule_zero_vector(capsys):
    assert run_cli("keyschedule", "--key", "0" * 32) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == (
        "mixed=fbdd08377aa8304a027ef3dc3a8fe09d64cf05fa1c391bea9ec701363aa49117"
    )
    assert lines[1] == "rk0=a3f94d18fd9a0b37"
    assert lines[-1] == "rk16=78b364fa69e42d63"
    assert len(lines) == 18


def test_keyschedule_deterministic(capsys):
    run_cli("keyschedule", "--key", KEY, "--iv", "fedcba9876543210")
    first = capsys.readouterr().out
    run_cli("keyschedule", "--key", KEY, "--iv", "fedcba9876543210")
    assert capsys.readouterr().out == first


def test_vectors_generate_verify_cycle(tmp_path, capsys):
    vf = tmp_path / "vec.txt"
    assert run_cli("vectors", "generate", "--count", "25", "--seed", "9",
                   "--out", str(vf)) == 0
    assert run_cli("vectors", "verify", str(vf)) == 0
    assert "25 vectors verified" in capsys.readouterr().out


def test_vectors_corruption_detected(tmp_path, capsys):
    vf = tmp_path / "vec.txt"
    run_cli("vectors", "generate", "--count", "10", "--seed", "1", "--out", str(vf))
    lines = vf.read_text().splitlines()
    bad = lines[3]
    digit = bad[-1]
    lines[3] = bad[:-1] + ("0" if digit != "0" else "1")
    vf.write_text("\n".join(lines) + "\n")
    rc = run_cli("vectors", "verify", str(vf))
    assert rc == 3
    captured = capsys.readouterr()
    assert "1 of 10 vectors failed" in captured.err
    assert captured.out.count("vector ") == 1  # exactly one offending line reported


def test_vectors_file_that_is_not_utf8_is_data_error(tmp_path, capsys):
    vf = tmp_path / "vec.txt"
    vf.write_bytes(b"\xff\xfe not text\n")
    assert run_cli("vectors", "verify", str(vf)) == 3
    assert "can't decode" in capsys.readouterr().err


def test_shipped_vectors_verify(capsys):
    from importlib.resources import files

    path = files("inru.data").joinpath("known_answer_vectors.txt")
    assert run_cli("vectors", "verify", str(path)) == 0


def test_vectors_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("vectors", "generate", "--count", "5", "--seed", "4", "--out", str(a))
    run_cli("vectors", "generate", "--count", "5", "--seed", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_vectors_generate_rejects_too_few_vectors(count, capsys):
    assert run_cli("vectors", "generate", "--count", count) == 2
    captured = capsys.readouterr()
    assert "count must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--count", "7"], ["--seed", "3"], ["--out", "r.txt"]])
def test_vectors_verify_rejects_generate_flags(flags, tmp_path, monkeypatch):
    from importlib.resources import files

    monkeypatch.chdir(tmp_path)
    path = files("inru.data").joinpath("known_answer_vectors.txt")
    with pytest.raises(SystemExit) as exc:
        run_cli("vectors", "verify", str(path), *flags)
    assert exc.value.code == 2
    assert not (tmp_path / "r.txt").exists()


def test_vectors_generate_rejects_a_file_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("vectors", "generate", "stray.txt")
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_analyze_qg_check(capsys):
    assert run_cli("analyze", "qg-check") == 0
    out = capsys.readouterr().out
    assert "latin=true" in out
    assert "subquasigroup=false" in out
    assert "medial=false" in out
    assert "simple=true" in out
    assert "degree=6" in out
    assert "left_conjugate_degree=6" in out


def test_analyze_algsys_reports_256_variables(capsys):
    assert run_cli("analyze", "algsys", "--rounds", "2") == 0
    out = capsys.readouterr().out
    assert "256 unknowns remain" in out
    assert "128 nonlinear" in out


def test_analyze_ddt_and_lat(tmp_path):
    out = tmp_path / "ddt.txt"
    assert run_cli("analyze", "ddt", "--view", "wide", "--out", str(out)) == 0
    assert "max entry over nonzero input differences: 42" in out.read_text()
    assert run_cli("analyze", "lat", "--view", "row", "--leader", "b",
                   "--out", str(out)) == 0
    assert "leader b" in out.read_text()


@pytest.mark.parametrize("instrument", ["ddt", "lat"])
@pytest.mark.parametrize("leader, got", [
    ("1f", "31"), ("-1", "-1"), ("10", "16"),
    # not hex digits: int(leader, 16) would read each as 1, 1, 16 and 3
    ("0x1", "0x1"), ("+1", "+1"), ("1_0", "1_0"), (ARABIC_INDIC_THREE, ARABIC_INDIC_THREE),
])
def test_analyze_rejects_row_leaders_outside_the_square(instrument, leader, got, capsys):
    assert run_cli("analyze", instrument, "--view", "row", "--leader", leader) == 2
    captured = capsys.readouterr()
    assert f"leader must be in 0..15, got {got}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("instrument", ["ddt", "lat"])
@pytest.mark.parametrize("view", [[], ["--view", "wide"]])
def test_analyze_rejects_leader_with_the_wide_view(instrument, view, capsys):
    assert run_cli("analyze", instrument, *view, "--leader", "3") == 2
    captured = capsys.readouterr()
    assert f"analyze {instrument} uses --leader only with --view row" in captured.err
    assert captured.out == ""


def test_analyze_diff_prop(capsys):
    assert run_cli("analyze", "diff-prop", "--rounds", "2", "--trials", "50") == 0
    out = capsys.readouterr().out
    assert "activation frequency" in out
    assert " 1.000" in out


@pytest.mark.parametrize("token", ["0x5", "+5", "0_5"])
def test_square_tokens_take_ascii_hex_digits_only(token, tmp_path, capsys):
    # int(token, 16) reads each of these as 5, the square's first entry.
    from inru.quasigroup import INRU, format_square

    text = format_square(INRU.mul_table)
    assert text.startswith("5 ")
    square = tmp_path / "square.txt"
    square.write_text(token + text[1:])
    assert run_cli("analyze", "qg-check", "--square", str(square)) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: bad square file: line 1: not hex digits: {token!r}\n"
    assert captured.out == ""


def test_square_file_that_is_not_ascii_is_data_error(tmp_path, capsys):
    square = tmp_path / "square.txt"
    square.write_bytes(b"0 1\n1 0 \xe9\n")
    assert run_cli("analyze", "ddt", "--square", str(square)) == 3
    assert "bad square file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instrument", ["diff-prop", "avalanche", "sac", "key-avalanche", "nist", "algsys"]
)
def test_analyze_rejects_square_where_unused(instrument, capsys):
    assert run_cli("analyze", instrument, "--square", "/nonexistent") == 2
    assert f"analyze {instrument} does not use --square" in capsys.readouterr().err


@pytest.mark.parametrize("instrument", ["diff-prop", "key-avalanche"])
def test_analyze_rejects_explicit_jobs_where_unused(instrument, capsys):
    assert run_cli("analyze", instrument, "--trials", "2", "--jobs", "2") == 2
    assert "does not use --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("rounds", ["0", "17"])
@pytest.mark.parametrize("instrument", ["diff-prop", "avalanche", "sac", "key-avalanche"])
def test_analyze_rejects_rounds_out_of_range(instrument, rounds, capsys):
    assert run_cli("analyze", instrument, "--rounds", rounds, "--trials", "2") == 2
    assert "rounds must be in 1..16" in capsys.readouterr().err


def test_analyze_nist_rejects_rounds(capsys):
    assert run_cli("analyze", "nist", "--rounds", "4", "--bits", "128") == 2
    assert "analyze nist does not use --rounds" in capsys.readouterr().err


@pytest.mark.parametrize("instrument", ["avalanche", "sac"])
@pytest.mark.parametrize("keys", ["0", "-1"])
def test_analyze_rejects_too_few_keys(instrument, keys, capsys):
    assert run_cli("analyze", instrument, "--trials", "8", "--keys", keys) == 2
    assert "keys must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("keys", ["0", "-3"])
def test_analyze_nist_rejects_too_few_keys(keys, capsys):
    assert run_cli("analyze", "nist", "--keys", keys, "--bits", "128") == 2
    assert "keys must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("instrument", ["avalanche", "sac", "nist"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_analyze_rejects_too_few_jobs(instrument, jobs, capsys):
    assert run_cli("analyze", instrument, "--keys", "1", "--jobs", jobs) == 2
    assert "jobs must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("instrument, header", [
    ("avalanche", "# plaintext avalanche: 4 trials, 4 keys,"),
    ("sac", "# strict avalanche matrix: 4 trials, 4 keys,"),
])
def test_analyze_reports_the_keys_that_ran(instrument, header, capsys):
    assert run_cli("analyze", instrument, "--trials", "4", "--keys", "6") == 0
    assert capsys.readouterr().out.startswith(header)


def test_unused_flags_are_named_in_sorted_order(tmp_path, capsys):
    src, out = tmp_path / "msg", tmp_path / "o"
    src.write_bytes(bytes(16))
    assert run_cli("encrypt", "--key", KEY, "--mode", "ctr", "--padding", "none",
                   "--mode-iv", "0123456789abcdef", "--in", str(src), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: encrypt --mode ctr does not use --mode-iv, --padding\n"
    assert run_cli("analyze", "nist", "--rounds", "4", "--square", "x", "--bits", "128") == 2
    assert capsys.readouterr().err == "error: analyze nist does not use --rounds, --square\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "diff-prop", "--trials", "2", "--delta="], "--delta"),
    (["analyze", "qg-check", "--square="], "--square"),
    (["analyze", "ddt", "--square="], "--square"),
    (["analyze", "algsys", "--rounds", "1", "--out="], "--out"),
    (["keyschedule", "--key", KEY, "--out="], "--out"),
    (["vectors", "generate", "--count", "1", "--out="], "--out"),
    (["encrypt", "--key", KEY, "--in", "msg", "--out="], "--out"),
    (["decrypt", "--key", KEY, "--mode", "ofb", "--in", "msg", "--out="], "--out"),
])
def test_empty_flag_values_are_usage_errors(argv, flag, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    (work / "msg").write_bytes(bytes(2 * PIECE))
    monkeypatch.chdir(work)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: expected a non-empty value" in captured.err
    assert captured.out == ""
    # no temporary output file, here or in the parent directory
    assert [p.name for p in tmp_path.iterdir()] == ["work"]
    assert [p.name for p in work.iterdir()] == ["msg"]


@pytest.mark.parametrize("rows", [
    "0 1 2\n1 2 0\n2 0 1\n",
    "0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n",
], ids=["order3", "order4"])
@pytest.mark.parametrize("view", ["wide", "row"])
@pytest.mark.parametrize("instrument", ["ddt", "lat"])
def test_analyze_sbox_tables_reject_squares_of_another_order(instrument, view, rows, tmp_path,
                                                             capsys):
    square = tmp_path / "square.txt"
    square.write_text(rows)
    order = rows.count("\n")
    assert run_cli("analyze", instrument, "--view", view, "--square", str(square)) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: sbox views need a quasigroup of order 16, got order {order}\n"
    )
    assert captured.out == ""


def test_analyze_unknown_instrument():
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", "nonsense")
    assert exc.value.code == 2


def test_analyze_nist_seeded_identical_and_fast(tmp_path):
    import time

    a, b = tmp_path / "a", tmp_path / "b"
    args = ["analyze", "nist", "--mode", "ctr", "--keys", "4",
            "--bits", str(1 << 16), "--seed", "3", "--machine"]
    t0 = time.perf_counter()
    assert run_cli(*args, "--out", str(a)) == 0
    assert time.perf_counter() - t0 < 60  # smoke benchmark
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "ctr,zeros," in a.read_text()


def test_analyze_nist_reports_a_test_too_long_for_the_sequence(capsys):
    # 16384 bits hold 16 of the 38 matrices the rank test needs.
    assert run_cli("analyze", "nist", "--mode", "ctr", "--keys", "1", "--bits", "16384") == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert len(rows) == 10
    rank = next(row for row in rows if row.startswith("Rank "))
    assert rank.endswith(" n/a     0/0  not applicable to 1 of 1: needs at least 38912 bits, got 16384")
    for row in rows:
        if row is not rank:
            assert re.search(r" \d\.\d{4}     [01]/1(  \S|$)", row), row


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "inru.cli", "analyze", "qg-check"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "simple=true" in proc.stdout


FULL_BATTERY = Path(__file__).resolve().parents[1] / "scripts" / "run_full_battery.py"


@pytest.mark.parametrize("flag", ["--keys", "--jobs", "--bits"])
def test_full_battery_script_rejects_counts_below_one(flag):
    proc = subprocess.run([sys.executable, str(FULL_BATTERY), flag, "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"argument {flag}: must be at least 1, got 0" in proc.stderr


@pytest.mark.parametrize("rounds", ["0", "17"])
def test_algsys_rejects_rounds_before_opening_the_output(rounds, tmp_path, capsys):
    out = tmp_path / "system.txt"
    assert run_cli("analyze", "algsys", "--rounds", rounds, "--out", str(out)) == 2
    assert "rounds must be in 1..16" in capsys.readouterr().err
    assert not out.exists()


def test_full_battery_script_rejects_unknown_modes():
    proc = subprocess.run([sys.executable, str(FULL_BATTERY), "--modes", "ctr", "xyz"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "argument --modes: invalid choice: 'xyz'" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("modes", [[], ["ctr", "ctr"]])
def test_full_battery_script_rejects_empty_or_repeated_modes(modes):
    proc = subprocess.run([sys.executable, str(FULL_BATTERY), "--modes", *modes],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "argument --modes: " in proc.stderr
    assert proc.stdout == ""


def test_full_battery_script_keeps_wall_times_off_stdout():
    proc = subprocess.run(
        [sys.executable, str(FULL_BATTERY), "--keys", "1", "--bits", "1000", "--modes", "ctr"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert re.fullmatch(r"\[ctr/zeros: \d+s, peak RSS \d+ MiB\]\n"
                        r"\[ctr/ones: \d+s, peak RSS \d+ MiB\]\n", proc.stderr)
    assert "s]" not in proc.stdout and "MiB" not in proc.stdout
    assert "mode,input,test,mean_p,passed/applicable" in proc.stdout.splitlines()


def test_full_battery_script_reports_the_workers_peak_rss_with_jobs():
    args = ["--keys", "2", "--bits", "1000", "--modes", "ctr"]
    runs = [subprocess.run([sys.executable, str(FULL_BATTERY), *args, *jobs],
                           capture_output=True, text=True) for jobs in ([], ["--jobs", "2"])]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert runs[1].stdout == runs[0].stdout
    assert re.fullmatch(r"(\[ctr/(zeros|ones): \d+s, peak RSS \d+ MiB, workers \d+ MiB\]\n){2}",
                        runs[1].stderr)
