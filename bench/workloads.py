"""The benchmark's workloads: seeded inputs, the operations of one job, checks.

Each workload drives the public entry points a user calls and nothing
else.  A job is a fixed list of named operations; the worker times each
one, hands its result to ``check`` and derives the workload's phase
metrics from the median operation times.

- ``modes``: ``inru encrypt`` then ``inru decrypt`` (``inru.cli.main``
  in-process) on seeded files, under each mode.  The only workload that
  decrypts and does file I/O.  CBC/CFB/OFB run the scalar cipher, CTR the
  batch engine, so CTR gets a larger file.
- ``battery``: ``battery.nist_experiment`` for all 8 (mode, fill) pairs
  at the published 2^20-bit sequence length, one seed for all pairs as
  ``scripts/run_full_battery.py`` does.  Scalar chained streams plus the
  ten tests; no decryption and almost no batch work.
- ``analysis``: plaintext avalanche and SAC in the acceptance-criterion
  shape (10k trials, 6 keys), key avalanche and 16-round difference
  propagation.  Large single-key batches, ``expand_keys`` at n=1 and at
  large n, and the scalar traced loop; no modes and no tests.
"""

from __future__ import annotations

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from inru import battery, cli, experiments
from inru.cipher import Block
from inru.nist_tests import TEST_NAMES

ROOT = Path(__file__).resolve().parent.parent

MODES = ("cbc", "cfb", "ofb", "ctr")
# The scalar modes run at ~15k blocks/s and CTR at ~250k blocks/s, so CTR
# gets 16x the bytes; the CFB length is not a multiple of 8.
MODE_BYTES = {"cbc": 64 << 10, "cfb": (64 << 10) + 5, "ofb": 64 << 10, "ctr": 1 << 20}
ORACLE_SAMPLES = 16

FILLS = ("zeros", "ones")
BATTERY_KEYS = 1
BATTERY_BITS = 1 << 20

AVALANCHE_TRIALS = 10_000
AVALANCHE_KEYS = 6
KEY_AVALANCHE_TRIALS = 200
DIFF_PROP_ROUNDS = 16
DIFF_PROP_TRIALS = 4000
DIFF_PROP_DELTA = "000000000000000f"


def _load_oracle():
    """The independent straight-line transcription kept in ``tests/``."""
    spec = importlib.util.spec_from_file_location("straightline", ROOT / "tests" / "straightline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _nibbles(data: bytes) -> list[int]:
    return [v for b in data for v in (b >> 4, b & 15)]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class ModesWorkload:
    name = "modes"

    def __init__(self, seed: int, workdir: Path):
        self.inputs = self.make_inputs(seed)
        self.workdir = workdir
        for mode, data in self.inputs["plaintexts"].items():
            (workdir / f"{mode}.pt").write_bytes(data)
        straightline = _load_oracle()
        self.oracle_encrypt = straightline.ora_encrypt
        self.oracle_rks = straightline.ora_expand_key(_nibbles(bytes.fromhex(self.inputs["key"])), [0] * 16)

    @staticmethod
    def make_inputs(seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        return {
            "key": rng.bytes(16).hex(),
            "mode_iv": rng.bytes(8).hex(),
            "nonce": rng.bytes(4).hex(),
            "plaintexts": {m: rng.bytes(n) for m, n in MODE_BYTES.items()},
            "samples": int(rng.integers(1 << 30)),
        }

    def sizes(self) -> dict:
        return {"bytes": MODE_BYTES, "oracle_blocks_per_mode": ORACLE_SAMPLES}

    def _argv(self, op: str, mode: str, src: str, dst: str) -> list[str]:
        iv = ["--nonce", self.inputs["nonce"]] if mode == "ctr" else ["--mode-iv", self.inputs["mode_iv"]]
        d = self.workdir
        return [op, "--key", self.inputs["key"], "--mode", mode, *iv,
                "--in", str(d / src), "--out", str(d / dst)]

    def _run_cli(self, argv):
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"inru {' '.join(argv[:1])} exited {code}")
        return out.getvalue()

    def operations(self):
        for mode in MODES:
            enc = self._argv("encrypt", mode, f"{mode}.pt", f"{mode}.ct")
            dec = self._argv("decrypt", mode, f"{mode}.ct", f"{mode}.out")
            yield f"{mode}_enc", lambda a=enc: self._run_cli(a)
            yield f"{mode}_dec", lambda a=dec: self._run_cli(a)

    def _blocks(self, mode: str) -> int:
        return ((self.workdir / f"{mode}.ct").stat().st_size + 7) // 8

    def check(self, op: str, printed: str) -> str | None:
        mode, direction = op.split("_")
        if printed.strip() != f"{self._blocks(mode)} blocks":
            return f"unexpected CLI output {printed.strip()!r}"
        pt = self.inputs["plaintexts"][mode]
        if direction == "dec":
            return None if (self.workdir / f"{mode}.out").read_bytes() == pt else "round trip differs"
        ct = (self.workdir / f"{mode}.ct").read_bytes()
        bad = [i for i in self._sample_blocks(len(pt) // 8) if not self._matches_oracle(mode, pt, ct, i)]
        return f"blocks {bad} differ from the oracle" if bad else None

    def _sample_blocks(self, full_blocks: int) -> list[int]:
        rng = np.random.default_rng(self.inputs["samples"])
        picks = rng.choice(full_blocks, ORACLE_SAMPLES - 2, replace=False)
        return sorted({0, full_blocks - 1, *map(int, picks)})

    def _matches_oracle(self, mode: str, pt: bytes, ct: bytes, i: int) -> bool:
        """Block i of ``ct`` recomputed with the oracle from the mode's definition."""
        iv = bytes.fromhex(self.inputs["mode_iv"])
        p, c = pt[8 * i : 8 * i + 8], ct[8 * i : 8 * i + 8]
        prev_c = ct[8 * i - 8 : 8 * i] if i else iv
        if mode == "cbc":
            block_in, expected = _xor(p, prev_c), c
        elif mode == "cfb":
            block_in, expected = prev_c, _xor(p, c)
        elif mode == "ofb":  # the keystream feeds back on itself
            block_in = _xor(pt[8 * i - 8 : 8 * i], prev_c) if i else iv
            expected = _xor(p, c)
        else:
            block_in = bytes.fromhex(self.inputs["nonce"]) + i.to_bytes(4, "big")
            expected = _xor(p, c)
        return self.oracle_encrypt(_nibbles(block_in), self.oracle_rks) == _nibbles(expected)

    def phase_metrics(self, op_seconds: dict) -> dict:
        """Cipher blocks per second of each encrypt and decrypt call."""
        return {f"{op}_blocks_per_s": self._blocks(op[:3]) / s for op, s in op_seconds.items()}

    def warm_up(self) -> None:
        small = self.workdir / "warm.pt"
        small.write_bytes(b"warm-up message of 29 bytes..")
        for mode in MODES:
            self._run_cli(self._argv("encrypt", mode, "warm.pt", "warm.ct"))
            self._run_cli(self._argv("decrypt", mode, "warm.ct", "warm.out"))


class BatteryWorkload:
    name = "battery"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.reference: dict[str, str] = {}

    def sizes(self) -> dict:
        return {"pairs": len(MODES) * len(FILLS), "keys_per_pair": BATTERY_KEYS,
                "bits_per_seq": BATTERY_BITS}

    def operations(self):
        for mode in MODES:
            for fill in FILLS:
                yield f"{mode}_{fill}", lambda m=mode, f=fill: battery.nist_experiment(
                    m, input_fill=f, keys=BATTERY_KEYS, bits_per_seq=BATTERY_BITS, seed=self.seed)

    def check(self, op: str, report) -> str | None:
        if sorted(r.test for r in report.records) != sorted(TEST_NAMES):
            return "report does not hold the ten tests"
        if report.n_sequences != BATTERY_KEYS or any(len(r.results) != BATTERY_KEYS for r in report.records):
            return "report does not hold the requested sequence count"
        if not all(0.0 <= p <= 1.0 for r in report.records for p in r.p_values()):
            return "p-value outside [0, 1]"
        text = repr(report)
        if self.reference.setdefault(op, text) != text:
            return "report differs from the first repetition"
        return None

    def phase_metrics(self, op_seconds: dict) -> dict:
        return {}

    def warm_up(self) -> None:
        battery.nist_experiment("ctr", keys=1, bits_per_seq=1 << 16, seed=self.seed)


class AnalysisWorkload:
    name = "analysis"

    def __init__(self, seed: int, workdir: Path):
        self.seeds = self.make_inputs(seed)
        self.reference: dict[str, bytes] = {}

    @staticmethod
    def make_inputs(seed: int) -> list[int]:
        return [int(s) for s in np.random.default_rng([seed, 3]).integers(1 << 31, size=4)]

    def sizes(self) -> dict:
        return {"avalanche_trials": AVALANCHE_TRIALS, "avalanche_keys": AVALANCHE_KEYS,
                "key_avalanche_trials": KEY_AVALANCHE_TRIALS,
                "diff_prop_rounds": DIFF_PROP_ROUNDS, "diff_prop_trials": DIFF_PROP_TRIALS}

    def operations(self):
        s = self.seeds
        yield "avalanche_plaintext", lambda: experiments.avalanche_plaintext(
            AVALANCHE_TRIALS, keys=AVALANCHE_KEYS, seed=s[0])
        yield "sac_matrix", lambda: experiments.sac_matrix(
            AVALANCHE_TRIALS, keys=AVALANCHE_KEYS, seed=s[1])
        yield "avalanche_key", lambda: experiments.avalanche_key(KEY_AVALANCHE_TRIALS, seed=s[2])
        yield "diff_prop", lambda: experiments.diff_propagation_experiment(
            DIFF_PROP_ROUNDS, Block.from_hex(DIFF_PROP_DELTA), DIFF_PROP_TRIALS, seed=s[3])

    def check(self, op: str, result) -> str | None:
        if op in ("avalanche_plaintext", "sac_matrix"):
            lo, hi = result.ranges.r95
            if not 48 < lo <= 50 <= hi < 52:
                return f"95% range ({lo:.2f}, {hi:.2f}) not inside (48, 52) around 50"
            arrays = (result.unit_values,) if op == "avalanche_plaintext" else (result.matrix,)
        elif op == "avalanche_key":
            arrays = (result.per_bit_ct_mean, np.array([result.min_roundkey_flips, result.roundkey_flip_mean]))
        else:
            if not np.all(result.activation[1] == 1.0):
                return "round 2 is not fully active"
            arrays = (result.activation,)
        digest = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
        if self.reference.setdefault(op, digest) != digest:
            return "result differs from the first repetition"
        return None

    def phase_metrics(self, op_seconds: dict) -> dict:
        return {
            "avalanche_s": op_seconds["avalanche_plaintext"] + op_seconds["sac_matrix"],
            "key_avalanche_s": op_seconds["avalanche_key"],
            "diff_prop_s": op_seconds["diff_prop"],
        }

    def warm_up(self) -> None:
        experiments.avalanche_plaintext(64, keys=1, seed=self.seeds[0])


WORKLOADS = {w.name: w for w in (ModesWorkload, BatteryWorkload, AnalysisWorkload)}
