"""Empirical diffusion experiments: difference propagation, avalanche, SAC.

All experiments draw their randomness from a seeded generator so runs are
reproducible.  Avalanche and SAC take ``jobs`` and farm fixed per-key work
units out through :func:`run_units`, as the battery does; units and their
sub-seeds depend only on the seed and results merge in unit order, so the
output is identical for every jobs value.  The key avalanche and
difference propagation take no ``jobs`` and slice their own loops.

The avalanche units run on the batch engine's byte methods: string bit
b is bit 7 - (b mod 8) of byte b // 8, so they flip bits as bytes and
count flipped bits on the xor of ciphertext bytes, without unpacking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import SLICE_BLOCKS, BatchCipher, _byte_rows, check_rounds, round_shape
from .cipher import Block


@dataclass(frozen=True)
class QuantileRanges:
    """Central ranges of an empirical distribution, in percent units."""

    r95: tuple[float, float]
    r98: tuple[float, float]
    r99: tuple[float, float]

    @classmethod
    def of(cls, values: np.ndarray) -> "QuantileRanges":
        def rng(p):
            lo, hi = np.percentile(values, [(100 - p) / 2, 100 - (100 - p) / 2])
            return (float(lo), float(hi))

        return cls(rng(95), rng(98), rng(99))


def run_units(fn, units: list, jobs: int) -> list:
    """``[fn(u) for u in units]``, computed on ``jobs`` processes, in unit order.

    The pool starts one process per unit at most, and none for one unit.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    workers = min(jobs, len(units))
    if workers <= 1:
        return [fn(u) for u in units]
    # Imported here so that ``import inru`` does not load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


# -- difference propagation ---------------------------------------------------


@dataclass(frozen=True)
class DiffPropagationResult:
    """activation[r][t]: how often the Sbox at position t was active in round r+1.

    A position counts as active when the 8-bit input of its wide-Sbox
    lookup (chain nibble, message nibble) differs between the two
    encryptions of a pair.
    """

    rounds: int
    delta: Block
    trials: int
    activation: np.ndarray


def _activation_counts(eng, keys, pts, delta, rounds):
    """(rounds, 16) counts of active Sbox positions over the pairs (pts, pts ^ delta)."""
    m = len(pts)
    rks = eng.expand_key_bytes(keys)
    pairs = _byte_rows(np.concatenate([pts, pts ^ np.array(delta.nibbles, dtype=np.uint8)]).T).T
    active = np.zeros((rounds, 16), dtype=np.int64)
    for i, after_kxor, after_sbox, _ in eng.trace_rounds(pairs, np.concatenate([rks, rks]), rounds):
        differs = after_kxor[:, :m] != after_kxor[:, m:]
        chain_differs = after_sbox[:, :m] != after_sbox[:, m:]
        if round_shape(i)[0]:  # forward: position t chains from t-1, position 0 from the leader
            differs[1:] |= chain_differs[:-1]
        else:  # position t chains from t+1, position 15 from the leader
            differs[:-1] |= chain_differs[1:]
        active[i - 1] = differs.sum(axis=1)
    return active


def diff_propagation_experiment(
    rounds: int, delta: Block, trials: int, seed: int = 0
) -> DiffPropagationResult:
    """Encrypt random pairs (m, m ^ delta) under random keys and tap Sbox inputs.

    The pairs of each slice of :data:`SLICE_BLOCKS` trials run as one
    batch; the round-key leaders are shared within a pair, so only the
    message and neighbouring chain nibbles differ.  Keys and plaintexts
    are drawn for all trials up front and the slices' integer activation
    counts add up, so the slicing never changes the result.
    """
    if delta.to_int() == 0:
        raise ValueError("the input difference must be nonzero")
    check_rounds(rounds)
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 16, size=(trials, 32), dtype=np.uint8)
    pts = rng.integers(0, 16, size=(trials, 16), dtype=np.uint8)
    eng = BatchCipher()
    active = sum(
        _activation_counts(eng, keys[lo : lo + SLICE_BLOCKS], pts[lo : lo + SLICE_BLOCKS], delta, rounds)
        for lo in range(0, trials, SLICE_BLOCKS)
    )
    return DiffPropagationResult(rounds, delta, trials, active / trials)


# -- avalanche and strict avalanche -------------------------------------------


def _flip_unit(args) -> tuple[np.ndarray, np.ndarray]:
    """One key's worth of plaintext-flip encryptions.

    Returns (flip_counts, unit_means): flip_counts[b][j] counts ciphertext
    bit j flips when flipping plaintext bit b; unit_means[t] is trial t's
    average flipped-bit percentage over all 64 single-bit flips.
    """
    key_nibbles, count, sub_seed, rounds = args
    rng = np.random.default_rng(sub_seed)
    eng = BatchCipher()
    rks = eng.expand_key_bytes([key_nibbles])[0]
    nibbles = rng.integers(0, 16, size=(count, 16), dtype=np.uint8)
    pts = _byte_rows(nibbles.T)  # (8, count) byte rows
    base = eng.encrypt_bytes(pts.T, rks, rounds).T
    flipped = np.repeat(pts[:, None], 64, axis=1)  # (8, 64 flips, count)
    for b in range(64):  # string bit b is bit 7 - (b mod 8) of byte b // 8
        flipped[b >> 3, b] ^= 0x80 >> (b & 7)
    ct = eng.encrypt_bytes(flipped.reshape(8, -1).T, rks, rounds).T.reshape(8, 64, count)
    d = ct ^ base[:, None]  # (8 ciphertext bytes, 64 flips, count)
    flip_counts = np.empty((64, 64), dtype=np.int64)
    for j in range(64):  # ciphertext bit j, counted without unpacking
        flip_counts[:, j] = np.count_nonzero(d[j >> 3] & (0x80 >> (j & 7)), axis=1)
    unit_means = np.bitwise_count(d).sum(axis=(0, 1), dtype=np.int64) / (64 * 64) * 100.0
    return flip_counts, unit_means


def _run_flip_units(trials, keys, rounds, seed, jobs):
    """Spread ``trials`` over ``keys`` keys; a key whose share is 0 never runs.

    Returns (flip_counts, unit_means, keys_run).
    """
    if keys < 1:
        raise ValueError("keys must be positive")
    check_rounds(rounds)  # before any key schedule runs
    rng = np.random.default_rng(seed)
    key_nibbles = rng.integers(0, 16, size=(keys, 32), dtype=np.uint8)
    sub_seeds = rng.integers(0, 2**63, size=keys)
    counts = [trials // keys + (1 if i < trials % keys else 0) for i in range(keys)]
    units = [
        (key_nibbles[i].tolist(), counts[i], int(sub_seeds[i]), rounds)
        for i in range(keys)
        if counts[i]
    ]
    results = run_units(_flip_unit, units, jobs)
    flip_counts = sum(r[0] for r in results)
    unit_means = np.concatenate([r[1] for r in results])
    return flip_counts, unit_means, len(units)


@dataclass(frozen=True)
class AvalancheResult:
    trials: int
    keys: int  # keys that ran: at most ``trials``
    per_bit_mean: np.ndarray  # (64,) mean flipped-bit percentage per flipped input bit
    unit_values: np.ndarray  # per (plaintext, key) average percentage over 64 flips
    ranges: QuantileRanges


def avalanche_plaintext(
    trials: int, keys: int = 6, rounds: int = 16, seed: int = 0, jobs: int = 1
) -> AvalancheResult:
    """Flip every plaintext bit of ``trials`` random inputs spread over ``keys`` keys.

    The experiment unit is one (input, key) pair: its value is the average
    flipped-ciphertext-bit percentage over the 64 single-bit flips, and the
    quantile ranges summarize the unit distribution.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    flip_counts, unit_means, keys_run = _run_flip_units(trials, keys, rounds, seed, jobs)
    per_bit = flip_counts.sum(axis=1) / (len(unit_means) * 64) * 100.0
    return AvalancheResult(trials, keys_run, per_bit, unit_means, QuantileRanges.of(unit_means))


@dataclass(frozen=True)
class SacResult:
    trials: int
    keys: int  # keys that ran: at most ``trials``
    matrix: np.ndarray  # (64, 64) flip frequencies in [0, 1]
    ranges: QuantileRanges  # over the 4096 entries, in percent


def sac_matrix(
    trials: int, keys: int = 6, rounds: int = 16, seed: int = 0, jobs: int = 1
) -> SacResult:
    """Dependence matrix: entry (i, j) is how often ciphertext bit j flips
    when plaintext bit i is flipped, pooled over all trials and keys."""
    if trials < 1:
        raise ValueError("trials must be positive")
    flip_counts, unit_means, keys_run = _run_flip_units(trials, keys, rounds, seed, jobs)
    matrix = flip_counts / len(unit_means)
    return SacResult(trials, keys_run, matrix, QuantileRanges.of(matrix.reshape(-1) * 100.0))


# -- key schedule avalanche ----------------------------------------------------


@dataclass(frozen=True)
class KeyAvalancheResult:
    trials: int
    min_roundkey_flips: int  # fewest round-key bits changed by any single key-bit flip
    roundkey_flip_mean: float  # mean fraction of the 17*64 round-key bits flipped
    ct_flip_mean: float  # mean fraction of ciphertext bits flipped
    per_bit_ct_mean: np.ndarray  # (128,) ciphertext flip fraction per master-key bit


def _key_flip_diffs(eng, base_keys, pts, rounds):
    """(m, 128) round-key and ciphertext bit flips for each one-bit flip of m keys."""
    m = len(base_keys)
    keys = np.repeat(base_keys[:, None, :], 129, axis=1)  # (m, 129, 32)
    for b in range(128):
        keys[:, 1 + b, b >> 2] ^= 1 << (3 - (b & 3))
    rks = eng.expand_key_bytes(keys.reshape(-1, 32))  # (m * 129, 17, 8)

    rk = rks.reshape(m, 129, 17, 8)
    rk_diffs = np.bitwise_count(rk[:, 1:] ^ rk[:, :1]).sum(axis=(2, 3), dtype=np.int64)

    ct = eng.encrypt_bytes(np.repeat(pts, 129, axis=0), rks, rounds).reshape(m, 129, 8)
    ct_diffs = np.bitwise_count(ct[:, 1:] ^ ct[:, :1]).sum(axis=2, dtype=np.int64)
    return rk_diffs, ct_diffs


def avalanche_key(trials: int, rounds: int = 16, seed: int = 0) -> KeyAvalancheResult:
    """Flip each of the 128 master-key bits and measure downstream changes.

    Each trial schedules its base key and the 128 one-bit flips of it.
    The trials run in chunks of ``SLICE_BLOCKS // 129``, so one chunk's
    keys are one slice of the batch engine; all draws are made up front,
    so the chunking never changes the result.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    check_rounds(rounds)  # before the first chunk's key schedule
    rng = np.random.default_rng(seed)
    eng = BatchCipher()
    base_keys = rng.integers(0, 16, size=(trials, 32), dtype=np.uint8)
    pts = _byte_rows(rng.integers(0, 16, size=(trials, 16), dtype=np.uint8).T).T

    rk_diffs = np.empty((trials, 128), dtype=np.int64)
    ct_diffs = np.empty((trials, 128), dtype=np.int64)
    step = SLICE_BLOCKS // 129
    for lo in range(0, trials, step):
        part = slice(lo, lo + step)
        rk_diffs[part], ct_diffs[part] = _key_flip_diffs(eng, base_keys[part], pts[part], rounds)

    return KeyAvalancheResult(
        trials,
        int(rk_diffs.min()),
        float(rk_diffs.mean() / (17 * 64)),
        float(ct_diffs.mean() / 64),
        ct_diffs.mean(axis=0) / 64,
    )


# -- report rendering ----------------------------------------------------------


def render_ranges(name: str, ranges: QuantileRanges) -> str:
    return (
        f"{name} central ranges (percent):\n"
        f"  95%: ({ranges.r95[0]:.2f}, {ranges.r95[1]:.2f})\n"
        f"  98%: ({ranges.r98[0]:.2f}, {ranges.r98[1]:.2f})\n"
        f"  99%: ({ranges.r99[0]:.2f}, {ranges.r99[1]:.2f})\n"
    )
