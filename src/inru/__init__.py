"""Quasigroup block cipher, its analysis instruments and randomness battery."""

from .quasigroup import (
    INRU,
    LatinSquareError,
    Quasigroup,
    check_latin,
    conjugate,
    has_proper_subquasigroup,
    is_medial,
    is_simple,
    load_square,
)
from .anf import Anf, algebraic_degree, coordinate_anf, moebius_transform
from .cipher import (
    Block,
    Diversifier,
    MasterKey,
    MixedKeyState,
    RoundKeys,
    decrypt_block,
    diffuse_left,
    diffuse_right,
    encrypt_block,
    encrypt_block_traced,
    expand_key,
    key_mixing,
    round_key_generation,
    undiffuse_left,
    undiffuse_right,
)
from .batch import BatchCipher
from .modes import ModeConfig, PaddingError, mode_decrypt, mode_encrypt
from .sboxes import build_ddt, build_lat, row_sbox, wide_sbox
from .experiments import (
    avalanche_key,
    avalanche_plaintext,
    diff_propagation_experiment,
    sac_matrix,
)
from .algsys import count_system_size, emit_algebraic_system
from .battery import BitSequence, nist_experiment, run_battery

__version__ = "0.1.0"
