"""Argument types shared by the scripts: a bad count exits 2 with a usage error."""

import argparse

from inru.batch import check_rounds


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def round_count(text):
    rounds = int(text)
    try:
        check_rounds(rounds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return rounds
