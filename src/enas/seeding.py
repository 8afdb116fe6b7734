"""Deterministic seed derivation.

Every random decision in a run flows from one 64-bit base seed through
a single hash chain, so that repeated runs, and runs with any worker-pool
size, all see identical random streams:

    data seed          derive_seed(base_seed, dataset_name, run_index, "data")
      row order        derive_seed(data_seed, "shuffle")
      fold assignment  derive_seed(data_seed, "folds")
    run seed           derive_seed(base_seed, dataset_name, run_index, mode)
      initial draw     derive_seed(run_seed, "init")
      breeding         derive_seed(run_seed, "breed", generation)
      resize spawn     derive_seed(run_seed, "resize", generation)
      evaluation       derive_seed(run_seed, generation, individual_id)
        fold network   derive_seed(evaluation_seed, fold_index)

The data seed leaves out the mode, so both modes of a (dataset, run)
pair see the same folds. The fold assignment splits positions in the
row order, and each position stands for the input row it holds. The
initial draw gives an adaptive run's first control values and the
initial population; a fold network draws its initial weights, then one
batch order per epoch. Outside this chain, ``synthetic`` draws its
datasets from (seed, dataset_name).

Parts are encoded with a type tag so that e.g. the integer 1 and the
string "1" never collide.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = b"\x1f"

Part = int | str


def derive_seed(*parts: Part) -> int:
    """Hash an ordered tuple of ints/strings into a 64-bit unsigned seed."""
    if not parts:
        raise ValueError("derive_seed requires at least one part")
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        tag = b"i:" if isinstance(part, int) else b"s:"
        h.update(tag + str(part).encode("utf-8") + _SEP)
    return int.from_bytes(h.digest()[:8], "big")


def make_rng(*parts: Part) -> np.random.Generator:
    """Generator seeded by the hash chain; one part may be a ready seed."""
    return np.random.default_rng(derive_seed(*parts))
