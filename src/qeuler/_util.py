"""Shared plumbing: deterministic RNG streams, float and complex-vector
formatting, and the error that names a rejected parameter."""

from __future__ import annotations

import numpy as np


class ParameterError(ValueError):
    """A ValueError for the value of one parameter, named by `name`, so a
    caller can say which of its own inputs supplied it."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (master_seed, path).

    Streams are derived counter-style from the master seed, so the same
    (seed, path) pair always yields the same stream no matter how many other
    streams exist or in which order they are created.  This is what makes
    trial-level parallelism unable to change results.
    """
    ss = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=tuple(int(p) for p in path)
    )
    return np.random.default_rng(ss)


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Accept a Generator, a seed, or None (seed 0)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return rng_stream(0 if rng is None else int(rng))


def complex_pairs(arr) -> list:
    """Complex array as JSON-friendly [re, im] pairs, nested as arr is: a
    vector gives a list of pairs, a stack of vectors a list of such lists."""
    arr = np.asarray(arr)
    return (np.ascontiguousarray(arr, complex).view(float)
            .reshape(arr.shape + (2,)).tolist())


def pairs_complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def float_strings(values) -> list[str]:
    """repr() of each float of values, flattened, as json.dumps and str()
    spell a finite float."""
    return list(map(repr, np.asarray(values, float).ravel().tolist()))


def csv_rows(columns) -> str:
    """The CSV lines, each ending in a newline, of equal-length columns of
    cell strings."""
    width = len(columns)
    parts = (["", ","] * (width - 1) + ["", "\n"]) * len(columns[0])
    for k, column in enumerate(columns):
        parts[2 * k::2 * width] = column
    return "".join(parts)
