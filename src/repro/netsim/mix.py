"""Fast deterministic hashing to pseudo-random floats.

The simulator needs per-request randomness (jitter, hop loss) for tens of
millions of requests; seeding :class:`random.Random` per request would
dominate runtime.  A splitmix64-style integer mixer gives deterministic,
well-distributed values at a few ns each.

The epoch-compiled campaign engine evaluates the same mixer over whole
round ranges at once: :func:`mix64_prefix` absorbs the fixed leading
values into a partial state, and :func:`mix64_array` /
:func:`mix_float_array` finish the chain over a numpy array of trailing
values; :func:`mix_str_array` / :func:`mix_str_pieces` hash a batch of
strings at once.  The
array forms are bit-identical to calling :func:`mix64` /
:func:`mix_float` / :func:`mix_str` element-wise (uint64 wrap-around
multiplication is the same operation in numpy), which is what keeps the
vectorized engine's output byte-identical to the scalar prober.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

_MASK = (1 << 64) - 1

_INIT = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_PART_SEPARATOR = 0x1F


def mix64(*values: int) -> int:
    """Mix integers into one 64-bit hash (splitmix64 finalizer chain)."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h ^ (v & _MASK)) * 0xBF58476D1CE4E5B9 & _MASK
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK
        h = h ^ (h >> 31)
    return h


def mix_float(*values: int) -> float:
    """Deterministic float in [0, 1) from the mixed hash."""
    return mix64(*values) / float(1 << 64)


def mix64_prefix(*values: int) -> int:
    """Partial mixer state after absorbing *values* (see :func:`mix64`).

    Feed the result to :func:`mix64_array` / :func:`mix_float_array` to
    absorb per-round trailing values in bulk.  ``mix64_prefix()`` with no
    arguments is the mixer's initial state.
    """
    h = _INIT
    for v in values:
        h = (h ^ (v & _MASK)) * _MUL1 & _MASK
        h = (h ^ (h >> 27)) * _MUL2 & _MASK
        h = h ^ (h >> 31)
    return h


def mix64_array(
    prefix: Union[int, "np.ndarray"], values: "np.ndarray", *suffix: int
) -> "np.ndarray":
    """Absorb an array of values (then optional scalar *suffix* values)
    into a :func:`mix64_prefix` state; element-wise equal to
    ``mix64(*prefix_values, v, *suffix)``.

    *prefix* may be a scalar state or a uint64 array of per-element
    states (each from :func:`mix64_prefix`) that broadcasts against
    *values*.
    """
    if isinstance(prefix, np.ndarray):
        h = np.bitwise_xor(
            prefix.astype(np.uint64, copy=False),
            values.astype(np.uint64, copy=False),
        )
    else:
        h = np.bitwise_xor(np.uint64(prefix), values.astype(np.uint64, copy=False))
    # uint64 wrap-around *is* the mixer; numpy only warns about it for
    # 0-d operands (the scalar golden-reference paths), never arrays.
    with np.errstate(over="ignore"):
        h = h * np.uint64(_MUL1)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(_MUL2)
        h = h ^ (h >> np.uint64(31))
        for v in suffix:
            h = (h ^ np.uint64(v & _MASK)) * np.uint64(_MUL1)
            h = (h ^ (h >> np.uint64(27))) * np.uint64(_MUL2)
            h = h ^ (h >> np.uint64(31))
    return h


def mix_float_array(
    prefix: Union[int, "np.ndarray"], values: "np.ndarray", *suffix: int
) -> "np.ndarray":
    """Array form of :func:`mix_float`; bit-identical element-wise.

    *prefix* is a scalar :func:`mix64_prefix` state or an array of
    per-element states that broadcasts against *values* (as in
    :func:`mix64_array`) — the epoch engine hashes the cells of every
    (VP, address) pair in one call, each cell with its pair's prefix.
    """
    return mix64_array(prefix, values, *suffix) / float(1 << 64)


def mix_str(*parts: str) -> int:
    """Mix strings by hashing their UTF-8 bytes (stable across runs).

    Parts are domain-separated so ``("a", "b")`` and ``("ab",)`` differ.
    """
    acc = _FNV_OFFSET
    for part in parts:
        for byte in part.encode("utf-8"):
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK
        acc = ((acc ^ _PART_SEPARATOR) * _FNV_PRIME) & _MASK
    return mix64(acc)


class ByteTable:
    """Strings as a zero-padded UTF-8 byte matrix — ``columns[j][i]`` is
    byte ``j`` of string ``i`` (0 past its end) — and their byte
    ``lengths``: a piece table for :func:`mix_str_pieces`, encoded once
    and reusable."""

    def __init__(self, strings: Sequence[str]) -> None:
        encoded = [s.encode("utf-8") for s in strings]
        self.lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        width = int(self.lengths.max()) if len(encoded) else 0
        matrix = np.zeros((len(encoded), width), dtype=np.uint8)
        matrix[np.arange(width)[None, :] < self.lengths[:, None]] = np.frombuffer(
            b"".join(encoded), dtype=np.uint8
        )
        self.columns = matrix.T.astype(np.uint64)


def mix_str_array(strings: Sequence[str]) -> "np.ndarray":
    """Array form of one-part :func:`mix_str`: element ``i`` equals
    ``mix_str(strings[i])``."""
    return mix_str_pieces([(ByteTable(strings), np.arange(len(strings)))])


def mix_str_pieces(pieces: Sequence[Tuple[ByteTable, "np.ndarray"]]) -> "np.ndarray":
    """One-part :func:`mix_str` of strings assembled from pieces: element
    ``i`` equals ``mix_str("".join(table[index[i]] for table, index in
    pieces))``, without building the joined strings.

    FNV-1a folds byte column by byte column: every element gathers its
    piece's byte ``j`` and a length mask leaves the state of elements
    whose piece is shorter untouched.  uint64 wrap-around multiplication
    is FNV's product mod 2^64.
    """
    n = len(pieces[0][1])
    acc = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    with np.errstate(over="ignore"):
        for table, index in pieces:
            piece_len = table.lengths[index]
            for j, column in enumerate(table.columns):
                acc = np.where(piece_len > j, (acc ^ column[index]) * prime, acc)
        acc = (acc ^ np.uint64(_PART_SEPARATOR)) * prime
    return mix64_array(mix64_prefix(), acc)
