"""Enumeration of deterministic response strategies.

A strategy assigns one outcome to each setting; the full set for m
settings and o outcomes has o^m elements.  Enumeration order is
lexicographic in the tuple (a_0, ..., a_{m-1}), so index k encodes the
base-o digits of k with setting 0 as the most significant digit.  All
enumeration-based routines (local and steering bounds, LHS programs,
brute-force game values) share this order, and the bounds share one
search, `best_strategy`, whose first-on-ties rule makes reported
maximizers deterministic.

A (K, m) integer answer table lists one strategy per row.  Only this
module pairs it with tables indexed [x][a]: `strategy_sums` and `mixture`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["strategy_count", "all_strategies", "best_strategy", "strategy_sums", "mixture"]


def strategy_count(settings: int, outcomes: int) -> int:
    if settings < 1 or outcomes < 1:
        raise ValueError("need at least one setting and one outcome")
    return outcomes**settings


def _block(start: int, stop: int, settings: int, outcomes: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(idx), settings), dtype=np.int64)
    for x in range(settings - 1, -1, -1):
        out[:, x] = idx % outcomes
        idx = idx // outcomes
    return out


def all_strategies(settings: int, outcomes: int, cap: int = 1 << 20) -> np.ndarray:
    """All strategies as an (o^m, m) array in lexicographic order."""
    n = strategy_count(settings, outcomes)
    if n > cap:
        raise ValueError(f"{n} strategies exceed the cap {cap}")
    return _block(0, n, settings, outcomes)


def best_strategy(settings: int, outcomes: int, score):
    """The first strategy in enumeration order with the largest score, and
    that score.  `score` maps a (k, m) block of strategies to their (k,)
    values; blocks of at most 4096 rows keep the memory bounded."""
    n = strategy_count(settings, outcomes)
    best, best_row = -np.inf, None
    for start in range(0, n, 4096):
        block = _block(start, min(start + 4096, n), settings, outcomes)
        values = score(block)
        k = int(np.argmax(values))
        if values[k] > best:
            best, best_row = float(values[k]), block[k].copy()
    return best, best_row


def strategy_sums(table: np.ndarray, answers: np.ndarray) -> np.ndarray:
    """sum_x table[x, answers[k, x]] for each row k of answers, (K, m) or (m,)."""
    return table[np.arange(table.shape[0]), answers].sum(axis=answers.ndim - 1)


def mixture(answers: np.ndarray, outcomes: int, states: np.ndarray) -> np.ndarray:
    """The table whose [x, a] sums states[k] over the strategies k answering a on x."""
    settings = answers.shape[1]
    out = np.zeros((settings, outcomes) + states.shape[1:], dtype=states.dtype)
    np.add.at(out, (np.arange(settings), answers), states[:, np.newaxis])
    return out
