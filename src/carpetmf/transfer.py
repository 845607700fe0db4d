"""The split transfer kernel behind the transfer row sums of
:mod:`carpetmf.weights`.

A row sum ``I_q(w1)`` of a window weight of depth ``k >= 2`` or of a matrix
cocycle at integer q is a product of transfer matrices picked by the column
letters.  :func:`split_transfer_log` splits each column word after
:func:`split_point` letters and takes the dot product of the forward state
of its prefix with the backward vector of its tail; the tail vectors of
every tail come from one table per ``(m, q)``, kept on the weight in a
:class:`TailMemo`.  One level function, :func:`_transfer_level`, builds
both halves.  :mod:`carpetmf.weights` imports this module the first time a
transfer row sum runs, so loading a config does not compile it.
"""

from __future__ import annotations

import threading

import numpy as np

from . import weights
from .numerics import NEG_INF, lse
from .symbolic import pack_digits

#: Row dot products below this fall back to log space: an entry that
#: underflowed in a linear state then cannot move the result by an ulp.
_LINEAR_FLOOR = 2.0**-900

#: Most floats in the tail table of one q: the memo holds 64 of the largest
#: tables (more of smaller ones), so a q-grid reads its tables back from
#: chunk to chunk.
MAX_TAIL_TABLE = weights.MAX_TRANSFER_TABLE // 64


def split_point(n: int, k: int, r1: int, S: int) -> int:
    """Letters in the forward half of a depth-``n`` column word whose
    transfer steps read windows of ``k`` letters on ``S`` states: half the
    word, at least the ``k - 1`` letters of the start state, and enough that
    the tail table of the other ``m = n - a + k - 1`` letters,
    ``r1**m * (S + 1)`` floats, fits :data:`MAX_TAIL_TABLE`."""
    m = k - 1
    while r1 ** (m + 1) * (S + 1) <= MAX_TAIL_TABLE:
        m += 1
    return max(n // 2, k - 1, n + k - 1 - m)


class TailMemo:
    """Backward vectors of every ``m``-letter tail, one entry per ``(m, q)``:
    the ``(r1**m, S)`` linear vectors, each scaled to peak 1, and their
    ``(r1**m,)`` log scales.

    Entries hold at most ``weights.MAX_TRANSFER_TABLE`` floats in total;
    the oldest entry is dropped first.  Two threads that build the same
    entry store the same bytes.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    @property
    def floats(self) -> int:
        return sum(lin.size + scale.size for lin, scale in list(self._entries.values()))

    def vectors(self, m: int, qs: np.ndarray, build) -> list[tuple[np.ndarray, np.ndarray]]:
        """The entries of ``m`` at each q; ``build(missing)`` returns the
        ``(r1**m, len(missing), S)`` log table for the positions of ``qs``
        not held yet."""
        keys = [(m, float(q)) for q in qs]
        found = [self._entries.get(key) for key in keys]
        missing = [j for j, entry in enumerate(found) if entry is None]
        if missing:
            lin, scale = _linear(build(missing))
            for i, j in enumerate(missing):
                found[j] = (np.ascontiguousarray(lin[:, i]), np.ascontiguousarray(scale[:, i]))
                self._store(keys[j], found[j])
        return found

    def _store(self, key, entry) -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            total = self.floats
            while total > weights.MAX_TRANSFER_TABLE:
                lin, scale = self._entries.pop(next(iter(self._entries)))
                total -= lin.size + scale.size


def _linear(log_states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log states ``(..., S)`` as linear vectors with peak 1 and their
    ``(...)`` log scales; a dead state is all zeros with scale -inf."""
    peak = np.max(log_states, axis=-1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    return np.exp(log_states - shift[..., None]), peak


def _window_keys(letters: np.ndarray, k: int, r1: int) -> np.ndarray:
    """``(N, L - k + 1)`` packed windows of ``k`` consecutive letters
    (none when ``L = k - 1``)."""
    count = letters.shape[1] - k + 1
    keys = np.zeros((letters.shape[0], count), dtype=np.int64)
    for i in range(k):
        keys = keys * r1 + letters[:, i : i + count]
    return keys


def _distinct_rows(letters: np.ndarray, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a letter array and each row's index among them."""
    if r1 ** letters.shape[1] < 2**63:
        _, first, inverse = np.unique(
            pack_digits(letters, r1), return_index=True, return_inverse=True
        )
        return letters[first], inverse
    rows, inverse = np.unique(letters, axis=0, return_inverse=True)
    return rows, inverse.ravel()


def _transfer_level(
    states: np.ndarray,
    parents: np.ndarray,
    keys: np.ndarray,
    steps: np.ndarray,
    backward: bool = False,
) -> np.ndarray:
    """One level of a log-space transfer recursion, for each q: node ``i``
    applies the step ``steps[keys[i]]`` to the state ``states[parents[i]]``.

    ``states`` is ``(P, Q, S)``.  A step ``M`` is ``(S, C)`` with ``C``
    dividing ``S``: ``M[s, y]`` leads from state ``s`` to the state
    ``t = (s mod S/C) * C + y``.  With ``C == S`` that is a dense matrix;
    with ``S = C**j`` a shift register of ``j`` base-``C`` digits that drops
    its oldest digit and appends ``y``.  Forward, ``steps`` is
    ``(K, Q, S, C)`` and ``u'[t]`` sums ``u[s] M[s, y]`` over the ``C``
    states ``s`` that lead to ``t``; backward, ``steps`` holds the
    transposes, ``(K, Q, C, S)``, and ``v'[s]`` sums ``M[s, y] v[t]`` over
    ``y``.  Both sum over an outer axis, so each term is a contiguous row.
    A node's value depends only on its parent's state and its key, so it is
    the same bytes in any batch.
    """
    Q = steps.shape[1]
    S = states.shape[2]
    C = steps[0, 0].size // S
    block = max(1, weights.MAX_TRANSFER_TABLE // steps[0].size)  # nodes per transient
    parts = []
    for i in range(0, max(keys.size, 1), block):  # one empty part for no nodes
        part = slice(i, i + block)
        state, step = states[parents[part]], steps[keys[part]]
        if backward:
            # [y, h, l] terms of v'[h * S/C + l] = sum_y M[., y] v[l * C + y].
            ahead = state.reshape(-1, Q, S // C, C).swapaxes(2, 3)[:, :, :, None]
            parts.append(lse(step.reshape(-1, Q, C, C, S // C) + ahead, axis=2).reshape(-1, Q, S))
        else:
            parts.append(lse((state[..., None] + step).reshape(-1, Q, C, S), axis=2))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _walk(
    initial: np.ndarray, rows: np.ndarray, keys: np.ndarray, steps: np.ndarray, backward=False
) -> np.ndarray:
    """``(N, Q, S)`` log states of ``N`` rows that start at
    ``initial[rows]`` and apply the step of each column of ``keys``
    (``(N, L)``) in turn.

    Rows whose keys agree up to a level must start from equal states; a row
    whose keys agree with the row before it up to a level reuses that row's
    node there, so sorted rows are walked as a trie.
    """
    N, L = keys.shape
    if L == 0:
        return initial[rows]
    differs = np.ones((N, L), dtype=bool)
    differs[1:] = keys[1:] != keys[:-1]
    # First level at which each row leaves the previous row's path.
    first = np.where(differs.any(axis=1), differs.argmax(axis=1), L)
    states, node = initial, rows
    for level in range(L):
        new = first <= level
        states = _transfer_level(states, node[new], keys[new, level], steps, backward)
        node = np.cumsum(new) - 1
    return states[node]


def _walk_tails(tails: np.ndarray, k: int, r1: int, steps_t: np.ndarray):
    """``(D, Q, S)`` log backward vectors of the ``D`` distinct rows of the
    tail letters ``tails``, and each row's index among them: from the
    all-ones vector, the transposed steps ``steps_t`` of the windows, last
    first.  The rows are sorted on their reversed letters, so tails that
    end alike share their last windows' nodes."""
    reversed_rows, inverse = _distinct_rows(tails[:, ::-1], r1)
    keys = _window_keys(reversed_rows[:, ::-1], k, r1)[:, ::-1]
    ones = np.zeros((1, steps_t.shape[1], steps_t.shape[3]))
    rows = np.zeros(len(reversed_rows), dtype=np.int64)
    return _walk(ones, rows, keys, steps_t, backward=True), inverse


def _tail_table(r1: int, k: int, m: int, steps_t: np.ndarray) -> np.ndarray:
    """``(r1**m, Q, S)`` log backward vectors of every ``m``-letter tail.

    A tail of ``k - 1`` letters carries no window; each level prepends a
    letter to every tail and applies the transposed step of the new window.
    These are the steps :func:`_walk_tails` applies to one tail, in the
    same order, so a tail's vector has the same bytes either way.
    """
    states = np.zeros((r1 ** (k - 1), steps_t.shape[1], steps_t.shape[3]))
    for j in range(m - k + 1):
        tails = np.arange(states.shape[0])
        parents = np.tile(tails, r1)
        keys = np.repeat(np.arange(r1) * r1 ** (k - 1), tails.size) + parents // r1**j
        states = _transfer_level(states, parents, keys, steps_t, backward=True)
    return states


def split_transfer_log(
    a1s: np.ndarray,
    qs: np.ndarray,
    k: int,
    r1: int,
    start: np.ndarray,
    steps: np.ndarray,
    tails: TailMemo,
    a: int | None = None,
) -> np.ndarray:
    """``(W, Q)`` array of ``log I_q(w)`` for ``(W, n)`` column words,
    ``n >= k``, where ``I_q(w) = start[head(w)] M_q(window_0) ...
    M_q(window_{n-k}) 1`` in linear terms.

    ``head`` is the packed first ``k - 1`` letters, ``window_i`` the packed
    letters ``i .. i + k - 1``, ``start`` the ``(r1**(k-1), S)`` log start
    states and ``steps`` the ``(r1**k, Q, S, C)`` log steps of
    :func:`_transfer_level`, one per window and q.  Each word splits after
    its first ``a`` letters, by default :func:`split_point` of ``n``, ``k``,
    ``r1`` and ``S``: ``I_q = u(prefix) . v(tail)``.

    * ``u`` is the forward state after the prefix, built by :func:`_walk`
      for the distinct prefixes of the batch.
    * ``v`` is the backward vector of the last ``m = n - a + k - 1``
      letters (the windows ending after the prefix), read from the
      ``tails`` memo of all ``r1**m`` tails, built once per ``(m, q)`` by
      the same level loop.  When the tables of all ``qs`` would pass
      ``weights.MAX_TRANSFER_TABLE`` floats, none is kept, and the
      batch's distinct tails are walked instead.
    * The dot product runs in linear space with one log scale per row.  A
      row whose ``u`` or ``v`` is all zero is -inf; any other product
      below ``_LINEAR_FLOOR`` (underflow, or disjoint supports) is redone
      in log space, so zeros match enumeration exactly.  With ``a = n``
      (deep windows, see :func:`split_point`) the tail holds no window,
      and the row sum is the lse of ``u``.

    Words with an out-of-range letter get ``-inf`` at every q.  A row's
    value depends on its own letters, ``a``, ``k`` and its q alone, so it is
    the same bytes in any batch, order or q-block.
    """
    W, n = a1s.shape
    S = start.shape[1]
    a = split_point(n, k, r1, S) if a is None else a
    m = n - a + k - 1
    letters, valid = a1s, None
    if W and (a1s.min() < 0 or a1s.max() >= r1):
        valid = ((a1s >= 0) & (a1s < r1)).all(axis=1)
        letters = np.where(valid[:, None], a1s, 0)
    prefixes, pid = _distinct_rows(letters[:, :a], r1)
    head = pack_digits(prefixes[:, : k - 1], r1)
    prefix_keys = _window_keys(prefixes, k, r1)
    tail_letters = letters[:, a - k + 1 :]
    # The tables of every q must fit the memo together, or each q block
    # would evict the tables the next chunk needs.
    tabled = qs.size * r1**m * (S + 1) <= weights.MAX_TRANSFER_TABLE
    if tabled:
        tid = pack_digits(tail_letters, r1)
    # Blocks of q keep the gathered vectors within weights.MAX_TRANSFER_TABLE.
    block = max(1, weights.MAX_TRANSFER_TABLE // max(1, W * S))
    out = np.empty((W, qs.size))
    for j in range(0, qs.size, block):
        qb, steps_b = qs[j : j + block], steps[:, j : j + block]
        steps_t = np.ascontiguousarray(steps_b.swapaxes(2, 3))
        starts = np.repeat(start[:, None], qb.size, axis=1)
        forward = _walk(starts, head, prefix_keys, steps_b)
        if a == n:  # no window in the tail: v is the all-ones vector
            out[:, j : j + block] = np.take(lse(forward, axis=2), pid, axis=0, mode="clip")
            continue
        u, u_scale = _linear(forward)
        if tabled:
            entries = tails.vectors(
                m, qb, lambda missing: _tail_table(r1, k, m, steps_t[:, missing])
            )
            lin = np.stack([vectors for vectors, _ in entries], axis=1)
            scale = np.stack([scales for _, scales in entries], axis=1)
        else:
            back, tid = _walk_tails(tail_letters, k, r1, steps_t)
            lin, scale = _linear(back)
        v = np.take(lin, tid, axis=0, mode="clip")
        v *= np.take(u, pid, axis=0, mode="clip")
        dot = v[..., 0].copy()  # summed in state order, whatever the batch
        for state in range(1, S):
            dot += v[..., state]
        with np.errstate(divide="ignore"):
            values = np.log(dot)
        u_part = np.take(u_scale, pid, axis=0, mode="clip")
        v_part = np.take(scale, tid, axis=0, mode="clip")
        values += u_part
        values += v_part
        low = (dot < _LINEAR_FLOOR) & np.isfinite(u_part) & np.isfinite(v_part)
        rows = np.flatnonzero(low.any(axis=1))
        if rows.size:
            back, inverse = _walk_tails(tail_letters[rows], k, r1, steps_t)
            redo = lse(forward[pid[rows]] + back[inverse], axis=2)
            values[rows] = np.where(low[rows], redo, values[rows])
        out[:, j : j + block] = values
    if valid is not None:
        out[~valid] = NEG_INF
    return out
