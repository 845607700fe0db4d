"""The split transfer kernel behind the transfer row sums of
:mod:`carpetmf.weights`.

A row sum ``I_q(w1)`` of a window weight of depth ``k >= 2`` or of a matrix
cocycle at integer q is a product of transfer matrices picked by the column
letters, which the weight's ``step_tables(qs)`` supply (a cocycle's steps
read one letter, so its window length ``k`` is 1).  The kernel splits each
column word after :func:`split_point` letters and takes the dot product of
the forward state of its prefix with the backward vector of its tail.  It
has two entry points, which give a word the same bytes:

* :func:`split_transfer_range` serves a complete range of column word
  ranks, as :func:`carpetmf.pressure.column_log_sums` passes them: chunks
  of :func:`carpetmf.pressure.pass_chunks`, whole blocks of words that
  share their first letters.  A word's prefix and tail are index
  arithmetic on its rank, and both halves are read from tables of every
  prefix and every tail, so no digit row is built.
* :func:`split_transfer_log` serves an arbitrary batch of digit rows (P3
  words, sampler suffixes, ball masses).  It walks the batch's distinct
  prefixes, and reads the tails from the same table.  It is the range
  route's oracle, and its fallback where the tables do not fit.

One level function, :func:`_transfer_level`, builds every state, and
:func:`_level_table` grows both tables with it.  The tables are kept on
the weight in a :class:`TailMemo`.  :mod:`carpetmf.weights` imports this
module the first time a transfer row sum runs, so loading a config does not
compile it.
"""

from __future__ import annotations

import threading

import numpy as np

from .numerics import NEG_INF, lse
from .symbolic import digits_of_indices, distinct_rows, pack_digits
from . import symbolic  # loaded by the line above: binds it, imports nothing more

#: Row dot products below this fall back to log space: an entry that
#: underflowed in a linear state then cannot move the result by an ulp.
_LINEAR_FLOOR = 2.0**-900

#: Most floats in the tail table of one q: the memo holds 64 of the largest
#: tables (more of smaller ones), so a q-grid reads its tables back from
#: chunk to chunk.
MAX_TAIL_TABLE = symbolic.MAX_TRANSFER_TABLE // 64

#: Most word-q pairs one block of :func:`split_transfer_range` computes at
#: once: the block's grids of floats then stay in cache.
SPLIT_BLOCK = 1 << 16


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
    """The split kernel's tables, one entry per ``(direction, length, q)``:

    * ``("backward", m, q)``: the backward vectors of every ``m``-letter
      tail, as ``(r1**m, S)`` linear vectors scaled to peak 1 and their
      ``(r1**m,)`` log scales;
    * ``("forward", a, q)``: the ``(r1**a, S)`` log forward states of every
      ``a``-letter prefix.  A range scales only the prefixes it reads, and
      its log-space redo reads the log states.

    Entries hold at most ``symbolic.MAX_TRANSFER_TABLE`` floats in total;
    the oldest entry is dropped first.  Two threads that build the same
    entry store the same bytes.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int, float], tuple[np.ndarray, ...]] = {}
        self._lock = threading.Lock()

    @property
    def floats(self) -> int:
        return sum(part.size for entry in list(self._entries.values()) for part in entry)

    def tables(
        self, direction: str, length: int, qs: np.ndarray, build
    ) -> list[tuple[np.ndarray, ...]]:
        """The entries of ``(direction, length)`` at each q;
        ``build(missing)`` returns the ``(r1**length, len(missing), S)`` log
        table for the positions of ``qs`` not held yet."""
        keys = [(direction, length, float(q)) for q in qs]
        found = [self._entries.get(key) for key in keys]
        missing = [j for j, entry in enumerate(found) if entry is None]
        if missing:
            table = build(missing)
            parts = _linear(table) if direction == "backward" else (table,)
            for i, j in enumerate(missing):
                found[j] = tuple(np.ascontiguousarray(part[:, i]) for part in parts)
                self._store(keys[j], found[j])
        return found

    def _store(self, key, entry) -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            total = self.floats
            while total > symbolic.MAX_TRANSFER_TABLE:
                total -= sum(part.size for part in self._entries.pop(next(iter(self._entries))))


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
    block = max(1, symbolic.MAX_TRANSFER_TABLE // steps[0].size)  # nodes per transient
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
    reversed_rows, inverse = distinct_rows(tails[:, ::-1], r1)
    keys = _window_keys(reversed_rows[:, ::-1], k, r1)[:, ::-1]
    ones = np.zeros((1, steps_t.shape[1], steps_t.shape[3]))
    rows = np.zeros(len(reversed_rows), dtype=np.int64)
    return _walk(ones, rows, keys, steps_t, backward=True), inverse


def _level_table(
    states: np.ndarray, r1: int, k: int, levels: int, steps: np.ndarray, backward: bool = False
) -> np.ndarray:
    """Log states of every word grown by ``levels`` letters from ``states``,
    the ``(r1**(k-1), Q, S)`` states of the words of ``k - 1`` letters; rows
    are indexed by the packed letters.

    Forward, each level appends a letter to every prefix and applies the
    step of its last window.  Backward (``steps`` transposed), it prepends a
    letter to every tail and applies the step of its first window.  These
    are the steps :func:`_walk` applies to one word, in the same order, so a
    word's state has the same bytes in the table and in a walked batch.
    """
    for j in range(levels):
        nodes = np.arange(states.shape[0] * r1)
        if backward:  # node = letter * r1**(k - 1 + j) + tail
            parents, keys = nodes % states.shape[0], nodes // r1**j
        else:  # node = prefix * r1 + letter
            parents, keys = nodes // r1, nodes % r1**k
        states = _transfer_level(states, parents, keys, steps, backward)
    return states


def _memo_tables(tails: TailMemo, direction: str, length: int, qs, k, r1, start, steps):
    """The memo's ``direction`` tables of ``length`` letters at each q,
    grown by :func:`_level_table` from the ``start`` states (forward) or
    from the all-ones vector (backward, ``steps`` transposed)."""
    backward = direction == "backward"

    def build(missing):
        if backward:
            first = np.zeros((r1 ** (k - 1), len(missing), start.shape[1]))
        else:
            first = np.repeat(start[:, None], len(missing), axis=1)
        return _level_table(first, r1, k, length - k + 1, steps[:, missing], backward)

    return tails.tables(direction, length, qs, build)


def _stacked(entries) -> tuple[np.ndarray, np.ndarray]:
    """The ``(R, Q, S)`` tail vectors and ``(R, Q)`` log scales of the
    memo's backward entries of a q block."""
    return (
        np.stack([vectors for vectors, _ in entries], axis=1),
        np.stack([scales for _, scales in entries], axis=1),
    )


def _split_dot(u, u_scale, v, v_scale, redo) -> np.ndarray:
    """``(W, Q)`` array of ``log u . v`` for each word and q, in the order of
    the words' grid.

    ``u`` and ``v`` are the linear forward states and tail vectors,
    ``(..., Q, S)`` arrays scaled to peak 1 that broadcast to the grid of
    words, and ``u_scale`` and ``v_scale`` their ``(..., Q)`` log scales.
    The products are summed in state order, so a word's value does not
    depend on the grid's shape.  A word whose ``u`` or ``v`` is all zero is
    -inf; any other product below ``_LINEAR_FLOOR`` (underflow, or disjoint
    supports) is redone in log space from ``redo(rows)``, the ``(N, Q, S)``
    log forward states and log backward vectors of those rows of the
    grid, so zeros match enumeration exactly.
    """
    dot = u[..., 0] * v[..., 0]
    term = np.empty_like(dot)
    for state in range(1, u.shape[-1]):
        dot += np.multiply(u[..., state], v[..., state], out=term)
    with np.errstate(divide="ignore"):
        values = np.log(dot)
    values += u_scale
    values += v_scale
    low = dot < _LINEAR_FLOOR
    if low.any():
        low &= np.isfinite(u_scale) & np.isfinite(v_scale)
    Q = values.shape[-1]
    values, low = values.reshape(-1, Q), low.reshape(-1, Q)
    rows = np.flatnonzero(low.any(axis=1))
    if rows.size:
        forward, backward = redo(rows)
        values[rows] = np.where(low[rows], lse(forward + backward, axis=2), values[rows])
    return values


def split_transfer_range(
    n: int,
    lo: int,
    hi: int,
    qs: np.ndarray,
    k: int,
    r1: int,
    start: np.ndarray,
    steps: np.ndarray,
    tails: TailMemo,
) -> np.ndarray:
    """``(hi - lo, Q)`` array of ``log I_q`` for the depth-``n`` column words
    of ranks ``lo .. hi - 1``, ``n >= k``: the bytes :func:`split_transfer_log`
    gives for their digit rows, without building them.

    With ``a`` the :func:`split_point`, ``T = r1**(n - a)`` and
    ``C = r1**(k-1)``, the word of rank ``i`` has prefix ``p = i // T`` and
    tail ``(p mod C) * T + i mod T``.  So the words of ``C`` consecutive
    prefixes, from a multiple of ``C``, read the whole tail table in order:
    over the range widened to such blocks, the forward states ``(P/C, C,
    1)`` and the tail vectors ``(1, C, T)`` broadcast to the grid of words,
    and no vector is gathered.  Both tables, of all ``r1**a`` prefixes and
    all ``r1**m = C * T`` tails, come from the ``tails`` memo, built once
    per ``(length, q)``.  When the tail holds no window (``a == n``) or the
    tables of ``qs`` would pass ``symbolic.MAX_TRANSFER_TABLE`` floats
    together, the range runs :func:`split_transfer_log` on its digit rows
    instead.
    """
    S = start.shape[1]
    a = split_point(n, k, r1, S)
    m = n - a + k - 1
    if a == n or qs.size * (r1**a * S + r1**m * (S + 1)) > symbolic.MAX_TRANSFER_TABLE:
        words = digits_of_indices(np.arange(lo, hi, dtype=np.int64), r1, n)
        return split_transfer_log(words, qs, k, r1, start, steps, tails, a)
    C, T = r1 ** (k - 1), r1 ** (n - a)
    first, last = lo // (C * T) * C, -(-hi // (C * T)) * C  # the widened prefixes
    steps_t = np.ascontiguousarray(steps.swapaxes(2, 3))
    forward = _memo_tables(tails, "forward", a, qs, k, r1, start, steps)
    backward = _memo_tables(tails, "backward", m, qs, k, r1, start, steps_t)
    # Blocks of q keep the grid of one block within SPLIT_BLOCK floats.
    block = max(1, SPLIT_BLOCK // max(1, (last - first) * T))
    out = np.empty((qs.size, hi - lo))
    for j in range(0, qs.size, block):
        part = slice(j, j + block)
        states = np.stack([table[first:last] for (table,) in forward[part]], axis=1)
        u, u_scale = _linear(states)
        v, v_scale = _stacked(backward[part])
        Q = u_scale.shape[1]

        def redo(rows, states=states, part=part):
            prefix, suffix = np.divmod(first * T + rows, T)
            letters = digits_of_indices(prefix % C * T + suffix, r1, m)
            back, inverse = _walk_tails(letters, k, r1, steps_t[:, part])
            return states[prefix - first], back[inverse]

        values = _split_dot(
            u.reshape(-1, C, 1, Q, S),
            u_scale.reshape(-1, C, 1, Q),
            v.reshape(1, C, T, Q, S),
            v_scale.reshape(1, C, T, Q),
            redo,
        )
        out[part] = values[lo - first * T : hi - first * T].T
    return out.T  # stored q-major: a column pass reads each q as one row


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
      :func:`_level_table`.  When the tables of all ``qs`` would pass
      ``symbolic.MAX_TRANSFER_TABLE`` floats, none is kept, and the
      batch's distinct tails are walked instead.
    * :func:`_split_dot` takes the dot products.  With ``a = n`` (deep
      windows, see :func:`split_point`) the tail holds no window, and the
      row sum is the lse of ``u``.

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
    prefixes, pid = distinct_rows(letters[:, :a], r1)
    head = pack_digits(prefixes[:, : k - 1], r1)
    prefix_keys = _window_keys(prefixes, k, r1)
    tail_letters = letters[:, a - k + 1 :]
    # The tables of every q must fit the memo together, or each q block
    # would evict the tables the next chunk needs.
    tabled = qs.size * r1**m * (S + 1) <= symbolic.MAX_TRANSFER_TABLE
    if tabled:
        tid = pack_digits(tail_letters, r1)
    # Blocks of q keep the gathered vectors within symbolic.MAX_TRANSFER_TABLE.
    block = max(1, symbolic.MAX_TRANSFER_TABLE // max(1, W * S))
    out = np.empty((W, qs.size))
    for j in range(0, qs.size, block):
        qb, steps_b = qs[j : j + block], steps[:, j : j + block]
        steps_t = np.ascontiguousarray(steps_b.swapaxes(2, 3))
        starts = np.repeat(start[:, None], qb.size, axis=1)
        forward = _walk(starts, head, prefix_keys, steps_b)
        if a == n:  # no window in the tail: v is the all-ones vector
            out[:, j : j + block] = np.take(lse(forward, axis=2), pid, axis=0, mode="clip")
            continue
        if tabled:
            lin, scale = _stacked(_memo_tables(tails, "backward", m, qb, k, r1, start, steps_t))
        else:
            back, tid = _walk_tails(tail_letters, k, r1, steps_t)
            lin, scale = _linear(back)
        u, u_scale = _linear(forward)

        def redo(rows, forward=forward, steps_t=steps_t):
            back, inverse = _walk_tails(tail_letters[rows], k, r1, steps_t)
            return forward[pid[rows]], back[inverse]

        out[:, j : j + block] = _split_dot(
            np.take(u, pid, axis=0, mode="clip"),
            np.take(u_scale, pid, axis=0, mode="clip"),
            np.take(lin, tid, axis=0, mode="clip"),
            np.take(scale, tid, axis=0, mode="clip"),
            redo,
        )
    if valid is not None:
        out[~valid] = NEG_INF
    return out
