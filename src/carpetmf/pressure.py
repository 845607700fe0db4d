"""Finite-depth pressure functionals over column words.

Every quantity here is a sum over the depth-n column words ``w1`` of powers
of the row-fiber sums ``I_q(w1) = sum_{w2} psi(w1 x w2)^q`` (with the
convention ``0^q = 0`` — rows without weight drop out for every real q).
Two of them are concave pressure functions:

* ``T_n(q)  = -(1/n) log_{r1} sum_{w1} I_q(w1)^s``
* ``beta_n(q) = -(1/n) log_{r1} sum_{w1} I_1(w1)^{q(1-s)} I_q(w1)^s``

where ``s = log r1 / log r2``.  :func:`column_log_sums` computes these sums,
and ``sum I_q`` and ``sum I_1^q`` (the ball-moment factors of ``tau_n``), for
a whole q-grid in one chunked pass; the total-mass fallback and the pressure
functions wrap it.  Depth-1 weights admit exact closed forms.  Finite depths
converge at rate O(1/n); :func:`extrapolate_pressure` removes the leading
term with a two-point fit and reports a superadditivity-defect error proxy.
All outer sums run through the deterministic chunked reduction in
:mod:`carpetmf.numerics`, so worker counts never change results.

The pass has one route per weight and q (transfer where the weight has one,
else row enumeration); it takes no route argument.  Enumeration as an oracle
is a call of its own: ``method="enumerate"`` of :func:`log_total_mass` and
of :func:`carpetmf.weights.row_sum_log_any`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .numerics import (
    NEG_INF,
    REDUCTION_CHUNKS,
    chunked_logsumexp,
    concavity_defect,
    lse,
    map_ranges,
    part_from_array,
    part_value,
    parts_from_rows,
    scaled_powers,
    sorted_unique,
    tree_combine,
)
from .symbolic import (
    CapExceededError,
    admissible_word_count,
    admissible_words_range,
    check_budget,
    row_word_count,
)
from .weights import (
    METHODS,
    CylinderWeight,
    normalize_to_gibbs,
    row_sum_log_ranks,
)

#: Relative tolerance for the concavity sanity check on pressure slices.
CONCAVITY_RTOL = 1e-9

#: The two pressure functions, in the order their curves are computed.
KINDS = ("T", "beta")

#: The column-word sums of :func:`column_log_sums`.
COLUMN_KINDS = (*KINDS, "rows", "marginal")

#: q values whose pressure terms one chunk reduces at a time.
PART_BLOCK = 16

#: Fewest column words in a chunk of a pass that has more.  Smaller chunks
#: make numpy calls short enough that two threads lose more to the
#: interpreter lock than they gain (``tools/ladders.py``, dim-2 cocycle).
CHUNK_WORDS = 1 << 16

#: Most column words of a depth that a pressure calibration runs on: for a
#: ``normalize: true`` weight and in the normalization check of ``verify``.
CALIBRATION_WORDS = 1 << 20


# ---------------------------------------------------------------------------
# Finite-depth functionals
# ---------------------------------------------------------------------------


def log_total_mass(psi: CylinderWeight, m: int, workers: int = 1, method: str = "auto") -> float:
    """``log sum_{|w| = m} psi(w)`` over all admissible product words.

    Under ``method="auto"``, the production route, it is the weight's closed
    form where it has one, else the ``rows`` sum of one
    :func:`column_log_sums` pass at q = 1; ``method="enumerate"`` sums the
    weights of every product word, the oracle of both.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if m < 0:
        raise ValueError("depth must be >= 0")
    if m == 0:
        return 0.0
    if method == "enumerate":
        total = admissible_word_count(psi.system, m)
        check_budget(total, f"{total} product words at depth {m}")

        def partial(start: int, stop: int):
            a1s, a2s = admissible_words_range(psi.system, m, start, stop)
            return part_from_array(psi.log_weight_arrays(a1s, a2s))

        return chunked_logsumexp(partial, total, workers=workers)
    fast = psi.log_total_mass(m)
    if fast is not None:
        return fast
    return float(column_log_sums(psi, [1.0], m, ("rows",), workers)["rows"][0])


def finite_pressure(psi: CylinderWeight, n: int, workers: int = 1) -> float:
    """``(1/n) log sum_{|w| = n} psi(w)`` — the depth-n pressure estimate."""
    if n < 1:
        raise ValueError("pressure needs depth >= 1")
    value = log_total_mass(psi, n, workers=workers)
    if value == NEG_INF:
        raise ValueError("weight has empty support at this depth")
    return value / n


def _check_kinds(kinds: Sequence[str]) -> None:
    if not kinds or any(kind not in KINDS for kind in kinds):
        raise ValueError("curve kind must be 'T' or 'beta'")


def _pass_row_qs(psi, n, q_grid, kinds) -> tuple[np.ndarray, np.ndarray]:
    """The row-sum q values of a depth-n pass over ``kinds``: the grid for
    ``T``, ``beta`` and ``rows``, and q = 1 for ``beta`` and ``marginal``,
    appended unless the grid has it; and the mask of those that enumerate
    rows (see :meth:`carpetmf.weights.CylinderWeight.enumerated_rows`).

    Raises first if the pass has more column words than the enumeration
    cap, or if some q enumerates rows, on ``psi``'s route or on the row sums
    of the base a wrapper reads, and enumerating the ``r2**n`` rows of every
    column word once (``r1**n * r2**n * n`` digit cells) would exceed it.
    The refusal names the transfer table that sent those q to enumeration,
    if one did.
    """
    if not kinds or any(kind not in COLUMN_KINDS for kind in kinds):
        raise ValueError(f"column sum kinds must be among {COLUMN_KINDS}")
    row_qs = q_grid if {"T", "beta", "rows"} & set(kinds) else np.empty(0)
    if {"beta", "marginal"} & set(kinds) and not np.any(row_qs == 1.0):
        row_qs = np.append(row_qs, 1.0)
    system = psi.system
    total = row_word_count(system, n)
    check_budget(total, f"{total} column words at depth {n}")
    enumerated, refusal = psi.enumerated_rows(row_qs)
    if enumerated.any():
        volume = total * system.r2**n * n
        listed = sorted_unique(row_qs[enumerated])
        qs = ", ".join(f"{q:g}" for q in listed)
        try:
            check_budget(
                volume,
                f"depth {n}: row enumeration for q = {qs} builds {volume} digit cells "
                f"({total} column words x {system.r2}**{n} rows)",
            )
        except CapExceededError as exc:
            if refusal is None:
                raise
            raise CapExceededError(f"{exc}; rows are enumerated because {refusal}") from None
    return row_qs, enumerated


def column_log_sums(
    psi: CylinderWeight, q_grid: np.ndarray, n: int, kinds: Sequence[str], workers: int = 1
) -> dict[str, np.ndarray]:
    """``log sum_{|w1| = n}`` of each kind's term at every q of ``q_grid``.

    The terms are ``I_q^s`` (``T``), ``I_1^{q(1-s)} I_q^s`` (``beta``),
    ``I_q`` (``rows``) and ``I_1^q`` (``marginal``).  The chunks of
    :func:`pass_chunks` are ranges of column word ranks: whole blocks of
    words that share their first letters.  Each reads the row sums of the
    q values the kinds need through
    :func:`carpetmf.weights.row_sum_log_ranks`, in reads planned once for
    the pass: the first holds every q that enumerates rows, so they share
    one enumeration, ``I_1`` and the first ``PART_BLOCK`` other q; each
    later read holds ``PART_BLOCK`` more, so each q is read once per chunk.
    Windows of depth >= 2 and integer-q cocycles, and the wrappers over
    them, read their row sums from the split kernel's tables by rank
    (:func:`carpetmf.transfer.split_transfer_range`); the other routes, and
    :func:`carpetmf.transfer.split_transfer_log` when the range entry falls
    back, get the chunk's digit rows.  Every (kind, q) keeps its own partial
    sum, combined over the same chunk tree, so a value does not depend on
    ``workers`` or on the other q values of the grid.
    """
    q_grid = np.asarray(q_grid, dtype=float).ravel()
    Q = q_grid.size
    s = psi.system.s
    row_qs, enumerated = _pass_row_qs(psi, n, q_grid, kinds)
    grid = Q if {"T", "beta", "rows"} & set(kinds) else 0  # row_qs[:grid] is the grid
    one = np.flatnonzero(row_qs == 1.0)[:1]  # the row of I_1, if a kind reads it
    # The reads, as indices of row_qs: the row sums held stay (PART_BLOCK, W)
    # however long the grid, plus the q that enumerate rows in the first.
    first = enumerated.copy()
    first[one] = True
    routed = np.flatnonzero(~first[:grid])
    first[routed[:PART_BLOCK]] = True
    reads = [np.flatnonzero(first)]
    reads += [routed[j : j + PART_BLOCK] for j in range(PART_BLOCK, routed.size, PART_BLOCK)]

    def partial(start: int, stop: int):
        parts = {kind: [None] * Q for kind in kinds}
        for read in reads:
            sums = row_sum_log_ranks(psi, n, start, stop, row_qs[read]).T  # q-major
            if read is reads[0] and one.size:
                li_one = sums[read == one[0]]
                for j in range(0, Q if "marginal" in kinds else 0, PART_BLOCK):
                    marginal = scaled_powers(q_grid[j : j + PART_BLOCK, None], li_one)
                    parts["marginal"][j : j + PART_BLOCK] = parts_from_rows(marginal)
            idx = read[read < grid]  # sorted, so the grid's rows lead
            terms = sums[: idx.size]  # log I_q
            del sums  # the read's rows live only as long as terms
            # Each q's terms are reduced in rows of their own, so its partial
            # sums do not depend on its read.
            found = {}
            if "rows" in kinds:
                found["rows"] = parts_from_rows(terms)
            if "T" in kinds or "beta" in kinds:
                terms = scaled_powers(s, terms)  # log I_q^s
                if "T" in kinds:
                    found["T"] = parts_from_rows(terms)
                if "beta" in kinds:
                    terms += scaled_powers(q_grid[idx, None] * (1.0 - s), li_one)
                    found["beta"] = parts_from_rows(terms)
            del terms  # before the next read's row sums are built
            for kind, rows in found.items():
                for i, part in zip(idx.tolist(), rows):
                    parts[kind][i] = part
        return [part for kind in kinds for part in parts[kind]]

    chunks = map_ranges(partial, pass_chunks(psi.system.r1, n), workers)
    logs = np.array([part_value(tree_combine(parts)) for parts in zip(*chunks)])
    return dict(zip(kinds, logs.reshape(len(kinds), Q)))


def pass_chunks(r1: int, n: int) -> list[tuple[int, int]]:
    """The chunks of a pass over the ``r1**n`` column words of depth ``n``:
    the blocks of ranks whose words share their first ``t`` letters, for the
    largest ``t`` that gives at most ``REDUCTION_CHUNKS`` blocks of at least
    ``CHUNK_WORDS`` words.  A smaller pass is one chunk, which runs on the
    calling thread.  The layout depends on ``r1`` and ``n`` alone."""
    t = 0
    while t < n and r1 ** (t + 1) <= REDUCTION_CHUNKS and r1 ** (n - t - 1) >= CHUNK_WORDS:
        t += 1
    size = r1 ** (n - t)
    return [(i * size, (i + 1) * size) for i in range(r1**t)]


def finite_values(
    psi: CylinderWeight, q_grid: np.ndarray, n: int, kinds: Sequence[str] = KINDS, workers: int = 1
) -> dict[str, np.ndarray]:
    """``T_n`` and/or ``beta_n`` at every q of ``q_grid`` from one
    :func:`column_log_sums` pass."""
    if n < 1:
        raise ValueError("pressure needs depth >= 1")
    _check_kinds(kinds)
    logs = column_log_sums(psi, q_grid, n, kinds, workers)
    if any(np.any(values == NEG_INF) for values in logs.values()):
        raise ValueError("weight has empty support at this depth")
    scale = n * math.log(psi.system.r1)
    return {kind: -values / scale for kind, values in logs.items()}


def finite_T(psi: CylinderWeight, q: float, n: int, workers: int = 1) -> float:
    """Depth-n row-sum pressure ``T_n(q)``."""
    return float(finite_values(psi, [q], n, ("T",), workers)["T"][0])


def finite_beta(psi: CylinderWeight, q: float, n: int, workers: int = 1) -> float:
    """Depth-n mixed-moment pressure ``beta_n(q)``."""
    return float(finite_values(psi, [q], n, ("beta",), workers)["beta"][0])


# ---------------------------------------------------------------------------
# Depth-1 closed forms
# ---------------------------------------------------------------------------


def _closed_form(psi: CylinderWeight, q: float | np.ndarray, kind: str) -> float | np.ndarray:
    """``kind``'s closed form at every q of ``q`` from one depth-1 table: the
    fiber sums of every q, then one sum over the column letters per q."""
    table = psi.depth1_log_table()
    if table is None:
        raise ValueError("closed forms require a depth-1 cell weight")
    q = np.asarray(q, dtype=float)
    qs = q.reshape(-1, 1, 1)  # one q per fiber table
    s = psi.system.s
    terms = scaled_powers(s, lse(scaled_powers(qs, table), axis=2))  # (Q, r1) log I_q^s
    if kind == "beta":
        terms += scaled_powers(qs[:, 0] * (1.0 - s), lse(table, axis=1))
    values = (-lse(terms, axis=1) / math.log(psi.system.r1)).reshape(q.shape)
    return float(values) if q.ndim == 0 else values


def closed_form_T(psi: CylinderWeight, q: float | np.ndarray) -> float | np.ndarray:
    """Exact ``T(q) = -log_{r1} sum_{a1} (sum_{a2} e^{q phi})^s`` (depth 1)
    at a scalar q (a float) or at every q of an array (an array)."""
    return _closed_form(psi, q, "T")


def closed_form_beta(psi: CylinderWeight, q: float | np.ndarray) -> float | np.ndarray:
    """Exact ``beta(q) = -log_{r1} sum_{a1} (sum e^phi)^{q(1-s)} (sum e^{q phi})^s``
    (depth 1) at a scalar q (a float) or at every q of an array (an array)."""
    return _closed_form(psi, q, "beta")


# ---------------------------------------------------------------------------
# Extrapolation in depth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extrapolation:
    """Two-point depth extrapolation with a defect-based error proxy."""

    value: float
    error: float
    depths: tuple[int, int]


def extrapolate_pressure(values: Mapping[int, float]) -> Extrapolation:
    """Remove the O(1/n) term from depth-indexed pressure-like values.

    Writes ``v_n = v + c/n``; the two deepest entries give
    ``v = (n2 v_{n2} - n1 v_{n1}) / (n2 - n1)``.  The error proxy is the worst
    linear defect of ``S_n = n v_n`` over consecutive depth triples, divided
    by the deepest depth and floored at machine epsilon (so exactly linear
    data reports epsilon, never zero).
    """
    if len(values) < 2:
        raise ValueError("extrapolation needs at least two depths")
    depths = sorted(int(n) for n in values)
    n1, n2 = depths[-2], depths[-1]
    v1, v2 = float(values[n1]), float(values[n2])
    value = (n2 * v2 - n1 * v1) / (n2 - n1)
    worst = 0.0
    S = {n: n * float(values[n]) for n in depths}
    for a, b, c in zip(depths, depths[1:], depths[2:]):
        predicted = S[b] + (S[b] - S[a]) / (b - a) * (c - b)
        worst = max(worst, abs(S[c] - predicted))
    error = max(worst / n2, float(np.finfo(float).eps))
    return Extrapolation(value=value, error=error, depths=(n1, n2))


def calibrate_to_gibbs(psi: CylinderWeight, depths: Sequence[int]) -> CylinderWeight:
    """``psi`` shifted to (approximately) zero pressure: :func:`finite_pressure`
    over ``depths``, extrapolated, removed by
    :func:`carpetmf.weights.normalize_to_gibbs`."""
    estimate = extrapolate_pressure({n: finite_pressure(psi, n) for n in depths})
    return normalize_to_gibbs(psi, estimate.value)


# ---------------------------------------------------------------------------
# Pressure curves over a q-grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureCurve:
    """A pressure function sampled on a q-grid at several depths.

    ``kind`` is one of ``"T"``, ``"beta"``; ``finite_values[n]`` aligns with
    ``q_grid``; ``extrapolated``/``error_estimate`` come from
    :func:`extrapolate_pressure` applied per grid point.
    """

    kind: str
    q_grid: np.ndarray
    finite_values: dict[int, np.ndarray]
    extrapolated: np.ndarray
    error_estimate: np.ndarray
    monotone_within_error: bool

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(sorted(self.finite_values))

    def _locate(self, q: float) -> int:
        idx = int(np.argmin(np.abs(self.q_grid - q)))
        if abs(self.q_grid[idx] - q) > 1e-12 * max(1.0, abs(q)):
            raise KeyError(f"q = {q} is not a grid point of this curve")
        return idx

    def value_at(self, q: float) -> float:
        return float(self.extrapolated[self._locate(q)])


def pressure_curves(
    psi: CylinderWeight,
    q_grid: np.ndarray,
    depth_schedule: Sequence[int],
    kinds: Sequence[str] = KINDS,
    workers: int = 1,
) -> dict[str, PressureCurve]:
    """Evaluate ``T_n`` and ``beta_n`` over a grid, extrapolate, sanity-check.

    One :func:`finite_values` pass per depth serves every kind and q.  Depths
    with more column words than the enumeration cap are dropped, and every
    retained depth's row enumeration volume is checked before the first
    depth runs.  Every slice must be concave up to ``CONCAVITY_RTOL``
    (relative to its sup-norm), otherwise a ValueError flags the
    weight/grid combination.  Each curve also records whether its
    extrapolated values are nondecreasing within the summed error bands
    (expected for genuine pressure data at q >= 0 kinds; informational
    otherwise).
    """
    _check_kinds(kinds)
    q_grid = sorted_unique(q_grid)
    if q_grid.size < 1:
        raise ValueError("q grid needs at least one point")
    feasible, dropped = [], ""
    for n in sorted({int(n) for n in depth_schedule if int(n) >= 1}):
        total = row_word_count(psi.system, n)
        try:
            check_budget(total, f"{total} column words at depth {n}")
        except CapExceededError as exc:
            dropped = f"; depth {n} and deeper dropped: {exc}"
            break  # deeper depths have more column words
        feasible.append(n)
    if len(feasible) < 2:
        raise CapExceededError(f"need at least two feasible depths for extrapolation{dropped}")
    for n in feasible:
        _pass_row_qs(psi, n, q_grid, kinds)
    finite: dict[str, dict[int, np.ndarray]] = {kind: {} for kind in kinds}
    for n in feasible:
        values = finite_values(psi, q_grid, n, kinds, workers)
        for kind in kinds:
            require_concave(q_grid, values[kind], f"{kind}_{n} violates concavity")
            finite[kind][n] = values[kind]
    return {kind: _extrapolated_curve(kind, q_grid, finite[kind]) for kind in kinds}


def require_concave(q: np.ndarray, values: np.ndarray, what: str) -> None:
    """Raise ``ValueError("<what> (slope defect ...)")`` when ``values`` on a
    grid ``q`` of three or more points fail concavity by more than
    ``CONCAVITY_RTOL`` relative to their sup-norm."""
    if q.size < 3:
        return
    scale = max(1.0, float(np.max(np.abs(values))))
    dq = float(np.min(np.diff(q)))
    defect = concavity_defect(q, values)
    if defect > CONCAVITY_RTOL * scale / dq:
        raise ValueError(f"{what} (slope defect {defect:.3e})")


def _extrapolated_curve(
    kind: str, q_grid: np.ndarray, by_depth: dict[int, np.ndarray]
) -> PressureCurve:
    extrapolated = np.empty_like(q_grid)
    errors = np.empty_like(q_grid)
    for i in range(q_grid.size):
        ext = extrapolate_pressure({n: vals[i] for n, vals in by_depth.items()})
        extrapolated[i] = ext.value
        errors[i] = ext.error
    band = errors[:-1] + errors[1:]
    scale = max(1.0, float(np.max(np.abs(extrapolated))))
    monotone = bool(
        np.all(np.diff(extrapolated) >= -(band + CONCAVITY_RTOL * scale))
    )
    return PressureCurve(
        kind=kind,
        q_grid=q_grid,
        finite_values=by_depth,
        extrapolated=extrapolated,
        error_estimate=errors,
        monotone_within_error=monotone,
    )
