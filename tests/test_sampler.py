"""The batched path sampler: its three routes against each other, chunking,
enumeration blocks, and tables built once per call."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from carpetmf import (
    VARIANT_PSI_Q,
    SkewProductWeight,
    closed_form_beta,
    finite_beta,
    make_auxiliary,
    make_constant_cell,
    normalize_to_gibbs,
    sample_path,
    sample_paths,
    sampled_log_masses,
)
from carpetmf import weights as weights_module
from carpetmf.gibbs import AuxiliaryWeight
from carpetmf.reference import random_depth2_weight, reference_system, reference_weight
from carpetmf.symbolic import CapExceededError
from carpetmf.weights import CylinderWeight


class Opaque(CylinderWeight):
    """The same weight with no structure hook, so it samples by enumeration."""

    def __init__(self, inner: CylinderWeight) -> None:
        self.system = inner.system
        self.inner = inner

    def log_weight_arrays(self, a1s, a2s):
        return self.inner.log_weight_arrays(a1s, a2s)


def _tilt(seed: int = 7) -> AuxiliaryWeight:
    """psiQ tilt of a normalized depth-2 window weight: no route but enumeration."""
    base = random_depth2_weight(seed)
    psi = normalize_to_gibbs(base, -finite_beta(base, 1.0, 6) * math.log(2))
    return make_auxiliary(psi, 1.5, finite_beta(psi, 1.5, 6), VARIANT_PSI_Q)


def _depth1_factored() -> tuple[CylinderWeight, CylinderWeight]:
    """A psiQ tilt and a skew product of depth-1 weights: both draw i.i.d.
    cells from the factored weight's depth-1 table.  The tilted weight's
    fibers sum to 0.6 and 0.4, so its tilt is not the weight itself."""
    skewed = make_constant_cell(reference_system(), 1, np.log([0.3, 0.3, 0.1, 0.15, 0.15]))
    tilt = make_auxiliary(skewed, 2.0, closed_form_beta(skewed, 2.0), VARIANT_PSI_Q)
    skew = SkewProductWeight(reference_weight(), np.log([0.7, 0.3]))
    return tilt, skew


ROUTES = {
    "iid": lambda: reference_weight(),
    "window": lambda: random_depth2_weight(),
    "enumerate": lambda: _tilt(),
}


@pytest.mark.parametrize("seed", range(5))
def test_fast_routes_draw_the_enumeration_paths(seed):
    # The enumerate route is the oracle: on the same streams, the depth-1 and
    # window routes must draw exactly its paths.
    factored = _depth1_factored()
    assert all(weight.dependence_depth == 1 for weight in factored)  # the i.i.d. route
    for weight in (reference_weight(), random_depth2_weight(seed), *factored):
        fast = sample_paths(weight, 6, seed, 0, 2000)
        oracle = sample_paths(Opaque(weight), 6, seed, 0, 2000)
        assert np.array_equal(fast, oracle)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_paths_do_not_depend_on_the_split(route):
    weight = ROUTES[route]()
    whole = sample_paths(weight, 5, 3, 5, 45)
    assert whole.shape == (40, 5, 2)
    for mid in (5, 6, 23, 45):
        parts = np.concatenate(
            [sample_paths(weight, 5, 3, 5, mid), sample_paths(weight, 5, 3, mid, 45)]
        )
        assert np.array_equal(whole, parts)
    for row, i in enumerate(range(5, 45)):
        assert np.array_equal(whole[row], sample_path(weight, 5, 3, i))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_enumeration_blocks_draw_identical_paths(block):
    weight = _tilt()
    want = sample_paths(weight, 3, 2, 0, 300)
    with mock.patch.object(weights_module, "ENUMERATION_BLOCK", block):
        assert np.array_equal(sample_paths(weight, 3, 2, 0, 300), want)


def test_sampler_validation(monkeypatch):
    weight = reference_weight()
    assert sample_paths(weight, 5, 0, 4, 4).shape == (0, 5, 2)
    with pytest.raises(ValueError):
        sample_paths(weight, 5, 0, 4, 3)
    with pytest.raises(ValueError):
        sample_paths(weight, 0, 0, 0, 1)
    monkeypatch.setattr("carpetmf.symbolic.ENUMERATION_CAP", 4)
    with pytest.raises(CapExceededError, match="5 extension evaluations"):
        sample_paths(Opaque(weight), 1, 0, 0, 1)


def _calls(target, name, run) -> int:
    with mock.patch.object(target, name, wraps=getattr(target, name)) as spy:
        run()
    return spy.call_count


@pytest.mark.parametrize("n_samples", [16, 1100])
def test_tables_are_built_once_per_call(n_samples):
    # 1,100 samples split into two chunks; neither count may grow with it.
    aux = _tilt()
    run = lambda: sampled_log_masses(aux.base, aux, 2, 4, n_samples, 1)
    assert _calls(aux, "log_weight_arrays", run) == 1
    window = random_depth2_weight()
    run = lambda: sampled_log_masses(window, window, 3, 6, n_samples, 1)
    assert _calls(window, "backward_completion_tables", run) == 1
