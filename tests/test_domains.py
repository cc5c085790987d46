"""Domain transformation: series_view re-reads the (N, L, M) tensor, zero copy."""

import numpy as np

from chanpred import series_view
from conftest import random_tensor


def test_transpose_readout_2x2():
    # per-block matrix [[a, b], [c, d]] (rows l, cols m): antenna vectors are
    # the columns read as length-L series
    values = np.array([[[1 + 1j, 2.0], [3.0, 4 - 1j]]])
    ant = series_view(values, "antenna")
    assert np.array_equal(ant[:, 0], np.array([[1 + 1j, 3.0]]))
    assert np.array_equal(ant[:, 1], np.array([[2.0, 4 - 1j]]))


def test_zero_copy():
    values = random_tensor(3).values
    assert series_view(values, "subcarrier") is values
    assert np.shares_memory(series_view(values, "antenna"), values)


def test_single_antenna_degenerate():
    values = random_tensor(4, l=5, m=1).values
    sub = series_view(values, "subcarrier")
    stacked = np.stack([sub[:, l, 0] for l in range(5)], axis=1)
    assert np.array_equal(series_view(values, "antenna")[:, 0], stacked)


def test_norm_preserved_per_block():
    values = random_tensor(7, n=4, l=5, m=6).values
    sub, ant = series_view(values, "subcarrier"), series_view(values, "antenna")
    sub_norm = np.sum(np.abs(np.stack([sub[:, l] for l in range(5)])) ** 2, axis=(0, 2))
    ant_norm = np.sum(np.abs(np.stack([ant[:, m] for m in range(6)])) ** 2, axis=(0, 2))
    assert np.allclose(sub_norm, ant_norm)
