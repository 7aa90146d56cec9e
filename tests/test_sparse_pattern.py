"""Tests for the sparse-matrix pattern model and generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.matrix_gen import (banded, block_diagonal,
                                     default_run_length,
                                     generate_with_locality, locality_sweep,
                                     random_uniform, realworld_like_suite)
from repro.sparse.pattern import MatrixPattern, VALUES_PER_LINE


class TestPattern:
    def test_set_get(self):
        m = MatrixPattern(rows=4, cols=8)
        m.set(1, 2, 3.5)
        assert m.get(1, 2) == 3.5
        assert m.get(0, 0) == 0.0
        assert m.nnz == 1

    def test_setting_zero_removes(self):
        m = MatrixPattern(rows=4, cols=8)
        m.set(1, 2, 3.5)
        m.set(1, 2, 0.0)
        assert m.nnz == 0
        assert m.get(1, 2) == 0.0

    def test_bounds_checked(self):
        m = MatrixPattern(rows=4, cols=8)
        with pytest.raises(IndexError):
            m.set(4, 0, 1.0)
        with pytest.raises(IndexError):
            m.set(0, 8, 1.0)

    def test_entries_row_major_order(self):
        m = MatrixPattern(rows=4, cols=8)
        m.set(2, 1, 1.0)
        m.set(0, 5, 2.0)
        m.set(0, 2, 3.0)
        assert [(r, c) for r, c, _ in m.entries()] == [(0, 2), (0, 5), (2, 1)]

    def test_locality_metric(self):
        m = MatrixPattern(rows=1, cols=64)
        for col in range(8):     # one full line
            m.set(0, col, 1.0)
        assert m.locality == 8.0
        m.set(0, 32, 1.0)        # one value in a second line
        assert m.locality == pytest.approx(9 / 2)

    def test_nonzero_blocks_by_size(self):
        m = MatrixPattern(rows=1, cols=1024)
        m.set(0, 0, 1.0)
        m.set(0, 512, 1.0)       # 512 * 8B = byte offset 4096
        assert m.nonzero_blocks(64) == 2
        assert m.nonzero_blocks(4096) == 2
        m2 = MatrixPattern(rows=1, cols=1024)
        m2.set(0, 0, 1.0)
        m2.set(0, 100, 1.0)      # same 4KB page, different lines
        assert m2.nonzero_blocks(64) == 2
        assert m2.nonzero_blocks(4096) == 1

    @pytest.mark.parametrize("block_bytes", [8, 64, 128, 4096])
    def test_block_counts_match_the_entries_definition(self, block_bytes):
        m = generate_with_locality(16, 512, nnz=300, locality=3.0, seed=4)
        per_block = block_bytes // 8
        blocks = {m.flat_index(row, col) // per_block
                  for row, col, _ in m.entries()}
        assert m.nonzero_blocks(block_bytes) == len(blocks)
        if block_bytes == 64:
            assert m.nonzero_lines() == sorted(blocks)

    def test_density(self):
        m = MatrixPattern(rows=10, cols=10)
        m.set(0, 0, 1.0)
        assert m.density == pytest.approx(0.01)

    def test_numpy_round_trip(self):
        dense = np.zeros((5, 8))
        dense[1, 2] = 4.0
        dense[4, 7] = -2.0
        m = MatrixPattern.from_numpy(dense)
        assert np.array_equal(m.to_numpy(), dense)

    def test_scipy_agrees_with_numpy(self):
        m = random_uniform(16, 16, density=0.2, seed=3)
        assert np.allclose(m.to_scipy().toarray(), m.to_numpy())


class TestGenerators:
    def test_locality_target_achieved(self):
        for target in (1.0, 3.0, 5.5, 8.0):
            m = generate_with_locality(64, 512, nnz=800, locality=target,
                                       seed=1)
            assert m.locality == pytest.approx(target, rel=0.15)

    def test_nnz_target_achieved(self):
        m = generate_with_locality(64, 512, nnz=800, locality=4.0, seed=2)
        assert m.nnz == 800

    def test_locality_bounds_enforced(self):
        with pytest.raises(ValueError):
            generate_with_locality(8, 64, nnz=10, locality=0.5)
        with pytest.raises(ValueError):
            generate_with_locality(8, 64, nnz=10, locality=9.0)

    def test_too_small_matrix_rejected(self):
        with pytest.raises(ValueError):
            generate_with_locality(1, 64, nnz=1000, locality=1.0)

    def test_run_length_scaling(self):
        assert default_run_length(1.0) == 1
        assert default_run_length(8.0) == 64
        assert 1 < default_run_length(4.0) < 64

    def test_deterministic_by_seed(self):
        a = generate_with_locality(32, 256, nnz=100, locality=2.0, seed=9)
        b = generate_with_locality(32, 256, nnz=100, locality=2.0, seed=9)
        assert list(a.entries()) == list(b.entries())

    def test_banded_structure(self):
        m = banded(32, 32, bandwidth=1)
        for row, col, _ in m.entries():
            assert abs(row - col) <= 1
        assert m.nnz == 32 + 31 + 31

    def test_block_diagonal_structure(self):
        m = block_diagonal(16, 16, block=4)
        for row, col, _ in m.entries():
            assert row // 4 == col // 4
        assert m.nnz == 4 * 16

    def test_random_uniform_density(self):
        m = random_uniform(32, 32, density=0.1, seed=4)
        assert m.nnz == round(32 * 32 * 0.1)

    def test_locality_sweep_is_sorted(self):
        suite = locality_sweep(5, rows=64, cols=512, nnz=500)
        localities = [m.locality for m in suite]
        assert localities == sorted(localities)
        assert localities[0] < 2.0 and localities[-1] > 7.0

    def test_realworld_suite_diversity(self):
        suite = realworld_like_suite(rows=64, cols=64)
        assert len(suite) >= 6
        localities = [m.locality for m in suite]
        assert max(localities) - min(localities) > 2.0

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.0, 8.0), st.integers(0, 1000))
    def test_generator_invariants(self, locality, seed):
        m = generate_with_locality(32, 256, nnz=200, locality=locality,
                                   seed=seed)
        assert m.nnz == 200
        assert 1.0 <= m.locality <= VALUES_PER_LINE
