"""Tests for the three sparse representations: dense, CSR, overlay."""

import struct

import numpy as np
import pytest

from repro.core.address import PAGE_SIZE
from repro.osmodel.kernel import Kernel
from repro.sparse.csr import CSRMatrix
from repro.sparse.dense import DenseMatrix
from repro.sparse.matrix_gen import generate_with_locality, random_uniform
from repro.sparse.overlay_rep import OverlaySparseMatrix
from repro.sparse.pattern import MatrixPattern
from repro.sparse.spmv import (MATRIX_BASE_VPN, X_BASE_VPN, _build_vectors,
                               ideal_memory_bytes, run_spmv)


@pytest.fixture
def matrix():
    return generate_with_locality(32, 256, nnz=300, locality=3.0, seed=5)


@pytest.fixture
def x(matrix):
    return np.random.RandomState(0).rand(matrix.cols)


class TestCSR:
    def test_arrays_match_scipy(self, matrix):
        csr = CSRMatrix(matrix)
        ref = matrix.to_scipy()
        assert csr.values == list(ref.data)
        assert csr.col_idx == list(ref.indices)
        assert csr.row_ptr == list(ref.indptr)

    def test_multiply_matches_numpy(self, matrix, x):
        csr = CSRMatrix(matrix)
        assert np.allclose(csr.multiply(x), matrix.to_numpy() @ x)

    def test_memory_is_12_bytes_per_nnz_plus_rowptr(self, matrix):
        csr = CSRMatrix(matrix)
        expected = matrix.nnz * 12 + (matrix.rows + 1) * 4
        assert csr.memory_bytes() == expected

    def test_insert_shifts_arrays(self, matrix):
        csr = CSRMatrix(matrix)
        nnz = len(csr.values)
        cost = csr.insert(0, 7, 9.0)
        assert len(csr.values) == nnz + 1
        assert cost > 0
        assert csr.pattern.get(0, 7) == 9.0
        ref = csr.pattern.to_scipy()
        assert csr.values == list(ref.data)

    def test_insert_existing_updates_in_place(self):
        m = MatrixPattern(rows=2, cols=8)
        m.set(0, 3, 1.0)
        csr = CSRMatrix(m)
        cost = csr.insert(0, 3, 2.0)
        assert cost == 0
        assert csr.values == [2.0]

    def test_insert_cost_grows_toward_matrix_start(self, matrix):
        csr = CSRMatrix(matrix)
        early = csr.insert_cost_elements(0)
        late = csr.insert_cost_elements(matrix.rows - 1)
        assert early > late

    def test_build_places_arrays_in_memory(self, matrix):
        kernel = Kernel()
        process = kernel.create_process()
        csr = CSRMatrix(matrix)
        csr.build(kernel, process, MATRIX_BASE_VPN)
        import struct
        raw, _ = kernel.system.read(process.asid, csr.values_vaddr, 8)
        assert struct.unpack("<d", raw)[0] == csr.values[0]


class TestDense:
    def test_multiply_matches_numpy(self, matrix, x):
        dense = DenseMatrix(matrix)
        assert np.allclose(dense.multiply(x), matrix.to_numpy() @ x)

    def test_memory_is_full_footprint(self, matrix):
        dense = DenseMatrix(matrix)
        raw = matrix.rows * matrix.cols * 8
        assert dense.memory_bytes() >= raw
        assert dense.memory_bytes() % PAGE_SIZE == 0

    def test_columns_must_align_to_lines(self):
        with pytest.raises(ValueError):
            DenseMatrix(MatrixPattern(rows=4, cols=10))

    def test_trace_touches_every_line(self, matrix):
        dense = DenseMatrix(matrix)
        trace = dense.spmv_trace(0, 0x1000000)
        matrix_reads = [a for a in trace
                        if not a.write and a.vaddr < 0x800000]
        assert len(matrix_reads) >= dense.total_lines


class TestOverlayRepresentation:
    def build(self, matrix):
        kernel = Kernel()
        process = kernel.create_process()
        rep = OverlaySparseMatrix(matrix)
        rep.build(kernel, process, MATRIX_BASE_VPN)
        return kernel, process, rep

    def test_simulator_multiply_matches_numpy(self, matrix, x):
        """The end-to-end data fidelity check: SpMV computed from the
        simulated memory equals the analytic product."""
        _, _, rep = self.build(matrix)
        assert np.allclose(rep.multiply_in_simulator(x),
                           matrix.to_numpy() @ x)

    def test_all_pages_share_one_zero_frame(self, matrix):
        kernel, process, rep = self.build(matrix)
        ppns = {process.mappings[vpn]
                for vpn in range(MATRIX_BASE_VPN,
                                 MATRIX_BASE_VPN + rep.npages)}
        assert ppns == {rep.zero_ppn}

    def test_bulk_mapping_state_equals_the_per_page_loop(self):
        matrix = generate_with_locality(8, 1024, nnz=60, locality=2.0,
                                        seed=3)
        kernel, process, rep = self.build(matrix)
        # Reference: the page-at-a-time mapping loop build used to run.
        ref_kernel = Kernel()
        ref_process = ref_kernel.create_process()
        zero_ppn = ref_kernel.allocator.allocate()
        for page_index in range(rep.npages):
            vpn = MATRIX_BASE_VPN + page_index
            ref_kernel.system.map_page(ref_process.asid, vpn, zero_ppn,
                                       writable=False, cow=True)
            ref_process.mappings[vpn] = zero_ppn
            ref_kernel.frame_users.setdefault(zero_ppn, set()).add(
                (ref_process.asid, vpn))
        assert rep.zero_ppn == zero_ppn
        for vpn in range(MATRIX_BASE_VPN, MATRIX_BASE_VPN + rep.npages):
            assert (process.page_table.entry(vpn)
                    == ref_process.page_table.entry(vpn))
        assert process.mappings == ref_process.mappings
        assert (kernel.frame_users[zero_ppn]
                == ref_kernel.frame_users[zero_ppn])
        assert len(process.page_table) == len(ref_process.page_table)
        x = np.random.RandomState(1).rand(matrix.cols)
        assert np.allclose(rep.multiply_in_simulator(x), rep.multiply(x))

    def test_exit_frees_the_zero_page(self):
        matrix = generate_with_locality(8, 1024, nnz=60, locality=2.0,
                                        seed=3)
        kernel, process, rep = self.build(matrix)
        assert kernel.allocator.refcount(rep.zero_ppn) == rep.npages
        kernel.exit_process(process)
        assert kernel.allocator.refcount(rep.zero_ppn) == 0
        assert rep.zero_ppn not in kernel.frame_users
        assert not process.mappings

    def test_zero_lines_read_zero_through_framework(self, matrix):
        kernel, process, rep = self.build(matrix)
        zero_lines = (set(range(rep.npages * 64))
                      - set(matrix.nonzero_lines()))
        some_zero_line = sorted(zero_lines)[0]
        data, _ = kernel.system.read(
            process.asid, rep.base_vaddr + some_zero_line * 64, 64)
        assert data == bytes(64)

    def test_memory_counts_nonzero_lines_plus_zero_page(self, matrix):
        rep = OverlaySparseMatrix(matrix)
        expected = len(matrix.nonzero_lines()) * 64 + PAGE_SIZE
        assert rep.memory_bytes() == expected

    def test_segment_accounting_is_larger(self, matrix):
        rep = OverlaySparseMatrix(matrix)
        assert rep.segment_allocated_bytes() >= rep.memory_bytes()

    def test_dynamic_insert_is_one_line(self, matrix, x):
        kernel, process, rep = self.build(matrix)
        # Insert into a previously all-zero line.
        zero_lines = (set(range(rep.npages * 64))
                      - set(matrix.nonzero_lines()))
        flat_line = sorted(zero_lines)[0]
        flat = flat_line * 8
        row, col = flat // matrix.cols, flat % matrix.cols
        added = rep.insert(row, col, 5.0)
        assert added == 1
        assert np.allclose(rep.multiply_in_simulator(x),
                           rep.pattern.to_numpy() @ x)

    def test_insert_into_existing_line_adds_nothing(self, matrix):
        kernel, process, rep = self.build(matrix)
        row, col, _ = next(iter(matrix.entries()))
        assert rep.insert(row, col, 7.5) == 0

    def test_unbuilt_matrix_rejects_simulation_calls(self, matrix, x):
        rep = OverlaySparseMatrix(matrix)
        with pytest.raises(RuntimeError):
            rep.multiply_in_simulator(x)
        with pytest.raises(RuntimeError):
            rep.insert(0, 0, 1.0)


class TestSpMVHarness:
    def test_all_representations_agree(self, x):
        matrix = generate_with_locality(32, 256, nnz=300, locality=4.0,
                                        seed=6)
        results = {name: run_spmv(matrix, name, x, check_result=True)
                   for name in ("dense", "csr", "overlay")}
        ref = results["dense"].y
        for name, result in results.items():
            assert np.allclose(result.y, ref), name

    def test_unknown_representation_rejected(self, matrix):
        with pytest.raises(ValueError):
            run_spmv(matrix, "coo")

    def test_x_length_must_match_columns(self, matrix):
        with pytest.raises(ValueError, match="x has 255 entries"):
            run_spmv(matrix, "overlay", x=np.ones(matrix.cols - 1))

    def test_x_vector_is_packed_as_little_endian_doubles(self, matrix, x):
        kernel = Kernel()
        process = kernel.create_process()
        _build_vectors(kernel, process, matrix.cols, matrix.rows, x)
        ppn = process.mappings[X_BASE_VPN]
        assert (kernel.system.main_memory.read_bytes(ppn, 0, len(x) * 8)
                == struct.pack(f"<{len(x)}d", *x))

    def test_ideal_memory(self, matrix):
        assert ideal_memory_bytes(matrix) == matrix.nnz * 8

    def test_result_fields(self, matrix):
        result = run_spmv(matrix, "csr")
        assert result.cycles > 0
        assert result.instructions > 0
        assert result.cpi > 0
        assert result.nnz == matrix.nnz
        assert result.locality == pytest.approx(matrix.locality)
