import numpy as np

from dplab._lp import col_sums, row_sums


def test_blocks_match_kron_definitions():
    r, c = 3, 4
    assert np.array_equal(row_sums(r, c).toarray(), np.kron(np.eye(r), np.ones((1, c))))
    assert np.array_equal(col_sums(r, c).toarray(), np.kron(np.ones((1, r)), np.eye(c)))
    w = np.array([0.5, 0.0, 0.25])
    block = col_sums(r, c, w)
    assert np.array_equal(block.toarray(), np.kron(w[None, :], np.eye(c)))
    assert block.nnz == 2 * c  # zero weights store no entry
