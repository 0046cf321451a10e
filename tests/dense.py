"""The dense view of a moment system's block-diagonal regressors, for tests."""

import numpy as np


def dense_regressors(system) -> np.ndarray:
    """The (n, p) regressor matrix, zeros outside each block's rows and columns."""
    W = np.zeros((system.n_rows, len(system.params)))
    r0 = 0
    for block, cols in zip(system.regressor_blocks, system.regressor_columns):
        W[r0 : r0 + block.shape[0], cols] = block
        r0 += block.shape[0]
    return W
