"""Maximum-weight perfect matching on a square score matrix."""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def solve_max_assignment(c: np.ndarray) -> np.ndarray:
    """Permutation perm maximizing sum_k c[k, perm[k]], O(K^3)."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("score matrix contains non-finite entries")
    # For a square matrix the rows come back as 0..K-1 in order, so the
    # columns are the permutation.
    return linear_sum_assignment(c, maximize=True)[1]
