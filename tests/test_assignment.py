import itertools

import numpy as np
import pytest

from ofdma_relay.assignment import solve_max_assignment


def brute_force(c: np.ndarray) -> tuple[tuple[int, ...], float]:
    best_perm, best_val = None, -np.inf
    n = c.shape[0]
    for perm in itertools.permutations(range(n)):
        val = sum(c[i, perm[i]] for i in range(n))
        if val > best_val:
            best_perm, best_val = perm, val
    return best_perm, best_val


def value(c: np.ndarray, perm: np.ndarray) -> float:
    n = c.shape[0]
    return float(c[np.arange(n), perm].sum())


class TestSolveMaxAssignment:
    def test_identity_optimal(self):
        c = np.diag([5.0, 5.0, 5.0]) + 1.0
        perm = solve_max_assignment(c)
        assert perm.tolist() == [0, 1, 2]
        assert value(c, perm) == pytest.approx(18.0)

    def test_antidiagonal(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        perm = solve_max_assignment(c)
        assert perm.tolist() == [1, 0]
        assert value(c, perm) == pytest.approx(2.0)

    def test_one_by_one(self):
        c = np.array([[-3.0]])
        perm = solve_max_assignment(c)
        assert perm.tolist() == [0]
        assert value(c, perm) == -3.0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            c = rng.normal(size=(n, n))
            perm = solve_max_assignment(c)
            _, best_val = brute_force(c)
            assert perm.shape == (n,)
            assert sorted(perm.tolist()) == list(range(n))
            assert value(c, perm) == pytest.approx(best_val, rel=1e-12,
                                                   abs=1e-12)

    def test_row_constant_shift_keeps_permutation(self):
        rng = np.random.default_rng(22)
        c = rng.normal(size=(6, 6))
        shifted = c + rng.normal(size=(6, 1))
        np.testing.assert_array_equal(solve_max_assignment(c),
                                      solve_max_assignment(shifted))

    @pytest.mark.parametrize("bad", [
        np.ones((2, 3)), np.ones(4), np.zeros((0, 0)),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, np.inf], [0.0, 1.0]]),
    ])
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            solve_max_assignment(bad)
