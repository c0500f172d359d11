import numpy as np
import pytest

from bcsdp.linalg import cholesky_psd, project_psd_dense


def random_sym(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestProjectPsd:
    def test_psd_unchanged(self):
        a = random_sym(5, 1)
        p = a @ a.T  # PSD
        assert np.allclose(project_psd_dense(p), p, atol=1e-10)

    def test_diag_clamp(self):
        out = project_psd_dense(np.diag([2.0, -3.0]))
        assert np.allclose(out, np.diag([2.0, 0.0]))

    def test_idempotent(self):
        a = random_sym(8, 2)
        p = project_psd_dense(a)
        assert np.linalg.norm(project_psd_dense(p) - p) <= 1e-10

    def test_min_eigenvalue_nonnegative(self):
        a = random_sym(9, 3)
        w = np.linalg.eigvalsh(project_psd_dense(a))
        assert w.min() >= -1e-10

    def test_projection_optimality_sampling(self):
        rng = np.random.default_rng(4)
        a = random_sym(6, 5)
        proj = project_psd_dense(a)
        base = np.linalg.norm(proj - a)
        for _ in range(100):
            b = rng.standard_normal((6, 6))
            p = b @ b.T  # random PSD competitor
            assert base <= np.linalg.norm(p - a) + 1e-12


class TestCholeskyPsd:
    def test_identity(self):
        assert np.allclose(cholesky_psd(np.eye(3), shift=0.0), np.eye(3))

    def test_all_ones_two(self):
        shift = 1e-9  # trace/n = 1
        L = cholesky_psd(np.ones((2, 2)))
        assert np.allclose(L[0], [1.0, 0.0], atol=1e-6)
        assert abs(L[1, 0] - 1.0) < 1e-6
        assert abs(L[1, 1] - np.sqrt(2 * shift)) < 1e-7

    def test_gram_property(self):
        a = random_sym(7, 6)
        p = project_psd_dense(a)
        L = cholesky_psd(p)
        assert np.allclose(L @ L.T, p, atol=1e-6)

    def test_breakdown_beyond_budget(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_psd(np.diag([1.0, -1.0]), shift=1e-12)
