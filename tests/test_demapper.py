import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

from prs4d import constellation as C
from prs4d import demapper as D
from prs4d.rxdsp import SymbolBatch


@pytest.fixture(scope="module")
def pm8qam():
    return C.build_pm8qam()


def make_batch(c, ns=2**12, sigma=0.15, seed=0, cov=None):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, ns * c.m, dtype=np.uint8)
    idx, pts = C.map_bits_to_symbols(bits, c)
    if cov is None:
        noise = rng.normal(scale=sigma, size=pts.shape)
    else:
        noise = rng.multivariate_normal(np.zeros(4), cov, size=ns)
    return SymbolBatch(idx, pts + noise)


class TestSigma2Estimator:
    def test_noiseless_returns_zero(self, pm8qam):
        b = make_batch(pm8qam, sigma=0.0)
        assert D.estimate_iid_sigma2(b, pm8qam) == 0.0

    def test_recovers_known_variance(self, pm8qam):
        b = make_batch(pm8qam, ns=2**16, sigma=np.sqrt(0.05), seed=1)
        est = D.estimate_iid_sigma2(b, pm8qam)
        assert est == pytest.approx(0.05, rel=0.02)

    def test_variance_homogeneity(self, pm8qam):
        b = make_batch(pm8qam, ns=2**12, sigma=0.1, seed=2)
        tx = pm8qam.points[b.tx_indices]
        b2 = SymbolBatch(b.tx_indices, tx + 2 * (b.rx_points - tx))
        assert D.estimate_iid_sigma2(b2, pm8qam) == pytest.approx(
            4 * D.estimate_iid_sigma2(b, pm8qam), rel=1e-12)

    def test_too_few_symbols(self, pm8qam):
        b = make_batch(pm8qam, ns=2**8, sigma=0.1)
        small = SymbolBatch(b.tx_indices[:10], b.rx_points[:10])
        with pytest.raises(ValueError):
            D.estimate_iid_sigma2(small, pm8qam)


def loop_point_covariances(batch, c, epsilon):
    """Per-point covariances from one boolean-mask pass per point."""
    covs = np.empty((c.M, 4, 4))
    for i in range(c.M):
        sel = batch.tx_indices == i
        r = batch.rx_points[sel] - c.points[i]
        covs[i] = (r.T @ r) / sel.sum() + epsilon * np.eye(4)
    return covs


class TestSentIndices:
    """Every reader of the sent rows rejects an index >= M in one line."""

    READERS = {
        "estimate_iid_sigma2": D.estimate_iid_sigma2,
        "estimate_point_covariances":
            lambda b, c: D.estimate_point_covariances(b, c, epsilon=1e-4),
        "compute_llrs": lambda b, c: D.compute_llrs(b, c, D.NoiseModel.iid(0.01)),
    }

    # every index 64 would leave each point untransmitted, so the count
    # check must not run first; one 70 among good indices passes the count
    @pytest.mark.parametrize("rows, bad", [(slice(None), 64), ([123], 70)])
    @pytest.mark.parametrize("reader", READERS)
    def test_index_of_m_or_more_named(self, pm8qam, reader, rows, bad):
        b = make_batch(pm8qam, ns=2**12, sigma=0.1, seed=5)
        idx = b.tx_indices.copy()
        idx[rows] = bad
        with pytest.raises(ValueError, match=f"^tx_indices must be < M = 64, got {bad}$"):
            self.READERS[reader](SymbolBatch(idx, b.rx_points), pm8qam)


class TestPointCovariances:
    def test_noiseless_gives_epsilon_identity(self, pm8qam):
        b = make_batch(pm8qam, ns=2**12, sigma=0.0)
        covs = D.estimate_point_covariances(b, pm8qam, epsilon=1e-4)
        assert np.allclose(covs, 1e-4 * np.eye(4)[None, :, :])

    def test_recovers_known_covariance(self, pm8qam):
        a = np.array([[0.04, 0.01, 0.0, 0.0],
                      [0.01, 0.05, 0.0, 0.0],
                      [0.0, 0.0, 0.03, -0.01],
                      [0.0, 0.0, -0.01, 0.06]])
        b = make_batch(pm8qam, ns=64 * 1000, seed=3, cov=a)
        covs = D.estimate_point_covariances(b, pm8qam, epsilon=1e-9)
        for i in range(64):
            err = np.linalg.norm(covs[i] - a) / np.linalg.norm(a)
            assert err < 0.15
        mean_cov = covs.mean(axis=0)
        assert np.linalg.norm(mean_cov - a) / np.linalg.norm(a) < 0.05

    def test_missing_point_reported(self, pm8qam):
        b = make_batch(pm8qam, ns=2**12, sigma=0.1, seed=4)
        keep = b.tx_indices != 17
        short = SymbolBatch(b.tx_indices[keep], b.rx_points[keep])
        with pytest.raises(ValueError, match="17"):
            D.estimate_point_covariances(short, pm8qam, epsilon=1e-4)

    @pytest.mark.parametrize("fmt", ["pm8qam", "4d64prs"])
    def test_matches_mask_loop(self, fmt):
        c = C.build_format(fmt)
        cov = np.array([[0.04, 0.01, 0.0, 0.002],
                        [0.01, 0.05, 0.0, 0.0],
                        [0.0, 0.0, 0.03, -0.01],
                        [0.002, 0.0, -0.01, 0.06]])
        b = make_batch(c, ns=2**14, seed=17, cov=cov)
        got = D.estimate_point_covariances(b, c, epsilon=1e-3)
        ref = loop_point_covariances(b, c, epsilon=1e-3)
        err = np.linalg.norm(got - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert np.max(err) <= 1e-13
        assert np.array_equal(got, got.transpose(0, 2, 1))


def gaussian_logpdf(y: np.ndarray, s: np.ndarray, cov: np.ndarray) -> float:
    """Log density of an N-dimensional Gaussian with mean s, covariance cov.

    One-point oracle for the batched cg log-pdf matrix. Uses a Cholesky
    factorization; never forms an explicit inverse.
    """
    n = y.size
    chol = cholesky(cov, lower=True)  # raises LinAlgError if not PD
    z = solve_triangular(chol, y - s, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-0.5 * (n * np.log(2 * np.pi) + logdet + z @ z))


class TestGaussianLogpdf:
    def test_identity_covariance_at_mean(self):
        val = gaussian_logpdf(np.zeros(4), np.zeros(4), np.eye(4))
        assert val == pytest.approx(-2 * np.log(2 * np.pi), abs=1e-12)

    def test_isotropic_reduction(self):
        rng = np.random.default_rng(5)
        y, s = rng.normal(size=4), rng.normal(size=4)
        s2 = 0.3
        val = gaussian_logpdf(y, s, s2 * np.eye(4))
        expect = -2 * np.log(2 * np.pi * s2) - np.sum((y - s) ** 2) / (2 * s2)
        assert val == pytest.approx(expect, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.normal(size=(4, 4))
            cov = a @ a.T + 0.1 * np.eye(4)
            y, s = rng.normal(size=4), rng.normal(size=4)
            val = gaussian_logpdf(y, s, cov)
            diff = y - s
            dense = -0.5 * (4 * np.log(2 * np.pi) + np.log(np.linalg.det(cov))
                            + diff @ np.linalg.inv(cov) @ diff)
            assert val == pytest.approx(dense, abs=1e-10)

    def test_non_pd_rejected(self):
        with pytest.raises(Exception):
            gaussian_logpdf(np.zeros(4), np.zeros(4), -np.eye(4))


def brute_force_llrs(y, c, model):
    """Direct double-sum evaluation in long double precision."""
    out = np.empty((y.shape[0], c.m))
    logf = np.empty((y.shape[0], c.M), dtype=np.longdouble)
    for i in range(c.M):
        if model.kind == "iid":
            d2 = np.sum((y - c.points[i]) ** 2, axis=1, dtype=np.longdouble)
            s2 = model.covariances[0, 0, 0]
            logf[:, i] = -d2 / (2 * s2) - 2 * np.log(2 * np.pi * s2)
        else:
            for j in range(y.shape[0]):
                logf[j, i] = gaussian_logpdf(y[j], c.points[i],
                                               model.covariances[i])
    for k in range(c.m):
        zero = c.labels[:, k] == 0
        num = np.log(np.sum(np.exp(logf[:, zero]), axis=1))
        den = np.log(np.sum(np.exp(logf[:, ~zero]), axis=1))
        out[:, k] = (num - den).astype(float)
    return out


class TestComputeLlrs:
    def test_symmetric_point_gives_zero_llr(self):
        # 1D antipodal pair embedded in 4D: y at the midpoint
        pts = np.zeros((2, 4))
        pts[0, 0], pts[1, 0] = 1.0, -1.0
        c = C.Constellation4D(points=pts)
        model = D.NoiseModel.iid(0.5)
        llrs = D.llrs_for_points(np.zeros((1, 4)), c, model)
        assert abs(llrs[0, 0]) < 1e-12

    def test_bpsk_closed_form(self):
        pts = np.zeros((2, 4))
        pts[0, 0], pts[1, 0] = 1.0, -1.0
        c = C.Constellation4D(points=pts)
        s2 = 0.23
        y = np.zeros((5, 4))
        y[:, 0] = np.linspace(-1.5, 1.5, 5)
        llrs = D.llrs_for_points(y, c, D.NoiseModel.iid(s2))
        assert np.allclose(llrs[:, 0], 2 * y[:, 0] / s2, atol=1e-10)

    def test_matches_brute_force_iid(self, pm8qam):
        rng = np.random.default_rng(7)
        y = rng.normal(scale=0.8, size=(200, 4))
        model = D.NoiseModel.iid(0.07)
        fast = D.llrs_for_points(y, pm8qam, model, clamp=1e9)
        slow = brute_force_llrs(y, pm8qam, model)
        assert np.max(np.abs(fast - slow)) < 1e-8

    def test_matches_brute_force_cg(self, pm8qam):
        rng = np.random.default_rng(8)
        covs = []
        for _ in range(64):
            a = rng.normal(size=(4, 4)) * 0.1
            covs.append(a @ a.T + 0.05 * np.eye(4))
        model = D.NoiseModel.cg(np.array(covs))
        y = rng.normal(scale=0.8, size=(100, 4))
        fast = D.llrs_for_points(y, pm8qam, model, clamp=1e9)
        slow = brute_force_llrs(y, pm8qam, model)
        assert np.max(np.abs(fast - slow)) < 1e-8

    def test_indefinite_covariance_rejected(self, pm8qam):
        covs = np.tile(0.05 * np.eye(4), (64, 1, 1))
        covs[37] = np.diag([0.05, 0.05, 0.05, -0.01])
        with pytest.raises(np.linalg.LinAlgError):
            D.llrs_for_points(np.zeros((4, 4)), pm8qam, D.NoiseModel.cg(covs))

    def test_zero_sigma_rejected(self, pm8qam):
        b = make_batch(pm8qam, sigma=0.0)
        with pytest.raises(ValueError):
            D.compute_llrs(b, pm8qam, D.NoiseModel.iid(0.0))



class TestOneLaw:
    """iid is one shared sigma2 * I on the covariance path of the cg law."""

    @pytest.mark.parametrize("fmt", ["4d64prs", "pm8qam"])
    def test_iid_matches_tiled_cg(self, fmt):
        c = C.build_format(fmt)
        rng = np.random.default_rng(22)
        y = c.points[rng.integers(0, c.M, 3000)] + rng.normal(scale=0.3, size=(3000, 4))
        tiled = D.NoiseModel.cg(np.tile(0.07 * np.eye(4), (c.M, 1, 1)))
        iid = D.llrs_for_points(y, c, D.NoiseModel.iid(0.07), clamp=1e9)
        cg = D.llrs_for_points(y, c, tiled, clamp=1e9)
        assert np.max(np.abs(iid - cg)) <= 1e-12

    def test_iid_is_one_shared_covariance(self):
        model = D.NoiseModel.iid(0.07)
        assert model.kind == "iid"
        np.testing.assert_array_equal(model.covariances, 0.07 * np.eye(4)[None])

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf])
    def test_non_finite_sigma2_rejected(self, sigma2):
        with pytest.raises(ValueError, match="^noise covariances must be finite$"):
            D.NoiseModel.iid(sigma2)

    def test_non_finite_covariance_rejected(self):
        covs = np.tile(0.05 * np.eye(4), (64, 1, 1))
        covs[9, 1, 2] = covs[9, 2, 1] = np.nan
        with pytest.raises(ValueError, match="^noise covariances must be finite$"):
            D.NoiseModel.cg(covs)

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValueError, match="^iid model requires sigma2 >= 0$"):
            D.NoiseModel.iid(-0.1)

    @pytest.mark.parametrize("covs", [np.zeros((64, 4, 4)),
                                      np.diag([0.05, 0.05, 0.05, -0.01])[None]])
    def test_not_positive_definite_rejected(self, pm8qam, covs):
        """A per-point zero stack and a shared indefinite C fail the same
        Cholesky as iid's sigma2 = 0 and a per-point indefinite C_i."""
        with pytest.raises(ValueError):  # LinAlgError from the Cholesky
            D.llrs_for_points(np.zeros((4, 4)), pm8qam, D.NoiseModel.cg(covs))

    def test_bad_stacks_rejected(self, pm8qam):
        with pytest.raises(ValueError, match="^covariances must be"):
            D.NoiseModel.cg(np.tile(np.eye(3), (64, 1, 1)))
        with pytest.raises(ValueError, match="^unknown noise model kind"):
            D.NoiseModel("pooled", np.eye(4)[None])
        with pytest.raises(ValueError, match="one shared covariance or one per point"):
            D.llrs_for_points(np.zeros((4, 4)), pm8qam,
                              D.NoiseModel.cg(np.tile(np.eye(4), (5, 1, 1))))

def direct_llrs(y, c, model):
    """Per-point log-pdf columns and per-bit sums of exponentials, long double.

    One triangular solve per point (vectorized over rows, so it stays fast
    over a few row blocks), then one sum per bit subset. Long double exp
    reaches about -11000 nats, so neither sum underflows where float64
    sums would.
    """
    logf = np.empty((y.shape[0], c.M), dtype=np.longdouble)
    for i in range(c.M):
        if model.kind == "iid":
            d2 = np.sum((y - c.points[i]) ** 2, axis=1, dtype=np.longdouble)
            logf[:, i] = -d2 / (2 * model.covariances[0, 0, 0])
        else:
            chol = cholesky(model.covariances[i], lower=True)
            z = solve_triangular(chol, (y - c.points[i]).T, lower=True)
            logf[:, i] = -0.5 * np.sum(z**2, axis=0, dtype=np.longdouble) \
                - np.sum(np.log(np.diag(chol)))
    logf -= logf.max(axis=1, keepdims=True)
    out = np.empty((y.shape[0], c.m))
    for k in range(c.m):
        zero = c.labels[:, k] == 0
        num = np.log(np.sum(np.exp(logf[:, zero]), axis=1))
        den = np.log(np.sum(np.exp(logf[:, ~zero]), axis=1))
        out[:, k] = (num - den).astype(float)
    return out


def random_covariances(rng, scale, floor):
    covs = []
    for _ in range(64):
        a = rng.normal(size=(4, 4)) * scale
        covs.append(a @ a.T + floor * np.eye(4))
    return np.array(covs)


@pytest.fixture(scope="module")
def prs64():
    return C.build_format("4d64prs")


@pytest.fixture(scope="module", params=["iid", "cg"])
def prs64_model(request):
    if request.param == "iid":
        return D.NoiseModel.iid(0.07)
    covs = random_covariances(np.random.default_rng(14), 0.1, 0.05)
    return D.NoiseModel.cg(covs)


class TestLlrBlocks:
    """Row blocks: partial last block, block boundaries, saturation."""

    NS = 2 * D._BLOCK_ROWS + 37

    def test_matches_direct_sums_across_blocks(self, prs64, prs64_model):
        y = np.random.default_rng(15).normal(scale=0.8, size=(self.NS, 4))
        fast = D.llrs_for_points(y, prs64, prs64_model, clamp=1e9)
        slow = direct_llrs(y, prs64, prs64_model)
        assert np.max(np.abs(fast - slow)) < 1e-8

    def test_each_row_alone_gives_its_row(self, prs64, prs64_model):
        rng = np.random.default_rng(16)
        y = prs64.points[rng.integers(0, 64, self.NS)] \
            + rng.normal(scale=0.3, size=(self.NS, 4))
        y[::97] *= 30  # a shift borrowed from another row would over/underflow
        full = D.llrs_for_points(y, prs64, prs64_model, clamp=1e9)
        rows = np.concatenate([
            D.llrs_for_points(y[j:j + 1], prs64, prs64_model, clamp=1e9)
            for j in range(self.NS)])
        # equal up to rounding, as BLAS may order a one-row product
        # differently: ~10 eps of the largest |log f|, 4.2e4 nats here
        np.testing.assert_allclose(rows, full, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("ns", [1, D._BLOCK_ROWS + 1])
    def test_edge_row_counts_match_direct_sums(self, prs64, prs64_model, ns):
        y = np.random.default_rng(17).normal(scale=0.8, size=(ns, 4))
        fast = D.llrs_for_points(y, prs64, prs64_model, clamp=1e9)
        assert np.max(np.abs(fast - direct_llrs(y, prs64, prs64_model))) < 1e-8

    def test_no_rows_give_an_empty_matrix(self, prs64, prs64_model):
        assert D.llrs_for_points(np.empty((0, 4)), prs64, prs64_model).shape == (0, 6)

    @pytest.mark.parametrize("clamp", [D.LLR_CLAMP_NATS, 1e9])
    @pytest.mark.parametrize("kind", ["iid", "cg"])
    def test_far_outlier_saturates_with_exact_sign(self, prs64, kind, clamp):
        if kind == "iid":
            model = D.NoiseModel.iid(0.01)
        else:
            model = D.NoiseModel.cg(
                random_covariances(np.random.default_rng(14), 0.1, 0.05) / 5)
        y = 30 * prs64.points[[0, 21, 42]]
        exact = direct_llrs(y, prs64, model)
        # in float64 the losing sum is 0 once |L| > 745 + log(32); |L| in
        # (700, 760] would sit among subnormals and is kept out of the data
        underflow = np.abs(exact) > 760
        assert underflow.sum() >= 3
        assert not np.any((np.abs(exact) > 700) & ~underflow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = D.llrs_for_points(y, prs64, model, clamp=clamp)
        assert np.array_equal(fast[underflow],
                              np.sign(exact[underflow]) * clamp)
        rest = np.clip(exact[~underflow], -clamp, clamp)
        assert np.max(np.abs(fast[~underflow] - rest)) < 1e-8


class TestGmiFromLlrs:
    def test_saturated_correct_llrs(self):
        ns, m = 100, 6
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, (ns, m))
        L = np.where(bits == 0, D.LLR_CLAMP_NATS, -D.LLR_CLAMP_NATS).astype(float)
        gmi = D.gmi_from_llrs(D.LlrBatch(L, bits), m)
        assert gmi == pytest.approx(m, abs=1e-10)

    def test_all_zero_llrs(self):
        bits = np.zeros((10, 6), dtype=int)
        gmi = D.gmi_from_llrs(D.LlrBatch(np.zeros((10, 6)), bits), 6)
        assert gmi == pytest.approx(0.0, abs=1e-12)

    def test_single_symbol_hand_value(self):
        # b = 0, L = ln 3: penalty log2(4/3), GMI = 1 - that
        gmi = D.gmi_from_llrs(
            D.LlrBatch(np.array([[np.log(3.0)]]), np.array([[0]])), 1)
        assert gmi == pytest.approx(1 - np.log2(4 / 3), abs=1e-12)
        assert gmi == pytest.approx(0.5850, abs=1e-4)

    def test_permutation_invariance(self, pm8qam):
        b = make_batch(pm8qam, ns=512, sigma=0.2, seed=10)
        model = D.NoiseModel.iid(0.04)
        llrs = D.compute_llrs(b, pm8qam, model)
        gmi = D.gmi_from_llrs(llrs, 6)
        perm = np.random.default_rng(11).permutation(512)
        shuffled = D.LlrBatch(llrs.llrs[perm], llrs.bits[perm])
        assert D.gmi_from_llrs(shuffled, 6) == pytest.approx(gmi, abs=1e-12)

    def test_clamp_effect_negligible(self, pm8qam):
        b = make_batch(pm8qam, ns=2**12, sigma=0.05, seed=12)
        model = D.NoiseModel.iid(D.estimate_iid_sigma2(b, pm8qam))
        clamped = D.compute_llrs(b, pm8qam, model)
        g_clamped = D.gmi_from_llrs(clamped, 6)
        free = D.llrs_for_points(b.rx_points, pm8qam, model, clamp=1e9)
        g_free = D.gmi_from_llrs(D.LlrBatch(free, clamped.bits), 6)
        assert abs(g_clamped - g_free) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            D.LlrBatch(np.zeros((4, 6)), np.zeros((4, 5)))

    def test_blocked_sum_matches_one_shot(self):
        ns = 2 * D._BLOCK_ROWS + 37
        rng = np.random.default_rng(18)
        L, bits = rng.normal(scale=8.0, size=(ns, 6)), rng.integers(0, 2, (ns, 6))
        z = (2.0 * bits - 1.0) * L
        one_shot = 6 - np.sum(np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))) / (ns * np.log(2))
        gmi = D.gmi_from_llrs(D.LlrBatch(L, bits), 6)
        assert gmi == pytest.approx(one_shot, rel=1e-13, abs=0)


class TestAwgnReference:
    def test_high_snr_saturation_all_formats(self):
        for name in ("pm8qam", "4d64prs", "6b4d_2a8psk"):
            c = C.build_format(name)
            gmi = D.awgn_gmi_reference(c, 30.0, n_nodes=6)
            assert c.m - 0.01 <= gmi <= c.m + 1e-9

    def test_mc_quadrature_agreement(self, pm8qam):
        q = D.awgn_gmi_reference(pm8qam, 9.0, method="quadrature", n_nodes=8)
        sigma2 = 1.0 / (4 * 10 ** (9.0 / 10))
        rng = np.random.default_rng(1)
        idx = rng.integers(0, pm8qam.M, 1 << 16)
        y = pm8qam.points[idx] + rng.normal(scale=np.sqrt(sigma2), size=(1 << 16, 4))
        llrs = D.compute_llrs(SymbolBatch(idx, y), pm8qam, D.NoiseModel.iid(sigma2))
        mc = D.gmi_from_llrs(llrs, pm8qam.m)
        assert abs(q - mc) < 0.02

    def test_monotone_in_snr(self, pm8qam):
        snrs = np.linspace(0, 25, 20)
        gmis = [D.awgn_gmi_reference(pm8qam, s, n_nodes=5) for s in snrs]
        assert np.all(np.diff(gmis) >= -1e-9)

    def test_mismatch_never_helps(self, pm8qam):
        """Corrupting CG covariances toward identity cannot raise GMI."""
        cov = np.array([[0.05, 0.02, 0.0, 0.0],
                        [0.02, 0.05, 0.0, 0.0],
                        [0.0, 0.0, 0.05, 0.02],
                        [0.0, 0.0, 0.02, 0.05]])
        b = make_batch(pm8qam, ns=2**14, seed=13, cov=cov)
        matched = D.NoiseModel.cg(np.tile(cov, (64, 1, 1)))
        g_match = D.gmi_from_llrs(D.compute_llrs(b, pm8qam, matched), 6)
        iso = np.trace(cov) / 4 * np.eye(4)
        for blend in (0.5, 1.0):
            mixed = (1 - blend) * cov + blend * iso
            model = D.NoiseModel.cg(np.tile(mixed, (64, 1, 1)))
            g = D.gmi_from_llrs(D.compute_llrs(b, pm8qam, model), 6)
            # allow 3-sigma MC slack (~0.01 bit at this batch size)
            assert g <= g_match + 0.01

    @pytest.mark.parametrize("n_nodes", [3, 8])
    @pytest.mark.parametrize("snr_db", [-300.0, -3000.0])
    @pytest.mark.parametrize("name", ["pm8qam", "4d64prs", "6b4d_2a8psk"])
    def test_no_information_is_not_negative(self, name, snr_db, n_nodes):
        gmi = D.awgn_gmi_reference(C.build_format(name), snr_db, n_nodes=n_nodes)
        assert 0.0 <= gmi <= 1e-15

    @pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf])
    def test_bad_snr_named(self, pm8qam, snr_db):
        with pytest.raises(ValueError, match="^snr_db must be"):
            D.awgn_gmi_reference(pm8qam, snr_db)

    @pytest.mark.parametrize("n_nodes", [0, -1, 2.5, True])
    def test_bad_node_count_named(self, pm8qam, n_nodes):
        with pytest.raises(ValueError, match="^n_nodes must be"):
            D.awgn_gmi_reference(pm8qam, 8.1, n_nodes=n_nodes)

    @pytest.mark.parametrize("method", ["monte_carlo", "Quadrature"])
    def test_only_the_quadrature(self, pm8qam, method):
        with pytest.raises(ValueError, match=f"^unknown method '{method}'; "
                                             "the only one is 'quadrature'$"):
            D.awgn_gmi_reference(pm8qam, 8.1, method)


def full_grid_gmi(c, snr_db, n_nodes):
    """AWGN GMI from every point's conditional Gauss-Hermite grid.

    The quadrature without the symmetry reduction: all M x n_nodes^4 rows
    go through one LLR evaluation and every point's penalty is summed.
    """
    sigma2 = 1.0 / (4 * 10 ** (snr_db / 10))
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    grid = np.indices((n_nodes,) * 4).reshape(4, -1).T
    z, w = nodes[grid], weights[grid].prod(axis=1) / np.pi**2
    y = (c.points[:, None, :] + np.sqrt(2 * sigma2) * z).reshape(-1, 4)
    llrs = D.llrs_for_points(y, c, D.NoiseModel.iid(sigma2))
    signs = 1.0 - 2.0 * c.labels.astype(float)
    penalty = np.logaddexp(0.0, -signs[:, None, :] * llrs.reshape(c.M, -1, c.m))
    return float(c.m - np.einsum("q,iq->", w, penalty.sum(axis=2)) / np.log(2) / c.M)


class TestSymmetryReduction:
    """awgn_gmi_reference integrates one point per orbit; the oracle all M."""

    FORMATS = ("4d64prs", "6b4d_2a8psk", "pm8qam")

    @pytest.mark.parametrize("snr_db", [0.0, 8.1, 30.0])
    @pytest.mark.parametrize("n_nodes", [3, 5, 8])
    @pytest.mark.parametrize("name", FORMATS)
    def test_matches_full_grid(self, name, n_nodes, snr_db):
        c = C.build_format(name)
        gmi = D.awgn_gmi_reference(c, snr_db, n_nodes=n_nodes)
        assert abs(gmi - full_grid_gmi(c, snr_db, n_nodes)) <= 1e-12

    @pytest.mark.parametrize("name, reps, sizes", [
        ("4d64prs", [0], [64]),
        ("6b4d_2a8psk", [0, 1, 8, 9], [16, 16, 16, 16]),
        ("pm8qam", [0, 4, 36], [16, 32, 16]),
    ])
    def test_orbits_per_format(self, name, reps, sizes):
        got_reps, got_sizes = D._orbits(C.build_format(name))
        assert got_reps.tolist() == reps and got_sizes.tolist() == sizes

    def test_random_points_have_only_the_identity(self):
        rng = np.random.default_rng(20)
        pts = rng.normal(size=(64, 4))
        c = replace(C.build_format("pm8qam"),
                    points=pts / np.sqrt(np.mean(np.sum(pts**2, axis=1))))
        reps, sizes = D._orbits(c)
        assert reps.tolist() == list(range(64)) and np.all(sizes == 1)
        gmi = D.awgn_gmi_reference(c, 8.1, n_nodes=5)
        assert abs(gmi - full_grid_gmi(c, 8.1, 5)) <= 1e-12

    @pytest.mark.parametrize("snr_db", [0.0, 8.1])
    @pytest.mark.parametrize("name, swap, sizes", [
        ("4d64prs", 1, {2: 32}),
        ("pm8qam", 9, {1: 8, 2: 28}),  # unequal orbits, labels not per pol
    ])
    def test_symmetric_points_with_asymmetric_labels(self, name, swap, sizes,
                                                     snr_db):
        c = C.build_format(name)
        rows = np.arange(c.M)
        rows[[0, swap]] = rows[[swap, 0]]
        # swapping two points labels the same set as swapping their labels
        c = replace(c, points=c.points[rows])
        size, count = np.unique(D._orbits(c)[1], return_counts=True)
        assert dict(zip(size.tolist(), count.tolist())) == sizes
        gmi = D.awgn_gmi_reference(c, snr_db, n_nodes=5)
        assert abs(gmi - full_grid_gmi(c, snr_db, 5)) <= 1e-12

    def test_generic_rotation_keeps_only_the_inversion(self, prs64):
        q, _ = np.linalg.qr(np.random.default_rng(21).normal(size=(4, 4)))
        c = replace(prs64, points=prs64.points @ q.T)
        # -I commutes with every rotation, so only s -> -s survives
        assert D._orbits(c)[1].tolist() == [2] * 32
        gmi = D.awgn_gmi_reference(c, 8.1, n_nodes=5)
        assert abs(gmi - full_grid_gmi(c, 8.1, 5)) <= 1e-12

    def test_coincident_points_are_not_merged(self):
        """Only point permutations count as symmetries.

        Two copies of a point both match its lower index, so no g passes,
        though the swap of a and b with labels XOR 11 would be a symmetry.
        """
        a = np.array([0.3, 0.7, -0.2, 0.5])
        c = C.Constellation4D(points=[a, a, a[[1, 0, 3, 2]], a[[1, 0, 3, 2]]])
        assert D._orbits(c)[1].tolist() == [1, 1, 1, 1]
        gmi = D.awgn_gmi_reference(c, 5.0, n_nodes=5)
        assert abs(gmi - full_grid_gmi(c, 5.0, 5)) <= 1e-12


def brute_orbits(c):
    """_orbits by matching every image: g counts if all M images hit points,
    pi is a bijection and each column of labels[pi] is +- one column of labels."""
    pts, g = c.points, D._SIGNED_PERMS
    for p in pts[:2]:
        g = g[D._match(g @ p, pts)[1]]
    pi, hit = D._match(pts @ g.mT, pts)  # (G, M): g s_i is s_pi[g, i]
    ok = np.all(hit, axis=1)
    ok &= np.all(np.sort(pi, axis=1) == np.arange(c.M), axis=1)
    s = 1.0 - 2.0 * c.labels
    ok[ok] = np.all(np.sum(np.abs(s[pi[ok]].mT @ s) == c.M, axis=2) == 1, axis=1)
    return np.unique(np.vstack((np.arange(c.M), pi[ok])).min(0), return_counts=True)


def oracle_constellations():
    """The formats, 4D-64PRS across its geometry, the constellations of
    TestSymmetryReduction and each format with its rows shuffled."""
    formats = {n: C.build_format(n) for n in TestSymmetryReduction.FORMATS}
    yield from formats.items()
    for rho, theta in itertools.product((0.3, 0.5, 0.8, 1.2, 1.6, 2.0),
                                        (0.25, 0.4, 0.65)):
        yield f"4d64prs-{rho}-{theta}", C.build_4d64prs(rho, theta)
    for name, swap in (("4d64prs", 1), ("pm8qam", 9)):
        rows = np.arange(64)
        rows[[0, swap]] = rows[[swap, 0]]
        yield f"{name}-swap-0-{swap}", replace(formats[name],
                                               points=formats[name].points[rows])
    pts = np.random.default_rng(20).normal(size=(64, 4))
    yield "random", C.Constellation4D(pts / np.sqrt(np.mean(np.sum(pts**2, axis=1))))
    q, _ = np.linalg.qr(np.random.default_rng(21).normal(size=(4, 4)))
    yield "4d64prs-rotated", C.Constellation4D(formats["4d64prs"].points @ q.T)
    a = np.array([0.3, 0.7, -0.2, 0.5])
    yield "coincident", C.Constellation4D([a, a, a[[1, 0, 3, 2]], a[[1, 0, 3, 2]]])
    rng = np.random.default_rng(22)
    for name, c in formats.items():
        yield f"{name}-shuffled", C.Constellation4D(c.points[rng.permutation(c.M)])


class TestOrbitsAgainstBruteForce:
    """_orbits fixes each symmetry's permutation from m + 1 images; the
    oracle matches all M and checks the labels column by column."""

    @pytest.mark.parametrize("c", [pytest.param(c, id=name)
                                   for name, c in oracle_constellations()])
    def test_equals_brute_force(self, c):
        got, want = D._orbits(c), brute_orbits(c)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("name", TestSymmetryReduction.FORMATS)
    def test_peak_memory_below_one_mb(self, name):
        """No (G, M, M) table: the full match peaked at 2.5-5.1 MB."""
        c = C.build_format(name)
        D._orbits(c)  # warm call
        tracemalloc.start()
        try:
            D._orbits(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_import_loads_no_scipy(fresh_python):
    """Importing prs4d loads no scipy module at all: scipy.fft was ~80 % of
    its import time, and scipy.spatial and scipy.linalg ~0.12 s before it."""
    out = fresh_python("import prs4d; print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_import_loads_no_multiprocessing(fresh_python):
    """Importing prs4d loads no multiprocessing (7-8 ms): the process pool
    of the sweeps is imported where a sweep starts one."""
    out = fresh_python("import prs4d; print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] == 'multiprocessing'))")
    assert out.strip() == "[]"


def test_signed_perms_table_equals_itertools_loop():
    """The broadcast table is the 384-step loop's, byte for byte (signed
    zeros too), permutation-major with the sign rows inside."""
    ref = np.array([np.eye(4)[list(p)] * sg
                    for p in itertools.permutations(range(4))
                    for sg in itertools.product((1.0, -1.0), repeat=4)])
    assert D._SIGNED_PERMS.shape == ref.shape == (384, 4, 4)
    assert D._SIGNED_PERMS.tobytes() == ref.tobytes()
