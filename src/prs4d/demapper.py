"""Soft demapping under mismatched Gaussian channel laws and GMI estimation.

Two channel-law assumptions are supported: a shared scalar per-dimension
variance (iid model) and a per-constellation-point 4x4 covariance
(correlated model). LLRs, L = log(P[bit=0] / P[bit=1]), come in row blocks
from one exponentiated log-pdf matrix times the label masks. An LLR favoring
the true bit adds a small GMI penalty, so GMI approaches m at high SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .constellation import Constellation4D
from .rxdsp import SymbolBatch

LLR_CLAMP_NATS = 50.0
_BLOCK_ROWS = 4096  # rows per LLR block; 4096-8192 ran fastest, 65536 1.5-1.8x slower
_LOG2 = np.log(2.0)
_MIN_OCCURRENCES = 30  # transmissions per point for a covariance estimate


@dataclass(frozen=True)
class NoiseModel:
    """Demapper channel-law assumption.

    kind "iid": sigma2 is the shared per-dimension noise variance.
    kind "cg": covariances is an (M, N, N) stack of per-point covariance
    matrices (symmetric positive-definite after regularization).
    """

    kind: str
    sigma2: float | None = None
    covariances: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "iid":
            if self.sigma2 is None or self.sigma2 < 0:
                raise ValueError("iid model requires sigma2 >= 0")
        elif self.kind == "cg":
            if self.covariances is None:
                raise ValueError("cg model requires covariances")
        else:
            raise ValueError(f"unknown noise model kind {self.kind!r}")

    @classmethod
    def iid(cls, sigma2: float) -> "NoiseModel":
        return cls(kind="iid", sigma2=float(sigma2))

    @classmethod
    def cg(cls, covariances: np.ndarray) -> "NoiseModel":
        return cls(kind="cg", covariances=np.asarray(covariances, dtype=float))


@dataclass
class LlrBatch:
    """Per-bit LLRs aligned with the transmitted bits, both Ns x m."""

    llrs: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        self.llrs = np.asarray(self.llrs, dtype=float)
        self.bits = np.asarray(self.bits)
        if self.llrs.shape != self.bits.shape:
            raise ValueError("llrs/bits shape mismatch")


def estimate_iid_sigma2(batch: SymbolBatch) -> float:
    """Average per-dimension residual variance over the batch.

    Returns 0.0 for a noiseless batch; demapping with sigma2 = 0 is an
    error downstream.
    """
    if batch.ns < 100:
        raise ValueError(f"need at least 100 symbols, got {batch.ns}")
    resid = batch.rx_points - batch.tx_points
    n_dim = batch.tx_points.shape[1]
    return float(np.sum(resid**2) / (n_dim * batch.ns))


def estimate_point_covariances(batch: SymbolBatch, c: Constellation4D,
                               epsilon: float) -> np.ndarray:
    """Per-point sample covariance of the residual rx - s_i.

    Second moment about the true constellation point, not the sample
    mean. epsilon * I is added for positive definiteness.
    """
    n_dim = c.points.shape[1]
    covs = np.empty((c.M, n_dim, n_dim))
    for i in range(c.M):
        sel = batch.tx_indices == i
        n_i = int(sel.sum())
        if n_i < _MIN_OCCURRENCES:
            raise ValueError(
                f"constellation point {i} transmitted {n_i} times; "
                f"need at least {_MIN_OCCURRENCES}"
            )
        r = batch.rx_points[sel] - c.points[i]
        covs[i] = (r.T @ r) / n_i + epsilon * np.eye(n_dim)
    return covs


def _logpdf_matrix(c: Constellation4D, model: NoiseModel):
    """Function of a (B, N) block of y giving its (B, M) log f(y_j | s_i) + const.

    cg factors once, C_i = L_i L_i^T and W_i = L_i^-1, then whitens a block
    with one (B, N) @ (N, M*N) product: |W_i y - W_i s_i|^2.
    """
    if model.kind == "iid":
        if model.sigma2 <= 0:
            raise ValueError("sigma2 must be positive for demapping")
        return lambda yb: cdist(yb, c.points, "sqeuclidean") / (-2 * model.sigma2)
    if model.covariances.shape[0] != c.M:
        raise ValueError("cg model needs one covariance per constellation point")
    w = np.linalg.inv(np.linalg.cholesky(model.covariances))  # lower, diag 1/L_ii
    w_all = w.transpose(2, 0, 1).reshape(w.shape[2], -1)
    w_s = np.einsum("mij,mj->mi", w, c.points)
    half_logdet = -np.log(np.diagonal(w, axis1=1, axis2=2)).sum(axis=1)

    def cg(yb):
        z = (yb @ w_all).reshape(len(yb), c.M, -1)
        z -= w_s
        return -0.5 * np.einsum("bmi,bmi->bm", z, z) - half_logdet

    return cg


def llrs_for_points(
    y: np.ndarray, c: Constellation4D, model: NoiseModel, clamp: float = LLR_CLAMP_NATS
) -> np.ndarray:
    """(Ns, m) LLR matrix, L = log P0/P1, clipped to [-clamp, clamp].

    Per row block, E = exp(logf - row max), L = log(E Z) - log(E (1 - Z)) with
    Z = (labels == 0) the (M, m) label mask. The row maximum puts a 1 in one
    sum, so only the losing sum can underflow (|L| > ~700 nats): its log is
    -inf and L saturates to +-clamp with the exact sign.
    """
    logpdf = _logpdf_matrix(c, model)
    y = np.asarray(y, dtype=float)
    zero = (c.labels == 0).astype(float)
    llrs = np.empty((y.shape[0], c.m))
    for start in range(0, y.shape[0], _BLOCK_ROWS):
        e = logpdf(y[start : start + _BLOCK_ROWS])
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        with np.errstate(divide="ignore"):
            block = np.log(e @ zero) - np.log(e @ (1 - zero))
        np.clip(block, -clamp, clamp, out=llrs[start : start + _BLOCK_ROWS])
    return llrs


def compute_llrs(
    batch: SymbolBatch,
    c: Constellation4D,
    model: NoiseModel,
    clamp: float = LLR_CLAMP_NATS,
) -> LlrBatch:
    """Demap a batch of received 4D symbols into per-bit LLRs."""
    llrs = llrs_for_points(batch.rx_points, c, model, clamp=clamp)
    bits = batch.tx_bits.reshape(batch.ns, c.m)
    return LlrBatch(llrs=llrs, bits=bits)


def gmi_from_llrs(llrs: LlrBatch, m: int) -> float:
    """Monte-Carlo GMI in bit per 4D symbol.

    GMI = m - (1/Ns) sum_{k,j} log2(1 + exp(-(-1)^{b_kj} L_kj)), so a
    saturated LLR with the correct sign contributes no penalty.
    """
    L = llrs.llrs
    b = np.asarray(llrs.bits)
    if L.shape != b.shape:
        raise ValueError("llrs/bits shape mismatch")
    if L.shape[1] != m:
        raise ValueError(f"expected {m} bit columns, got {L.shape[1]}")
    ns = L.shape[0]
    if ns < 1:
        raise ValueError("need at least one symbol")
    sign = 1.0 - 2.0 * b  # +1 for bit 0, -1 for bit 1
    penalty = np.logaddexp(0.0, -sign * L) / _LOG2
    return float(m - penalty.sum() / ns)


def _sigma2_per_dim(snr_db: float, n_dim: int) -> float:
    """Per-dimension noise variance for Es/N0 over an N-dim symbol, Es = 1.

    N0 is the total noise energy per symbol, spread evenly across the
    dimensions.
    """
    snr_lin = 10 ** (snr_db / 10)
    return 1.0 / (n_dim * snr_lin)


def awgn_gmi_reference(
    c: Constellation4D,
    snr_db: float,
    method: str = "quadrature",
    n_nodes: int = 8,
    ns: int = 1 << 16,
    seed: int = 0,
    clamp: float = LLR_CLAMP_NATS,
) -> float:
    """GMI of the constellation over 4D AWGN with a matched iid demapper.

    SNR is Es/N0 per 4D symbol with Es = 1. "quadrature" integrates the
    conditional penalty with a tensor Gauss-Hermite grid; "monte_carlo"
    runs the estimator end-to-end with ns symbols.
    """
    n_dim = c.points.shape[1]
    sigma2 = _sigma2_per_dim(snr_db, n_dim)
    model = NoiseModel.iid(sigma2)

    if method == "monte_carlo":
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, c.M, ns)
        y = c.points[idx] + rng.normal(scale=np.sqrt(sigma2), size=(ns, n_dim))
        llrs = llrs_for_points(y, c, model, clamp=clamp)
        return gmi_from_llrs(LlrBatch(llrs, c.labels[idx]), c.m)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    grid = np.indices((n_nodes,) * n_dim).reshape(n_dim, -1).T.copy()  # C order
    z, w = nodes[grid], weights[grid].prod(axis=1) / np.pi ** (n_dim / 2)

    # batch all M conditional grids into one LLR evaluation
    y = (c.points[:, None, :] + np.sqrt(2 * sigma2) * z).reshape(-1, n_dim)
    llrs = llrs_for_points(y, c, model, clamp=clamp).reshape(c.M, -1, c.m)
    signs = 1.0 - 2.0 * c.labels.astype(float)  # (M, m)
    penalty = np.logaddexp(0.0, -signs[:, None, :] * llrs) / _LOG2
    total = np.einsum("q,iq->", w, penalty.sum(axis=2))
    return float(c.m - total / c.M)
