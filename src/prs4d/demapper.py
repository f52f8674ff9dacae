"""Soft demapping under mismatched Gaussian channel laws and GMI estimation.

Two channel-law assumptions are supported: a shared scalar per-dimension
variance (iid model) and a per-constellation-point 4x4 covariance
(correlated model). Both log-pdfs are quadratic in y, so one product of a
row block's features [y_a y_b, y, 1] with a (15, M) matrix serves both.
LLRs, L = log(P[bit=0] / P[bit=1]), are that matrix exponentiated times the
label masks. An LLR favoring the true bit adds a small GMI penalty, so GMI
approaches m at high SNR. The AWGN reference integrates one point per
symmetry orbit, times its size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .constellation import Constellation4D
from .rxdsp import SymbolBatch

LLR_CLAMP_NATS = 50.0
_BLOCK_ROWS = 4096  # rows per LLR block; 4096-8192 ran fastest, 65536 1.5-1.8x slower
_LOG2 = np.log(2.0)
_MIN_OCCURRENCES = 30  # transmissions per point for a covariance estimate
_SYM_TOL2 = 1e-26  # squared distance within which g s_i counts as s_j
_SIGNED_PERMS = np.array([np.eye(4)[list(p)] * sg  # the 384 as (4, 4) matrices
                          for p in itertools.permutations(range(4))
                          for sg in itertools.product((1.0, -1.0), repeat=4)])


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
    mean: each of the distinct residual products r_a r_b is summed per
    point with one weighted bincount. epsilon * I is added for positive
    definiteness.
    """
    n_dim = c.points.shape[1]
    counts = np.bincount(batch.tx_indices, minlength=c.M)[:c.M]
    for i in np.flatnonzero(counts < _MIN_OCCURRENCES)[:1]:
        raise ValueError(f"constellation point {i} transmitted {counts[i]} "
                         f"times; need at least {_MIN_OCCURRENCES}")
    r = batch.rx_points - c.points[batch.tx_indices]
    covs = np.empty((c.M, n_dim, n_dim))
    for a, b in zip(*np.triu_indices(n_dim)):
        covs[:, a, b] = covs[:, b, a] = np.bincount(
            batch.tx_indices, r[:, a] * r[:, b], c.M)[:c.M]
    return covs / counts[:, None, None] + epsilon * np.eye(n_dim)


def _logpdf_matrix(c: Constellation4D, model: NoiseModel):
    """Function of a (B, N) block of y giving its (B, M) log f(y_j | s_i) + const.

    log f is quadratic in y: phi(y) @ A with phi(y) = [y_a y_b for a <= b, y, 1]
    and A's columns -P_i / 2 (upper triangle, off-diagonals doubled), P_i s_i
    and -s_i^T P_i s_i / 2 - log det C_i / 2. iid takes P_i = I / sigma2; cg
    factors C_i = L_i L_i^T (raising unless C_i is positive definite) and
    takes P_i = W_i^T W_i with W_i = L_i^-1.
    """
    n_dim = c.points.shape[1]
    if model.kind == "iid":
        if model.sigma2 <= 0:
            raise ValueError("sigma2 must be positive for demapping")
        prec = np.eye(n_dim) / model.sigma2 + np.zeros((c.M, 1, 1))
        half_logdet = 0.0  # the same for every point
    else:
        if model.covariances.shape[0] != c.M:
            raise ValueError("cg model needs one covariance per constellation point")
        w = np.linalg.inv(np.linalg.cholesky(model.covariances))  # lower, diag 1/L_ii
        prec = w.mT @ w
        half_logdet = -np.log(np.diagonal(w, axis1=1, axis2=2)).sum(axis=1)
    ia, ib = np.triu_indices(n_dim)
    ps = np.einsum("mij,mj->mi", prec, c.points)
    a = np.vstack((np.where(ia == ib, -0.5, -1.0)[:, None] * prec[:, ia, ib].T,
                   ps.T,
                   -0.5 * np.einsum("mi,mi->m", c.points, ps) - half_logdet))
    return lambda yb: np.hstack((yb[:, ia] * yb[:, ib], yb, np.ones((len(yb), 1)))) @ a


def llrs_for_points(
    y: np.ndarray, c: Constellation4D, model: NoiseModel, clamp: float = LLR_CLAMP_NATS
) -> np.ndarray:
    """(Ns, m) LLR matrix, L = log P0/P1, clipped to [-clamp, clamp].

    Per row block, E = exp(logf - row max) and one product E [Z, 1 - Z]
    gives both sums, Z = (labels == 0) the (M, m) label mask; L is the
    difference of their logs. The row maximum puts a 1 in one sum, so only
    the losing sum can underflow (|L| > ~700 nats): its log is -inf and L
    saturates to +-clamp with the exact sign.
    """
    logpdf = _logpdf_matrix(c, model)
    y = np.asarray(y, dtype=float)
    masks = np.hstack((c.labels == 0, c.labels != 0)).astype(float)
    llrs = np.empty((y.shape[0], c.m))
    for start in range(0, y.shape[0], _BLOCK_ROWS):
        e = logpdf(y[start : start + _BLOCK_ROWS])
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        sums = e @ masks
        with np.errstate(divide="ignore"):
            np.log(sums, out=sums)
        np.clip(sums[:, :c.m] - sums[:, c.m:], -clamp, clamp,
                out=llrs[start : start + _BLOCK_ROWS])
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
    return float(m - _penalty((2.0 * b - 1.0) * L).sum() / (ns * _LOG2))


def _penalty(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) in nats, as max(z, 0) + log1p(e^-|z|)."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _orbits(c: Constellation4D) -> tuple[np.ndarray, np.ndarray]:
    """Orbit representatives and sizes under the labeled symmetries of c.

    A symmetry g permutes and negates coordinates, g s_i = s_pi(i), and acts on
    labels as a bit permutation then an XOR; the iid GH penalty is invariant.
    """
    pts = c.points
    keep = cdist(_SIGNED_PERMS @ pts[0], pts, "sqeuclidean").min(axis=1) <= _SYM_TOL2
    d2 = cdist((pts @ _SIGNED_PERMS[keep].mT).reshape(-1, 4), pts, "sqeuclidean")
    d2 = d2.reshape(-1, c.M, c.M)  # |g s_i - s_j|^2 for each g keeping s_0 in the set
    pi = d2.argmin(axis=2)
    ok = np.all(d2.min(axis=2) <= _SYM_TOL2, axis=1)
    ok &= np.all(np.sort(pi, axis=1) == np.arange(c.M), axis=1)  # bijection
    s = 1.0 - 2.0 * c.labels  # column k of labels[pi] is +- one column of labels
    ok[ok] = np.all(np.sum(np.abs(s[pi[ok]].mT @ s) == c.M, axis=2) == 1, axis=1)
    return np.unique(np.vstack((np.arange(c.M), pi[ok])).min(0), return_counts=True)


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
    conditional penalty on a tensor Gauss-Hermite grid around one point per
    symmetry orbit (`_orbits`), weighted by the orbit size; it sums the
    per-bit information 1 - penalty, so no m - total cancellation leaves
    rounding below 0, and the result is clipped to [0, m]. "monte_carlo"
    runs the estimator end-to-end with ns symbols.
    """
    n_dim = c.points.shape[1]
    with np.errstate(all="ignore"):
        sigma2 = 1.0 / (n_dim * np.power(10.0, snr_db / 10))  # N0 over n_dim
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"snr_db must be a finite SNR in dB, got {snr_db}")
    model = NoiseModel.iid(sigma2)
    for name, count in (("n_nodes", n_nodes), ("ns", ns)):
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
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

    # batch the representatives' conditional grids into one LLR evaluation
    reps, sizes = _orbits(c)
    y = (c.points[reps, None, :] + np.sqrt(2 * sigma2) * z).reshape(-1, n_dim)
    llrs = llrs_for_points(y, c, model, clamp=clamp).reshape(len(reps), -1, c.m)
    signs = 1.0 - 2.0 * c.labels[reps].astype(float)  # (R, m)
    info = 1.0 - _penalty(-signs[:, None, :] * llrs) / _LOG2  # per bit
    gmi = np.einsum("q,r,rq->", w, sizes, info.sum(axis=2)) / c.M
    return float(np.clip(gmi, 0.0, c.m))
