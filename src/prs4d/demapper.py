"""Soft demapping under a mismatched Gaussian channel law and GMI estimation.

One law serves both assumptions: y = s_i + n with n ~ N(0, C_i), where the
iid model shares one C = sigma2 * I among all points and the correlated
model (Eriksson et al., JLT 2016) holds one 4x4 C_i per constellation point.
Its log-pdf is quadratic in y, so one (M, 15) matrix times a row block's
point-major features [y_a y_b; y; 1] (15, B) gives every log f(y | s_i).
LLRs, L = log(P[bit=0] / P[bit=1]), are the label masks times that (M, B)
product exponentiated, in buffers reused across blocks. An LLR favoring the
true bit adds a small GMI penalty, so GMI approaches m at high SNR. The AWGN
reference integrates one point per symmetry orbit, times its size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation4D
from .rxdsp import SymbolBatch

LLR_CLAMP_NATS = 50.0
# Rows per LLR and GMI block. One 2^16-row 4D-64PRS LLR call took (median ms, iid/cg,
# 2-core Xeon) 22.8/23.0 at 512, 19.9/20.4 at 1024, 23.2/23.1 at 2048 and 26.1/24.2 at 4096.
_BLOCK_ROWS = 1024
_LOG2 = np.log(2.0)
MIN_SYMBOLS = 100  # symbols for an iid noise estimate
_MIN_OCCURRENCES = 30  # transmissions per point for a covariance estimate
_SYM_TOL2 = 1e-26  # squared distance within which g s_i counts as s_j
_SIGNED_PERMS = np.array([np.eye(4)[list(p)] * sg  # the 384 as (4, 4) matrices
                          for p in itertools.permutations(range(4))
                          for sg in itertools.product((1.0, -1.0), repeat=4)])


@dataclass(frozen=True)
class NoiseModel:
    """Demapper channel law: a stack of 4x4 noise covariances.

    covariances is (M, 4, 4), one per constellation point ("cg"), or
    (1, 4, 4), one shared by all of them ("iid": sigma2 * I). kind only
    names the assumption. Every entry must be finite; the demapper rejects
    a matrix that is not positive definite.
    """

    kind: str
    covariances: np.ndarray

    def __post_init__(self):
        if self.kind not in ("iid", "cg"):
            raise ValueError(f"unknown noise model kind {self.kind!r}")
        covs = np.asarray(self.covariances, dtype=float)
        if covs.ndim != 3 or covs.shape[1:] != (4, 4):
            raise ValueError(f"covariances must be (K, 4, 4), got {covs.shape}")
        if not np.all(np.isfinite(covs)):
            raise ValueError("noise covariances must be finite")
        object.__setattr__(self, "covariances", covs)

    @classmethod
    def iid(cls, sigma2: float) -> "NoiseModel":
        if sigma2 < 0:
            raise ValueError("iid model requires sigma2 >= 0")
        return cls("iid", np.diag(np.full(4, float(sigma2)))[None])

    @classmethod
    def cg(cls, covariances: np.ndarray) -> "NoiseModel":
        return cls("cg", covariances)


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


def _sent(batch: SymbolBatch, rows: np.ndarray, M: int) -> np.ndarray:
    """rows[tx_indices], the sent points or labels, with every index checked < M."""
    if batch.ns and batch.tx_indices.max() >= M:
        raise ValueError(f"tx_indices must be < M = {M}, got {batch.tx_indices.max()}")
    return np.take(rows, batch.tx_indices, axis=0)


def estimate_iid_sigma2(batch: SymbolBatch, c: Constellation4D) -> float:
    """Average per-dimension residual variance about the sent points.

    Returns 0.0 for a noiseless batch; demapping with sigma2 = 0 is an
    error downstream.
    """
    if batch.ns < MIN_SYMBOLS:
        raise ValueError(f"need at least {MIN_SYMBOLS} symbols, got {batch.ns}")
    resid = batch.rx_points - _sent(batch, c.points, c.M)
    return float(np.sum(resid**2) / (resid.shape[1] * batch.ns))


def point_counts(tx_indices: np.ndarray, M: int) -> np.ndarray:
    """Transmissions of each of the M points; fails below the covariance floor."""
    counts = np.bincount(tx_indices, minlength=M)
    for i in np.flatnonzero(counts < _MIN_OCCURRENCES)[:1]:
        raise ValueError(f"constellation point {i} transmitted {counts[i]} "
                         f"times; need at least {_MIN_OCCURRENCES}")
    return counts


def estimate_point_covariances(batch: SymbolBatch, c: Constellation4D,
                               epsilon: float) -> np.ndarray:
    """Per-point sample covariance of the residual rx - s_i.

    Second moment about the true constellation point, not the sample
    mean: each of the distinct residual products r_a r_b is summed per
    point with one weighted bincount. epsilon * I is added for positive
    definiteness.
    """
    n_dim = c.points.shape[1]
    r = batch.rx_points - _sent(batch, c.points, c.M)
    counts = point_counts(batch.tx_indices, c.M)
    covs = np.empty((c.M, n_dim, n_dim))
    for a, b in zip(*np.triu_indices(n_dim)):
        covs[:, a, b] = covs[:, b, a] = np.bincount(
            batch.tx_indices, r[:, a] * r[:, b], c.M)
    return covs / counts[:, None, None] + epsilon * np.eye(n_dim)


def _logpdf_matrix(c: Constellation4D, model: NoiseModel):
    """(M, F) matrix A^T and the feature pairs (ia, ib) of the log-pdf.

    log f(y | s_i) + const is quadratic in y: A^T @ phi for the (F, B) point-major
    features phi = [y_a y_b for (a, b) in zip(ia, ib), y, 1] of a row block, with
    A's columns -P_i / 2 (upper triangle, off-diagonals doubled), P_i s_i and
    -s_i^T P_i s_i / 2 - log det C_i / 2. Each C_i of the stack is factored
    C_i = L_i L_i^T (LinAlgError, a ValueError, unless positive definite) and
    P_i = W_i^T W_i with W_i = L_i^-1; a shared C serves all M points.
    """
    n_dim = c.points.shape[1]
    if len(model.covariances) not in (1, c.M):
        raise ValueError("noise model needs one shared covariance or one per point")
    w = np.linalg.inv(np.linalg.cholesky(model.covariances))  # lower, diag 1/L_ii
    prec = np.broadcast_to(w.mT @ w, (c.M, n_dim, n_dim))
    half_logdet = -np.log(np.diagonal(w, axis1=1, axis2=2)).sum(axis=1)
    ia, ib = np.triu_indices(n_dim)
    ps = np.einsum("mij,mj->mi", prec, c.points)
    at = np.hstack((np.where(ia == ib, -0.5, -1.0) * prec[:, ia, ib], ps,
                    (-0.5 * np.einsum("mi,mi->m", c.points, ps) - half_logdet)[:, None]))
    return at, ia, ib


def llrs_for_points(
    y: np.ndarray, c: Constellation4D, model: NoiseModel, clamp: float = LLR_CLAMP_NATS
) -> np.ndarray:
    """(Ns, m) LLR matrix, L = log P0/P1, clipped to [-clamp, clamp].

    Point-major: per row block, E = exp(A^T phi - column max) is (M, B), and
    one product [Z; 1 - Z] E gives both per-bit sums, Z = (labels == 0)^T the
    (m, M) label mask; L is the difference of their logs. The buffers are
    allocated once per call. The column maximum puts a 1 in one sum, so only
    the losing sum can underflow (|L| > ~700 nats): its log is -inf and L
    saturates to +-clamp with the exact sign.
    """
    at, ia, ib = _logpdf_matrix(c, model)
    y = np.asarray(y, dtype=float)
    masks = np.vstack((c.labels.T == 0, c.labels.T != 0)).astype(float)
    (ns, n_dim), nq = y.shape, len(ia)
    width = min(_BLOCK_ROWS, ns)
    phi = np.ones((at.shape[1], width))  # last row stays 1
    e, top, sums = np.empty((c.M, width)), np.empty(width), np.empty((2 * c.m, width))
    llrs = np.empty((ns, c.m))
    for start in range(0, ns, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        n = min(width, ns - start)
        f, eb, tb, sb = phi[:, :n], e[:, :n], top[:n], sums[:, :n]
        f[nq:-1] = y[rows].T
        for a, k in enumerate(np.flatnonzero(ia == ib)):  # pairs (a, a..N-1)
            np.multiply(f[nq + a], f[nq + a:-1], out=f[k:k + n_dim - a])
        np.matmul(at, f, out=eb)
        np.max(eb, axis=0, out=tb)
        eb -= tb
        np.exp(eb, out=eb)
        np.matmul(masks, eb, out=sb)
        with np.errstate(divide="ignore"):
            np.log(sb, out=sb)
        np.subtract(sb[:c.m], sb[c.m:], out=llrs[rows].T)
    return np.clip(llrs, -clamp, clamp, out=llrs)


def compute_llrs(batch: SymbolBatch, c: Constellation4D, model: NoiseModel) -> LlrBatch:
    """Demap a batch of received 4D symbols into per-bit LLRs."""
    return LlrBatch(llrs_for_points(batch.rx_points, c, model), _sent(batch, c.labels, c.M))


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
    total = sum(_penalty((2.0 * b[k:k + _BLOCK_ROWS] - 1.0) * L[k:k + _BLOCK_ROWS]).sum()
                for k in range(0, ns, _BLOCK_ROWS))  # small temporaries, kept on the heap
    return float(m - total / (ns * _LOG2))


def _penalty(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) in nats, as max(z, 0) + log1p(e^-|z|)."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _match(x: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the point nearest each 4-vector of x (least |s|^2 - 2 x.s), and
    whether it lies within _SYM_TOL2, summed coordinate by coordinate."""
    d = x @ (-2.0 * pts.T)
    d += np.einsum("ij,ij->i", pts, pts)
    j = d.argmin(axis=-1)
    return j, np.sum((x - pts[j]) ** 2, axis=-1) <= _SYM_TOL2


def _orbits(c: Constellation4D) -> tuple[np.ndarray, np.ndarray]:
    """Orbit representatives and sizes under the labeled symmetries of c.

    A symmetry g permutes and negates coordinates, g s_i = s_pi(i), and acts on
    labels as a bit permutation then an XOR; the iid GH penalty is invariant.
    """
    pts, g = c.points, _SIGNED_PERMS
    for p in pts[:2]:  # prune the candidates on two points before matching all M
        g = g[_match(g @ p, pts)[1]]
    pi, hit = _match(pts @ g.mT, pts)  # (G, M): g s_i is s_pi[g, i]
    ok = np.all(hit, axis=1)
    ok &= np.all(np.sort(pi, axis=1) == np.arange(c.M), axis=1)  # bijection
    s = 1.0 - 2.0 * c.labels  # column k of labels[pi] is +- one column of labels
    ok[ok] = np.all(np.sum(np.abs(s[pi[ok]].mT @ s) == c.M, axis=2) == 1, axis=1)
    return np.unique(np.vstack((np.arange(c.M), pi[ok])).min(0), return_counts=True)


def awgn_gmi_reference(c: Constellation4D, snr_db: float,
                       method: str = "quadrature", n_nodes: int = 8) -> float:
    """GMI of the constellation over 4D AWGN with a matched iid demapper.

    SNR is Es/N0 per 4D symbol with Es = 1. "quadrature", the only method,
    integrates the conditional penalty on a tensor Gauss-Hermite grid of
    n_nodes per dimension around one point per symmetry orbit (`_orbits`),
    weighted by the orbit size. It sums the per-bit information 1 - penalty,
    so no m - total cancellation leaves rounding below 0, and clips to [0, m].
    """
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}; the only one is 'quadrature'")
    n_dim = c.points.shape[1]
    with np.errstate(all="ignore"):
        sigma2 = 1.0 / (n_dim * np.power(10.0, snr_db / 10))  # N0 over n_dim
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"snr_db must be a finite SNR in dB, got {snr_db}")
    model = NoiseModel.iid(sigma2)
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 1:
        raise ValueError(f"n_nodes must be a positive integer, got {n_nodes!r}")

    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    grid = np.indices((n_nodes,) * n_dim).reshape(n_dim, -1).T.copy()  # C order
    z, w = nodes[grid], weights[grid].prod(axis=1) / np.pi ** (n_dim / 2)

    # batch the representatives' conditional grids into one LLR evaluation
    reps, sizes = _orbits(c)
    y = (c.points[reps, None, :] + np.sqrt(2 * sigma2) * z).reshape(-1, n_dim)
    llrs = llrs_for_points(y, c, model).reshape(len(reps), -1, c.m)
    signs = 1.0 - 2.0 * c.labels[reps].astype(float)  # (R, m)
    info = 1.0 - _penalty(-signs[:, None, :] * llrs) / _LOG2  # per bit
    gmi = np.einsum("q,r,rq->", w, sizes, info.sum(axis=2)) / c.M
    return float(np.clip(gmi, 0.0, c.m))
