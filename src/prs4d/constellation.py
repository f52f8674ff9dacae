"""4D modulation formats: polarization-ring-switching, PM-8QAM and 2A8PSK.

A constellation is an M x 4 real matrix (columns [Re X, Im X, Re Y, Im Y])
normalized to unit average 4D symbol energy. The row index is the label:
row i carries the binary expansion of i, first bit as MSB, so a builder
chooses its labelling by the order in which it lists the points.
BUILDERS names every format build_format makes and the geometry keys each
one reads; each builder checks its own arguments under those config keys.
The module imports nothing of prs4d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi, sin, sqrt

import numpy as np


@dataclass(frozen=True)
class Constellation4D:
    """Immutable 4D constellation whose row index is the label.

    points is an M x 4 float matrix with M = 2^m >= 2. labels is derived,
    not given: the read-only M x m uint8 matrix whose row i is the binary
    expansion of i (b1 = MSB).
    """

    points: np.ndarray
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"points must be M x 4, got shape {pts.shape}")
        m = pts.shape[0].bit_length() - 1
        if m < 1 or pts.shape[0] != 1 << m:
            raise ValueError(f"M must be a power of two >= 2, got {pts.shape[0]}")
        labs = _canonical_labels(m)
        pts.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    def __reduce__(self):  # copies and pickles rebuild through the check
        return (Constellation4D, (self.points,))

    @property
    def M(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.labels.shape[1]


def _canonical_labels(m: int) -> np.ndarray:
    """M x m matrix whose row i is the binary expansion of i, MSB first."""
    vals = np.arange(2**m)
    return ((vals[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest Euclidean distance between any two rows."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


def build_4d64prs(prs_rho: float, prs_theta: float) -> Constellation4D:
    """Construct the 64-point polarization-ring-switching constellation.

    One polarization of every point sits on the 8-point ring (radius R1)
    and the other on the 4-point ring (radius R2 = prs_rho R1, QPSK at 45
    degrees), giving constant 4D modulus; either ring may be the larger.
    Normalization fixes R1^2 + R2^2 = 1 so every point has unit energy.
    Each 8-point-ring point sits prs_theta from its nearest QPSK diagonal,
    so the 8 phases are k pi/2 + pi/4 +- prs_theta; at prs_theta = 0 or
    pi/4 pairs of them coincide, hence the open interval. Bits [b3, b6]
    select one of the four sign-pattern families; bits [b1, b2, b4, b5]
    select the 4D orthant (coordinate signs [(-1)^b2, (-1)^b1, (-1)^b4,
    (-1)^b5]).
    """
    if not prs_rho > 0:
        raise ValueError(f"prs_rho must be > 0, got {prs_rho}")
    if not 0 < prs_theta < pi / 4:
        raise ValueError(f"prs_theta must be in (0, pi/4), got {prs_theta}")
    r1 = 1.0 / sqrt(1.0 + prs_rho * prs_rho)
    r2 = prs_rho * r1
    phi2 = pi / 4 - prs_theta  # phi1 fixed at pi/4
    nu1 = r1 * cos(phi2)
    nu3 = r1 * sin(phi2)
    nu2 = r2 / sqrt(2.0)

    families = np.array(
        [
            [nu1, nu3, nu2, nu2],
            [nu3, nu1, nu2, nu2],
            [nu2, nu2, nu1, nu3],
            [nu2, nu2, nu3, nu1],
        ]
    )

    labels = _canonical_labels(6)
    # columns of labels are [b1, b2, b3, b4, b5, b6]
    b1, b2, b3, b4, b5, b6 = (labels[:, k] for k in range(6))
    fam = 2 * b3 + b6
    signs = np.stack(
        [(-1.0) ** b2, (-1.0) ** b1, (-1.0) ** b4, (-1.0) ** b5], axis=1
    )
    points = signs * families[fam]

    if min_pairwise_distance(points) < 1e-9:
        raise ValueError(
            f"prs_rho={prs_rho}, prs_theta={prs_theta} collapses constellation points"
        )
    return Constellation4D(points)


# Star 8QAM: inner QPSK plus outer QPSK rotated 45 degrees.
_STAR8_RING_RATIO = 1.0 + sqrt(3.0)


def _star8_points() -> np.ndarray:
    """Unnormalized star 8QAM, complex, indices 0-3 inner and 4-7 outer."""
    inner = np.exp(1j * (np.arange(4) * pi / 2))
    outer = _STAR8_RING_RATIO * np.exp(1j * (np.arange(4) * pi / 2 + pi / 4))
    return np.concatenate([inner, outer])


def _gray_decode(g: np.ndarray) -> np.ndarray:
    """Index k < 8 whose binary reflected Gray code k ^ (k >> 1) is g."""
    return g ^ (g >> 1) ^ (g >> 2)


def build_pm8qam() -> Constellation4D:
    """Polarization-multiplexed star 8QAM as a 4D Cartesian product.

    64 points, 6-bit labels formed by concatenating the two 3-bit
    per-polarization labels (X first). In each 3-bit label the first bit
    selects the ring (0 = inner) and the other two are the binary
    reflected Gray code of the quadrant, so label v is star-8 point
    (v & 4) | gray_decode(v & 3). Among ring-respecting labellings this
    minimizes the total Hamming distance over nearest-neighbor pairs
    (Agrell et al., IEEE Trans. IT 50(12), 2004).
    """
    vals = np.arange(64)
    v = np.stack([vals >> 3, vals & 7], axis=1)
    pairs = _star8_points()[(v & 4) | _gray_decode(v & 3)]
    points = pairs.view(float)  # (64, 2) complex X/Y -> (64, 4) real
    points /= sqrt(np.mean(np.sum(points**2, axis=1)))
    return Constellation4D(points)


def build_6b4d_2a8psk(ring_ratio: float) -> Constellation4D:
    """Two-amplitude 8PSK over both polarizations, 6 bit/4D-sym.

    Three Gray bits per polarization select the 8PSK phase; the XOR of
    all six bits is the X-polarization ring index, and Y takes the
    complementary ring, so the 4D modulus is constant.
    """
    if not ring_ratio > 0:
        raise ValueError(f"ring_ratio must be > 0, got {ring_ratio}")
    radii = np.array([1.0, ring_ratio]) / sqrt(1.0 + ring_ratio**2)

    labels = _canonical_labels(6)
    vals = np.arange(64)
    phx = _gray_decode(vals >> 3) * pi / 4
    phy = _gray_decode(vals & 7) * pi / 4
    ring_x = np.bitwise_xor.reduce(labels, axis=1).astype(int)
    rx = radii[ring_x]
    ry = radii[1 - ring_x]
    points = np.stack(
        [rx * np.cos(phx), rx * np.sin(phx), ry * np.cos(phy), ry * np.sin(phy)],
        axis=1,
    )
    if min_pairwise_distance(points) < 1e-9:
        raise ValueError(
            f"ring_ratio={ring_ratio} collapses constellation points"
        )
    return Constellation4D(points)


def map_bits_to_symbols(bits: np.ndarray, c: Constellation4D):
    """Map a flat bit array onto constellation symbols.

    Returns (indices, points): consecutive m-bit groups read MSB first
    are the row indices, since the row index is the label.
    """
    bits = np.asarray(bits).ravel()
    if bits.size % c.m != 0:
        raise ValueError(f"bit count {bits.size} not divisible by m={c.m}")
    if bits.size and not 0 <= bits.min() <= bits.max() <= 1:
        raise ValueError(f"bits must be 0 or 1, got values in [{bits.min()}, {bits.max()}]")
    indices = bits.reshape(-1, c.m).astype(np.int64) @ (1 << np.arange(c.m - 1, -1, -1))
    return indices, np.take(c.points, indices, axis=0)


def constellation_to_csv(c: Constellation4D) -> str:
    """The constellation as CSV text: index,label_bits,s1,s2,s3,s4."""
    lines = ["index,label_bits,s1,s2,s3,s4"]
    for i, (lab, row) in enumerate(zip(c.labels, c.points)):
        coords = ",".join(f"{v:.17g}" for v in row)
        lines.append(f"{i},{''.join(map(str, lab))},{coords}")
    return "\n".join(lines) + "\n"


# Shipped defaults: harness.optimize_prs_params over DEFAULT_PRS_RHOS x
# DEFAULT_PRS_THETAS at DEFAULT_PRS_SNR_DB, where the best AWGN GMI is about
# 4.55 bit/4D-sym. Pinned by TestOptimize::test_shipped_defaults_are_the_optimum
# in tests/test_constellation.py; rerun the optimizer to change them.
DEFAULT_PRS_SNR_DB = 8.1
DEFAULT_PRS_RHOS = np.linspace(1.2, 2.0, 9)
DEFAULT_PRS_THETAS = np.linspace(0.25, 0.65, 9)
DEFAULT_PRS_RHO = 1.6
DEFAULT_PRS_THETA = 0.45
DEFAULT_RING_RATIO = 1.0 / 0.65  # 6b4D-2A8PSK outer/inner ring ratio
# Each format's builder and the geometry keys it reads, in its argument order;
# build_format dispatches through this one table.
BUILDERS = {"4d64prs": (build_4d64prs, ("prs_rho", "prs_theta")),
            "pm8qam": (build_pm8qam, ()),
            "6b4d_2a8psk": (build_6b4d_2a8psk, ("ring_ratio",))}
FORMATS = tuple(BUILDERS)  # build_format's names


def build_format(name: str, prs_rho: float = DEFAULT_PRS_RHO,
                 prs_theta: float = DEFAULT_PRS_THETA,
                 ring_ratio: float = DEFAULT_RING_RATIO) -> Constellation4D:
    """Build a constellation by format name used in configs and the CLI,
    from the geometry arguments that BUILDERS says the format reads."""
    if name not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {name!r}")
    build, keys = BUILDERS[name]
    geometry = {"prs_rho": prs_rho, "prs_theta": prs_theta, "ring_ratio": ring_ratio}
    return build(*(geometry[k] for k in keys))
