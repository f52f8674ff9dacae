import ast
import copy
import hashlib
import itertools
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prs4d import cli, constellation as C
from prs4d import harness as H

VALID_RHO = st.floats(min_value=0.3, max_value=3.0)
VALID_THETA = st.floats(min_value=0.02, max_value=np.pi / 4 - 0.02)
WEIGHTS = 1 << np.arange(5, -1, -1)  # label bits -> label value, b1 = MSB


class TestConstellation4D:
    """The row index is the label; the constructor checks only the points."""

    @pytest.mark.parametrize("shape", [(4, 3), (4, 5), (4,), (2, 4, 1)])
    def test_points_not_m_by_4_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^points must be M x 4, got shape \(.*\)$"):
            C.Constellation4D(np.zeros(shape))

    @pytest.mark.parametrize("M", [0, 1, 3, 6, 63])
    def test_m_not_a_power_of_two_rejected(self, M):
        with pytest.raises(ValueError,
                           match=f"^M must be a power of two >= 2, got {M}$"):
            C.Constellation4D(np.zeros((M, 4)))

    @pytest.mark.parametrize("name", ["4d64prs", "pm8qam", "6b4d_2a8psk"])
    def test_labels_are_the_row_index(self, name):
        c = C.build_format(name)
        assert c.labels.dtype == np.uint8 and c.labels.shape == (64, 6)
        np.testing.assert_array_equal(c.labels @ WEIGHTS, np.arange(64))

    def test_hand_built_labels_and_read_only(self):
        c = C.Constellation4D([[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, -1, 0, 0]])
        assert c.M == 4 and c.m == 2
        np.testing.assert_array_equal(c.labels, [[0, 0], [0, 1], [1, 0], [1, 1]])
        assert c.labels.dtype == np.uint8
        assert not c.labels.flags.writeable and not c.points.flags.writeable

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_stay_checked_and_read_only(self, clone):
        """A copy is rebuilt through the constructor, as a pool worker
        unpickles a config's constellation: read-only, not a writeable
        array restored around the check."""
        c = C.build_pm8qam()
        twin = clone(c)
        np.testing.assert_array_equal(twin.points, c.points)
        np.testing.assert_array_equal(twin.labels, c.labels)
        assert not twin.points.flags.writeable and not twin.labels.flags.writeable


class TestStandsAlone:
    def test_imports_nothing_of_prs4d(self):
        """The formats' home needs no other module of the package."""
        for node in ast.walk(ast.parse(Path(C.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and node.module.split(".")[0] != "prs4d", \
                    ast.unparse(node)
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "prs4d" for a in node.names), \
                    ast.unparse(node)

    def test_loads_alone(self, fresh_python):
        """Importing the formats' home loads no other module of the package:
        the package root imports nothing."""
        out = fresh_python("import prs4d.constellation; print(sorted(m for m in "
                           "sys.modules if m.split('.')[0] == 'prs4d'))")
        assert out.strip() == "['prs4d', 'prs4d.constellation']"

    def test_formats_are_the_names_build_format_and_the_config_take(self):
        assert tuple(C.BUILDERS) == ("4d64prs", "pm8qam", "6b4d_2a8psk")
        for name in C.BUILDERS:
            assert C.build_format(name).M == 64
            assert H.ExperimentConfig(format=name).format == name
        for check in (C.build_format, lambda name: H.ExperimentConfig(format=name)):
            with pytest.raises(ValueError, match=re.escape(
                    "format must be one of ('4d64prs', 'pm8qam', '6b4d_2a8psk'), "
                    "got 'qpsk'")):
                check("qpsk")


class TestPrsParams:
    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError, match=r"^prs_theta must be in \(0, pi/4\)"):
            C.build_4d64prs(1.5, 0.0)
        with pytest.raises(ValueError, match=r"^prs_theta must be in \(0, pi/4\)"):
            C.build_4d64prs(1.5, np.pi / 4)

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError, match="^prs_rho must be > 0, got -1.0$"):
            C.build_4d64prs(-1.0, 0.3)

    @pytest.mark.parametrize("build, name", [
        (lambda v: C.build_4d64prs(v, 0.4), "prs_rho"), (C.build_6b4d_2a8psk, "ring_ratio")],
        ids=["4d64prs", "6b4d_2a8psk"])
    def test_infinite_ring_ratio_rejected(self, build, name):
        """An infinite ratio would build NaN points (and warn in a divide)."""
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            build(np.inf)


class TestBuild4d64prs:
    def test_degenerate_theta_zero(self):
        # rho = 1, theta -> 0 makes all families coincide
        with pytest.raises(ValueError):
            C.build_4d64prs(1.0, 0.0)

    def test_cardinality_and_bits(self):
        c = C.build_format("4d64prs")
        assert c.M == 64 and c.m == 6

    @given(rho=VALID_RHO, theta=VALID_THETA)
    @settings(max_examples=40, deadline=None)
    def test_constant_modulus_and_symmetry(self, rho, theta):
        c = C.build_4d64prs(rho, theta)
        norms = np.sum(c.points**2, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)
        assert np.all(np.abs(c.points.mean(axis=0)) < 1e-12)

    @given(rho=VALID_RHO, theta=VALID_THETA)
    @settings(max_examples=20, deadline=None)
    def test_ring_structure(self, rho, theta):
        c = C.build_4d64prs(rho, theta)
        r1 = 1.0 / np.sqrt(1 + rho**2)
        r2 = rho * r1
        px = np.sqrt(np.sum(c.points[:, :2] ** 2, axis=1))
        py = np.sqrt(np.sum(c.points[:, 2:] ** 2, axis=1))
        for a, b in zip(px, py):
            assert (
                (abs(a - r1) < 1e-12 and abs(b - r2) < 1e-12)
                or (abs(a - r2) < 1e-12 and abs(b - r1) < 1e-12)
            )

    def test_orthant_bit_sign_flip(self):
        """Flipping b2 flips coordinate 1; (b1,b2,b4,b5) -> coords (2,1,3,4)."""
        c = C.build_format("4d64prs")
        vals = c.labels @ WEIGHTS
        order = np.argsort(vals)
        pts = c.points[order]  # row v = point of label value v
        for v in range(64):
            for bit_pos, coord in ((0, 1), (1, 0), (3, 2), (4, 3)):
                w = v ^ (1 << (5 - bit_pos))
                expect = pts[v].copy()
                expect[coord] = -expect[coord]
                assert np.allclose(pts[w], expect, atol=1e-15)

    def test_deterministic(self):
        a = C.build_4d64prs(1.7, 0.4)
        b = C.build_4d64prs(1.7, 0.4)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)


class TestPm8qam:
    def test_shape(self):
        c = C.build_pm8qam()
        assert c.M == 64 and c.m == 6

    def test_unit_energy(self):
        c = C.build_pm8qam()
        assert abs(np.mean(np.sum(c.points**2, axis=1)) - 1) < 1e-12

    def test_marginal_is_star8(self):
        c = C.build_pm8qam()
        proj = c.points[:, 0] + 1j * c.points[:, 1]
        uniq = np.unique(np.round(proj, 12))
        ref = C._star8_points()
        ref = ref / np.sqrt(2 * np.mean(np.abs(ref) ** 2))
        assert len(uniq) == 8
        for p in uniq:
            assert np.min(np.abs(ref - p)) < 1e-12

    def test_label_is_per_pol_concatenation(self):
        c = C.build_pm8qam()
        vals = c.labels @ WEIGHTS
        order = np.argsort(vals)
        pts = c.points[order]
        # same X bits -> same X projection regardless of Y bits
        for vx in range(8):
            block = pts[vx * 8:(vx + 1) * 8]
            assert np.allclose(block[:, :2], block[0, :2])


def _best_ring_respecting_labeling() -> tuple:
    """Exhaustive oracle for the star-8QAM labelling: the first bit is the
    ring (0 = inner), and the two quadrant bits of each ring are searched
    over all 4! x 4! assignments. Returns the lexicographically first
    minimum of the total Hamming distance over nearest-neighbor pairs,
    as the label value of each star-8 point."""
    pts = C._star8_points()
    d = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(d, np.inf)
    # every pair achieving a point's own minimum distance
    edges = sorted({(min(p, q), max(p, q)) for p in range(8) for q in range(8)
                    if d[p, q] <= d[p].min() * (1 + 1e-9)})
    def cost(lab):
        return sum(bin(lab[p] ^ lab[q]).count("1") for p, q in edges)

    labelings = (inner + tuple(4 + k for k in outer)
                 for inner in itertools.permutations(range(4))
                 for outer in itertools.permutations(range(4)))
    return min((cost(lab), lab) for lab in labelings)[1]


class TestGrayLabeling:
    def test_gray_decode_inverts_the_reflected_code(self):
        k = np.arange(8)
        assert np.array_equal(C._gray_decode(k ^ (k >> 1)), k)

    def test_star8_gray_labeling_is_the_search_optimum(self):
        """Label v sits on star-8 point (v & 4) | gray_decode(v & 3)."""
        v = np.arange(8)
        label_of_point = np.empty(8, dtype=int)
        label_of_point[(v & 4) | C._gray_decode(v & 3)] = v
        assert tuple(label_of_point) == _best_ring_respecting_labeling()

    def test_pm8qam_x_labels_follow_the_gray_ring_map(self):
        c = C.build_pm8qam()
        star = C._star8_points()
        star = star / np.sqrt(2 * np.mean(np.abs(star) ** 2))
        x = c.points[:, 0] + 1j * c.points[:, 1]
        vx = (c.labels @ WEIGHTS) >> 3
        np.testing.assert_allclose(
            x, star[(vx & 4) | C._gray_decode(vx & 3)], rtol=0, atol=1e-15)


class TestTwoAmplitude8psk:
    def test_constant_modulus(self):
        c = C.build_6b4d_2a8psk(1.5)
        norms = np.sum(c.points**2, axis=1)
        assert np.all(np.abs(norms - norms[0]) < 1e-12)
        assert abs(norms.mean() - 1) < 1e-12

    def test_two_rings_eight_phases(self):
        c = C.build_6b4d_2a8psk(1.5)
        for cols in (slice(0, 2), slice(2, 4)):
            z = c.points[:, cols][:, 0] + 1j * c.points[:, cols][:, 1]
            radii = np.unique(np.round(np.abs(z), 12))
            phases = np.unique(np.round(np.angle(z) % (2 * np.pi), 12))
            assert len(radii) == 2
            assert len(phases) == 8

    def test_equal_rings_still_distinct(self):
        c = C.build_6b4d_2a8psk(1.0)
        assert C.min_pairwise_distance(c.points) > 1e-9

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            C.build_6b4d_2a8psk(0.0)


class TestMapping:
    @pytest.fixture(scope="class")
    def c(self):
        return C.build_pm8qam()

    def test_label_roundtrip_all_points(self, c):
        for i in range(c.M):
            idx, pts = C.map_bits_to_symbols(c.labels[i], c)
            assert idx[0] == i
            assert np.array_equal(pts[0], c.points[i])

    def test_bad_length(self, c):
        with pytest.raises(ValueError):
            C.map_bits_to_symbols(np.zeros(7, dtype=np.uint8), c)

    def test_stream(self, c):
        bits = np.tile(c.labels[5], 10).ravel()
        idx, pts = C.map_bits_to_symbols(bits, c)
        assert np.all(idx == 5)

    @pytest.mark.parametrize("bits, lo, hi", [([0, 0, 0, 0, 0, 2], 0, 2),
                                              ([2, 0, 0, 0, 0, 0], 0, 2),
                                              ([0, 0, 0, 0, 0, -1], -1, 0)])
    def test_bits_other_than_0_or_1_rejected(self, c, bits, lo, hi):
        with pytest.raises(ValueError, match=rf"^bits must be 0 or 1, got "
                                             rf"values in \[{lo}, {hi}\]$"):
            C.map_bits_to_symbols(np.array(bits), c)


def export(capsysbinary, *sets: str) -> bytes:
    """export-constellation's stdout at the config that sets gives."""
    assert cli.main(["export-constellation", "--output", "-",
                     *(a for kv in sets for a in ("--set", kv))]) == 0
    return capsysbinary.readouterr().out


class TestBitGenAndExport:
    def test_export_format(self, capsysbinary):
        lines = export(capsysbinary).decode().splitlines()
        assert lines[0] == "index,label_bits,s1,s2,s3,s4"
        assert len(lines) == 65
        first = lines[1].split(",")
        assert first[0] == "0" and len(first[1]) == 6
        assert set(first[1]) <= {"0", "1"}

    def test_export_deterministic(self, capsysbinary):
        assert export(capsysbinary) == export(capsysbinary)

    # sha256 of the stdout bytes at each format's defaults: .17g round-trips
    # a double, so these are as platform-stable as TestBuildFormat's pins
    @pytest.mark.parametrize("name, digest", [("4d64prs", "6255d8e1f74ea24d"),
                                              ("pm8qam", "0f2807f24af0452e"),
                                              ("6b4d_2a8psk", "49f1db57ce086224")])
    def test_export_bytes_pinned(self, capsysbinary, name, digest):
        out = export(capsysbinary, f"format={name}")
        assert hashlib.sha256(out).hexdigest()[:16] == digest


class TestBuildFormat:
    # sha256 of points.tobytes() + labels.tobytes() of each format at its
    # defaults and two other geometries (numpy 2.4, x86-64): points and
    # labels are pinned bit for bit.
    @pytest.mark.parametrize("args, digest", [
        (("4d64prs",), "ad0507a9a46d3d28"),
        (("4d64prs", 1.2, 0.3), "869b29195b7158ee"),
        (("4d64prs", 2.0, 0.7), "b4f3d50526259bb2"),
        (("pm8qam",), "2221334dddc99ee0"),
        (("6b4d_2a8psk",), "e75e9421d5569b8c"),
        (("6b4d_2a8psk", 1.6, 0.45, 1.0), "0a7b195f983d024b"),
        (("6b4d_2a8psk", 1.6, 0.45, 2.5), "b4dacb41c443a5a0"),
    ])
    def test_golden_points_and_labels(self, args, digest):
        c = C.build_format(*args)
        got = hashlib.sha256(c.points.tobytes() + c.labels.tobytes())
        assert got.hexdigest()[:16] == digest

    def test_lone_prs_rho_keeps_default_theta(self):
        got = C.build_format("4d64prs", prs_rho=1.8)
        ref = C.build_4d64prs(1.8, C.DEFAULT_PRS_THETA)
        assert np.array_equal(got.points, ref.points)

    def test_lone_prs_theta_keeps_default_rho(self):
        got = C.build_format("4d64prs", prs_theta=0.3)
        ref = C.build_4d64prs(C.DEFAULT_PRS_RHO, 0.3)
        assert np.array_equal(got.points, ref.points)


class TestOptimize:
    def test_single_point_grid(self):
        rho, theta, gmi = H.optimize_prs_params(8.1, [1.6], [0.45])
        assert rho == 1.6 and theta == 0.45
        assert gmi > 0

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="at least one point"):
            H.optimize_prs_params(8.1, [1.6], [])

    def test_all_degenerate_grid(self):
        # theta outside the valid open interval everywhere
        with pytest.raises(ValueError):
            H.optimize_prs_params(8.1, [1.0], [0.0])

    @pytest.mark.parametrize("rhos, thetas, message", [
        ([-1.0, 1.6], [0.45], r"^prs_rho must be > 0, got -1\.0$"),
        ([1.6], [0.45, 1.0], r"^prs_theta must be in \(0, pi/4\), got 1\.0$"),
    ])
    def test_out_of_range_point_is_not_skipped(self, rhos, thetas, message):
        with pytest.raises(ValueError, match=message):
            H.optimize_prs_params(8.1, rhos, thetas)

    def test_shipped_defaults_are_the_optimum(self, capsys):
        """The shipped geometry is what the shipped command prints."""
        assert cli.main(["optimize-constellation"]) == 0
        assert capsys.readouterr().out.startswith(
            f"rho={C.DEFAULT_PRS_RHO:.10g} theta={C.DEFAULT_PRS_THETA:.10g} gmi=")

    def test_best_beats_neighbors(self):
        from prs4d import demapper as D

        _, _, gmi = H.optimize_prs_params(8.1, np.linspace(1.4, 1.8, 3),
                                          np.linspace(0.35, 0.55, 3))
        # independent re-evaluation of every grid point
        for rho in np.linspace(1.4, 1.8, 3):
            for theta in np.linspace(0.35, 0.55, 3):
                c = C.build_4d64prs(float(rho), float(theta))
                other = D.awgn_gmi_reference(c, 8.1, n_nodes=5)
                assert gmi >= other - 1e-12
