import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prs4d import channel as ch
from prs4d.channel import spectral_filter
from prs4d.txdsp import SampledSignal


def random_signal(n=4096, fs=180e9, seed=0, power_w=1e-3):
    rng = np.random.default_rng(seed)
    scale = np.sqrt(power_w / 2)
    return SampledSignal(np.stack([
        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
    ]), fs=fs)


def mean_power(sig):
    return np.mean(np.abs(sig.x) ** 2 + np.abs(sig.y) ** 2)


def kerr_on_copy(sig, gamma, dz_eff):
    """The Kerr rotor on a copy of sig's field, as one step of ssfm_span."""
    return replace(sig, field=ch._kerr(sig.field.copy(), gamma, dz_eff))


def disperse(sig, beta2, dz):
    """D(dz) on a copy of sig's field, by the _phasor and spectral_filter
    that ssfm_span runs."""
    phasor = ch._phasor(sig, beta2, dz)
    fld = spectral_filter(sig.field.copy(), phasor, ch._twiddles(sig.n))
    return replace(sig, field=fld)


def unfolded_span(sig, fiber, step_km):
    """Oracle for ssfm_span: the one-thread symmetric stepper ending in its
    own half-step D(h_n/2), then inline_cdc as a separate FFT pair."""
    alpha = fiber.alpha_db_km * ch._LN10 / 10.0
    n_full, rem = divmod(fiber.length_km, step_km)
    steps = [step_km] * int(round(n_full))
    if rem > 1e-9 * fiber.length_km:
        steps.append(rem)
    halves = [a / 2 + b / 2 for a, b in zip([0] + steps, steps + [0])]
    ph = {half: ch._phasor(sig, fiber.beta2_s2_km, half) for half in set(halves)}
    tw = ch._twiddles(sig.n)
    fld = sig.field.copy()
    for dz, half in zip(steps, halves):
        spectral_filter(fld, ph[half], tw)
        dz_eff = (1.0 - np.exp(-alpha * dz)) / alpha if alpha > 0 else dz
        ch._kerr(fld, fiber.gamma_w_km, dz_eff, np.exp(-alpha * dz / 2.0))
    spectral_filter(fld, ph[halves[-1]], tw)
    del ph
    return ch.inline_cdc(replace(sig, field=fld), fiber)


def traced_peak(fn, *args):
    """Peak traced memory of fn(*args) in bytes, counting only what the
    call allocates (its arguments were allocated before tracing)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LEAF = ch.FiberParams()  # paper fiber: 0.219 dB/km, 4.255 ps/nm/km, 1.464 /W/km
SHORT = ch.FiberParams(length_km=1.0)  # paper fiber, 1 km span


class TestFiberParams:
    @pytest.mark.parametrize("name", ["alpha_db_km", "disp_ps_nm_km",
                                      "gamma_w_km", "length_km"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ch.FiberParams(**{name: value})

    @pytest.mark.parametrize("kw, name", [
        ({"alpha_db_km": "0.2"}, "alpha_db_km"), ({"length_km": True}, "length_km"),
        ({"gamma_w_km": None}, "gamma_w_km"),
    ])
    def test_bad_field_named(self, kw, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ch.FiberParams(**kw)

    def test_effective_length(self):
        """(1 - e^{-a dz})/a with a = alpha ln(10)/10 in 1/km; dz when lossless."""
        a = 0.219 * np.log(10.0) / 10.0
        got = ch.FiberParams(alpha_db_km=0.219).effective_length_km(10.0)
        assert got == pytest.approx((1.0 - np.exp(-10.0 * a)) / a, rel=1e-14)
        assert ch.FiberParams(alpha_db_km=0.0).effective_length_km(10.0) == 10.0

    @pytest.mark.parametrize("alpha_db_km", [1e-18, 1e-14, 1e-10])
    def test_effective_length_tends_to_the_step(self, alpha_db_km):
        """At a tiny attenuation L_eff = dz (1 - a dz/2 + ...), where
        1 - e^{-a dz} would cancel (to 0 at 1e-18 dB/km)."""
        a = alpha_db_km * np.log(10.0) / 10.0
        got = ch.FiberParams(alpha_db_km=alpha_db_km).effective_length_km(0.1)
        assert got == pytest.approx(0.1 * (1 - a * 0.1 / 2), rel=1e-15)


class TestLinkConfig:
    @pytest.mark.parametrize("kw, name", [
        ({"n_spans": 2.5}, "n_spans"), ({"n_spans": 2.0}, "n_spans"),
        ({"n_spans": 0}, "n_spans"),
        ({"nf_db": np.nan}, "nf_db"),
        ({"nf_db": -np.inf}, "nf_db"),
        ({"step_km": np.nan}, "step_km"), ({"step_km": np.inf}, "step_km"),
        ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
        ({"step_km": "1"}, "step_km"), ({"step_km": True}, "step_km"),
        ({"nf_db": "5"}, "nf_db"),
        ({"ase_enabled": "false"}, "ase_enabled"), ({"ase_enabled": 0}, "ase_enabled"),
        ({"seed": True}, "seed"), ({"span": None}, "span"),
    ])
    def test_bad_field_named(self, kw, name):
        with pytest.raises(ValueError, match=f"^{name} must be") as err:
            ch.LinkConfig(**{"span": SHORT, "n_spans": 1, **kw})
        assert "\n" not in str(err.value)

    def test_lossless_span_with_ase_fails_before_the_first_span(self, monkeypatch):
        def no_span(*args):
            raise AssertionError("ssfm_span ran")

        monkeypatch.setattr(ch, "ssfm_span", no_span)
        with pytest.raises(ValueError, match=r"^alpha_db_km must be > 0 with ase_enabled"):
            ch.propagate_link(random_signal(n=64), ch.LinkConfig(
                span=ch.FiberParams(alpha_db_km=0.0), n_spans=2))

    def test_numpy_integer_span_count(self):
        link = ch.LinkConfig(span=SHORT, n_spans=np.int64(3))
        assert link.n_spans == 3


class TestDispersion:
    def test_beta2_value(self):
        # D = 4.255 ps/nm/km at 1550 nm
        assert LEAF.beta2_s2_km * 1e24 == pytest.approx(-5.427, abs=0.001)

    def test_round_trip_identity(self):
        sig = random_signal()
        out = disperse(disperse(sig, LEAF.beta2_s2_km, 80.0),
                       LEAF.beta2_s2_km, -80.0)
        err = np.max(np.abs(out.x - sig.x)) / np.max(np.abs(sig.x))
        assert err < 1e-12

    def test_tone_acquires_analytic_phase(self):
        n, fs = 1024, 100e9
        k = 37
        t = np.arange(n) / fs
        tone = np.exp(2j * np.pi * (k * fs / n) * t)
        sig = SampledSignal(np.stack([tone, tone]), fs=fs)
        beta2, dz = -5e-24, 50.0
        out = disperse(sig, beta2, dz)
        w = 2 * np.pi * k * fs / n
        expect = tone * np.exp(0.5j * beta2 * w**2 * dz)
        assert np.max(np.abs(out.x - expect)) < 1e-10
        assert np.max(np.abs(out.y - expect)) < 1e-10


class TestNonlinear:
    def test_magnitude_preserved_exactly(self):
        """The Kerr step changes no amplitude, exactly up to rounding.

        "Exactly" means to the rounding bound of one complex multiply plus
        two |.| evaluations, with unit roundoff u = eps/2: rotor modulus
        |exp(j phi)| - 1 ~ u, the complex multiply sqrt(5) u (Brent,
        Percival & Zimmermann, Math. Comp. 2007), and each |.| up to 2 u.
        That sums to ~7.2 u, under 4 eps. Bit equality is not a property of
        IEEE arithmetic: each component of x * e^{j phi} is rounded, so
        |x * e^{j phi}| == |x| holds only by chance (about half the samples
        here differ by 1-3 ulp). A stray loss of one 0.1 km step is ~1e13 eps.
        """
        sig = random_signal()
        out = kerr_on_copy(sig, 1.464, 20.0)
        rtol = 4 * np.finfo(float).eps
        np.testing.assert_allclose(np.abs(out.x), np.abs(sig.x),
                                   rtol=rtol, atol=0)
        np.testing.assert_allclose(np.abs(out.y), np.abs(sig.y),
                                   rtol=rtol, atol=0)

    def test_cw_spm_phase(self):
        p = 2e-3
        sig = SampledSignal([np.full(64, np.sqrt(p)), np.zeros(64)], fs=1e9)
        out = kerr_on_copy(sig, 1.464, 80.0)
        phase = np.angle(out.x[0])
        assert phase == pytest.approx((8 / 9) * 1.464 * p * 80.0, abs=1e-12)

    def test_gamma_zero_identity(self):
        sig = random_signal()
        out = kerr_on_copy(sig, 0.0, 80.0)
        assert np.array_equal(out.x, sig.x)

    def test_blocks_equal_whole_field_rotor(self):
        """The rotor in _KERR_BLOCK-sample blocks, the last one short,
        equals the same elementwise steps over the whole field bit for bit."""
        sig = random_signal(n=3 * ch._KERR_BLOCK + 5, power_w=10e-3)
        mag = np.abs(sig.field)
        mag *= mag
        p = mag[0] + mag[1]
        p *= (8.0 / 9.0) * 1.464 * 0.9
        rot = np.empty(sig.n, complex)
        rot.real, rot.imag = np.cos(p), np.sin(p)
        rot *= 0.98
        out = ch._kerr(sig.field.copy(), 1.464, 0.9, 0.98)
        assert out.tobytes() == (sig.field * rot).tobytes()


class TestSsfmSpan:
    def test_linear_reduction(self):
        """alpha = 0, gamma = 0: the fiber's dispersion D(L) and the folded
        CDC D(-L) cancel, so the span is transparent."""
        sig = random_signal()
        fib = ch.FiberParams(alpha_db_km=0.0, gamma_w_km=0.0)
        out = ch.ssfm_span(sig, fib, 0.5)
        assert np.max(np.abs(out.x - sig.x)) / np.max(np.abs(sig.x)) < 1e-10

    def test_lossless_power_conserved(self):
        sig = random_signal()
        fib = ch.FiberParams(alpha_db_km=0.0)
        out = ch.ssfm_span(sig, fib, 0.5)
        assert mean_power(out) == pytest.approx(mean_power(sig), rel=1e-9)

    def test_cw_spm_analytic(self):
        p = 1e-3
        fib = ch.FiberParams(alpha_db_km=0.0, disp_ps_nm_km=0.0)
        sig = SampledSignal([np.full(256, np.sqrt(p)), np.zeros(256)],
                            fs=1e9)
        out = ch.ssfm_span(sig, fib, 0.1)
        expect = (8 / 9) * fib.gamma_w_km * p * fib.length_km
        assert abs(np.angle(out.x[0]) - expect) < 1e-6

    def test_partial_final_step(self):
        sig = random_signal(n=1024)
        fib = ch.FiberParams(alpha_db_km=0.0, gamma_w_km=0.0, length_km=1.0)
        out = ch.ssfm_span(sig, fib, 0.3)  # 3 full steps + 0.1 remainder
        # transparent only if the steps cover the whole 1 km the CDC undoes
        assert np.max(np.abs(out.x - sig.x)) / np.max(np.abs(sig.x)) < 1e-10

    def test_step_halving_better_than_first_order(self):
        """Nonlinear paper span: each halving of the step cuts the field
        error against a 1/16 km reference by more than 2x."""
        sig = random_signal(power_w=10e-3)  # 10 mW per polarization

        def field(step):
            return ch.ssfm_span(sig, LEAF, step).field

        ref = field(1 / 16)
        errs = [np.linalg.norm(field(s) - ref) / np.linalg.norm(ref)
                for s in (8.0, 4.0, 2.0, 1.0)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine > 2.0

    def test_matches_plain_reference_stepper(self):
        """Lossy nonlinear 1 km span in 0.3 km steps (0.1 km remainder)
        against a plain stepper: stacked FFT pair with a fresh phasor at
        every merged half-step, Manakov rotor, then the loss; the span's
        CDC -L is folded into the last disperse."""
        sig = random_signal(n=1024, power_w=10e-3)  # 10 mW per polarization
        alpha = SHORT.alpha_db_km * np.log(10) / 10
        w2 = (2 * np.pi * np.fft.fftfreq(sig.n, 1 / sig.fs)) ** 2

        def disperse(f, dz):
            phasor = np.exp(0.5j * SHORT.beta2_s2_km * w2 * dz)
            return np.fft.ifft(np.fft.fft(f, axis=1) * phasor, axis=1)

        fld, prev = sig.field, 0.0
        for dz in (0.3, 0.3, 0.3, 0.1):
            fld = disperse(fld, (prev + dz) / 2)
            p = np.abs(fld[0]) ** 2 + np.abs(fld[1]) ** 2
            dz_eff = (1 - np.exp(-alpha * dz)) / alpha
            fld = fld * np.exp(1j * (8 / 9) * SHORT.gamma_w_km * dz_eff * p)
            fld = fld * np.exp(-alpha * dz / 2)
            prev = dz
        ref = disperse(fld, prev / 2 - SHORT.length_km)

        out = ch.ssfm_span(sig, SHORT, 0.3)
        err = np.linalg.norm(out.field - ref)
        assert err / np.linalg.norm(ref) <= 1e-14

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}],
                             ids=["one_cpu", "two_cpus"])
    @pytest.mark.parametrize("n", [301, 4093, 4097, 2**17])
    def test_bit_identical_to_single_thread_stepper(self, monkeypatch, n,
                                                    cpus):
        """Either schedule (one thread, or rows through dispersion and
        sample halves through the rotor on two; odd n makes the halves
        unequal) equals spectral_filter + whole-field _kerr bit for bit
        over a 1 km span in 0.3 km steps (0.1 km remainder), the last
        half-step folded with the CDC. The four-step rows n1 are 43, 1
        (4093 is prime), 17 and 64."""
        kerr, threads = ch._kerr, set()

        def spy(*args):
            threads.add(threading.get_ident())
            return kerr(*args)

        monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(ch, "_kerr", spy)
        sig = random_signal(n=n, power_w=10e-3)
        alpha = SHORT.alpha_db_km * ch._LN10 / 10.0
        n_full, rem = divmod(SHORT.length_km, 0.3)
        steps = [0.3] * int(n_full) + [rem]
        halves = [a / 2 + b / 2 for a, b in zip([0] + steps, steps + [0])]
        cdc = halves[-1] - SHORT.length_km
        ph = {dz: ch._phasor(sig, SHORT.beta2_s2_km, dz)
              for dz in set(halves + [cdc])}
        tw = ch._twiddles(n)
        fld = sig.field.copy()
        for dz, half in zip(steps, halves):
            spectral_filter(fld, ph[half], tw)
            dz_eff = -np.expm1(-alpha * dz) / alpha
            kerr(fld, SHORT.gamma_w_km, dz_eff, np.exp(-alpha * dz / 2.0))
        spectral_filter(fld, ph[cdc], tw)

        out = ch.ssfm_span(sig, SHORT, 0.3)
        assert np.array_equal(out.field, fld)
        assert len(threads) == len(cpus)


def in_transform_order(h):
    """A response on the natural fftfreq bins, moved to spectral_filter's
    four-step order: bin k1 + n1 k2 at [k1, k2]."""
    return np.ascontiguousarray(h.reshape(-1, ch._fft_rows(h.size)).T)


def mirrored(h, n1):
    """The full (n1, n2) table of an even response given by its rows
    k1 <= n1 // 2: bin n - k of row k1 >= 1 is at [n1 - k1, n2 - 1 - k2]."""
    full = np.empty((n1, h.shape[1]), complex)
    full[:len(h)] = h
    for k1 in range(len(h), n1):
        full[k1] = h[n1 - k1, ::-1]
    return full


class TestSpectralFilter:
    def test_in_place_and_equal_to_stacked_pair(self):
        """Every row against the plain 1D pair, at unit, prime, odd and
        even n, up to an 11-channel paper-width frame (2^13 x 25 samples)
        and 2^20."""
        rng = np.random.default_rng(3)
        for n in [1, 2, 3, 64, 65, 127, 301, 1000, 4097, 2**17, 204800, 2**20]:
            fld = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
            h = np.exp(1j * rng.standard_normal(n))
            ref = np.fft.ifft(np.fft.fft(fld, axis=1) * h, axis=1)
            out = ch.spectral_filter(fld, in_transform_order(h), ch._twiddles(n))
            assert out is fld
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref)), n

    @pytest.mark.parametrize("n", [1, 2, 3, 65, 301, 4093, 4097, 2**17, 204800])
    def test_half_table_equals_full_table(self, n):
        """_phasor's rows k1 <= n1 // 2, mirrored inside spectral_filter,
        filter the field bit for bit as the whole table does; n1 is 1 at
        4093, odd at 3, 65, 301 and 4097. At n = 3 alone the mirror is one
        bin, and numpy's in-place complex multiply of a lone element rounds
        unlike its vector loop (numpy 2.4): there the field may differ in
        its last bits."""
        sig = random_signal(n=n)
        h = ch._phasor(sig, LEAF.beta2_s2_km, 0.05 - 80.0)
        full = mirrored(h, ch._fft_rows(n))
        tw = ch._twiddles(n)
        out = spectral_filter(sig.field.copy(), h, tw)
        ref = spectral_filter(sig.field.copy(), full, tw)
        if n == 3:
            assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))
        else:
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n, n1", [(1, 1), (64, 64), (127, 1), (301, 43),
                                       (2**17, 64), (204800, 64), (2**20, 64)])
    def test_rows_are_the_largest_divisor_up_to_the_constant(self, n, n1):
        assert ch._FFT_ROWS == 64
        assert ch._fft_rows(n) == n1 and ch._twiddles(n).shape == (n1, n // n1)


def test_numpy_fft_from_two_threads_equals_serial():
    """numpy's FFT plan cache (16 plans) takes no lock, and ssfm_span runs
    transforms on two threads: at 24 lengths, so the threads also evict
    each other's plans, every transform equals its serial result."""
    lengths = [60 + 7 * k for k in range(12)] + [2**k * 3 for k in range(4, 16)]
    rng = np.random.default_rng(5)
    xs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in lengths]
    serial = [np.fft.fft(x) for x in xs]
    start, bad = threading.Barrier(2), []

    def work(order):
        start.wait()
        for _ in range(200):
            for k in order:
                if not np.array_equal(np.fft.fft(xs[k]), serial[k]):
                    bad.append(lengths[k])

    order = list(range(len(lengths)))
    helper = threading.Thread(target=work, args=(order[::-1],), daemon=True)
    helper.start()
    work(order)
    helper.join(timeout=60)
    assert not helper.is_alive() and bad == []


class TestFoldedCdc:
    """ssfm_span is one span of the dispersion-managed link: the fiber's
    last half-step D(h_n/2) and the inline CDC D(-L) merge into one FFT
    pair, D(h_n/2 - L)."""

    @pytest.mark.parametrize("step_km", [80.0, 10.0, 1.0],
                             ids=["1_step", "8_steps", "80_steps"])
    def test_matches_unfolded_chain(self, step_km):
        sig = random_signal(power_w=10e-3)  # 10 mW per polarization
        out = ch.ssfm_span(sig, LEAF, step_km)
        ref = unfolded_span(sig, LEAF, step_km)
        err = np.linalg.norm(out.field - ref.field)
        assert err / np.linalg.norm(ref.field) <= 1e-13

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}],
                             ids=["one_cpu", "two_cpus"])
    def test_one_fft_pair_per_half_step(self, monkeypatch, cpus):
        """A span of k steps filters each polarization k + 1 times, and
        propagate_link never calls inline_cdc."""
        rows = []

        def counted(fld, h, tw):
            rows.append(len(fld))
            return spectral_filter(fld, h, tw)

        def no_cdc(*args):
            raise AssertionError("inline_cdc called")

        monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(ch, "spectral_filter", counted)
        monkeypatch.setattr(ch, "inline_cdc", no_cdc)
        sig = random_signal(n=1024)
        ch.ssfm_span(sig, SHORT, 0.3)  # 3 full steps + 0.1 remainder
        assert sum(rows) == 2 * (4 + 1)
        rows.clear()
        link = ch.LinkConfig(span=SHORT, n_spans=3, step_km=0.5, seed=1)
        list(ch.propagate_link(sig, link))  # the spans run as it yields
        assert sum(rows) == 3 * 2 * (2 + 1)

    @pytest.mark.parametrize("fiber, step_km", [(SHORT, 0.3), (LEAF, 10.0)],
                             ids=["remainder", "equal_steps"])
    def test_peak_memory_not_above_unfolded_chain(self, monkeypatch, fiber,
                                                  step_km):
        """The folded phasor is built after the step phasors are dropped,
        so it adds nothing to the span's peak (a quarter frame if built up
        front). One thread: the helper's ~10 kB of bookkeeping does not
        depend on the fold and is left out of both sides."""
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        sig = random_signal(n=2**15, power_w=10e-3)

        def peak(span):
            tracemalloc.start()
            try:
                span(sig, fiber, step_km)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(ch.ssfm_span) <= peak(unfolded_span)

    def test_one_step_phasor_alive_at_a_time(self, monkeypatch):
        """Eight 10 km steps (phasors D(5 km), D(10 km), then the CDC fold)
        peak within 0.2 frame of one 80 km step: each run of equal
        half-steps drops its phasor before the next is built. Holding
        D(h/2) and D(h) through the span costs a quarter frame more."""
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        sig = random_signal(n=2**15, power_w=10e-3)
        frame_bytes = sig.field.nbytes
        ch.ssfm_span(sig, LEAF, 80.0)  # numpy.fft's lazy import, untraced
        one = traced_peak(ch.ssfm_span, sig, LEAF, 80.0)
        eight = traced_peak(ch.ssfm_span, sig, LEAF, 10.0)
        assert eight - one <= 0.2 * frame_bytes

    def test_span_peak_is_its_frames(self, monkeypatch):
        """One span's traced peak is its working copy, the twiddle table,
        one step phasor of rows k1 <= n1 // 2 and the rotor's scratch, with
        1/64 frame for bookkeeping and ufunc buffers: no frame-sized build
        temporary. One thread, so the helper's bookkeeping is left out."""
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        n = 2**17
        sig = random_signal(n=n, power_w=10e-3)
        n1 = ch._fft_rows(n)
        frames = (sig.field.nbytes + ch._twiddles(n).nbytes
                  + sig.field.nbytes // 2 * (n1 // 2 + 1) // n1
                  + ch._KERR_BLOCK * (8 + 16))
        ch.ssfm_span(sig, LEAF, 80.0)  # numpy.fft's lazy import, untraced
        for step_km in (80.0, 10.0):
            peak = traced_peak(ch.ssfm_span, sig, LEAF, step_km)
            assert peak <= frames + sig.field.nbytes / 64, step_km

    @pytest.mark.parametrize("fiber, step_km", [(SHORT, 0.3), (LEAF, 0.1)],
                             ids=["short_0.3km", "leaf_0.1km"])
    def test_every_phasor_built_is_applied(self, monkeypatch, fiber, step_km):
        """No unused half-step phasor: h_n/2 enters only the CDC fold, also
        after a remainder step (divmod(80, 0.1) leaves 0.0999... km)."""
        built, applied = [], set()  # (dz, phasor) pairs, held so no id is reused
        phasor = ch._phasor

        def spy_phasor(sig, beta2, dz):
            out = phasor(sig, beta2, dz)
            built.append((dz, out))
            return out

        def spy_filter(fld, h, tw):
            applied.update(dz for dz, b in built if b is h)
            return spectral_filter(fld, h, tw)

        monkeypatch.setattr(ch, "_phasor", spy_phasor)
        monkeypatch.setattr(ch, "spectral_filter", spy_filter)
        ch.ssfm_span(random_signal(n=64), fiber, step_km)
        assert sorted(dz for dz, _ in built) == sorted(applied)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 301, 4093, 4096, 4097,
                                   2**17, 204800])
    def test_phasor_mirror_bit_identical(self, n):
        """Each response's rows k1 <= n1 // 2 and their mirror are the
        exponential on every fftfreq bin, by value bit for bit, in the
        transform's bin order: n1 = 1 at n = 1 and 4093 (prime), odd n1 at
        3, 65, 301 and 4097, even n1 at 2, 64, 4096, 2^17 and 204800."""
        sig = SampledSignal(np.zeros((2, n)), fs=180e9)
        n1 = ch._fft_rows(n)
        dzs = [0.05, 0.15, 1 / 3, 80.0, 0.05 - 80.0]
        w2 = (2 * np.pi * np.fft.fftfreq(n, d=1.0 / sig.fs)) ** 2
        for dz in dzs:
            ref = np.exp(0.5j * LEAF.beta2_s2_km * w2 * dz)
            h = ch._phasor(sig, LEAF.beta2_s2_km, dz)
            assert h.shape == (n1 // 2 + 1, n // n1)
            assert np.array_equal(mirrored(h, n1), in_transform_order(ref))


class TestInputsUnchanged:
    """The operators work in place on private copies only: the caller's
    field comes back bit for bit and shares no memory with the output."""

    OPS = {
        "_kerr": lambda s: kerr_on_copy(s, 1.464, 1.0),
        "ssfm_span": lambda s: ch.ssfm_span(s, SHORT, 0.3),
        "inline_cdc": lambda s: ch.inline_cdc(s, LEAF),
        "propagate_link": lambda s: [*ch.propagate_link(s, ch.LinkConfig(
            span=SHORT, n_spans=2, step_km=0.3))][-1],
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_caller_field_unchanged(self, name):
        sig = random_signal(n=1024, power_w=10e-3)
        field = sig.field.copy()
        out = self.OPS[name](sig)
        assert np.array_equal(sig.field, field)
        assert not np.shares_memory(out.field, sig.field)


class TestInlineCdc:
    def test_inverse_of_span_dispersion(self):
        sig = random_signal()
        fib = ch.FiberParams(alpha_db_km=0.0, gamma_w_km=0.0)
        disp = disperse(sig, fib.beta2_s2_km, fib.length_km)
        out = ch.inline_cdc(disp, fib)
        err = np.max(np.abs(out.x - sig.x)) / np.max(np.abs(sig.x))
        assert err < 1e-10

    def test_double_application_is_not_identity(self):
        sig = random_signal()
        once = ch.inline_cdc(sig, LEAF)
        twice = ch.inline_cdc(once, LEAF)
        assert np.max(np.abs(twice.x - sig.x)) / np.max(np.abs(sig.x)) > 1e-3


class TestEdfa:
    def test_span_loss_value(self):
        assert LEAF.loss_db == pytest.approx(17.52)

    def test_noiseless_pure_scaling(self):
        sig = random_signal()
        rng = np.random.default_rng(0)
        out = ch.edfa(sig, ch.LinkConfig(LEAF, 1, ase_enabled=False), rng)
        g = 10 ** (17.52 / 20)
        assert np.array_equal(out.x, sig.x * g)

    def test_ase_power_matches_formula(self):
        n = 2**20
        sig = SampledSignal(np.zeros((2, n)), fs=720e9)
        rng = np.random.default_rng(1)
        gain_db, nf_db = 17.52, 5.0
        out = ch.edfa(sig, ch.LinkConfig(LEAF, 1, nf_db=nf_db), rng)
        g = 10 ** (gain_db / 10)
        n_sp = 10 ** (nf_db / 10) / 2
        h_nu = ch.H_PLANCK * ch.C_LIGHT / 1550e-9
        expect = n_sp * h_nu * (g - 1) * sig.fs
        measured = np.mean(np.abs(out.x) ** 2)
        assert measured == pytest.approx(expect, rel=0.01)
        # photon energy sanity: h*nu at 1550 nm
        assert h_nu == pytest.approx(1.28e-19, rel=0.01)

    def test_ase_equals_per_polarisation_draws(self):
        """The ASE adds, bit for bit, what four n-sample draws in the
        order x re, x im, y re, y im would add."""
        sig = random_signal(n=1000)
        out = ch.edfa(sig, ch.LinkConfig(LEAF, 1), np.random.default_rng(3))
        rng, g = np.random.default_rng(3), 10 ** (17.52 / 10)
        n_sp = 10 ** (5.0 / 10) / 2.0
        h_nu = ch.H_PLANCK * ch.C_LIGHT / (1550.0 * 1e-9)
        sigma = np.sqrt(n_sp * h_nu * (g - 1.0) * sig.fs / 2.0)
        for got, pol in zip(out.field, sig.field):
            ref = pol * np.sqrt(g) + sigma * (rng.standard_normal(1000)
                                              + 1j * rng.standard_normal(1000))
            assert np.array_equal(got, ref)

    def test_ase_scratch_is_one_quadrature(self):
        """Beside its output frame the EDFA holds one n-sample quadrature
        of ASE (a quarter frame), not a (2, 2, n) draw (a whole frame)."""
        sig = random_signal(n=2**15)
        peak = traced_peak(ch.edfa, sig, ch.LinkConfig(LEAF, 1),
                           np.random.default_rng(0))
        assert peak <= 1.3 * sig.field.nbytes


class TestPropagateLink:
    def test_transparent_link_identity(self):
        sig = random_signal(n=8192, seed=5)
        fib = ch.FiberParams(gamma_w_km=0.0)
        link = ch.LinkConfig(span=fib, n_spans=5, step_km=1.0,
                             ase_enabled=False, seed=0)
        *_, out = ch.propagate_link(sig, link)
        rel = np.sqrt(np.sum(np.abs(out.x - sig.x) ** 2)
                      / np.sum(np.abs(sig.x) ** 2))
        assert rel < 1e-9

    def test_same_seed_bit_identical(self):
        sig = random_signal(n=2048, seed=6)
        link = ch.LinkConfig(span=LEAF, n_spans=2, step_km=2.0, seed=99)
        *_, a = ch.propagate_link(sig, link)
        *_, b = ch.propagate_link(sig, link)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_no_pmd_identical_linear_operators(self):
        """X and Y see the same linear evolution."""
        rng = np.random.default_rng(7)
        f = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        sig = SampledSignal(np.stack([f, f]), fs=100e9)
        fib = ch.FiberParams(gamma_w_km=0.0)
        link = ch.LinkConfig(span=fib, n_spans=3, step_km=1.0,
                             ase_enabled=False, seed=0)
        *_, out = ch.propagate_link(sig, link)
        assert np.array_equal(out.x, out.y)
