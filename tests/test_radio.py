import math

import numpy as np
import pytest

from wirebeam.radio import (
    AF_FLOOR_DB,
    AoD,
    AntennaConfig,
    LinkBudget,
    aod_batch,
    aod_geometry,
    array_factor,
    element_pattern,
    link_power,
    path_gain_db,
    received_power,
    tx_gain,
    _phase_sum,
)

CFG = AntennaConfig()
BUDGET = LinkBudget()
AF_PEAK = 10.0 * math.log10(32 * 32)  # 30.10300 dB for the 32x32 grid
BORESIGHT_GAIN = 8.0 + AF_PEAK  # 38.10300 dB


def phase_sum_reference(count, spacing, wavelength, psi):
    """|sum_{q<count} exp(j*2*pi*q*spacing*psi/wavelength)| term by term: the
    explicit uniform-array sum that the closed-form kernel replaces."""
    alpha = 2.0 * math.pi * spacing / wavelength * np.asarray(psi, dtype=np.float64)
    return np.abs(np.exp(1j * np.multiply.outer(alpha, np.arange(count))).sum(axis=-1))


def array_factor_reference(zenith, azimuth, steer_zenith, steer_azimuth, cfg):
    """Array factor in dB from the explicit sums, and the smaller of the two axis sums."""
    t, p, ts, ps = (np.deg2rad(np.asarray(a, dtype=np.float64)) for a in (zenith, azimuth, steer_zenith, steer_azimuth))
    psi_v, psi_h = np.cos(t) - np.cos(ts), np.sin(t) * np.sin(p) - np.sin(ts) * np.sin(ps)
    sum_v = phase_sum_reference(cfg.n_v, cfg.spacing_v, cfg.wavelength, psi_v)
    sum_h = phase_sum_reference(cfg.n_h, cfg.spacing_h, cfg.wavelength, psi_h)
    return 10.0 * np.log10((sum_v * sum_h) ** 2 / cfg.n_elements), np.minimum(sum_v, sum_h)


class TestElementPattern:
    def test_boresight_is_peak_gain(self):
        assert element_pattern(90.0, 0.0, CFG) == pytest.approx(8.0, abs=1e-12)

    def test_at_horizontal_beamwidth(self):
        # 12*(65/65)^2 = 12 dB down, below the 30 dB saturation
        assert element_pattern(90.0, 65.0, CFG) == pytest.approx(-4.0, abs=1e-12)

    def test_backlobe_saturates_at_front_back_ratio(self):
        assert element_pattern(90.0, 180.0, CFG) == pytest.approx(8.0 - 30.0, abs=1e-12)

    def test_bounds_over_random_angles(self):
        rng = np.random.default_rng(1)
        theta = rng.uniform(0.0, 180.0, 500)
        phi = rng.uniform(-180.0, 180.0, 500)
        vals = element_pattern(theta, phi, CFG)
        assert np.all(vals <= CFG.g_max + 1e-12)
        assert np.all(vals >= CFG.g_max - CFG.front_back - CFG.sla_v - 1e-12)


class TestArrayFactor:
    def test_coherent_peak(self):
        assert array_factor(90.0, 0.0, 90.0, 0.0, CFG) == pytest.approx(AF_PEAK, abs=1e-9)
        # steering equal to arrival peaks anywhere, not just boresight
        assert array_factor(70.0, 20.0, 70.0, 20.0, CFG) == pytest.approx(AF_PEAK, abs=1e-9)

    def test_peak_is_global_maximum(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(0.0, 180.0, 400)
        phi = rng.uniform(-180.0, 180.0, 400)
        vals = array_factor(theta, phi, 90.0, 0.0, CFG)
        assert np.all(vals <= AF_PEAK + 1e-9)

    def test_first_null_location(self):
        # 32 half-wavelength columns: first null where sin(phi) = 1/16
        az = np.arange(0.01, 8.0, 0.01)
        af = array_factor(90.0, az, 90.0, 0.0, CFG)
        local_min = np.nonzero((af[1:-1] < af[:-2]) & (af[1:-1] < af[2:]))[0]
        assert az[local_min[0] + 1] == pytest.approx(3.58, abs=0.02)

    def test_single_element_is_flat_zero(self):
        cfg1 = AntennaConfig(n_v=1, n_h=1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t, p = rng.uniform(0, 180), rng.uniform(-180, 180)
            assert array_factor(t, p, 90.0, 0.0, cfg1) == pytest.approx(0.0, abs=1e-12)

    def test_azimuth_symmetry(self):
        az = np.linspace(0.1, 179.0, 90)
        left = array_factor(90.0, az, 90.0, 0.0, CFG)
        right = array_factor(90.0, -az, 90.0, 0.0, CFG)
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_floor_applies_at_deep_nulls(self):
        # exact null of the 32-element factor: sin(phi) = 1/16
        phi = math.degrees(math.asin(1.0 / 16.0))
        val = array_factor(90.0, phi, 90.0, 0.0, CFG)
        assert val >= -400.0

    def test_closed_form_matches_explicit_sum(self):
        rng = np.random.default_rng(7)
        n = 4000
        zen, azi = rng.uniform(0.0, 180.0, n), rng.uniform(-180.0, 180.0, n)
        steer_z, steer_a = rng.uniform(0.0, 180.0, n), rng.uniform(-180.0, 180.0, n)
        # half the rows steered within a few degrees of arrival: main lobe and first side lobes
        near = rng.random(n) < 0.5
        steer_z[near] = zen[near] + rng.normal(0.0, 3.0, near.sum())
        steer_a[near] = azi[near] + rng.normal(0.0, 3.0, near.sum())
        ref, smaller_sum = array_factor_reference(zen, azi, steer_z, steer_a, CFG)
        closed = array_factor(zen, azi, steer_z, steer_a, CFG)
        kept = smaller_sum > 1e-6
        assert kept.sum() > 0.99 * n
        assert np.abs(closed - ref)[kept].max() < 1e-9

    def test_closed_form_kernel_matches_explicit_sum_over_psi(self):
        psi = np.linspace(-2.0, 2.0, 40001)
        for count in (1, 2, 7, 32):
            ref = phase_sum_reference(count, CFG.spacing_h, CFG.wavelength, psi)
            with np.errstate(invalid="ignore"):
                closed = _phase_sum(count, CFG.spacing_h, CFG.wavelength, psi)
            kept = ref > 1e-6
            assert np.abs(20.0 * np.log10(closed[kept] / ref[kept])).max() < 1e-9

    def test_grating_lobes_and_boresight(self):
        # half-wavelength spacing: psi = +-2 puts x = +-pi, a grating lobe of full height n
        with np.errstate(invalid="ignore"):
            assert _phase_sum(32, CFG.spacing_h, CFG.wavelength, np.array([-2.0, 0.0, 2.0])).tolist() == [32.0] * 3
        assert array_factor(90.0, 0.0, 90.0, 0.0, CFG) == pytest.approx(AF_PEAK, abs=1e-12)

    def test_exact_nulls_floor_at_af_floor(self):
        # nulls on both axes at once: cos(theta) = 1/16 and sin(theta)*sin(phi) = 1/16
        theta = math.degrees(math.acos(1.0 / 16.0))
        phi = math.degrees(math.asin(1.0 / 16.0 / math.sin(math.radians(theta))))
        ref, _ = array_factor_reference(theta, phi, 90.0, 0.0, CFG)
        assert ref < AF_FLOOR_DB  # the explicit sum lies below the floor there too
        assert array_factor(theta, phi, 90.0, 0.0, CFG) == AF_FLOOR_DB
        batch = array_factor(np.array([theta, 90.0]), np.array([phi, 0.0]), 90.0, 0.0, CFG)
        assert batch.tolist() == [AF_FLOOR_DB, array_factor(90.0, 0.0, 90.0, 0.0, CFG)]


class TestTxGain:
    def test_boresight_sum(self):
        assert tx_gain(90.0, 0.0, 90.0, 0.0, CFG) == pytest.approx(BORESIGHT_GAIN, abs=1e-9)

    def test_single_element_equals_element_pattern(self):
        cfg1 = AntennaConfig(n_v=1, n_h=1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            t, p = rng.uniform(0, 180), rng.uniform(-180, 180)
            assert tx_gain(t, p, 90.0, 0.0, cfg1) == pytest.approx(
                element_pattern(t, p, cfg1), abs=1e-12
            )

    def test_backlobe_bound(self):
        val = tx_gain(90.0, 180.0, 90.0, 0.0, CFG)
        # element part saturates at g_max - front_back; AF can add at most its peak
        assert val <= (8.0 - 30.0) + AF_PEAK + 1e-9


class TestReceivedPower:
    def test_reference_static_value(self):
        # 23 + 38.103 + 8 + 20*log10(0.005 / (4*pi*5)) = -12.8812 dBm
        aod = AoD(distance=5.0, zenith=90.0, azimuth=0.0)
        p = received_power(aod, 90.0, 0.0, CFG, BUDGET)
        assert p == pytest.approx(-12.8812, abs=0.001)
        assert p == pytest.approx(-12.881197714043807, abs=1e-9)

    def test_inverse_square_law(self):
        a1 = AoD(5.0, 90.0, 0.0)
        a2 = AoD(10.0, 90.0, 0.0)
        p1 = received_power(a1, 90.0, 0.0, CFG, BUDGET)
        p2 = received_power(a2, 90.0, 0.0, CFG, BUDGET)
        assert p1 - p2 == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)

    def test_unit_path_loss_distance(self):
        d0 = CFG.wavelength / (4.0 * math.pi)
        p = received_power(AoD(d0, 90.0, 0.0), 90.0, 0.0, CFG, BUDGET)
        assert p == pytest.approx(BUDGET.tx_power + BORESIGHT_GAIN + BUDGET.rx_gain, abs=1e-9)

    def test_strictly_decreasing_in_distance(self):
        powers = [
            received_power(AoD(d, 80.0, 10.0), 90.0, 0.0, CFG, BUDGET)
            for d in np.linspace(1.0, 50.0, 40)
        ]
        assert np.all(np.diff(powers) < 0)

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError):
            AoD(0.0, 90.0, 0.0)
        with pytest.raises(ValueError):
            AoD(-2.0, 90.0, 0.0)


class TestBroadcastPower:
    def test_link_power_matches_scalar_evaluations(self):
        # a scalar call is the batch of one: every row must match it bit for bit
        rng = np.random.default_rng(4)
        n = 20000
        zen, azi = rng.uniform(30.0, 150.0, n), rng.uniform(-170.0, 170.0, n)
        steer_z, steer_a = np.round(zen + rng.normal(0.0, 10.0, n)), np.round(azi + rng.normal(0.0, 10.0, n))
        aods = [AoD(d, z, a) for d, z, a in zip(rng.uniform(1.0, 50.0, n), zen, azi)]
        path = np.array([path_gain_db(aod.distance, CFG.wavelength) for aod in aods])
        batch = link_power(zen, azi, path, steer_z, steer_a, CFG, BUDGET)
        scalar = [received_power(aod, z, a, CFG, BUDGET) for aod, z, a in zip(aods, steer_z, steer_a)]
        assert batch.tolist() == scalar

    def test_path_gain_of_a_batch_matches_scalar_calls(self):
        dist = np.random.default_rng(9).uniform(0.01, 100.0, 2000)
        batch = path_gain_db(dist, CFG.wavelength)
        assert batch.tolist() == [path_gain_db(d, CFG.wavelength) for d in dist.tolist()]
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="distance must be > 0"):
                path_gain_db(np.array([5.0, bad]), CFG.wavelength)
            with pytest.raises(ValueError, match="distance must be > 0"):
                path_gain_db(bad, CFG.wavelength)


class TestAodGeometry:
    def test_batch_rows_match_scalar_formula(self):
        rng = np.random.default_rng(5)
        x_s, x_g = rng.normal(0.0, 5.0, (500, 3)), rng.normal(0.0, 5.0, 3)
        dist, zen, azi = aod_batch(x_s, x_g)
        for row, d, z, a in zip(x_s, dist, zen, azi):
            delta = row - x_g
            ref_d = float(np.linalg.norm(delta))
            ref_z = np.degrees(np.arccos(min(1.0, max(-1.0, delta[2] / ref_d))))
            ref_a = np.degrees(np.arctan2(delta[1], delta[0]))
            ref = (ref_d, ref_z, ref_a + 360.0 if ref_a <= -180.0 else ref_a)
            geo = aod_geometry(row, x_g)
            assert (d, z, a) == (geo.distance, geo.zenith, geo.azimuth) == ref

    def test_axis_aligned(self):
        aod = aod_geometry(np.array([5.0, 0.0, 0.0]), np.zeros(3))
        assert (aod.distance, aod.zenith, aod.azimuth) == pytest.approx((5.0, 90.0, 0.0))

    def test_pole_case_azimuth_zero(self):
        aod = aod_geometry(np.array([0.0, 0.0, 3.0]), np.zeros(3))
        assert aod.zenith == pytest.approx(0.0, abs=1e-12)
        assert aod.azimuth == 0.0

    def test_hand_trigonometry(self):
        aod = aod_geometry(np.array([3.0, 4.0, 0.0]), np.zeros(3))
        assert aod.distance == pytest.approx(5.0, abs=1e-12)
        assert aod.zenith == pytest.approx(90.0, abs=1e-12)
        assert aod.azimuth == pytest.approx(math.degrees(math.atan2(4, 3)), abs=1e-12)
        assert aod.azimuth == pytest.approx(53.13010235, abs=1e-6)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            aod_geometry(np.ones(3), np.ones(3))

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x_g = np.array([1.0, -2.0, 3.0])
        for _ in range(200):
            d = rng.uniform(0.1, 100.0)
            theta = rng.uniform(0.01, 179.99)
            phi = rng.uniform(-179.99, 180.0)
            t, p = math.radians(theta), math.radians(phi)
            x_s = x_g + d * np.array(
                [math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
            )
            aod = aod_geometry(x_s, x_g)
            assert aod.distance == pytest.approx(d, abs=1e-10 * max(1.0, d))
            assert aod.zenith == pytest.approx(theta, abs=1e-10)
            assert aod.azimuth == pytest.approx(phi, abs=1e-8)


# domains the radio path feeds each ufunc: angles in degrees and radians, phase
# arguments, normalized separations, xy separations, path-gain ratios, squared norms
UFUNC_INPUTS = {
    "radians": [(-400.0, 400.0)],
    "degrees": [(-4.0, 4.0)],
    "sin": [(-10.0, 10.0)],
    "cos": [(-10.0, 10.0)],
    "arccos": [(-1.0, 1.0)],
    "arctan2": [(-5.0, 5.0), (-5.0, 5.0)],
    "log10": [(1e-6, 1e3)],
    "sqrt": [(0.0, 1e4)],
}


class TestUfuncBits:
    @pytest.mark.parametrize("name", sorted(UFUNC_INPUTS))
    def test_same_bits_alone_in_a_window_and_in_a_batch(self, name):
        # scalar entry points are batches of one, so they match batched rows only if
        # numpy gives an element the same bits at any array length and position
        rng = np.random.default_rng(8)
        n, ufunc = 200_003, getattr(np, name)
        args = [rng.uniform(lo, hi, n) for lo, hi in UFUNC_INPUTS[name]]
        batch = ufunc(*args)
        rows = rng.choice(np.arange(3, n - 3), 5000, replace=False)
        alone = np.array([ufunc(*(float(a[i]) for a in args)) for i in rows])
        window = np.array([ufunc(*(a[i - 3 : i + 4] for a in args))[3] for i in rows])
        assert alone.view(np.int64).tolist() == batch[rows].view(np.int64).tolist()
        assert window.view(np.int64).tolist() == batch[rows].view(np.int64).tolist()


class TestConfigValidation:
    def test_antenna_invariants(self):
        with pytest.raises(ValueError):
            AntennaConfig(n_v=0)
        with pytest.raises(ValueError):
            AntennaConfig(spacing_h=0.0)
        with pytest.raises(ValueError):
            AntennaConfig(theta_3db=-1.0)
        with pytest.raises(ValueError):
            AntennaConfig(wavelength=0.0)
        with pytest.raises(ValueError):
            AntennaConfig(wavelength=-1.0)
