import math
import re
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvlevels.clearsky import (
    GHI_SCALE_WM2,
    ClearSkyProfile,
    clearsky_ghi,
    clearsky_power,
    clearsky_profile,
    solar_declination,
    solar_position,
    solar_zenith,
)
from pvlevels.core import HOUR, SiteConfig, utc_datetime

SITE = SiteConfig(
    latitude=39.74,
    longitude=-105.0,
    tz_offset=-7.0,
    dc_rating_kw=100.0,
    ac_rating_kw=100.0,
    system_efficiency=0.96,
)


class TestDeclination:
    def test_equinox_near_zero(self):
        # day 81: 284 + 81 = 365, the sine argument wraps to a full turn
        assert abs(solar_declination(81)) < 1e-12

    def test_summer_solstice_near_max(self):
        assert solar_declination(172) == pytest.approx(23.45, abs=5e-4)

    def test_winter_solstice_near_min(self):
        assert solar_declination(355) == pytest.approx(-23.45, abs=5e-3)

    def test_bounded_all_year(self):
        values = [solar_declination(n) for n in range(1, 367)]
        assert all(-23.45 - 1e-9 <= v <= 23.45 + 1e-9 for v in values)

    @pytest.mark.parametrize("day", [0, 367, -5])
    def test_out_of_range(self, day):
        with pytest.raises(ValueError, match=r"^day_of_year out of \[1, 366\]"):
            solar_declination(day)


class TestZenith:
    def test_noon_aligned_sun(self):
        # at solar noon the zenith is simply the latitude/declination gap
        assert solar_zenith(39.74, 23.45, 0.0) == pytest.approx(16.29, abs=1e-9)

    def test_symmetric_in_hour_angle(self):
        a = solar_zenith(40.0, 10.0, 37.5)
        b = solar_zenith(40.0, 10.0, -37.5)
        assert a == pytest.approx(b, abs=1e-12)

    def test_equator_equinox_sunrise(self):
        assert solar_zenith(0.0, 0.0, 90.0) == pytest.approx(90.0, abs=1e-9)

    def test_latitude_out_of_range(self):
        with pytest.raises(ValueError):
            solar_zenith(95.0, 0.0, 0.0)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            solar_zenith(40.0, math.nan, 0.0)

    @given(
        lat=st.floats(-90, 90),
        dec=st.floats(-23.45, 23.45),
        ha=st.floats(-180, 180),
    )
    def test_always_in_range(self, lat, dec, ha):
        z = solar_zenith(lat, dec, ha)
        assert 0.0 <= z <= 180.0


class TestHaurwitz:
    def test_overhead_sun(self):
        assert clearsky_ghi(0.0) == pytest.approx(1037.16, abs=0.01)

    def test_sixty_degrees(self):
        assert clearsky_ghi(60.0) == pytest.approx(489.85, abs=0.01)

    def test_horizon_and_below(self):
        assert clearsky_ghi(90.0) == 0.0
        assert clearsky_ghi(120.0) == 0.0
        assert clearsky_ghi(180.0) == 0.0

    def test_monotone_decreasing_above_horizon(self):
        zeniths = np.linspace(0.0, 89.9, 300)
        ghis = [clearsky_ghi(z) for z in zeniths]
        assert all(a > b for a, b in zip(ghis, ghis[1:]))

    def test_bounded_by_scale(self):
        for z in np.linspace(0, 180, 100):
            assert 0.0 <= clearsky_ghi(z) <= GHI_SCALE_WM2

    def test_zenith_out_of_range(self):
        with pytest.raises(ValueError):
            clearsky_ghi(-1.0)
        with pytest.raises(ValueError):
            clearsky_ghi(181.0)


class TestClearskyPower:
    def test_linear_region(self):
        ghi = clearsky_ghi(0.0)
        assert clearsky_power(ghi, SITE) == pytest.approx(99.57, abs=0.01)

    def test_inverter_clip(self):
        big = SiteConfig(39.74, -105.0, -7.0, 200.0, 100.0, 0.96)
        assert clearsky_power(1037.0, big) == 100.0

    def test_zero_ghi(self):
        assert clearsky_power(0.0, SITE) == 0.0

    def test_negative_ghi_rejected(self):
        with pytest.raises(ValueError):
            clearsky_power(-0.1, SITE)

    def test_monotone_in_ghi(self):
        powers = [clearsky_power(g, SITE) for g in np.linspace(0, 1098, 200)]
        assert all(b >= a for a, b in zip(powers, powers[1:]))


class TestSolarPosition:
    def test_local_solar_noon(self):
        # longitude -105 deg => solar time = UTC - 7 h, noon at 19:00 UTC
        pos = solar_position(SITE, utc_datetime(2023, 6, 21, 19))
        assert pos.hour_angle == pytest.approx(0.0, abs=1e-9)

    def test_declination_fixed_within_civil_day(self):
        decs = {
            solar_position(SITE, utc_datetime(2023, 3, 15, h)).declination
            for h in range(7, 24)  # local 2023-03-15 00:00 .. 16:00
        }
        assert len(decs) == 1

    def test_hour_angle_steps_15_degrees(self):
        a = solar_position(SITE, utc_datetime(2023, 3, 15, 18)).hour_angle
        b = solar_position(SITE, utc_datetime(2023, 3, 15, 19)).hour_angle
        assert b - a == pytest.approx(15.0, abs=1e-9)


class TestProfile:
    def test_counts_and_night_zero(self):
        prof = clearsky_profile(SITE, utc_datetime(2023, 3, 1), 72)
        assert prof.n == 72
        night = prof.night_mask
        assert night.sum() > 0
        assert np.all(prof.power_kw[night] == 0.0)
        assert np.all(prof.ghi_wm2[night] == 0.0)
        assert np.all(prof.power_kw[~night] > 0.0)

    def test_diurnal_symmetry_about_solar_noon(self):
        """With solar noon on the hour boundary, hour midpoints pair up
        symmetrically and the model depends only on |hour angle|."""
        prof = clearsky_profile(SITE, utc_datetime(2023, 3, 1), 48)
        noon = 19  # UTC hour of solar noon for longitude -105
        for k in range(1, 10):
            left = prof.power_kw[noon - k]
            right = prof.power_kw[noon + k - 1]
            assert abs(left - right) < 1e-9

    def test_power_within_ratings(self):
        prof = clearsky_profile(SITE, utc_datetime(2023, 6, 1), 30 * 24)
        assert float(prof.power_kw.max()) <= SITE.ac_rating_kw + 1e-12
        assert float(prof.ghi_wm2.max()) <= GHI_SCALE_WM2

    def test_deterministic(self):
        a = clearsky_profile(SITE, utc_datetime(2023, 3, 1), 24)
        b = clearsky_profile(SITE, utc_datetime(2023, 3, 1), 24)
        assert np.array_equal(a.power_kw, b.power_kw)

    def test_scaled(self):
        prof = clearsky_profile(SITE, utc_datetime(2023, 3, 1), 24)
        half = prof.scaled(0.5)
        assert np.allclose(half.power_kw, 0.5 * prof.power_kw)
        assert np.array_equal(half.ghi_wm2, prof.ghi_wm2)
        with pytest.raises(ValueError):
            prof.scaled(0.0)

    def test_sliced(self):
        prof = clearsky_profile(SITE, utc_datetime(2023, 3, 1), 48)
        part = prof.sliced(10, 20)
        assert part.n == 10
        assert part.start == prof.start + 10 * HOUR
        assert np.array_equal(part.power_kw, prof.power_kw[10:20])
        with pytest.raises(ValueError, match=r"^invalid slice \[20, 20\) for n=48$"):
            prof.sliced(20, 20)

    def test_invariant_power_zero_iff_ghi_zero(self):
        with pytest.raises(ValueError):
            ClearSkyProfile(
                start=utc_datetime(2023, 3, 1),
                power_kw=np.array([0.0, 1.0]),
                ghi_wm2=np.array([5.0, 10.0]),
            )

    @pytest.mark.parametrize(
        "power, ghi, message",
        [
            ([1.0, 2.0], [5.0], "power_kw and ghi_wm2 must be equal-length 1-d arrays"),
            ([[1.0]], [[5.0]], "power_kw and ghi_wm2 must be equal-length 1-d arrays"),
            ([1.0], [GHI_SCALE_WM2 + 1.0], "ghi_wm2 out of [0, 1098]"),
            ([1.0], [-1.0], "ghi_wm2 out of [0, 1098]"),
            ([-1.0], [5.0], "power_kw must be non-negative"),
        ],
    )
    def test_rejects_naming_the_fault(self, power, ghi, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClearSkyProfile(utc_datetime(2023, 3, 1), np.array(power), np.array(ghi))

    def test_bad_n_hours(self):
        with pytest.raises(ValueError):
            clearsky_profile(SITE, utc_datetime(2023, 3, 1), 0)

    def test_higher_latitude_shorter_winter_day(self):
        high = SiteConfig(60.0, -105.0, -7.0, 100.0, 100.0, 0.96)
        prof_lo = clearsky_profile(SITE, utc_datetime(2023, 1, 5), 24)
        prof_hi = clearsky_profile(high, utc_datetime(2023, 1, 5), 24)
        assert (prof_hi.power_kw > 0).sum() < (prof_lo.power_kw > 0).sum()


def scalar_chain(site, start, n_hours):
    """Power and GHI hour by hour through the public scalar functions."""
    power = np.empty(n_hours)
    ghi = np.empty(n_hours)
    for i in range(n_hours):
        pos = solar_position(site, start + i * HOUR + timedelta(minutes=30))
        ghi[i] = clearsky_ghi(pos.zenith)
        power[i] = clearsky_power(ghi[i], site)
    return power, ghi


def site_at(latitude, tz_offset, longitude=None):
    # inverter clipping below the DC peak, so the min() branch is exercised
    if longitude is None:
        longitude = max(-180.0, min(180.0, 15.0 * tz_offset))
    return SiteConfig(latitude, longitude, tz_offset, 100.0, 90.0, 0.96)


class TestProfileMatchesScalarChain:
    """clearsky_profile equals the per-hour chain bit for bit, the sign of
    each zero included (`write_csv` writes -0.0 as `-0`)."""

    @pytest.mark.parametrize("tz_offset", [-12.0, -3.5, 0.0, 5.5, 5.75, 14.0])
    @pytest.mark.parametrize("latitude", [90.0, -90.0, 39.74, -33.87])
    @pytest.mark.parametrize(
        "start",
        [utc_datetime(2023, 12, 30, 17), utc_datetime(2024, 2, 28)],
        ids=["new-year", "leap-day"],
    )
    def test_offsets_and_latitudes(self, tz_offset, latitude, start):
        site = site_at(latitude, tz_offset)
        prof = clearsky_profile(site, start, 10 * 24 + 5)
        power, ghi = scalar_chain(site, start, prof.n)
        assert prof.power_kw.tobytes() == power.tobytes()
        assert prof.ghi_wm2.tobytes() == ghi.tobytes()

    @pytest.mark.parametrize(
        "site,start",
        [
            (site_at(51.5, 5.75, longitude=-0.1), utc_datetime(2023, 12, 30, 17)),
            (site_at(-41.3, -3.5, longitude=174.8), utc_datetime(2024, 2, 28)),
        ],
    )
    def test_spans_of_years(self, site, start):
        n_hours = 3 * 8784 + 13
        prof = clearsky_profile(site, start, n_hours)
        power, ghi = scalar_chain(site, start, n_hours)
        assert prof.power_kw.tobytes() == power.tobytes()
        assert prof.ghi_wm2.tobytes() == ghi.tobytes()


class TestChainOncePerDistinctCosZ:
    """clearsky_profile runs the Haurwitz chain once per distinct daylight
    cos z, so hours that share a value share one call."""

    @staticmethod
    def count_calls(monkeypatch, site, n_hours):
        zeniths = []

        def counting(zenith):
            zeniths.append(zenith)
            return clearsky_ghi(zenith)

        monkeypatch.setattr("pvlevels.clearsky.clearsky_ghi", counting)
        prof = clearsky_profile(site, utc_datetime(2023, 3, 1), n_hours)
        return prof, zeniths

    def test_repeats_run_once_on_the_default_site(self, monkeypatch):
        # -105 deg lies on the 7.5 deg grid, so each morning hour mirrors an
        # afternoon hour, and the second year repeats the first's days
        prof, zeniths = self.count_calls(monkeypatch, SITE, 730 * 24)
        assert int((prof.ghi_wm2 > 0.0).sum()) == 8759
        assert len(zeniths) == 2195

    def test_no_repeats_run_once_per_lit_hour(self, monkeypatch):
        site = SiteConfig(39.74, 12.3, 1.0, 100.0, 100.0, 0.96)
        prof, zeniths = self.count_calls(monkeypatch, site, 90 * 24)
        assert len(zeniths) == int((prof.ghi_wm2 > 0.0).sum()) == 1164
        assert len(set(zeniths)) == 1164


class TestProfileYearRange:
    def test_last_days_of_year_9999(self):
        # the last hours a profile can reach; one more raises ValueError
        site = site_at(39.74, 0.0)
        start = utc_datetime(9999, 12, 30)
        prof = clearsky_profile(site, start, 48)
        power, ghi = scalar_chain(site, start, 48)
        assert prof.power_kw.tobytes() == power.tobytes()
        assert prof.ghi_wm2.tobytes() == ghi.tobytes()
        with pytest.raises(ValueError, match="outside years 1-9999"):
            clearsky_profile(site, start, 49)

    def test_out_of_range_span_fails_before_per_hour_work(self):
        # 960,000 hours from 9900-01-01 run past 9999-12-31; the per-hour
        # arrays of such a span alone would take about 23 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                r"^clear-sky profile of 960000 h from 9900-01-01T00:00:00Z reaches "
                r"a site-local day \(tz_offset -7 h\) outside years 1-9999$"
            )):
                clearsky_profile(SITE, utc_datetime(9900, 1, 1), 960_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
