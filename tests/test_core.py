import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvlevels.core import (
    HOUR,
    HourlyPowerSeries,
    MeasurementLevel,
    MultiLevelDataset,
    SiteConfig,
    Weather,
    derive_seed,
    make_generator,
    utc_datetime,
    validate_series,
)
from pvlevels.errors import LengthMismatch, LevelTagMismatch, MisalignedRange


def make_series(n=48, level=MeasurementLevel.CUSTOMER, start=None, fill=1.0):
    return HourlyPowerSeries(
        site_id="s",
        level=level,
        start=start or utc_datetime(2023, 3, 1),
        values=np.full(n, fill),
    )


SITE = SiteConfig(
    latitude=39.74,
    longitude=-105.0,
    tz_offset=-7.0,
    dc_rating_kw=100.0,
    ac_rating_kw=100.0,
    system_efficiency=0.96,
)


class TestMeasurementLevel:
    def test_ordering_is_bottom_up(self):
        assert MeasurementLevel.CUSTOMER < MeasurementLevel.FEEDER < MeasurementLevel.SUBSTATION

    def test_label_round_trip(self):
        for level in MeasurementLevel:
            assert MeasurementLevel.from_label(level.label) is level

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            MeasurementLevel.from_label("transformer")


def test_weather_label_round_trip():
    for w in Weather:
        assert Weather.from_label(w.label) is w
    with pytest.raises(ValueError):
        Weather.from_label("foggy")


class TestHourlyPowerSeries:
    def test_timestamps(self):
        s = make_series(n=5)
        assert s.n == 5
        assert s.timestamp(0) == s.start
        assert s.timestamp(4) == s.start + 4 * HOUR
        assert s.end == s.start + 5 * HOUR
        assert s.hour_index(s.timestamp(3)) == 3

    def test_rejects_naive_start(self):
        from datetime import datetime

        with pytest.raises(ValueError):
            HourlyPowerSeries("s", MeasurementLevel.CUSTOMER, datetime(2023, 3, 1), np.ones(3))

    def test_rejects_mid_hour_start(self):
        from datetime import datetime, timezone

        start = datetime(2023, 3, 1, 0, 30, tzinfo=timezone.utc)
        with pytest.raises(ValueError):
            HourlyPowerSeries("s", MeasurementLevel.CUSTOMER, start, np.ones(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            make_series(fill=np.nan)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HourlyPowerSeries("s", MeasurementLevel.CUSTOMER, utc_datetime(2023, 3, 1), [])

    def test_values_are_read_only(self):
        s = make_series()
        with pytest.raises(ValueError):
            s.values[0] = 3.0

    def test_values_are_copied(self):
        buf = np.ones(4)
        s = HourlyPowerSeries("s", MeasurementLevel.CUSTOMER, utc_datetime(2023, 3, 1), buf)
        buf[0] = 99.0
        assert s.values[0] == 1.0

    def test_sliced(self):
        s = make_series(n=10)
        part = s.sliced(2, 7)
        assert part.n == 5
        assert part.start == s.timestamp(2)
        assert part.site_id == s.site_id and part.level is s.level

    def test_sliced_bounds(self):
        s = make_series(n=4)
        for a, b in [(-1, 2), (0, 5), (3, 3), (2, 1)]:
            with pytest.raises(ValueError):
                s.sliced(a, b)

    def test_with_values_length_free(self):
        s = make_series(n=4)
        t = s.with_values(np.arange(6, dtype=float))
        assert t.n == 6 and t.start == s.start


class TestMultiLevelDataset:
    def build(self, **overrides):
        kw = dict(
            c=make_series(level=MeasurementLevel.CUSTOMER),
            f=make_series(level=MeasurementLevel.FEEDER),
            s=make_series(level=MeasurementLevel.SUBSTATION),
        )
        kw.update(overrides)
        return MultiLevelDataset(
            customer=kw["c"], feeder=kw["f"], substation=kw["s"], site=SITE
        )

    def test_align_and_lookup(self):
        ds = self.build()
        assert ds.n == 48
        for level in MeasurementLevel:
            assert ds.series(level).level is level

    def test_wrong_position_tag(self):
        with pytest.raises(LevelTagMismatch):
            self.build(f=make_series(level=MeasurementLevel.SUBSTATION))

    def test_start_mismatch(self):
        late = make_series(level=MeasurementLevel.FEEDER, start=utc_datetime(2023, 3, 2))
        with pytest.raises(MisalignedRange):
            self.build(f=late)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            self.build(s=make_series(n=24, level=MeasurementLevel.SUBSTATION))

    def test_sliced_keeps_alignment(self):
        ds = self.build().sliced(12, 36)
        assert ds.n == 24
        assert ds.start == utc_datetime(2023, 3, 1, 12)


class TestValidateSeries:
    def test_clean_long_series_usable(self):
        s = make_series(n=30 * 24)
        rep = validate_series(s, SITE)
        assert rep.usable and rep.negative_count == 0 and rep.over_rating_count == 0

    def test_short_series_not_usable(self):
        rep = validate_series(make_series(n=100), SITE)
        assert not rep.usable

    def test_counts(self):
        v = np.ones(30 * 24)
        v[0] = -2.0
        v[1] = 200.0  # far above the 100 kW AC rating
        s = make_series(n=30 * 24).with_values(v)
        rep = validate_series(s, SITE)
        assert rep.negative_count == 1
        assert rep.over_rating_count == 1
        assert rep.usable  # counters inform, they do not condemn


class TestSiteConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("latitude", 91.0),
            ("longitude", -200.0),
            ("tz_offset", 15.0),
            ("dc_rating_kw", 0.0),
            ("ac_rating_kw", -5.0),
            ("system_efficiency", 1.2),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        kw = dict(
            latitude=39.74,
            longitude=-105.0,
            tz_offset=-7.0,
            dc_rating_kw=100.0,
            ac_rating_kw=100.0,
            system_efficiency=0.96,
        )
        kw[field] = value
        with pytest.raises(ValueError):
            SiteConfig(**kw)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_range(self):
        s = derive_seed(123, 4)
        assert 0 <= s < 2**64

    def test_rejects_out_of_range_base(self):
        with pytest.raises(ValueError):
            derive_seed(-1)
        with pytest.raises(ValueError):
            derive_seed(2**64)

    @given(
        base=st.integers(min_value=0, max_value=2**64 - 1),
        a=st.integers(min_value=0, max_value=1000),
        b=st.integers(min_value=0, max_value=1000),
    )
    def test_tag_sensitivity(self, base, a, b):
        """Different tag tuples give different child seeds (whp);
        identical tuples always agree."""
        left = derive_seed(base, a, b)
        assert left == derive_seed(base, a, b)
        if a != b:
            assert left != derive_seed(base, b, a)

    def test_streams_are_independent_of_layout(self):
        # drawing from tag (3, 0) is unaffected by whether tag (3, 1) exists
        g = make_generator(derive_seed(9, 3, 0))
        first = g.normal(size=5)
        make_generator(derive_seed(9, 3, 1)).normal(size=100)
        g2 = make_generator(derive_seed(9, 3, 0))
        assert np.array_equal(first, g2.normal(size=5))


def test_make_generator_reproducible():
    a = make_generator(42).random(10)
    b = make_generator(42).random(10)
    assert np.array_equal(a, b)
