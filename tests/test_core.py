import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvlevels import core
from pvlevels.clearsky import clearsky_profile
from pvlevels.core import (
    HOUR,
    HourlyPowerSeries,
    MeasurementLevel,
    MultiLevelDataset,
    SiteConfig,
    derive_seed,
    hour_stamps,
    make_generator,
    utc_datetime,
)
from pvlevels.errors import InputError


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

    @pytest.mark.parametrize("label", ["Feeder", "FEEDER", " feeder", "feeder "])
    def test_only_the_exact_label_reads(self, label):
        with pytest.raises(ValueError, match=f"unknown measurement level: {label!r}$"):
            MeasurementLevel.from_label(label)


class TestHourlyPowerSeries:
    def test_timestamps(self):
        s = make_series(n=5)
        assert s.n == 5
        assert s.timestamp(0) == s.start
        assert s.timestamp(4) == s.start + 4 * HOUR
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
        with pytest.raises(
            InputError, match="series in feeder position is tagged substation"
        ):
            self.build(f=make_series(level=MeasurementLevel.SUBSTATION))

    def test_start_mismatch(self):
        late = make_series(level=MeasurementLevel.FEEDER, start=utc_datetime(2023, 3, 2))
        with pytest.raises(InputError, match="series starts differ"):
            self.build(f=late)

    def test_start_mismatch_names_year_one_in_csv_form(self):
        # the stamps keep four year digits, as load_csv reads them
        start = utc_datetime(1, 1, 1)
        series = {
            key: make_series(level=level, start=start)
            for key, level in zip("cfs", MeasurementLevel)
        }
        series["f"] = make_series(
            level=MeasurementLevel.FEEDER, start=utc_datetime(1, 1, 1, 1)
        )
        with pytest.raises(InputError) as info:
            self.build(**series)
        assert str(info.value) == (
            "series starts differ: customer 0001-01-01T00:00:00Z, "
            "feeder 0001-01-01T01:00:00Z, substation 0001-01-01T00:00:00Z"
        )

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="series lengths differ"):
            self.build(s=make_series(n=24, level=MeasurementLevel.SUBSTATION))


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


def test_hour_stamp_text_is_spelled_only_in_core():
    sources = Path(core.__file__).parent.glob("*.py")
    spelled = [p.name for p in sources if ":00:00Z" in p.read_text(encoding="utf-8")]
    assert spelled == ["core.py"]


@pytest.mark.parametrize(
    "start,outside_tz",
    [
        # with outside_tz, the site-local day of the start's hour lies
        # outside years 1-9999, so clearsky_profile names the start
        (utc_datetime(1, 1, 1), -7.0),
        (utc_datetime(999, 12, 31, 22), None),
        (utc_datetime(2023, 3, 1, 5), None),
        (utc_datetime(9999, 12, 31, 22), 2.0),
    ],
)
def test_hour_stamps_is_the_text_of_every_message(start, outside_tz):
    (stamp,) = hour_stamps(start, 1)
    assert re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:00:00Z", stamp)
    assert stamp == start.isoformat().replace("+00:00", "Z")
    (later,) = hour_stamps(start + HOUR, 1)
    series = [make_series(n=1, level=level, start=start) for level in MeasurementLevel]
    series[1] = make_series(n=1, level=MeasurementLevel.FEEDER, start=start + HOUR)
    with pytest.raises(InputError) as info:
        MultiLevelDataset(*series, site=SITE)
    assert str(info.value) == (
        f"series starts differ: customer {stamp}, feeder {later}, substation {stamp}"
    )
    if outside_tz is not None:
        with pytest.raises(ValueError) as info:
            clearsky_profile(replace(SITE, tz_offset=outside_tz), start, 1)
        assert f" h from {stamp} reaches " in str(info.value)
