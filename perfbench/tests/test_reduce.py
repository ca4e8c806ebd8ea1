import pytest

from run import medians, parse_importtime


def test_medians_per_key_over_passes():
    passes = [{"wall_s": 3.0, "x": 1.0}, {"wall_s": 1.0, "x": 5.0}, {"wall_s": 2.0}]
    assert medians(passes) == {"wall_s": 2.0, "x": 3.0}
    assert medians([{"a": 7.5}]) == {"a": 7.5}
    assert medians([]) == {}


def test_parse_importtime_takes_cumulative_seconds():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     240000 |     scipy.spatial\n"
        "import time:        80 |     350000 |   fockpr.cli\n"
        "some other line\n"
    )
    assert parse_importtime(text) == pytest.approx({"scipy.spatial": 0.24, "fockpr.cli": 0.35})
