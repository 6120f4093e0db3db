"""Artifact writers: formatting and table serialization."""

import numpy as np

from stackmfg import export


def test_fmt_twelve_significant_digits():
    assert export.fmt(1 / 3) == "0.333333333333"
    assert export.fmt(1.0) == "1"
    assert export.fmt(-2.5e-13) == "-2.5e-13"


def test_json_ready_types():
    payload = export.json_ready({
        "flag": np.bool_(True),
        "count": np.int64(4),
        "value": np.float64(1 / 3),
        "arr": np.array([1.0, 2.0]),
    })
    assert payload["flag"] is True
    assert payload["count"] == 4
    assert payload["value"] == 0.333333333333
    assert payload["arr"] == [1.0, 2.0]
