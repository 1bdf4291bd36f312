import numpy as np
import pytest

from oqctrl.serialization import fmt, write_csv, write_json


@pytest.mark.parametrize(
    "value",
    [0.1, 1.0 / 3.0, np.float64(2.0) ** 0.5, np.float64(-1e-300), np.int64(-7), 12, True, np.bool_(False)],
    ids=repr,
)
def test_json_value_renders_like_csv_cell(tmp_path, value):
    write_json(tmp_path / "v.json", {"v": value})
    write_csv(tmp_path / "v.csv", ["v"], [[value]])
    json_text = (tmp_path / "v.json").read_text()
    cell = (tmp_path / "v.csv").read_text().splitlines()[1]
    assert json_text == '{\n  "v": ' + cell + "\n}\n"
    assert cell == fmt(value)


def test_floats_keep_17_significant_digits(tmp_path):
    write_json(tmp_path / "v.json", [0.1])
    assert "0.10000000000000001" in (tmp_path / "v.json").read_text()
