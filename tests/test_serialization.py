import tracemalloc

import numpy as np
import pytest

from oqctrl.serialization import CSV_BLOCK_ROWS, csv_row_blocks, fmt, write_csv, write_json


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


def write_csv_per_cell(path, header, rows):
    """Reference writer: every cell through fmt, one row at a time."""
    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def random_bit_patterns(seed, shape):
    bits = np.random.default_rng(seed).integers(0, 2**64, size=shape, dtype=np.uint64)
    return bits.view(np.float64)


SPECIAL_FLOATS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e17, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize(
    "rows",
    [
        np.array(SPECIAL_FLOATS * 3).reshape(-1, 3),
        # random float64 bit patterns, NaN payloads and subnormals included
        random_bit_patterns(0, (4000, 3)),
        np.random.default_rng(1).standard_normal((500, 7)),
        np.random.default_rng(2).standard_normal((300, 4)).astype(np.float32),
        np.array(SPECIAL_FLOATS)[:, None],
        np.empty((0, 3)),
        np.arange(12, dtype=np.int64).reshape(4, 3) - 5,
        np.array([[True, False, True], [False, False, True]]),
        # one block short, one whole block, one row into a second block
        random_bit_patterns(5, (CSV_BLOCK_ROWS - 1, 3)),
        random_bit_patterns(6, (CSV_BLOCK_ROWS, 3)),
        random_bit_patterns(7, (CSV_BLOCK_ROWS + 1, 3)),
    ],
    ids=[
        "special", "bit-patterns", "normal", "float32", "one-column", "no-rows", "int", "bool",
        "block-minus-one", "block", "block-plus-one",
    ],
)
def test_csv_of_array_matches_per_cell_fmt(tmp_path, rows):
    header = [f"c{k}" for k in range(rows.shape[1])]
    write_csv(tmp_path / "block.csv", header, rows)
    write_csv_per_cell(tmp_path / "cells.csv", header, rows)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_csv_of_large_array_is_written_in_blocks(tmp_path):
    # formatted at once, these 100 000 rows would hold their 5.5 MB of text
    # and a 300 000-float cell tuple, about 20 MB in all
    rows = np.random.default_rng(8).standard_normal((100_000, 3))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["x", "y", "z"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert (tmp_path / "big.csv").stat().st_size > 5_000_000


def test_fmt_matches_the_17_digit_format_spec():
    for x in SPECIAL_FLOATS + random_bit_patterns(3, 20000).tolist():
        assert fmt(x) == format(x, ".17g")


def test_csv_of_bool_array_renders_words(tmp_path):
    write_csv(tmp_path / "b.csv", ["a", "b"], np.array([[True, False]]))
    assert (tmp_path / "b.csv").read_text() == "a,b\ntrue,false\n"


def test_csv_of_empty_float_array_is_header_only(tmp_path):
    write_csv(tmp_path / "e.csv", ["x", "y", "z"], np.empty((0, 3)))
    assert (tmp_path / "e.csv").read_text() == "x,y,z\n"


@pytest.mark.parametrize(
    "sizes",
    [[], [0], [1], [3, 0, 5], [CSV_BLOCK_ROWS - 1, 2, CSV_BLOCK_ROWS + 1]],
    ids=["none", "empty", "one", "with-empty", "across-csv-blocks"],
)
def test_row_blocks_append_to_the_text_of_their_concatenation(tmp_path, sizes):
    rows = random_bit_patterns(9, (sum(sizes), 3))
    with csv_row_blocks(tmp_path / "blocks.csv", ["x", "y", "z"]) as append:
        for lo, hi in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
            append(rows[lo:hi])
    write_csv(tmp_path / "whole.csv", ["x", "y", "z"], rows)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.csv", "whole.csv"]


def test_csv_rows_raising_midway_leave_no_file(tmp_path):
    def rows():
        yield [1, 0.5]
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        write_csv(tmp_path / "rows.csv", ["k", "v"], rows())
    assert list(tmp_path.iterdir()) == []


def test_row_blocks_take_rows_of_cells_and_float_arrays(tmp_path):
    cells = [[1, 0.1, True], [np.int64(-2), np.float64(1e-300), False]]
    floats = random_bit_patterns(10, (5, 3))
    with csv_row_blocks(tmp_path / "mixed.csv", ["a", "b", "c"]) as append:
        append(cells)
        append(floats)
    write_csv_per_cell(tmp_path / "cells.csv", ["a", "b", "c"], cells + floats.tolist())
    assert (tmp_path / "mixed.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_row_blocks_leave_no_file_when_the_writer_raises(tmp_path):
    (tmp_path / "old.csv").write_text("kept\n")
    for name in ("new.csv", "old.csv"):
        with pytest.raises(RuntimeError, match="stop"):
            with csv_row_blocks(tmp_path / name, ["x"]) as append:
                append(np.ones((2, 1)))
                raise RuntimeError("stop")
    # a file written before is left as it was
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
    assert (tmp_path / "old.csv").read_text() == "kept\n"
