import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oqctrl.serialization import (CSV_BLOCK_CELLS, CSV_BLOCK_ROWS, csv_row_blocks, fmt, write_csv,
                                  write_json)


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


# the numpy encoder of float arrays against Python's formatting, the oracle


def assert_encoded_like_fmt(tmp_path, rows):
    """write_csv of a float array: the per-cell writer's bytes, and each cell
    the 17-digit format spec of its value."""
    rows = np.asarray(rows)
    header = [f"c{k}" for k in range(rows.shape[1])]
    write_csv(tmp_path / "block.csv", header, rows)
    write_csv_per_cell(tmp_path / "cells.csv", header, rows)
    text = (tmp_path / "block.csv").read_bytes()
    assert text == (tmp_path / "cells.csv").read_bytes()
    cells = [c for line in text.decode().splitlines()[1:] for c in line.split(",")]
    assert cells == [format(float(x), ".17g") for x in rows.ravel().tolist()]


def ulp_neighbours(x, steps=3):
    """x and the `steps` doubles on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def test_powers_of_ten_and_their_ulp_neighbours(tmp_path):
    # 1e-4 and 1e17 are the edges of the fixed notation, which the encoder
    # writes itself; log10 may miss the exponent by one next to a power
    values = [v for m in range(-6, 19) for v in ulp_neighbours(float(f"1e{m}"))]
    values += [-v for v in values]
    assert_encoded_like_fmt(tmp_path, np.array(values)[:, None])


def test_no_double_rounds_up_to_a_power_of_ten_in_the_fixed_range():
    # the encoder has no carry step: the double below 10^m lies more than
    # half a 17th digit below it, so its 17 digits stay below 10^m
    for m in range(-4, 18):
        below = float(np.nextafter(float(f"1e{m}"), 0.0))
        assert Fraction(10) ** m - Fraction(below) > Fraction(10) ** (m - 17) / 2
        assert Fraction(format(below, ".17g")) < Fraction(10) ** m


def test_rounding_that_carries_through_nines(tmp_path):
    # short decimals whose double lies just below them and rounds up to them
    # at 17 digits: 1.23 is 1.2299999999999999822..., whose 17th digit
    # carries into the 9s before it
    values = []
    for k in np.random.default_rng(11).integers(1, 10**6, size=1000).tolist():
        for e in range(-9, 12):
            x = float(f"{k}e{e}")
            if 1e-4 <= x < 1e17 and Fraction(x) < Fraction(f"{k}e{e}") == Fraction(format(x, ".17g")):
                values.append(x)
    assert len(values) > 500
    assert_encoded_like_fmt(tmp_path, np.array(values)[:, None])


def test_exact_ties_at_the_17th_digit_round_half_even(tmp_path):
    # x = m 2^-(1+j) with m odd puts x 10^j exactly halfway between two
    # integers; j = 16 - X digits follow the first, for every exponent X of
    # the fixed notation that has such doubles
    rng = np.random.default_rng(12)
    values = []
    for x_exp in range(-4, 16):
        j = 16 - x_exp
        lo, hi = Fraction(10) ** x_exp * 2 ** (1 + j), Fraction(10) ** (x_exp + 1) * 2 ** (1 + j)
        hi = min(hi, Fraction(2**53))
        for m in rng.integers(int(lo) + 1, int(hi), size=40).tolist():
            m |= 1
            x = m / 2 ** (1 + j)
            digits = Fraction(x) * 10**j
            assert digits.denominator == 2 and 10**16 <= digits < 10**17
            values.append(x)
    # both ways: to the even neighbour above and below
    ups = [Fraction(format(x, ".17g")) > Fraction(x) for x in values]
    assert any(ups) and not all(ups)
    assert_encoded_like_fmt(tmp_path, np.array(values).reshape(-1, 1))


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_special_values_subnormals_and_narrow_floats(tmp_path, dtype):
    info = np.finfo(dtype)
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, float(info.smallest_subnormal),
              -float(info.smallest_subnormal), float(info.smallest_normal), float(info.max), 1e-4, 0.1]
    rng = np.random.default_rng(13)
    cells = np.concatenate([np.array(values, dtype=dtype), rng.standard_normal(600).astype(dtype),
                            (rng.standard_normal(600) * 1e-4).astype(dtype)])
    assert_encoded_like_fmt(tmp_path, cells.reshape(-1, 3))


def test_integers_keep_their_trailing_zeros(tmp_path):
    rng = np.random.default_rng(14)
    ints = rng.integers(1, 10**7, size=900) * 10 ** rng.integers(0, 10, size=900)
    values = np.concatenate([ints, ints + 0.5, ints / 1000, -ints]).astype(float)
    assert_encoded_like_fmt(tmp_path, values.reshape(-1, 3))


@pytest.mark.parametrize("cols", [1, 3, 19])
@pytest.mark.parametrize("offset", [-1, 0, 1, CSV_BLOCK_CELLS])
def test_blocks_of_any_width_across_the_cell_limit(tmp_path, cols, offset):
    # a block holds CSV_BLOCK_CELLS // cols rows, however many columns
    rows = max(1, CSV_BLOCK_CELLS // cols + offset)
    values = np.random.default_rng(cols).standard_normal((rows, cols))
    values[::5, 0] = 0.0
    values[::7, -1] *= 1e-6
    assert_encoded_like_fmt(tmp_path, values)


def test_array_without_columns_writes_empty_lines(tmp_path):
    write_csv(tmp_path / "none.csv", [], np.empty((2, 0)))
    write_csv_per_cell(tmp_path / "cells.csv", [], np.empty((2, 0)))
    assert (tmp_path / "none.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes() == b"\n\n\n"


def test_encoder_raises_no_floating_point_warning(tmp_path):
    rows = np.concatenate([random_bit_patterns(15, (2000, 3)), np.array(SPECIAL_FLOATS * 3).reshape(-1, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            write_csv(tmp_path / "w.csv", ["x", "y", "z"], rows)
    write_csv_per_cell(tmp_path / "cells.csv", ["x", "y", "z"], rows)
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
