import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lhsdisc.points import (
    CoordinateOutOfRange,
    ParseError,
    PointSet,
    ShapeMismatch,
    pointset_from_text,
    pointset_to_text,
    read_pointset,
    validate_pointset,
    write_pointset,
)


def test_validate_accepts_zero_coordinate():
    validate_pointset(PointSet.from_flat(1, 1, [0.0]))


def test_validate_rejects_one():
    with pytest.raises(CoordinateOutOfRange):
        validate_pointset(PointSet.from_flat(1, 1, [1.0]))
    with pytest.raises(CoordinateOutOfRange):
        PointSet(np.array([[1.0]]))


@pytest.mark.parametrize("value,shown", [(1.0, "1.0"), (-0.5, "-0.5"),
                                         (float("nan"), "nan"), (-1e-300, "-1e-300")])
def test_out_of_range_message_shows_a_plain_float(value, shown):
    with pytest.raises(CoordinateOutOfRange) as err:
        PointSet(np.array([[0.5, 0.25], [0.125, value]]))
    assert str(err.value) == f"coordinate [1,1] = {shown} outside [0, 1)"


def test_validate_rejects_negative_and_nan():
    with pytest.raises(CoordinateOutOfRange):
        validate_pointset(PointSet.from_flat(1, 1, [-1e-300]))
    with pytest.raises(CoordinateOutOfRange):
        validate_pointset(PointSet.from_flat(1, 1, [float("nan")]))
    with pytest.raises(CoordinateOutOfRange):
        PointSet(np.array([[-1e-300]]))
    with pytest.raises(CoordinateOutOfRange):
        PointSet(np.array([[float("nan")]]))


def test_validate_error_names_first_offender():
    with pytest.raises(CoordinateOutOfRange, match=r"\[1,0\]"):
        validate_pointset(PointSet.from_flat(2, 2, [0.1, 0.2, 1.5, 0.3]))


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        PointSet.from_flat(2, 2, [0.1, 0.2, 0.3])


def test_coords_are_read_only():
    ps = PointSet.from_flat(1, 2, [0.1, 0.2])
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 0.5


def test_read_basic():
    text = "# pointset v1\n2 1\n0.25\n0.75\n"
    ps = pointset_from_text(text)
    assert ps.n_points == 2 and ps.dim == 1
    assert ps.coords[:, 0].tolist() == [0.25, 0.75]


def test_read_rejects_nonpositive_n():
    with pytest.raises(ParseError, match="positive"):
        pointset_from_text("# pointset v1\n0 1\n")


def test_read_rejects_row_count_mismatch():
    with pytest.raises(ParseError):
        pointset_from_text("# pointset v1\n2 1\n0.25\n")
    with pytest.raises(ParseError):
        pointset_from_text("# pointset v1\n1 1\n0.25\n0.75\n")


def test_read_rejects_bad_header_and_fields():
    with pytest.raises(ParseError, match="line 1"):
        pointset_from_text("pointset v1\n1 1\n0.5\n")
    with pytest.raises(ParseError):
        pointset_from_text("# pointset v1\n1 1\n0.5 0.5\n")
    with pytest.raises(ParseError):
        pointset_from_text("# pointset v1\n1 1\nabc\n")


def test_read_skips_blank_and_comment_lines():
    text = "# pointset v1\n\n# metadata\n2 2\n0.1 0.2\n\n# half way\n0.3 0.4\n"
    ps = pointset_from_text(text)
    assert ps.coords.tolist() == [[0.1, 0.2], [0.3, 0.4]]


# Blank and comment lines precede every error, so the line numbers count them.
@pytest.mark.parametrize("text,lineno,message", [
    ("# pointset v1\n\n# only comments\n", 4, "missing '<N> <d>' line"),
    ("# pointset v1\n\n# c\n2 x\n", 4, "expected two integers, got '2 x'"),
    ("# pointset v1\n\n# c\n3 1\n# c\n0.25\n\n0.5\n", 9,
     "expected 3 data rows, file ended early"),
    ("# pointset v1\n\n# c\n2 2\n\n# c\n0.1 0.2 0.3\n", 7, "expected 2 fields, got 3"),
    ("# pointset v1\n\n# c\n2 2\n0.1 0.2\n# c\n\n0.3 abc\n", 8,
     "unparseable real number in '0.3 abc'"),
    ("# pointset v1\n\n# c\n1 1\n0.25\n\n# c\n0.75\n", 8,
     "found more than the declared 1 data rows"),
    # A malformed row before an early end of file reports the row.
    ("# pointset v1\n3 1\n0.25\n\n0.5 0.5\n", 5, "expected 1 fields, got 2"),
], ids=["no-shape-line", "bad-shape-line", "too-few-rows", "field-count", "bad-float",
        "extra-row", "bad-row-before-eof"])
def test_read_error_message_and_line(text, lineno, message):
    for read in (pointset_from_text, lambda t: read_pointset(io.StringIO(t))):
        with pytest.raises(ParseError) as err:
            read(text)
        assert err.value.lineno == lineno
        assert str(err.value) == f"line {lineno}: {message}"


def test_read_tolerates_crlf_line_endings():
    text = "# pointset v1\r\n2 1\r\n0.25\r\n0.75\r\n"
    ps = read_pointset(io.StringIO(text))
    assert ps.coords[:, 0].tolist() == [0.25, 0.75]


def test_read_rejects_nan_coordinate():
    with pytest.raises(CoordinateOutOfRange):
        pointset_from_text("# pointset v1\n1 1\nnan\n")


def test_write_uses_17_significant_digits():
    text = pointset_to_text(PointSet.from_flat(1, 1, [0.5]))
    assert "5.0000000000000000e-01" in text


def test_write_shape():
    lines = pointset_to_text(PointSet.from_flat(2, 2, [0.1, 0.2, 0.3, 0.4])).splitlines()
    assert lines[1] == "2 2"
    data = lines[2:]
    assert len(data) == 2
    assert all(len(row.split()) == 2 for row in data)


def test_write_read_write_idempotent():
    ps = PointSet.from_flat(3, 2, [0.1, 0.9999999999999999, 0.0, 1 / 3, 0.25, 2 / 3])
    once = pointset_to_text(ps)
    twice = pointset_to_text(pointset_from_text(once))
    assert once == twice


def test_file_object_round_trip():
    ps = PointSet.from_flat(2, 1, [0.125, 0.875])
    buf = io.StringIO()
    write_pointset(ps, buf)
    buf.seek(0)
    back = read_pointset(buf)
    assert np.array_equal(back.coords, ps.coords)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                  allow_nan=False, width=64),
        min_size=1,
        max_size=30,
    )
)
def test_round_trip_is_bit_exact(values):
    ps = PointSet.from_flat(len(values), 1, values)
    back = pointset_from_text(pointset_to_text(ps))
    assert np.array_equal(back.coords, ps.coords)
