"""What the canonical signal and annotation readers accept, row by row."""

import warnings

import numpy as np
import pytest

from hrvaffect import ingest
from hrvaffect.core import LabelScheme
from hrvaffect.ingest import ParseError, _read_table

AV_HEADER = "index,arousal,valence"


def write(tmp_path, text, name="rows.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def signal(tmp_path, text):
    return _read_table(write(tmp_path, "index,value\n" + text), "signal")


def discrete(tmp_path, text):
    return _read_table(write(tmp_path, "index,label\n" + text), LabelScheme.DISCRETE_STATE)


def arousal_valence(tmp_path, text):
    return _read_table(write(tmp_path, AV_HEADER + "\n" + text), LabelScheme.AROUSAL_VALENCE)


def test_signal_row_with_three_fields_is_a_parse_error_on_its_line(tmp_path):
    with pytest.raises(ParseError, match="expected 2 fields, got 3") as err:
        signal(tmp_path, "0,0.5\n1,0.25\n2,0.125,9\n3,1.0\n")
    assert err.value.line == 4


def test_av_row_with_four_fields_is_a_parse_error_on_its_line(tmp_path):
    with pytest.raises(ParseError, match="expected 3 fields, got 4") as err:
        arousal_valence(tmp_path, "0,2.75,7.25\n1,2.75,7.25,1\n")
    assert err.value.line == 3


def test_one_row_files_keep_their_shape(tmp_path):
    values = signal(tmp_path, "0,0.5\n")
    assert values.shape == (1,) and values.dtype == np.float64
    assert values[0] == 0.5
    av = arousal_valence(tmp_path, "0,2.75,7.25\n")
    assert av.shape == (1, 2) and av.dtype == np.float64
    np.testing.assert_array_equal(av, [[2.75, 7.25]])
    labels = discrete(tmp_path, "0,3\n")
    assert labels.shape == (1,) and labels.dtype == np.int64


def test_blank_lines_and_crlf_endings_load(tmp_path):
    text = "0,0.5\r\n\r\n1,-0.25\r\n\n2,1e-3\r\n"
    np.testing.assert_array_equal(signal(tmp_path, text), [0.5, -0.25, 1e-3])
    np.testing.assert_array_equal(discrete(tmp_path, "0,1\r\n\r\n1,2\r\n"), [1, 2])
    np.testing.assert_array_equal(
        arousal_valence(tmp_path, "\n0,2.75,7.25\r\n\n1,7.25,2.75\n"),
        [[2.75, 7.25], [7.25, 2.75]],
    )


def test_header_only_file_is_empty(tmp_path):
    assert signal(tmp_path, "").shape == (0,)
    assert signal(tmp_path, "\n\n").shape == (0,)


def test_comment_line_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="expected 2 fields, got 1") as err:
        signal(tmp_path, "0,0.5\n# a note\n1,0.25\n")
    assert err.value.line == 3


def test_float_discrete_label_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="malformed annotation row '1,3.0'") as err:
        discrete(tmp_path, "0,1\n1,3.0\n")
    assert err.value.line == 3


def test_python_number_syntax_still_loads(tmp_path):
    np.testing.assert_array_equal(signal(tmp_path, "0,1_0\n1, 2.5 \n"), [10.0, 2.5])
    np.testing.assert_array_equal(discrete(tmp_path, "0,1_0\n1,+2\n"), [10, 2])


def test_non_numeric_value_is_a_parse_error_on_its_line(tmp_path):
    with pytest.raises(ParseError, match="non-numeric value ''") as err:
        signal(tmp_path, "0,0.5\n1,\n")
    assert err.value.line == 3


def test_index_field_is_not_read(tmp_path):
    np.testing.assert_array_equal(signal(tmp_path, "a,0.5\n,0.25\n"), [0.5, 0.25])


def test_label_outside_int64_is_a_parse_error_on_its_line(tmp_path):
    with pytest.raises(ParseError, match="malformed annotation row") as err:
        discrete(tmp_path, "0,1\n1,99999999999999999999999\n")
    assert err.value.line == 3


TRICKY_VALUES = [
    "1.5", " 1.5 ", "+1.5", ".5", "5.", "1E5", "1e999", "-inf", "Infinity", "nan", "-0",
    "03", "3.0", "1_0", "0x10", "", "1.5 2", "1,5", "٣", '"1.5"', "1.5\f",
    "9223372036854775807", "9223372036854775808", "99999999999999999999999",
]
READERS = {"signal": signal, "discrete": discrete, "av": arousal_valence}


def outcome(read, tmp_path, text):
    try:
        values = read(tmp_path, text)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", values.dtype, values.shape, values.tolist()


@pytest.mark.parametrize("value", TRICKY_VALUES)
@pytest.mark.parametrize("reader", READERS)
def test_whole_file_parse_agrees_with_the_line_loop(tmp_path, monkeypatch, reader, value):
    width = 2 if reader == "av" else 1
    text = "".join(f"{i},{','.join([v] * width)}\n" for i, v in enumerate(["2", value, "4"]))
    read = READERS[reader]
    fast = outcome(read, tmp_path, text)
    monkeypatch.setattr(ingest, "_loadtxt_body", lambda *args: None)
    assert repr(fast) == repr(outcome(read, tmp_path, text))


def test_well_formed_rows_take_the_whole_file_parse(tmp_path):
    path = write(tmp_path, "index,value\n0,0.5\n1,-2.25\n")
    np.testing.assert_array_equal(ingest._loadtxt_body(path, "index,value", np.float64), [0.5, -2.25])


@pytest.mark.parametrize("reader, row, message", [
    ("signal", "{i},0.5,9", "expected 2 fields, got 3"),
    ("discrete", "{i},1,9", "expected 2 fields, got 3"),
    ("av", "{i},2.75,7.25,9", "expected 3 fields, got 4"),
])
def test_every_row_with_an_extra_field_is_a_parse_error_on_line_2(tmp_path, reader, row, message):
    text = "".join(row.format(i=i) + "\n" for i in range(3))
    with pytest.raises(ParseError, match=message) as err:
        READERS[reader](tmp_path, text)
    assert err.value.line == 2


@pytest.mark.parametrize("reader", READERS)
def test_non_numeric_index_loads(tmp_path, reader):
    width = 2 if reader == "av" else 1
    text = "".join(f"{i},{','.join(['3'] * width)}\n" for i in ["a", "", "2"])
    row = [3.0, 3.0] if reader == "av" else 3
    assert READERS[reader](tmp_path, text).tolist() == [row] * 3


@pytest.mark.parametrize("body", ["", "\n\n", "\r\n \n"], ids=["header_only", "blank", "crlf_space"])
@pytest.mark.parametrize("reader, dtype", [
    ("signal", np.float64), ("discrete", np.int64), ("av", np.float64),
])
def test_empty_body_loads_empty_without_a_warning(tmp_path, reader, dtype, body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = READERS[reader](tmp_path, body)
    assert values.size == 0 and values.dtype == dtype
