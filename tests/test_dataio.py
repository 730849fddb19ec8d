"""Episode CSV contract: header, LF endings, row-precise rejection."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bailrule import DataError, Episode, EpisodeTable, ParameterError
from bailrule.dataio import episodes_to_csv, read_episodes, write_episodes


def test_round_trip(tmp_path):
    eps = [Episode(0.1, 0.0), Episode(1.23456789, 0.42), Episode(2.0, 0.5)]
    path = tmp_path / "eps.csv"
    write_episodes(path, [e.theta for e in eps], [e.b for e in eps])
    back = read_episodes(path)
    assert [(e.theta, e.b) for e in back] == [(e.theta, e.b) for e in eps]


def test_repr_floats_survive_exactly(tmp_path):
    val = 0.1 + 0.2  # 0.30000000000000004
    path = tmp_path / "eps.csv"
    write_episodes(path, [val] * 4, [val] * 4)
    assert read_episodes(path)[0].theta == val


def test_lf_line_endings(tmp_path):
    path = tmp_path / "eps.csv"
    write_episodes(path, [1.0], [0.5])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"theta,b\n")


def test_regime_column_round_trip(tmp_path):
    eps = [Episode(1.0, 0.5, regime="interior"), Episode(2.0, 0.5, regime="cap")]
    path = tmp_path / "eps.csv"
    write_episodes(
        path, [e.theta for e in eps], [e.b for e in eps], regime=[e.regime for e in eps]
    )
    back = read_episodes(path)
    assert back[0].regime == "interior"
    assert back[1].regime == "cap"


def test_header_required(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="header"):
        read_episodes(path)


def test_row_errors_cite_line(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("theta,b\n1.0,0.5\nnope,0.5\n")
    with pytest.raises(DataError, match=r":3"):
        read_episodes(path)


def test_negative_b_rejected(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("theta,b\n1.0,-0.5\n")
    with pytest.raises(DataError, match=r"eps\.csv:2: b must be finite and >= 0"):
        read_episodes(path)


def test_negative_theta_rejected(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("theta,b\n0.5,0.1\n-1.0,0.0\n")
    with pytest.raises(DataError, match=r"eps\.csv:3: theta must be finite and >= 0"):
        read_episodes(path)


def test_nan_and_inf_rejected(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("theta,b\nnan,0.5\n")
    with pytest.raises(DataError):
        read_episodes(path)
    path.write_text("theta,b\n1.0,inf\n")
    with pytest.raises(DataError):
        read_episodes(path)


def test_field_count_checked(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("theta,b\n1.0,0.5,x,y\n")
    with pytest.raises(DataError, match=r":2"):
        read_episodes(path)


@pytest.mark.parametrize(
    "text, message",
    [
        # a quoted field spanning lines 2-3 puts the next record on line 4
        ('theta,b\n"1\n",0.5\n-1,0.5\n', r":4: theta must be finite and >= 0, got '-1'"),
        ('theta,b\n"1\n",0.5\n"x\ny",0.5\n', r":4: non-numeric theta/b"),
        ('theta,b\n"1\n",0.5\n1,0.5,9\n', r":4: expected 2 fields, got 3"),
        # a fault inside a multi-line record cites the line the record starts
        # on, not the line it ends on (6)
        ('theta,b\n"1\n",0.5\n"2\n\n",nope\n', r":4: non-numeric theta/b"),
        ('theta,b\n"1\n",0.5\n"-2\n\n",0.5\n', r":4: theta must be finite and >= 0"),
    ],
    ids=["after-value", "after-syntax", "after-width", "inside-syntax", "inside-value"],
)
def test_reader_cites_the_physical_line_a_record_starts_on(tmp_path, text, message):
    path = tmp_path / "eps.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}{message}"):
        read_episodes(path)


def test_episode_validation():
    with pytest.raises(ParameterError):
        Episode(math.nan, 0.1)
    with pytest.raises(ParameterError):
        Episode(1.0, -0.1)


def test_csv_string_form():
    text = episodes_to_csv([1.0], [0.5])
    assert text == "theta,b\n1.0,0.5\n"


@pytest.mark.parametrize(
    "theta, b, message",
    [
        ([1.0, math.nan], [0.1, 0.1], r"episode 1: theta must be finite"),
        ([1.0, math.inf], [0.1, 0.1], r"episode 1: theta must be finite"),
        ([-math.inf, 1.0], [0.1, 0.1], r"episode 0: theta must be finite"),
        ([1.0, 2.0], [0.1, math.nan], r"episode 1: b must be finite and >= 0"),
        ([1.0, 2.0], [math.inf, 0.1], r"episode 0: b must be finite and >= 0"),
        ([1.0, 2.0, 3.0], [0.1, 0.2, -0.1], r"episode 2: b must be finite and >= 0"),
    ],
    ids=["theta-nan", "theta-inf", "theta-minus-inf", "b-nan", "b-inf", "b-negative"],
)
def test_writer_rejects_what_episode_rejects(tmp_path, theta, b, message):
    with pytest.raises(ParameterError, match=message):
        episodes_to_csv(theta, b)
    path = tmp_path / "eps.csv"
    with pytest.raises(ParameterError, match=message):
        write_episodes(path, theta, b)
    assert not path.exists()


def test_writer_rejects_negative_theta_the_reader_would_reject(tmp_path):
    # a file the package writes must read back: same check, reader's wording
    path = tmp_path / "eps.csv"
    with pytest.raises(ParameterError, match=r"episode 0: theta must be finite and >= 0"):
        write_episodes(path, [-1.0, 0.5], [0.0, 0.1])
    assert not path.exists()
    with pytest.raises(ParameterError, match=r"episode 2: theta must be finite and >= 0"):
        episodes_to_csv([0.0, 0.5, -1e-300], [0.0, 0.1, 0.2])
    write_episodes(path, [0.0, 0.5], [0.0, 0.1])
    assert [e.theta for e in read_episodes(path)] == [0.0, 0.5]


def test_writer_names_first_bad_row():
    with pytest.raises(ParameterError, match=r"episode 1: b must"):
        episodes_to_csv([1.0, 2.0, math.nan], [0.1, -0.1, 0.1])


def test_writer_rejects_ragged_columns():
    with pytest.raises(ParameterError, match="columns of one length"):
        episodes_to_csv([1.0, 2.0], [0.1])
    with pytest.raises(ParameterError, match="regime has 1 rows"):
        episodes_to_csv([1.0, 2.0], [0.1, 0.2], regime=["cap"])


def test_writer_rejects_regime_needing_quotes():
    with pytest.raises(ParameterError, match="episode 1: regime"):
        episodes_to_csv([1.0, 2.0], [0.1, 0.2], regime=["cap", "a,b"])


def test_writer_matches_csv_module_bytes():
    # the f-string join writes what csv.writer wrote for the same rows
    import csv
    import io

    rng = np.random.default_rng(3)
    theta, b = rng.uniform(0.0, 3.0, 200), rng.uniform(0.0, 0.5, 200)
    b[::7] = 0.0
    regime = [("interior", None, "cap")[i % 3] for i in range(200)]
    for with_regime in (False, True):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theta", "b", "regime"] if with_regime else ["theta", "b"])
        for i, (t, v) in enumerate(zip(theta.tolist(), b.tolist())):
            writer.writerow([repr(t), repr(v)] + ([regime[i] or ""] if with_regime else []))
        got = episodes_to_csv(theta, b, regime if with_regime else None)
        assert got == buf.getvalue()


def test_reader_returns_columns_and_builds_rows_on_demand(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("theta,b,regime\n0.5,0.0,\n1.5,0.25, cap \n")
    table = read_episodes(path)
    assert isinstance(table, EpisodeTable) and len(table) == 2
    assert table.theta.dtype == table.b.dtype == np.float64
    assert table.theta.tolist() == [0.5, 1.5] and table.b.tolist() == [0.0, 0.25]
    assert table.regime == (None, "cap")
    assert list(table) == [Episode(0.5, 0.0), Episode(1.5, 0.25, "cap")]
    assert table[-1] == Episode(1.5, 0.25, "cap")
    path.write_text("theta,b\n")
    empty = read_episodes(path)
    assert len(empty) == 0 and empty.theta.shape == (0,) and empty.regime is None


def test_reader_rejects_regime_the_writer_would_reject(tmp_path):
    # a quoted field may hold a comma, quote or line break; the writer refuses them
    path = tmp_path / "eps.csv"
    path.write_text('theta,b,regime\n1.0,0.5,cap\n2.0,0.5,"a,b"\n')
    with pytest.raises(DataError, match=r"eps\.csv:3: regime 'a,b' may not contain a comma"):
        read_episodes(path)


def test_undecodable_file_is_a_data_error(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_bytes(b"theta,b\n1.0,\xff\n")
    with pytest.raises(DataError, match=r"eps\.csv: cannot read data"):
        read_episodes(path)


FAULTS = {
    "nan": ("nan,0.5", "NaN is not a valid observation"),
    "negative-theta": ("-1.0,0.5", "theta must be finite and >= 0, got '-1.0'"),
    "inf-b": ("1.0,inf", "b must be finite and >= 0, got 'inf'"),
    "non-numeric": ("abc,0.5", "non-numeric theta/b: 'abc', '0.5'"),
    "field-count": ("1.0,0.5,x", "expected 2 fields, got 3"),
}


@pytest.mark.parametrize(
    "first, second",
    [(a, b) for a in FAULTS for b in FAULTS if a != b],
    ids=lambda kind: kind,
)
def test_first_of_two_faults_is_reported(tmp_path, first, second):
    path = tmp_path / "eps.csv"
    path.write_text(f"theta,b\n0.5,0.1\n{FAULTS[first][0]}\n0.7,0.2\n{FAULTS[second][0]}\n")
    with pytest.raises(DataError) as info:
        read_episodes(path)
    assert str(info.value) == f"{path}:3: {FAULTS[first][1]}"


_GOOD = st.floats(0.0, 1e300).map(repr) | st.sampled_from(["-0", " 1.5 ", "1e-400", '"2.5"'])
_BAD = st.floats().map(repr) | st.sampled_from(["nan", "+INF", "1e400", "", "x", '"a,b"'])
_FIELD = st.one_of(_GOOD, _GOOD, _GOOD, _BAD)
_LABEL = st.sampled_from(["", "cap", " zero ", '"a,b"', '"x""y"', '"l\nm"'])
_ROW2 = st.tuples(_FIELD, _FIELD).map(",".join)
_ROW3 = st.tuples(_FIELD, _FIELD, _LABEL).map(",".join)
_ANY_ROW = st.lists(_FIELD, max_size=4).map(",".join)  # any width, or blank


def _file(header, row):
    lines = st.lists(st.one_of(row, row, row, _ANY_ROW), max_size=6)
    return st.tuples(lines, st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda t: t[1].join([header, *t[0]])
    )


CSV_TEXT = st.one_of(  # a header and mostly well-formed rows, or anything CSV-like
    _file("theta,b", _ROW2),
    _file(" theta , b ", _ROW2),
    _file("theta,b,regime", _ROW3),
    st.text(alphabet="0123456789.-+eE ,\n\r\"naifNIx", max_size=60),
)


@given(text=CSV_TEXT)
@settings(max_examples=400, deadline=None)
def test_reader_either_cites_a_line_or_round_trips(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "eps.csv"
    path.write_bytes(text.encode())
    try:
        table = read_episodes(path)
    except DataError as exc:
        where, n, _ = str(exc).split(":", 2)
        assert where == str(path)
        assert 1 <= int(n) <= max(len(text.splitlines()), 1)  # an empty file is line 1
        return
    again = path.with_name("again.csv")
    write_episodes(again, table.theta, table.b, table.regime)
    back = read_episodes(again)
    assert back.theta.tobytes() == table.theta.tobytes()
    assert back.b.tobytes() == table.b.tobytes()
    assert back.regime == table.regime
