"""Episode CSV contract: header, LF endings, row-precise rejection."""

import math

import pytest

from bailrule import DataError, Episode, ParameterError
from bailrule.dataio import episodes_to_csv, read_episodes, write_episodes


def test_round_trip(tmp_path):
    eps = [Episode(0.1, 0.0), Episode(1.23456789, 0.42), Episode(2.0, 0.5)]
    path = tmp_path / "eps.csv"
    write_episodes(path, eps)
    back = read_episodes(path)
    assert [(e.theta, e.b) for e in back] == [(e.theta, e.b) for e in eps]


def test_repr_floats_survive_exactly(tmp_path):
    val = 0.1 + 0.2  # 0.30000000000000004
    path = tmp_path / "eps.csv"
    write_episodes(path, [Episode(val, val)] * 4)
    assert read_episodes(path)[0].theta == val


def test_lf_line_endings(tmp_path):
    path = tmp_path / "eps.csv"
    write_episodes(path, [Episode(1.0, 0.5)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"theta,b\n")


def test_regime_column_round_trip(tmp_path):
    eps = [Episode(1.0, 0.5, regime="interior"), Episode(2.0, 0.5, regime="cap")]
    path = tmp_path / "eps.csv"
    write_episodes(path, eps, include_regime=True)
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


def test_episode_validation():
    with pytest.raises(ParameterError):
        Episode(math.nan, 0.1)
    with pytest.raises(ParameterError):
        Episode(1.0, -0.1)


def test_csv_string_form():
    text = episodes_to_csv([Episode(1.0, 0.5)])
    assert text == "theta,b\n1.0,0.5\n"
