"""Episode CSV contract: header, LF endings, row-precise rejection."""

import math

import numpy as np
import pytest

from bailrule import DataError, Episode, ParameterError
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
