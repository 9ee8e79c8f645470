"""Hand-made run logs at the boundary: malformed rows and extreme scores
give a one-line error or a plot, never a traceback or a float warning."""

import warnings

import numpy as np
import pytest

from qasrl.cli import main
from qasrl.experiments import CSV_COLUMNS, ROLLING_RGB, SCORE_RGB, RunLog, emit_plot
from test_experiments import has_colour, read_png, score_log


@pytest.mark.parametrize("row", ["1,0.5", "1,0.5,3,0.9,0,0.0,7"], ids=["short", "long"])
def test_from_csv_rejects_wrong_cell_count(tmp_path, row):
    path = tmp_path / "runlog.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n1,0.5,3,0.9,0,0\n" + row + "\n")
    with pytest.raises(ValueError, match=r"runlog\.csv line 3: \d cells, expected 6"):
        RunLog.from_csv(path)


@pytest.mark.parametrize("text", ["", "episode,score\n1,0.5\n"], ids=["empty", "other_columns"])
def test_from_csv_rejects_a_file_without_the_header(tmp_path, text):
    path = tmp_path / "runlog.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"runlog\.csv is not a run log \(bad header\)$"):
        RunLog.from_csv(path)


def test_plot_command_reports_bad_row_in_one_line(tmp_path, capsys):
    path = tmp_path / "runlog.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n1,0.5\n")
    code = main(["plot", "--log", str(path), "--out", str(tmp_path / "scores.png")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path} line 2" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "scores.png").exists()


@pytest.mark.parametrize("scores", [[1e308, -1e308], [-1.7976931348623157e308, 0.5, 1.7976931348623157e308]],
                         ids=["1e308", "float_max"])
def test_plot_of_scores_spanning_the_float_range(tmp_path, scores):
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        _, image_path = emit_plot(score_log(scores), tmp_path / "scores.png")
    pixels = read_png(image_path)
    assert has_colour(pixels, SCORE_RGB)
    assert has_colour(pixels, ROLLING_RGB)


@pytest.mark.parametrize("row, cell", [("1,abc,3,0.9,0,0", "'abc'"), ("1,0.5,2.5,0.9,0,0", "'2.5'")],
                         ids=["float_column", "int_column"])
def test_from_csv_names_file_and_line_of_a_non_numeric_cell(tmp_path, row, cell):
    path = tmp_path / "runlog.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n1,0.5,3,0.9,0,0\n" + row + "\n")
    with pytest.raises(ValueError, match=rf"runlog\.csv line 3: .*{cell}"):
        RunLog.from_csv(path)


def test_rolling_mean_of_consecutive_1e308_scores_is_finite():
    with np.errstate(all="raise"):
        rolling = score_log([1e308, 1e308, 0.5]).rolling_mean()
    np.testing.assert_allclose(rolling, [1e308, 1e308, 1e308 / 3 * 2], rtol=1e-15)


@pytest.mark.parametrize("window", [0, -3])
def test_window_below_one_is_rejected(tmp_path, window):
    log = score_log([0.5, 0.25, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
            log.rolling_mean(window)
        with pytest.raises(ValueError, match="window"):
            emit_plot(log, tmp_path / "plot.png", window=window)
    assert list(tmp_path.iterdir()) == []


def test_rolling_mean_of_run_scores_is_unchanged():
    # scores of a real run lie in [-1.2, 1]; the prefix-sum formula on them
    # is what the mean was before the overflow guard
    scores = np.random.default_rng(0).uniform(-1.2, 1.0, size=1000)
    sums = np.cumsum(np.concatenate(([0.0], scores)))
    idx = np.arange(1000)
    lo = np.maximum(idx - 49, 0)
    np.testing.assert_array_equal(score_log(scores).rolling_mean(), (sums[idx + 1] - sums[lo]) / (idx + 1 - lo))
