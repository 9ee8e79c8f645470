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
