"""Tests for the experiments CLI (python -m repro.experiments)."""

import pytest

from repro.experiments.cli import main


class TestCli:
    def test_runs_selected_experiment(self, capsys, tmp_path):
        rc = main(["table2", "--scale", "0.015625"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "regenerated" in out

    def test_dataset_restriction(self, capsys):
        rc = main(["fig1", "--scale", "0.015625", "--seed", "9"])
        assert rc == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_csv_flag_writes_files(self, capsys, tmp_path):
        rc = main(["table2", "--scale", "0.015625", "--csv", str(tmp_path)])
        assert rc == 0
        written = list(tmp_path.glob("table2--*.csv"))
        assert len(written) >= 2
        assert "wrote" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig99"])
        assert exc.value.code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_dataset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--no-cache", "--datasets", "nosuch", "fig3"])
        assert exc.value.code == 2
        assert "unknown dataset(s) nosuch" in capsys.readouterr().err

    def test_datasets_flag_threads_through(self, capsys):
        rc = main(["fig3", "--scale", "0.015625", "--datasets", "cant,pwtk"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cant" in out and "pwtk" in out
        assert "asia_osm" not in out

    def test_list_flag(self, capsys):
        rc = main(["--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "ext-multiway" in out and "Table I" in out
