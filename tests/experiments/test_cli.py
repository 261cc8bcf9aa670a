"""Tests for the ``python -m repro.experiments`` command line."""

import pytest

from repro.experiments.__main__ import main


class TestList:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for ident in ("fig5", "fig13", "fig19", "costs", "incache", "assoc"):
            assert ident in out


class TestRun:
    def test_single_experiment(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "[costs]" in out
        assert "regenerated" in out

    def test_scale_flag(self, capsys):
        assert main(["fig4", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "scale 0.05" in out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, workers, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["costs", "--workers", workers])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_non_integer_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["costs", "--workers", "two"])
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err

    def test_workers_reach_the_pool(self, capsys):
        from repro.sim.parallel import pool_stats

        command = ["fig5", "--scale", "0.05", "--no-cache", "--workers"]
        assert main(command + ["1"]) == 0
        serial = capsys.readouterr().out
        stats = pool_stats()
        assert main(command + ["2"]) == 0  # retires its pool on exit
        pooled = capsys.readouterr().out
        after = pool_stats()
        assert after["created"] + after["reused"] > \
            stats["created"] + stats["reused"]
        assert not after["active"]
        # Everything but the trailing "regenerated in <seconds>" line.
        assert pooled.split("\n(fig5 regenerated")[0] == \
            serial.split("\n(fig5 regenerated")[0]

    def test_unknown_experiment(self, capsys):
        assert main(["fig999"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["costs", "--out", str(target)]) == 0
        assert target.exists()
        assert "[costs]" in target.read_text()


@pytest.mark.slow
class TestAll:
    def test_all_at_tiny_scale(self, capsys):
        assert main(["all", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert out.count("regenerated") >= 17


class TestCsvExport:
    def test_csv_directory(self, tmp_path, capsys):
        assert main(["costs", "--csv", str(tmp_path)]) == 0
        target = tmp_path / "costs.csv"
        assert target.exists()
        first = target.read_text().splitlines()[0]
        assert first.startswith("organization,")

    def test_to_csv_file_path(self, tmp_path):
        from repro.experiments import get_experiment

        result = get_experiment("costs").run()
        written = result.to_csv(tmp_path / "my.csv")
        assert written.name == "my.csv"
        lines = written.read_text().splitlines()
        assert len(lines) == 1 + len(result.rows)
