"""The `python -m repro.experiments` command-line runner."""

import subprocess
import sys

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_no_subcommand_is_usage_error(self, capsys):
        """Omitting the subcommand exits 2 and lists the valid names
        on stderr (scripts that forget the argument must fail)."""
        assert main([]) == 2
        err = capsys.readouterr().err
        for name in EXPERIMENTS:
            assert name in err
        assert "all" in err

    def test_registry_complete(self):
        """Every paper table/figure has a CLI entry."""
        expected = {"table1", "table2", "table3", "table3-measured",
                    "table4", "table5", "table5-measured", "fig1", "fig2",
                    "fig3", "fig4", "fig5", "eqbounds"}
        assert expected == set(EXPERIMENTS)

    def test_run_one(self, capsys):
        assert main(["eqbounds"]) == 0
        out = capsys.readouterr().out
        assert "Eq. 1/2" in out
        assert "[eqbounds:" in out

    def test_bad_name_rejected(self, capsys):
        assert main(["tableX"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "table3" in err       # the listing accompanies the error

    def test_out_flag_rejected(self, capsys):
        """No experiment writes a report, so there is no ``--out``."""
        with pytest.raises(SystemExit) as exc:
            main(["eqbounds", "--out", "report.json"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "table3" in proc.stderr
