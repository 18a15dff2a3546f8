"""scripts/csv_deviation.py on two small hand-written run directories."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "csv_deviation.py")


def run(parent, change):
    done = subprocess.run([sys.executable, SCRIPT, str(parent), str(change)], capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_reports_largest_deviation_per_file(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    # the config lines differ and are skipped; the label column is text
    (parent / "run_total.csv").write_text("# config=aaa\nT,N_coh,N_in\n0.1EF,2.0,10.0\n1EF,4.0,-20.0\n")
    (change / "run_total.csv").write_text("# config=bbb\nT,N_coh,N_in\n0.1EF,2.0,10.5\n1EF,4.1,-20.0\n")
    (parent / "run_same.csv").write_text("# c\nx,v\n1.0,0.0\n")
    (change / "run_same.csv").write_text("# c\nx,v\n1.0,0.0\n")
    rc, out = run(parent, change)
    assert rc == 0
    # N_in: 0.5 of peak 20; N_coh: 0.1 of peak 4
    assert out == ["file,max_abs,max_rel_peak,column", "run_same.csv,0,0,-", "run_total.csv,0.5,0.025,N_in"]

    # a file on one side only and a header that differs both fail the run
    (change / "run_extra.csv").write_text("# c\nx,v\n1.0,0.0\n")
    (change / "run_same.csv").write_text("# c\nx,w\n1.0,0.0\n")
    rc, out = run(parent, change)
    assert rc == 1
    assert f"run_extra.csv: only in {change}" in out
    assert any(line.startswith("run_same.csv: headers differ") for line in out)
    assert "run_total.csv,0.5,0.025,N_in" in out
