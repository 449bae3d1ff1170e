"""Smoke tests: the scripts under scripts/ run against the current library."""

import hashlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from cylcavity.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_mode_table(capsys):
    _main("mode_table")([])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cavity a=0.9 L=1.3: 30 modes with omega <= 6.5"
    assert len(lines) == 2 + 30


def test_quadrature_convergence(capsys):
    _main("quadrature_convergence")()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == [4, 8, 12, 16, 24, 32, 48]
    assert float(rows[-1][1]) < 1e-12
    # nr only and nz only: at order 48 both are the full 48 x 48 rule
    assert rows[-1][3] == rows[-1][4] == rows[-1][1]
    assert all(len(row) == 5 for row in rows)


def test_verify_scale(capsys):
    # one fresh `cylcavity verify` child per cutoff, flags passed through;
    # its stdout is what the same command prints in this process
    _main("verify_scale")(["5", "--suite", "gram"])
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["omega_max", "exit", "wall_s", "peak_mb", "stdout_sha256"]
    omega_max, status, wall, peak, digest = row.split()
    assert (omega_max, status) == ("5", "0") and float(wall) > 0.0 and float(peak) > 0.0
    assert cli_main(["verify", "--radius", "0.9", "--height", "1.3", "--speed-of-light", "1",
                     "--vacuum-permittivity", "1", "--hbar", "1", "--omega-max", "5", "--suite", "gram"]) == 0
    assert digest == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_field_scale(capsys):
    # one row per cutoff; an nphi that aliases a mode with a conjugate makes
    # both reductions raise, and their columns say so, while synthesis runs
    header = ["omega_max", "modes", "energy_s", "synth_s", "project_s", "energy_err", "amp_err"]
    _main("field_scale")(["5", "--nr", "24", "--nz", "24"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == header and len(lines) == 2
    omega_max, count, *figures = lines[1].split()
    assert (omega_max, count) == ("5", "11")
    energy_s, synth_s, project_s, energy_err, amp_err = (float(v) for v in figures)
    assert energy_s > 0.0 and synth_s > 0.0 and project_s > 0.0 and energy_err < 1e-12 and amp_err < 1e-10
    _main("field_scale")(["5", "--nphi", "2"])
    lines = capsys.readouterr().out.splitlines()
    omega_max, count, energy_s, synth_s, *rest = lines[1].split()
    assert lines[0].split() == header and (omega_max, count, energy_s) == ("5", "11", "raises")
    assert float(synth_s) > 0.0 and rest == ["raises"] * 3


def test_unexecuted():
    # pytest on one test file in a child: pytest's output, then `path:line:
    # source` for each line of the package that never ran, then a count per
    # file; the public-API test imports every module but evaluates nothing,
    # so the Hankel expansion's body is listed and the package's __init__ is not
    package = ROOT / "src" / "cylcavity"
    done = subprocess.run([sys.executable, str(SCRIPTS / "unexecuted.py"), "-q", "-p", "no:cacheprovider",
                           "tests/test_public_api.py"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    names = [f"src/cylcavity/{path.name}" for path in sorted(package.glob("*.py"))]
    counts = [re.fullmatch(r"(\S+): (\d+) of (\d+) lines not run", line) for line in lines[-len(names):]]
    assert [c[1] for c in counts] == names and all(int(c[2]) <= int(c[3]) for c in counts)
    listed = {}
    for line in lines[:-len(names)]:
        hit = re.fullmatch(r"(src/cylcavity/\w+\.py):(\d+): (.*)", line)
        if hit:
            assert (ROOT / hit[1]).read_text().splitlines()[int(hit[2]) - 1].strip() == hit[3]
            listed.setdefault(hit[1], []).append(int(hit[2]))
    assert {c[1]: int(c[2]) for c in counts} == {name: len(listed.get(name, [])) for name in names}
    assert "src/cylcavity/__init__.py" not in listed
    source = (package / "bessel.py").read_text().splitlines()
    start = source.index("def _asymptotic(m: np.ndarray, x: np.ndarray) -> np.ndarray:")
    body = source.index("    mu4 = 4.0 * m * m", start) + 1      # its first statement, 1-based
    assert body in listed["src/cylcavity/bessel.py"]
