"""Command line behavior: output tables, config merging, exit codes."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from cylcavity import (
    TE,
    TM,
    CylPoint,
    FieldState,
    ModeIndex,
    default_rule,
    electric_field,
    enumerate_modes,
    evolve,
    magnetic_field,
    mode_data,
    save_state,
    u_grid,
    u_mode,
    zero_table,
)
from cylcavity import cli
from cylcavity.cli import main
from cylcavity.stateio import _fmt

GEOM_ARGS = ["--radius", "0.9", "--height", "1.3", "--speed-of-light", "1",
             "--vacuum-permittivity", "1", "--hbar", "1"]


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:        # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_bessel_zeros_table(capsys):
    code, out, _ = run_cli(["bessel-zeros", "--m", "2", "--kind", "jprime",
                            "--count", "4"], capsys)
    assert code == 0
    header, data = rows(out)
    assert header == ["m", "mu", "kind", "zero"]
    expect = zero_table(2, "jprime", 4)
    for row, (mu, zero) in zip(data, enumerate(expect.zeros, start=1)):
        assert row[:3] == ["2", str(mu), "jprime"]
        assert float(row[3]) == zero


def test_spectrum_table(capsys, unit_geom):
    code, out, _ = run_cli(["spectrum", *GEOM_ARGS, "--omega-max", "5"], capsys)
    assert code == 0
    header, data = rows(out)
    assert header == ["m", "mu", "n", "sigma", "chi", "g", "h", "k",
                      "omega", "alpha", "c_norm"]
    modes = enumerate_modes(unit_geom, 5.0)
    assert len(data) == len(modes)
    for row, md in zip(data, modes):
        assert [int(v) for v in row[:4]] == [md.index.m, md.index.mu,
                                             md.index.n, md.index.sigma]
        assert float(row[8]) == md.omega
        assert float(row[10]) == md.c_norm


def test_eval_grid(capsys, unit_geom):
    code, out, _ = run_cli(["eval", *GEOM_ARGS, "--mode", "1,1,1,tm",
                            "--grid", "3,4,3"], capsys)
    assert code == 0
    header, data = rows(out)
    assert len(data) == 3 * 4 * 3
    md = mode_data(unit_geom, ModeIndex(m=1, mu=1, n=1, sigma=TM))
    # spot check the last row: r=a, phi=3pi/2, z=L
    row = data[-1]
    p = CylPoint(r=float(row[0]), phi=float(row[1]), z=float(row[2]))
    assert p.r == unit_geom.a and p.z == unit_geom.L
    vec = u_mode(md, p)
    assert float(row[3]) == vec.v_r.real
    assert float(row[4]) == vec.v_r.imag
    assert float(row[7]) == vec.v_z.real


def test_eval_rows_format_each_node(capsys, unit_geom):
    # every row is r, phi, z and the values at that node, r slowest and z
    # fastest, each value as _fmt writes it
    code, out, _ = run_cli(["eval", *GEOM_ARGS, "--mode=-2,1,1,te", "--grid", "3,4,5"], capsys)
    assert code == 0
    md = mode_data(unit_geom, ModeIndex(m=-2, mu=1, n=1, sigma=TE))
    r, phi, z = cli._display_grid(unit_geom, (3, 4, 5))
    parts = [p for c in u_grid(md, r[:, None, None], phi[None, :, None], z[None, None, :])
             for p in (c.real, c.imag)]
    want = [",".join(_fmt(v) for v in (r[i], phi[j], z[k], *(p[i, j, k] for p in parts)))
            for i in range(3) for j in range(4) for k in range(5)]
    assert out.splitlines()[1:] == want


def test_eval_accepts_sigma_aliases(capsys):
    base = ["eval", *GEOM_ARGS, "--grid", "2,2,2"]
    outputs = set()
    for alias in ("2", "te", "TE"):
        code, out, _ = run_cli([*base, "--mode", f"1,1,1,{alias}"], capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_grid_rows_match_per_value_formatting(capsys, rng):
    # the one-format-string row equals _fmt applied value by value,
    # including -0.0, +-inf, nan, subnormals and 17-digit values
    special = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -1e308, 0.1, 1 / 3]
    r, phi, z = np.array([0.0, 0.45, 0.9]), np.array([0.0, math.pi]), np.array([-0.0, 1.3])
    columns = [rng.normal(size=(3, 2, 2)) for _ in range(6)]
    for c in columns:
        c.flat[rng.permutation(c.size)[:len(special)]] = special
    cli._emit_grid("h", r, phi, z, columns)
    coords = np.meshgrid(r, phi, z, indexing="ij")
    values = [c.ravel().tolist() for c in (*coords, *columns)]
    want = ["h"] + [",".join(_fmt(v) for v in row) for row in zip(*values)]
    assert capsys.readouterr().out == "\n".join(want) + "\n"
    assert "-0," in want[1] and all(s in "".join(want) for s in ("inf", "-inf", "nan"))


class _Discard:
    def write(self, text):
        return len(text)


def test_grid_rows_are_written_one_radius_at_a_time(monkeypatch, rng):
    # 40^3 rows of 6 columns are ~11 MB of text; written one (phi, z) slab
    # of 1600 rows at a time the formatting peaks far below that (joining
    # every row first peaked at ~57 MB)
    n = 40
    r, phi, z = np.linspace(0.0, 0.9, n), np.linspace(0.0, 6.0, n), np.linspace(0.0, 1.3, n)
    columns = [rng.normal(size=(n, n, n)) for _ in range(6)]
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        cli._emit_grid("h", r, phi, z, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_verify_report(capsys):
    code, out, _ = run_cli(["verify", *GEOM_ARGS, "--omega-max", "4",
                            "--nr", "32", "--nz", "32"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["mode_count"] == 4
    assert set(rep["suites"]) == {"bessel", "gram", "curl", "boundary"}
    assert all(s["passed"] for s in rep["suites"].values())


def test_verify_failing_tolerance_sets_exit_code(capsys):
    code, out, _ = run_cli(["verify", *GEOM_ARGS, "--omega-max", "4",
                            "--suite", "gram", "--nr", "16", "--nz", "16",
                            "--gram-tol", "1e-30"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False


def test_verify_empty_spectrum_passes(capsys):
    code, out, _ = run_cli(["verify", *GEOM_ARGS, "--omega-max", "0.5",
                            "--suite", "gram,curl,boundary"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["mode_count"] == 0
    assert rep["passed"] is True
    # one JSON schema per suite, whether or not the spectrum is empty
    _, out, _ = run_cli(["verify", *GEOM_ARGS, "--omega-max", "4", "--nr", "16", "--nz", "16",
                         "--suite", "gram,curl,boundary"], capsys)
    full = json.loads(out)
    assert full["mode_count"] > 0
    for name in ("gram", "curl", "boundary"):
        assert set(rep["suites"][name]) == set(full["suites"][name])


@pytest.mark.parametrize("argv,count", [
    ([*GEOM_ARGS, "--omega-max", "20"], 878),
    (["--radius", "0.02", "--height", "0.03", "--omega-max", "1.6e11"], 185),    # SI constants
])
def test_verify_passes_with_default_options(capsys, argv, count):
    # the curl identity is judged on each entry's own scale, about k_i k_j
    code, out, _ = run_cli(["verify", *argv], capsys)
    rep = json.loads(out)
    assert rep["mode_count"] == count
    assert code == 0 and rep["passed"] is True, rep["suites"]["curl"]
    assert rep["suites"]["curl"]["max_scaled_mismatch"] < 1e-13
    assert rep["suites"]["gram"]["hermiticity_error"] == 0.0


@pytest.mark.parametrize("bad", ["-1e-12", "nan", "inf"])
def test_verify_rejects_a_negative_or_non_finite_tolerance(capsys, recwarn, bad):
    for option in ("gram-tol", "curl-rel-tol", "curl-abs-tol", "boundary-tol", "bessel-tol"):
        code, out, err = run_cli(["verify", *GEOM_ARGS, "--omega-max", "10", f"--{option}={bad}"], capsys)
        assert code == 1 and not out
        assert err == f"error: {option.replace('-', '_')} must be a finite number >= 0, got {float(bad)!r}\n"
    assert not recwarn.list


@pytest.mark.parametrize("argv, message", [
    (["--suite", "boundary", "--nr", "0"], "nr must be a positive integer, got 0"),
], ids=["nr"])
def test_verify_checks_its_rule_sizes_before_any_suite(capsys, argv, message):
    # neither suite builds a quadrature rule, so the sizes are checked up front
    code, out, err = run_cli(["verify", *GEOM_ARGS, "--omega-max", "5", *argv], capsys)
    assert code == 1 and not out and err == f"error: {message}\n"


def test_verify_suite_selection(capsys):
    code, out, _ = run_cli(["verify", *GEOM_ARGS, "--omega-max", "4",
                            "--suite", "bessel"], capsys)
    assert code == 0
    assert set(json.loads(out)["suites"]) == {"bessel"}
    code, out, _ = run_cli(["verify", *GEOM_ARGS, "--omega-max", "4", "--nr", "16", "--nz", "16",
                            "--suite", "all"], capsys)
    assert code == 0 and set(json.loads(out)["suites"]) == {"bessel", "gram", "curl", "boundary"}


@pytest.fixture
def state_file(tmp_path, unit_geom, rng):
    modes = enumerate_modes(unit_geom, 5.0)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, amps)), t=0.25)
    path = tmp_path / "state.txt"
    save_state(state, path)
    return str(path), state


def test_synth_matches_library(capsys, state_file):
    path, state = state_file
    code, out, _ = run_cli(["synth", "--state", path, "--time", "0.75",
                            "--grid", "3,3,3"], capsys)
    assert code == 0
    _, data = rows(out)
    assert len(data) == 27
    evolved = evolve(state, 0.5)
    row = data[13]
    p = CylPoint(r=float(row[0]), phi=float(row[1]), z=float(row[2]))
    e = electric_field(evolved, p)
    b = magnetic_field(evolved, p)
    assert np.allclose([float(v) for v in row[3:6]], e, rtol=0, atol=1e-15)
    assert np.allclose([float(v) for v in row[6:9]], b, rtol=0, atol=1e-15)


def test_synth_default_time_is_file_time(capsys, state_file):
    path, state = state_file
    code, out, _ = run_cli(["synth", "--state", path, "--grid", "2,2,2"], capsys)
    assert code == 0
    _, data = rows(out)
    p = CylPoint(r=float(data[0][0]), phi=float(data[0][1]), z=float(data[0][2]))
    assert np.allclose([float(v) for v in data[0][3:6]], electric_field(state, p),
                       rtol=0, atol=1e-15)


def test_project_recovers_amplitudes(capsys, state_file):
    path, state = state_file
    code, out, _ = run_cli(["project", "--state", path, "--omega-max", "5",
                            "--nr", "48", "--nz", "48"], capsys)
    assert code == 0
    _, data = rows(out)
    assert len(data) == len(state.entries)
    for row, (md, a) in zip(data, state.entries):
        assert [int(v) for v in row[:4]] == [md.index.m, md.index.mu,
                                             md.index.n, md.index.sigma]
        assert complex(float(row[4]), float(row[5])) == pytest.approx(a, abs=1e-10)


def test_project_explicit_mode_list(capsys, state_file):
    path, state = state_file
    md0 = state.modes[0].index
    target = f"{md0.m},{md0.mu},{md0.n},{md0.sigma}"
    code, out, _ = run_cli(["project", "--state", path, "--modes", target,
                            "--nr", "48", "--nz", "48"], capsys)
    assert code == 0
    _, data = rows(out)
    assert len(data) == 1
    assert complex(float(data[0][4]), float(data[0][5])) == pytest.approx(
        state.amplitudes[0], abs=1e-10)


@pytest.mark.parametrize("argv", [
    ["spectrum", *GEOM_ARGS, "--omega-max", "6.5"],
    ["eval", *GEOM_ARGS, "--mode=-1,1,1,tm", "--grid", "3,4,3"],
    ["synth", "--state", "{state}", "--time", "0.5", "--grid", "3,4,3"],
    ["project", "--state", "{state}", "--omega-max", "5", "--nr", "24", "--nz", "24"],
], ids=lambda argv: argv[0])
def test_output_is_deterministic(capsys, state_file, argv):
    args = [a.format(state=state_file[0]) for a in argv]
    code, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert code == 0
    assert first == second


def test_verify_and_project_size_their_rule_from_the_modes(capsys, state_file, unit_geom):
    # with no --nr and --nz, the sizes default_rule derives from the modes
    # (for project, the state's and the targets'), not 64 x 64: passing them
    # explicitly prints the same bytes
    path, state = state_file
    targets = enumerate_modes(unit_geom, 6.5)
    for argv, modes in ((["verify", *GEOM_ARGS, "--omega-max", "6.5", "--suite", "gram,curl"], targets),
                        (["project", "--state", path, "--omega-max", "6.5"], [*state.modes, *targets])):
        rule = default_rule(unit_geom, modes)
        code, derived, _ = run_cli(argv, capsys)
        assert code == 0 and (rule.nr, rule.nz) == (20, 20)
        assert run_cli([*argv, "--nr", str(rule.nr), "--nz", str(rule.nz)], capsys) == (0, derived, "")
        assert run_cli([*argv, "--nr", "64", "--nz", "64"], capsys)[1] != derived


def test_config_supplies_options(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\nkind = jprime\ncount = 2\n")
    code, out, _ = run_cli(["bessel-zeros", "--config", str(cfg)], capsys)
    assert code == 0
    _, data = rows(out)
    assert [row[0] for row in data] == ["3", "3"]
    assert data[0][2] == "jprime"


def test_cli_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\ncount = 2\n")
    code, out, _ = run_cli(["bessel-zeros", "--config", str(cfg), "--m", "5"], capsys)
    assert code == 0
    _, data = rows(out)
    assert [row[0] for row in data] == ["5", "5"]


def test_config_accepts_underscored_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_max = 4\n# comment\n")
    code, out, _ = run_cli(["spectrum", *GEOM_ARGS, "--config", str(cfg)], capsys)
    assert code == 0
    _, data = rows(out)
    assert len(data) == 4


@pytest.mark.parametrize("argv", [
    ["bessel-zeros"],                                    # missing required
    ["bessel-zeros", "--m", "x"],                        # unparseable int
    ["bessel-zeros", "--m", "0", "--kind", "dunno"],     # bad enum
    ["eval", *GEOM_ARGS, "--mode", "1,1,1"],             # wrong arity
    ["eval", *GEOM_ARGS, "--mode", "1,1,1,tm", "--grid", "0,4,4"],
    ["verify", *GEOM_ARGS, "--omega-max", "4", "--suite", "nope"],
    ["no-such-command"],
    ["eval", *GEOM_ARGS, "--mode", "1,1,1,xx"],          # bad sigma
    ["eval", *GEOM_ARGS, "--mode", "a,1,1,tm"],          # non-integer index
    ["eval", *GEOM_ARGS, "--mode", "1,1,1,tm", "--grid", "4,4"],     # wrong grid arity
    ["eval", *GEOM_ARGS, "--mode", "1,1,1,tm", "--grid", "4,x,4"],
    ["project", "--state", "unread.txt", "--modes", ";"],             # empty mode list
    ["spectrum", *GEOM_ARGS, "--omega-max", "fast"],
    ["bessel-zeros", "--m", "0", "--count", "1.5"],
])
def test_malformed_usage_exits_2(capsys, tmp_path, argv):
    # a bad value is the same usage error, naming its option, whether it
    # comes as a flag or from a config file
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and not out
    if len(argv) > 1 and argv[-2].startswith("--"):
        flag, value = argv[-2:]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        assert f"error: argument {flag}: " in err
        code, out, err = run_cli([*argv[:-2], "--config", str(cfg)], capsys)
        assert code == 2 and not out and f"error: argument {flag}: " in err


def test_missing_option_is_named(capsys):
    code, out, err = run_cli(["spectrum", "--radius", "1", "--omega-max", "3"], capsys)
    assert code == 2 and not out
    assert err.splitlines()[-1] == "cylcavity spectrum: error: missing required option --height"


@pytest.mark.parametrize("argv, key, value", [
    (["eval", *GEOM_ARGS, "--mode", "1,1,1,tm"], "grid", "5,6,7"),
    (["eval", *GEOM_ARGS, "--grid", "2,3,2"], "mode", "-1,2,1,te"),
    (["verify", *GEOM_ARGS, "--omega-max", "4"], "suite", "gram, curl"),
    (["bessel-zeros", "--m", "2"], "kind", "jprime"),
], ids=["grid", "mode", "suite", "kind"])
def test_config_value_equals_the_flag(capsys, tmp_path, argv, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, by_flag, _ = run_cli([*argv, f"--{key}={value}"], capsys)
    assert code == 0 and by_flag
    assert run_cli([*argv, "--config", str(cfg)], capsys) == (0, by_flag, "")


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\nbogus = 7\n")
    code, _, err = run_cli(["bessel-zeros", "--config", str(cfg)], capsys)
    assert code == 2


@pytest.mark.parametrize("payload", ["m = 1\n# \u00b5 = 3\n".encode("utf-8"), b"m = 1\xff\n"],
                         ids=["utf8-micro-sign", "byte-0xff"])
def test_non_ascii_config_exits_2(capsys, tmp_path, payload):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(payload)
    code, _, err = run_cli(["bessel-zeros", "--config", str(cfg)], capsys)
    assert code == 2
    assert str(cfg) in err


def test_missing_config_file_exits_2(capsys):
    code, _, _ = run_cli(["bessel-zeros", "--m", "0",
                          "--config", "/no/such/file.cfg"], capsys)
    assert code == 2


def test_domain_errors_exit_1(capsys, state_file):
    path, _ = state_file
    cases = [
        ["bessel-zeros", "--m", "-1"],
        ["bessel-zeros", "--m", "0", "--count", "-5"],
        ["spectrum", "--radius", "-2", "--height", "1", "--omega-max", "3"],
        ["eval", *GEOM_ARGS, "--mode", "0,1,0,te"],
        ["synth", "--state", "/no/such/state.txt"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert err.strip()


@pytest.mark.parametrize("argv", [
    ["verify", *GEOM_ARGS, "--omega-max", "4", "--suite", "bessel"],
    ["project", "--state", "unread.txt", "--omega-max", "4"],
], ids=lambda argv: argv[0])
def test_nphi_is_no_option(capsys, tmp_path, argv):
    # the rule's nphi is always derived from the modes it must resolve
    code, out, err = run_cli([*argv, "--nphi", "9"], capsys)
    assert code == 2 and not out and "error: unrecognized arguments: --nphi 9" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nphi = 9\n")
    code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
    assert code == 2 and not out and "line 1: unknown key 'nphi'" in err


@pytest.mark.parametrize("max_m", [4, 0])
def test_project_resolves_the_field_beyond_its_targets(capsys, tmp_path, unit_geom, rng, max_m):
    # the 183 modes with omega <= 12 reach |m| = 8; a rule sized from the
    # targets alone would alias the field's m = 8 onto m = 0 (nphi = 8), and
    # nphi = 9 put its |m| <= 8 onto the targets' |m| <= 4 with no error
    modes = enumerate_modes(unit_geom, 12.0)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    state = FieldState(geom=unit_geom, entries=tuple(zip(modes, amps)))
    save_state(state, path := tmp_path / "state.txt")
    want = [(md.index, a) for md, a in state.entries if abs(md.index.m) <= max_m]
    assert len(modes) == 183 and max(abs(md.index.m) for md in modes) == 8
    targets = ";".join(f"{i.m},{i.mu},{i.n},{i.sigma}" for i, _ in want)
    code, out, _ = run_cli(["project", "--state", str(path), "--modes", targets], capsys)
    assert code == 0
    _, data = rows(out)
    assert [tuple(int(v) for v in row[:4]) for row in data] == [(i.m, i.mu, i.n, i.sigma) for i, _ in want]
    got = np.array([complex(float(row[4]), float(row[5])) for row in data])
    assert np.max(np.abs(got - [a for _, a in want])) <= 1e-12


def test_project_needs_exactly_one_target_spec(capsys, state_file, tmp_path):
    # the usage check comes before the state is read, so a missing file does not hide it
    for path in (state_file[0], str(tmp_path / "missing.txt")):
        code, _, err = run_cli(["project", "--state", path], capsys)
        assert code == 2 and "give exactly one of --modes and --omega-max" in err
        code, _, err = run_cli(["project", "--state", path, "--omega-max", "4",
                                "--modes", "0,1,0,1"], capsys)
        assert code == 2 and "give exactly one of --modes and --omega-max" in err
