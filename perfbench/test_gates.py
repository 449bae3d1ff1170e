"""Self-test of the benchmark's correctness gates and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/test_gates.py

A corrupted result fed to each workload's checker must raise GateError,
and the timed loop must count it as a failed op.  Takes about 15 s.
"""

import argparse
import dataclasses
import shutil

import numpy as np
import pytest

import run

run.ensure_package()

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import GateError  # noqa: E402


@pytest.fixture(scope="module")
def workdir():
    path = run.OUT / "test-gates"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def certify(workdir):
    w = workloads.make("certify", 5, workdir, run.ROOT)
    inp = w.inputs(0)
    result = w.run(inp)
    return w, inp, result


@pytest.fixture(scope="module")
def fields(workdir):
    w = workloads.make("fields", 5, workdir, run.ROOT)
    inp = w.inputs(0)
    result = w.run(inp)
    return w, inp, result


def test_certify_gates_pass_then_catch_corruption(certify):
    w, geom, result = certify
    w.check(geom, result)
    assert w.accuracy["accuracy.gram_max_dev"] < workloads.GRAM_TOL

    gram = result["gram"]
    bad = gram.matrix.copy()
    bad[3, 7] += 1e-6
    with pytest.raises(GateError, match="G-I"):
        w.check(geom, {**result, "gram": dataclasses.replace(gram, matrix=bad)})

    curl = result["curl"]
    lhs = curl.lhs.copy()
    lhs[2, 2] *= 1.0 + 1e-6
    with pytest.raises(GateError, match="curl identity"):
        w.check(geom, {**result, "curl": dataclasses.replace(curl, lhs=lhs)})

    wall = result["walls"][4]
    leaky = dataclasses.replace(wall, max_tangential_u=1e-6 * wall.interior_max_u)
    walls = result["walls"][:4] + [leaky] + result["walls"][5:]
    with pytest.raises(GateError, match="wall ratio"):
        w.check(geom, {**result, "walls": walls})


def test_fields_gates_pass_then_catch_perturbed_amplitude(fields):
    w, inp, result = fields
    w.check(inp, result)
    assert w.accuracy["accuracy.projection_err"] < workloads.PROJECTION_TOL

    projected = result["projected"].copy()
    projected[11] += 1e-6
    with pytest.raises(GateError, match="projection"):
        w.check(inp, {**result, "projected": projected})

    with pytest.raises(GateError, match="energy"):
        w.check(inp, {**result, "energy": result["energy"] * (1.0 + 1e-6)})

    loaded = result["loaded"]
    (md, a), *rest = loaded.entries
    changed = dataclasses.replace(loaded, entries=((md, a * (1.0 + 1e-12)), *rest))
    with pytest.raises(GateError, match="round trip"):
        w.check(inp, {**result, "loaded": changed})

    coarse, fine = result["residuals"]
    flat = dataclasses.replace(fine, faraday=coarse.faraday / 2.0)
    with pytest.raises(GateError, match="Maxwell"):
        w.check(inp, {**result, "residuals": [coarse, flat]})


def test_loop_counts_a_corrupted_result_as_failed(fields, monkeypatch):
    w, inp, result = fields
    projected = result["projected"].copy()
    projected[0] *= 1.0 + 1e-6
    monkeypatch.setattr(w, "steps", lambda inp, traced=None: ({**result, "projected": projected}, []))
    monkeypatch.setattr(w, "inputs", lambda i: inp)
    args = argparse.Namespace(seconds=0.0)
    samples, attempted, failures = run.run_loop(args, w, None)
    assert attempted == 1 and len(failures) == 1 and samples == {False: [], True: []}
    assert "projection amplitude error" in failures[0]["error"]


def test_cli_gates_catch_changed_bytes_and_bad_amplitude(workdir):
    w = workloads.make("cli-cold", 5, workdir / "cli", run.ROOT)
    w.setup()
    inp = w.inputs(0)
    result = w.run(inp)
    w.check(inp, result)
    assert w.accuracy["accuracy.cli_projection_err"] < workloads.PROJECTION_TOL

    # same input again: bytes must match the first session exactly
    code, path = result["project"]
    lines = path.read_text().splitlines()
    m, mu, n, sigma, re, im = lines[5].split(",")
    lines[5] = ",".join([m, mu, n, sigma, repr(float(re) + 1e-6), im])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GateError, match="bytes differ"):
        w.check(inp, result)

    # a first session with the corrupted amplitude fails on the values
    w.first_hashes.clear()
    with pytest.raises(GateError, match="projection amplitude error"):
        w.check(inp, result)

    with pytest.raises(GateError, match="exit status"):
        w.check(inp, {**result, "verify": (1, result["verify"][1])})


def test_tracer_reports_missing_names_without_crashing(monkeypatch):
    monkeypatch.setitem(tracer.PUBLIC, "bessel", tracer.PUBLIC["bessel"] + ("bessel_removed",))
    monkeypatch.setitem(tracer.PUBLIC, "gone", ("anything",))
    t = tracer.Tracer()
    assert "bessel.bessel_removed" in t.unobserved and "gone.anything" in t.unobserved
    import cylcavity as cc

    original = cc.bessel_j
    t.install()
    root = t.begin_op(0)
    try:
        value = cc.bessel_j(0, np.array([0.5, 1.5]))
        cc.u_grid(cc.enumerate_modes(cc.CavityGeometry(0.9, 1.3, 1.0, 1.0, 1.0), 3.0)[0],
                  0.3, 0.0, 0.4)
    finally:
        t.end_op()
        t.uninstall()
    assert cc.bessel_j is original and value.shape == (2,)
    totals = t.layer_totals()
    assert totals["bessel.points"] >= 2 and totals["modefield.calls"] == 1
    layers = sum(totals[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + totals["bench.self_s"] == pytest.approx(totals["bench.wall_s"], rel=1e-9)
    assert t.spans[root][3] == -1


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(list(range(30)))[::2] == (66, 10)
    assert run.tail(list(range(200)))[0] == 95
    p, value, beyond = run.tail([1.0] * 12 + [2.0] * 3)
    assert p == 50 and beyond < run.TAIL_BEYOND
