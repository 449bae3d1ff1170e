"""The three benchmark workloads: inputs, one op, and the op's gates.

Every input comes from the workload seed.  Each op draws a fresh cavity
geometry: the README cavity (a = 0.9, L = 1.3, natural units) with both
sides scaled by at most JITTER.  That is small enough that the 20 and 30
lowest modes keep the same indices (the ~880-mode spectrum changes by a
few modes at its cutoff), so every op does the same amount of work, and
large enough that no result can be reused between ops.  Zero tables do not depend on geometry, so they stay warm across
ops, as they would in a library session.

The library is always reached as ``cc.<name>`` at call time, so the
tracer's rebinding of the package attributes is seen here too.

A gate that is exceeded raises GateError; the op then counts as failed.
The limits are the package's own acceptance tolerances.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

import cylcavity as cc
import reference

BASE_A = 0.9
BASE_L = 1.3
JITTER = 0.004

CERTIFY_MODES = 20
CERTIFY_OMEGA = 6.0          # sits in the gap between modes 20 and 21
FIELDS_MODES = 30
FIELDS_OMEGA = 6.5           # sits in the gap between modes 30 and 31
DISPLAY_GRID = 32
MAXWELL_POINTS = 16
MAXWELL_STEPS = (1e-3, 5e-4)
SPECTRUM_OMEGA = 20.0        # ~880 modes
SYNTH_GRID = (30, 30, 30)
CLI_POOL = 3                 # distinct cli-cold inputs, cycled over sessions
CHILD_TIMEOUT_S = 120
OPS, SETUP, POOL = range(3)  # independent random streams drawn from the seed

GRAM_TOL = 1e-8
CURL_REL_TOL = 1e-8
CURL_ABS_TOL = 1e-12
WALL_TOL = 1e-10
ENERGY_TOL = 1e-8
PROJECTION_TOL = 1e-8
MAXWELL_MIN_ORDER = 1.9
ZERO_RESIDUAL_TOL = 1e-12
SYNTH_REL_TOL = 1e-10


class GateError(Exception):
    """A correctness gate was exceeded; the op counts as failed."""


def gate(name: str, value, ok: bool) -> None:
    if not ok:
        raise GateError(f"{name} = {value!r}")


def geometry(rng) -> "cc.CavityGeometry":
    a, L = (base * (1.0 + rng.uniform(-JITTER, JITTER)) for base in (BASE_A, BASE_L))
    return cc.CavityGeometry(a=float(a), L=float(L), c=1.0, eps0=1.0, hbar=1.0)


def _lowest(geom, omega_max: float, count: int) -> list:
    modes = cc.enumerate_modes(geom, omega_max)
    gate("mode count", len(modes), len(modes) == count)
    return modes


def display_grid(geom, sizes):
    """The CLI's display grid: closed in r and z, phi without 2 pi."""
    nr, nphi, nz = sizes
    return (np.linspace(0.0, geom.a, nr),
            np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False),
            np.linspace(0.0, geom.L, nz))


def _accumulate(acc: dict, values: dict) -> None:
    """Keep the worst value of each accuracy figure (orders: the lowest)."""
    for key, value in values.items():
        worse = min if key.endswith("order") else max
        acc[key] = value if key not in acc else worse(acc[key], value)


class Workload:
    """One workload: setup(), inputs(i), steps(inputs) timed, check() untimed.

    An op is a short list of steps run in order.  The loop times each step
    separately, with the reference kernel timed just before it.
    """

    name = ""
    out_bytes = 0               # CLI output of traced ops (cli-cold only)
    out_rows = 0

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.accuracy: dict = {}

    def rng(self, stream: int, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed % 2**64, stream, *key])

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, i: int):
        return geometry(self.rng(OPS, i))

    def steps(self, inp, traced=None):
        """(result dict, [step callables that fill it])."""
        raise NotImplementedError

    def reference_s(self) -> float:
        """Reference time for the next step, which runs in this process."""
        return reference.kernel_s()

    def run(self, inp, traced=None) -> dict:
        """One op without the loop's timing."""
        result, steps = self.steps(inp, traced)
        for step in steps:
            step()
        return result

    def check(self, inp, result) -> None:
        """Raise GateError on a wrong result; fold its errors into accuracy."""
        values = self.measure(inp, result)
        _accumulate(self.accuracy, values)

    def measure(self, inp, result) -> dict:
        raise NotImplementedError

    def count_output(self, result) -> None:
        """Add a traced op's CLI output to out_bytes and out_rows."""

    def peak_rss_kib(self) -> int:
        """Peak resident set of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------- certify

class Certify(Workload):
    """Gram, curl identity and walls of the 20 lowest modes, default rule."""

    name = "certify"

    def setup(self) -> None:
        _lowest(geometry(self.rng(SETUP)), CERTIFY_OMEGA, CERTIFY_MODES)

    def steps(self, geom, traced=None):
        out = {}

        def gram():
            out["modes"] = modes = cc.enumerate_modes(geom, CERTIFY_OMEGA)[:CERTIFY_MODES]
            out["rule"] = rule = cc.default_rule(geom, modes)
            out["gram"] = cc.check_vector_orthonormality(modes, rule)

        def curl():
            out["curl"] = cc.check_curl_identity(out["modes"], out["rule"],
                                                 rel_tol=CURL_REL_TOL, abs_tol=CURL_ABS_TOL)

        def walls():
            out["walls"] = [cc.check_boundary(md) for md in out["modes"]]

        return out, [gram, curl, walls]

    def measure(self, geom, result) -> dict:
        gate("mode count", len(result["modes"]), len(result["modes"]) == CERTIFY_MODES)
        gram = result["gram"]
        gate("gram shape", gram.matrix.shape, gram.matrix.shape == (CERTIFY_MODES,) * 2)
        gram_dev = gram.max_deviation
        gate("max|G-I|", gram_dev, gram_dev < GRAM_TOL)
        curl = result["curl"]
        gate("curl tolerances", (curl.rel_tol, curl.abs_tol),
             (curl.rel_tol, curl.abs_tol) == (CURL_REL_TOL, CURL_ABS_TOL))
        gate("curl identity", curl.max_relative_mismatch, curl.passed)
        walls = max(max(w.tangential_ratio, w.normal_curl_ratio) for w in result["walls"])
        gate("wall ratio", walls, len(result["walls"]) == CERTIFY_MODES and walls < WALL_TOL)
        return {
            "accuracy.gram_max_dev": gram_dev,
            "accuracy.curl_max_rel": curl.max_relative_mismatch,
            "accuracy.curl_max_abs": curl.max_absolute_mismatch,
            "accuracy.wall_max_ratio": walls,
        }


# ------------------------------------------------------------------ fields

class Fields(Workload):
    """A 30-mode state through state I/O, synthesis, energy, projection, FD."""

    name = "fields"

    def setup(self) -> None:
        _lowest(geometry(self.rng(SETUP)), FIELDS_OMEGA, FIELDS_MODES)

    def inputs(self, i: int) -> dict:
        rng = self.rng(OPS, i)
        geom = geometry(rng)
        n = MAXWELL_POINTS
        return {
            "geom": geom,
            "amps": rng.normal(size=FIELDS_MODES) + 1j * rng.normal(size=FIELDS_MODES),
            "t0": float(rng.uniform(0.0, 2.0)),
            "dt": float(rng.uniform(-3.0, 3.0)),
            "points": (rng.uniform(0.17, 0.83, n) * geom.a,
                       rng.uniform(0.0, 2.0 * math.pi, n),
                       rng.uniform(0.12, 0.88, n) * geom.L),
        }

    def steps(self, inp, traced=None):
        geom = inp["geom"]
        out = {}

        def state_and_display():
            modes = cc.enumerate_modes(geom, FIELDS_OMEGA)
            state = cc.FieldState(geom=geom, entries=tuple(zip(modes, inp["amps"])), t=inp["t0"])
            loaded = cc.loads_state(cc.dumps_state(state))
            evolved = cc.evolve(loaded, inp["dt"])
            r, phi, z = display_grid(geom, (DISPLAY_GRID,) * 3)
            grid = (r[:, None, None], phi[None, :, None], z[None, None, :])
            out.update(modes=modes, state=state, loaded=loaded, evolved=evolved,
                       rule=cc.default_rule(geom, modes),
                       e=cc.electric_field_grid(evolved, *grid),
                       b=cc.magnetic_field_grid(evolved, *grid))

        def energy():
            out["energy"] = cc.total_energy(out["evolved"], out["rule"])
            out["mode_sum"] = cc.mode_sum_energy(out["evolved"])

        def projection():
            e_sampler, b_sampler = cc.field_samplers(out["evolved"])
            out["projected"] = cc.project(e_sampler, b_sampler, out["modes"], out["rule"])

        def maxwell():
            out["residuals"] = [cc.maxwell_residual(out["evolved"], inp["points"], h)
                                for h in MAXWELL_STEPS]

        return out, [state_and_display, energy, projection, maxwell]

    def measure(self, inp, result) -> dict:
        state, loaded = result["state"], result["loaded"]
        gate("mode count", len(state.entries), len(state.entries) == FIELDS_MODES)
        exact = (loaded.geom == state.geom and loaded.t == state.t
                 and loaded.entries == state.entries)
        gate("state round trip", "changed", exact)
        for name in ("e", "b"):
            comps = [np.broadcast_to(c, (DISPLAY_GRID,) * 3) for c in result[name]]
            gate(f"{name} on display grid", "not finite",
                 len(comps) == 3 and all(np.all(np.isfinite(c)) for c in comps))
        # the closed form is computed here from the inputs, not by the package
        omegas = np.array([md.omega for md, _ in state.entries])
        expected = inp["amps"] * np.exp(-1j * omegas * inp["dt"])
        closed = float(np.sum(omegas * np.abs(expected) ** 2))
        energy_err = abs(result["energy"] - closed) / closed
        gate("energy relative error", energy_err, energy_err < ENERGY_TOL)
        gate("mode-sum energy", result["mode_sum"],
             abs(result["mode_sum"] - closed) <= ENERGY_TOL * closed)
        proj = np.asarray(result["projected"])
        proj_err = float(np.max(np.abs(proj - expected))) if proj.shape == expected.shape else math.inf
        gate("projection amplitude error", proj_err, proj_err < PROJECTION_TOL)
        coarse, fine = result["residuals"]
        orders = [math.log2(getattr(coarse, k) / getattr(fine, k))
                  for k in ("div_e", "div_b", "faraday", "ampere")]
        gate("Maxwell convergence orders", orders, min(orders) >= MAXWELL_MIN_ORDER)
        return {
            "accuracy.energy_rel_err": energy_err,
            "accuracy.projection_err": proj_err,
            "accuracy.maxwell_min_order": min(orders),
        }


# ---------------------------------------------------------------- cli-cold

def spawn(argv, out_path: Path, err_path: Path, env=None):
    """Run `python argv...` to completion; return (exit code, ru_maxrss KiB).

    stdout and stderr go to files.  The child is reaped with wait4 so its
    own peak RSS is known; a child still running after CHILD_TIMEOUT_S is
    killed and reaped.
    """
    env = dict(os.environ if env is None else env)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        pid = os.posix_spawn(sys.executable, [sys.executable, *map(str, argv)], env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])

    def expire(signum, frame):
        raise TimeoutError(f"child {argv[:2]} still running after {CHILD_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def package_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


class CliCold(Workload):
    """One user session of fresh `python -m cylcavity` processes per op."""

    name = "cli-cold"
    COMMANDS = ("spectrum", "verify", "synth", "project")

    def __init__(self, seed: int, workdir: Path, root: Path):
        super().__init__(seed, workdir, root)
        self.env = package_env(root)
        self.pool: list = []
        self.first_hashes: dict = {}
        self.child_rss_kib = 0

    def setup(self) -> None:
        """Import probe is the caller's; this writes the input files."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for k in range(CLI_POOL):
            rng = self.rng(POOL, k)
            geom = geometry(rng)
            modes = _lowest(geom, FIELDS_OMEGA, FIELDS_MODES)
            amps = rng.normal(size=FIELDS_MODES) + 1j * rng.normal(size=FIELDS_MODES)
            state = cc.FieldState(geom=geom, entries=tuple(zip(modes, amps)),
                                  t=float(rng.uniform(0.0, 2.0)))
            cfg = self.workdir / f"geometry-{k}.cfg"
            cfg.write_text(
                f"radius = {_fmt(geom.a)}\nheight = {_fmt(geom.L)}\nspeed-of-light = 1\n"
                "vacuum-permittivity = 1\nhbar = 1\n", encoding="ascii")
            state_path = self.workdir / f"state-{k}.txt"
            cc.save_state(state, state_path)
            self.pool.append({
                "k": k, "geom": geom, "state": state, "amps": amps,
                "time": float(rng.uniform(0.0, 4.0)), "cfg": cfg, "state_path": state_path,
                "rows": rng.integers(0, np.prod(SYNTH_GRID), size=8),
            })

    def inputs(self, i: int) -> dict:
        return self.pool[i % CLI_POOL]

    def reference_s(self) -> float:
        """Reference time for the next step, which is a fresh CLI process:
        the wall time of a fresh interpreter that runs the kernel."""
        path = self.workdir / "reference.out"
        t0 = time.perf_counter()
        code, _ = spawn([Path(reference.__file__)], path, self.workdir / "reference.err")
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"reference child failed with status {code}")
        return elapsed

    def argvs(self, inp) -> list:
        cfg, st = inp["cfg"], inp["state_path"]
        return [
            ["spectrum", "--config", cfg, "--omega-max", _fmt(SPECTRUM_OMEGA)],
            ["verify", "--config", cfg, "--omega-max", _fmt(FIELDS_OMEGA),
             "--suite", "bessel,boundary"],
            ["synth", "--state", st, "--time", _fmt(inp["time"]),
             "--grid", ",".join(map(str, SYNTH_GRID))],
            ["project", "--state", st, "--omega-max", _fmt(FIELDS_OMEGA)],
        ]

    def steps(self, inp, traced=None):
        """One step per CLI command.  traced(cmd) gives the argv prefix of
        the traced driver; by default the command is `python -m cylcavity`."""
        out = {}

        def command(cmd, argv):
            def step():
                path = self.workdir / f"{cmd}.out"
                prefix = ["-m", "cylcavity"] if traced is None else traced(cmd)
                code, rss = spawn([*prefix, *argv], path, self.workdir / f"{cmd}.err", self.env)
                self.child_rss_kib = max(self.child_rss_kib, rss)
                out[cmd] = (code, path)
            step.__name__ = cmd
            return step

        return out, [command(cmd, argv) for cmd, argv in zip(self.COMMANDS, self.argvs(inp))]

    def measure(self, inp, result) -> dict:
        texts = {}
        for cmd, (code, path) in result.items():
            gate(f"{cmd} exit status", code, code == 0)
            texts[cmd] = path.read_bytes()
        hashes = {cmd: hashlib.sha256(t).hexdigest() for cmd, t in texts.items()}
        first = self.first_hashes.get(inp["k"])
        if first is not None:
            changed = [cmd for cmd in hashes if hashes[cmd] != first[cmd]]
            gate("bytes differ from an earlier session with the same input", changed, not changed)
            return {}
        values = {}
        values.update(self._check_spectrum(inp, texts["spectrum"].decode("ascii")))
        values.update(self._check_verify(texts["verify"].decode("ascii")))
        values.update(self._check_synth(inp, texts["synth"].decode("ascii")))
        values.update(self._check_project(inp, texts["project"].decode("ascii")))
        self.first_hashes[inp["k"]] = hashes
        return values

    def peak_rss_kib(self) -> int:
        """Peak resident set of the largest CLI child."""
        return self.child_rss_kib

    def count_output(self, result) -> None:
        for _, path in result.values():
            data = path.read_bytes()
            self.out_bytes += len(data)
            self.out_rows += data.count(b"\n")

    @staticmethod
    def _csv(text: str, header: str) -> np.ndarray:
        lines = text.splitlines()
        gate("csv header", lines[:1], lines[:1] == [header])
        return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    def _check_spectrum(self, inp, text: str) -> dict:
        rows = self._csv(text, "m,mu,n,sigma,chi,g,h,k,omega,alpha,c_norm")
        expected = cc.enumerate_modes(inp["geom"], SPECTRUM_OMEGA)
        got = [tuple(int(v) for v in row[:4]) for row in rows]
        want = [(md.index.m, md.index.mu, md.index.n, md.index.sigma) for md in expected]
        gate("spectrum rows", (len(got), len(want)), got == want)
        omega = rows[:, 8]
        gate("spectrum omega order", "unsorted or above cutoff",
             bool(np.all(np.diff(omega) >= 0.0) and omega[-1] <= SPECTRUM_OMEGA))
        m, sigma, chi = np.abs(rows[:, 0]).astype(int), rows[:, 3].astype(int), rows[:, 4]
        residual = 0.0
        for order in np.unique(m):
            for s, f in ((cc.TM, cc.bessel_j), (cc.TE, cc.bessel_j_prime)):
                sel = (m == order) & (sigma == s)
                if np.any(sel):
                    residual = max(residual, float(np.max(np.abs(f(int(order), chi[sel])))))
        gate("spectrum zero residual", residual, residual < ZERO_RESIDUAL_TOL)
        return {"accuracy.cli_zero_residual": residual}

    def _check_verify(self, text: str) -> dict:
        report = json.loads(text)
        suites = report["suites"]
        bessel, walls = suites["bessel"], suites["boundary"]
        ratio = max(walls["max_tangential_ratio"], walls["max_normal_curl_ratio"])
        gate("verify passed", report["passed"], report["passed"] is True)
        gate("verify mode count", report["mode_count"], report["mode_count"] == FIELDS_MODES)
        gate("verify zero residual", bessel["max_residual"],
             bessel["max_residual"] <= ZERO_RESIDUAL_TOL and bessel["passed"] is True)
        gate("verify wall ratio", ratio, ratio < WALL_TOL and walls["passed"] is True)
        return {"accuracy.cli_verify_zero_residual": bessel["max_residual"],
                "accuracy.cli_wall_max_ratio": ratio}

    def _check_synth(self, inp, text: str) -> dict:
        rows = self._csv(text, "r,phi,z,e_r,e_phi,e_z,b_r,b_phi,b_z")
        r, phi, z = display_grid(inp["geom"], SYNTH_GRID)
        gate("synth rows", len(rows), len(rows) == int(np.prod(SYNTH_GRID)))
        coords = np.stack(np.meshgrid(r, phi, z, indexing="ij"), axis=-1).reshape(-1, 3)
        gate("synth grid", "coordinates differ", bool(np.all(rows[:, :3] == coords)))
        # a few seeded rows against the library, evaluated point by point
        state = cc.evolve(inp["state"], inp["time"] - inp["state"].t)
        pick = rows[inp["rows"]]
        e = cc.electric_field_grid(state, pick[:, 0], pick[:, 1], pick[:, 2])
        b = cc.magnetic_field_grid(state, pick[:, 0], pick[:, 1], pick[:, 2])
        want = np.stack([*e, *b], axis=1)
        scale = float(np.max(np.abs(rows[:, 3:])))
        dev = float(np.max(np.abs(pick[:, 3:] - want))) / scale
        gate("synth field deviation", dev, dev < SYNTH_REL_TOL)
        return {"accuracy.cli_synth_rel_dev": dev}

    def _check_project(self, inp, text: str) -> dict:
        rows = self._csv(text, "m,mu,n,sigma,re_a,im_a")
        state = inp["state"]
        got = [tuple(int(v) for v in row[:4]) for row in rows]
        want = [(md.index.m, md.index.mu, md.index.n, md.index.sigma) for md, _ in state.entries]
        gate("project rows", len(got), got == want)
        err = float(np.max(np.abs(rows[:, 4] + 1j * rows[:, 5] - inp["amps"])))
        gate("cli projection amplitude error", err, err < PROJECTION_TOL)
        return {"accuracy.cli_projection_err": err}


WORKLOADS = {w.name: w for w in (Certify, Fields, CliCold)}


def make(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    return WORKLOADS[name](seed, workdir, root)
