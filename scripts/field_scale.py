"""Warm time and accuracy of `total_energy`, synthesis and `project` at each cutoff given.

Usage: python scripts/field_scale.py OMEGA_MAX... [--nr N] [--nz N] [--nphi N]
e.g.   python scripts/field_scale.py 40 80 --nr 96 --nz 96

Each cutoff takes every mode with omega <= OMEGA_MAX in the a = 0.9,
L = 1.3 cavity of the README (c = eps0 = hbar = 1), with amplitudes from
a generator of fixed seed, on default_rule of the modes, with the sizes
given by --nr, --nz and --nphi in place of its own (nphi 0, the default,
keeps default_nphi of the modes).  One row per cutoff: the
cutoff, the mode count, the median seconds of three calls of
`total_energy`, of E and B from `field_samplers` on the rule grid and of
`project` after one untimed call of each (a `project` call includes its
samplers' syntheses on the rule grid), the energy's relative error
against `mode_sum_energy` and the largest amplitude error of `project`.
When nphi aliases two of the modes and their conjugates, `total_energy`
and `project` raise and their columns read `raises`.
"""

import argparse
import dataclasses
import statistics
import sys
import time

import numpy as np

from cylcavity import (CavityGeometry, FieldState, default_rule, enumerate_modes, field_samplers, mode_sum_energy,
                       project, total_energy)

GEOM = CavityGeometry(a=0.9, L=1.3, c=1.0, eps0=1.0, hbar=1.0)
SEED = 7


def warm(call) -> tuple:
    """(median seconds of three calls after one untimed call, the last result),
    or ("raises", None) when the call raises ValueError."""
    try:
        call()
    except ValueError:
        return "raises", None
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return f"{statistics.median(times):.3g}", result


def row(omega_max: float, nr, nphi: int, nz) -> str:
    modes = enumerate_modes(GEOM, omega_max)
    rng = np.random.default_rng(SEED)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    state = FieldState(geom=GEOM, entries=tuple(zip(modes, amps)))
    rule = default_rule(GEOM, modes, nr=nr, nz=nz)
    rule = dataclasses.replace(rule, nphi=nphi) if nphi else rule
    energy_s, energy = warm(lambda: total_energy(state, rule))
    synth_s, _ = warm(lambda: [sampler(*rule.grid()) for sampler in field_samplers(state)])
    project_s, got = warm(lambda: project(*field_samplers(state), modes, rule))
    closed = mode_sum_energy(state)
    energy_err = "raises" if energy is None else f"{abs(energy - closed) / closed:.1e}"
    amp_err = "raises" if got is None else f"{float(np.max(np.abs(got - amps), initial=0.0)):.1e}"
    return f"{omega_max:>9g} {len(modes):>7} {energy_s:>8} {synth_s:>8} {project_s:>9} {energy_err:>10} {amp_err:>9}"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("omega_max", type=float, nargs="+")
    parser.add_argument("--nr", type=int, default=None, help="default: sized from the modes")
    parser.add_argument("--nz", type=int, default=None, help="default: sized from the modes")
    parser.add_argument("--nphi", type=int, default=0, help="0 takes default_nphi of the modes")
    args = parser.parse_args(argv)
    print(f"{'omega_max':>9} {'modes':>7} {'energy_s':>8} {'synth_s':>8} {'project_s':>9} {'energy_err':>10} "
          f"{'amp_err':>9}")
    for omega_max in args.omega_max:
        print(row(omega_max, args.nr, args.nphi, args.nz), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
