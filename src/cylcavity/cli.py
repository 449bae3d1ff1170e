"""Command line front end.

Subcommands:

    bessel-zeros   table of J_m / J_m' zeros, CSV
    spectrum       enumerate modes below a frequency cutoff, CSV
    eval           one mode function on a display grid, CSV
    verify         orthonormality / boundary / curl / zero checks, JSON
    synth          E and B of a saved state on a display grid, CSV
    project        recover amplitudes of target modes from a saved state, CSV

Every option may also be supplied through a `key = value` config file
passed with --config; its values become the subcommand's defaults, so
argparse converts them with the same converter as the flag, explicit
command line flags win, and unknown config keys are rejected.  All numbers
are printed with 17 significant digits so repeated runs are byte-identical.

Exit status: 0 on success (for `verify`, all requested suites passed),
1 when the library rejects a value or a check fails, 2 for malformed
usage (unknown options, unparseable values, unknown config keys), which
argparse reports as `cylcavity SUB: error: ...`.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .bessel import zero_table
from .spectrum import (
    _GEOMETRY_KEYS,
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    CavityGeometry,
    ModeIndex,
    _modes,
    enumerate_modes,
    mode_data,
)
from .modefield import u_grid
from .synthesis import _synthesize, evolve, field_samplers, project
from .verify import _SUITES, DEFAULT_NR, DEFAULT_NZ, _run_suites, default_rule
from .stateio import _read_pairs, load_state

_REQUIRED = object()
_LABEL = operator.attrgetter("m", "mu", "n", "sigma")       # a ModeIndex's CSV fields


def _parse_kind(raw: str) -> str:
    if raw not in ("j", "jprime"):
        raise argparse.ArgumentTypeError(f"expected 'j' or 'jprime', got {raw!r}")
    return raw


def _ints(fields, raw: str) -> tuple:
    try:
        return tuple(int(f) for f in fields)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {raw!r}") from None


_SIGMA_NAMES = {"1": 1, "2": 2, "tm": 1, "te": 2}


def _parse_mode_index(raw: str) -> tuple:
    # syntax only; ModeIndex itself validates ranges inside the handler
    fields = [f.strip() for f in raw.split(",")]
    if len(fields) != 4:
        raise argparse.ArgumentTypeError(f"expected 'm,mu,n,sigma', got {raw!r}")
    sigma = _SIGMA_NAMES.get(fields[3].lower())
    if sigma is None:
        raise argparse.ArgumentTypeError(f"sigma must be 1, 2, tm or te, got {fields[3]!r}")
    return (*_ints(fields[:3], raw), sigma)


def _parse_mode_list(raw: str) -> tuple:
    parts = [p for p in (s.strip() for s in raw.split(";")) if p]
    if not parts:
        raise argparse.ArgumentTypeError(f"expected 'm,mu,n,sigma[;m,mu,n,sigma...]', got {raw!r}")
    return tuple(_parse_mode_index(p) for p in parts)


def _parse_grid(raw: str) -> tuple:
    fields = raw.split(",")
    if len(fields) != 3:
        raise argparse.ArgumentTypeError(f"expected 'nr,nphi,nz', got {raw!r}")
    sizes = _ints(fields, raw)
    if any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"grid sizes must be >= 1, got {raw!r}")
    return sizes


def _parse_suites(raw: str) -> tuple:
    if raw == "all":
        return _SUITES
    names = tuple(s.strip() for s in raw.split(","))
    for name in names:
        if name not in _SUITES:
            raise argparse.ArgumentTypeError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)} or 'all'")
    return names


@dataclass(frozen=True)
class _Opt:
    name: str
    convert: object
    default: object = _REQUIRED
    help_text: str = ""


_GEOMETRY_OPTS = (
    _Opt("radius", float, help_text="cavity radius a"),
    _Opt("height", float, help_text="cavity height L"),
    _Opt("speed-of-light", float, SPEED_OF_LIGHT, "wave speed (default SI vacuum value)"),
    _Opt("vacuum-permittivity", float, VACUUM_PERMITTIVITY, "eps0 (default SI value)"),
    _Opt("hbar", float, HBAR, "reduced Planck constant (default SI value)"),
)


def _geometry(values: dict) -> CavityGeometry:
    return CavityGeometry(**{name: values[key] for key, name in _GEOMETRY_KEYS})


def _read_config(sub: argparse.ArgumentParser, path: str, known: set) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        sub.error(f"cannot read config file {path}: {exc}")
    try:
        pairs = _read_pairs(text, known, canon=lambda key: key.replace("_", "-"))
    except ValueError as exc:
        sub.error(f"config file {path}: {exc}")
    return {key.replace("-", "_"): value for key, [(value, _)] in pairs.items()}


def _emit_rows(header: str, row: str, values) -> None:
    """CSV: header, then row % v for each tuple v (%.17g is stateio._fmt's text)."""
    sys.stdout.write("\n".join([header, *(row % v for v in values)]) + "\n")


# ----------------------------------------------------------- subcommands

def _cmd_bessel_zeros(values: dict) -> int:
    table = zero_table(values["m"], values["kind"], values["count"])
    _emit_rows("m,mu,kind,zero", f"{table.m},%d,{table.kind},%.17g", enumerate(table.zeros, start=1))
    return 0


def _cmd_spectrum(values: dict) -> int:
    geom = _geometry(values)
    modes = enumerate_modes(geom, values["omega_max"])
    _emit_rows("m,mu,n,sigma,chi,g,h,k,omega,alpha,c_norm", "%d,%d,%d,%d" + ",%.17g" * 7,
               ((*_LABEL(md.index), md.chi, md.g, md.h, md.k, md.omega, md.alpha, md.c_norm) for md in modes))
    return 0


def _display_grid(geom: CavityGeometry, sizes: tuple):
    nr, nphi, nz = sizes
    return (np.linspace(0.0, geom.a, nr), np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False),
            np.linspace(0.0, geom.L, nz))


def _emit_grid(header: str, r, phi, z, columns) -> None:
    """CSV rows r, phi, z, then each column's value, over the display grid,
    written one radius at a time, so only one (phi, z) slab of rows is held
    as text; each coordinate is formatted once on its axis."""
    shape = (len(r), len(phi), len(z))
    rs, phis, zs = (["%.17g" % v for v in np.asarray(axis, dtype=float).tolist()] for axis in (r, phi, z))
    row = ",%.17g" * len(columns) + "\n"      # _fmt's text, one format per row
    sys.stdout.write(header + "\n")
    for i, rv in enumerate(rs):
        slab = zip(*(np.broadcast_to(c, shape)[i].ravel().tolist() for c in columns))
        nodes = [f"{rv},{pv},{zv}" for pv in phis for zv in zs]
        sys.stdout.write("".join(node + row % values for node, values in zip(nodes, slab)))


def _cmd_eval(values: dict) -> int:
    geom = _geometry(values)
    md = mode_data(geom, ModeIndex(*values["mode"]))
    r, phi, z = _display_grid(geom, values["grid"])
    u = u_grid(md, r[:, None, None], phi[None, :, None], z[None, None, :])
    _emit_grid("r,phi,z,re_u_r,im_u_r,re_u_phi,im_u_phi,re_u_z,im_u_z", r, phi, z,
               [part for c in u for part in (c.real, c.imag)])
    return 0


def _cmd_synth(values: dict) -> int:
    state = load_state(values["state"])
    if values["time"] is not None:
        state = evolve(state, values["time"] - state.t)
    r, phi, z = _display_grid(state.geom, values["grid"])
    e, b = _synthesize(state, r[:, None, None], phi[None, :, None], z[None, None, :], "EB")
    _emit_grid("r,phi,z,e_r,e_phi,e_z,b_r,b_phi,b_z", r, phi, z, [*e, *b])
    return 0


def _cmd_project(values: dict) -> int:
    if (values["modes"] is None) == (values["omega_max"] is None):
        values["sub"].error("give exactly one of --modes and --omega-max")
    state = load_state(values["state"])
    if values["modes"] is not None:
        targets = _modes(state.geom, [ModeIndex(*t) for t in values["modes"]])
    else:
        targets = enumerate_modes(state.geom, values["omega_max"])
    # nphi from the field's modes and the targets together: it resolves both
    rule = default_rule(state.geom, list(state.modes) + list(targets), nr=values["nr"], nz=values["nz"])
    e_sampler, b_sampler = field_samplers(state)
    amps = project(e_sampler, b_sampler, targets, rule)
    _emit_rows("m,mu,n,sigma,re_a,im_a", "%d,%d,%d,%d,%.17g,%.17g",
               ((*_LABEL(md.index), a.real, a.imag) for md, a in zip(targets, amps.tolist())))
    return 0


def _cmd_verify(values: dict) -> int:
    tolerances = {key: v for key, v in values.items() if key.endswith("_tol")}
    report = _run_suites(_geometry(values), values["omega_max"], values["suite"],
                         values["nr"], values["nz"], tolerances)
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["passed"] else 1


_COMMANDS = (
    (
        "bessel-zeros",
        "print the first zeros of J_m or J_m' as CSV",
        (
            _Opt("m", int, help_text="Bessel order (non-negative integer)"),
            _Opt("kind", _parse_kind, "j", "'j' for J_m zeros, 'jprime' for J_m' zeros"),
            _Opt("count", int, 10, "how many zeros"),
        ),
        _cmd_bessel_zeros,
    ),
    (
        "spectrum",
        "enumerate all modes with omega <= omega-max as CSV",
        _GEOMETRY_OPTS + (_Opt("omega-max", float, help_text="angular frequency cutoff"),),
        _cmd_spectrum,
    ),
    (
        "eval",
        "evaluate one vector mode function on a grid as CSV",
        _GEOMETRY_OPTS
        + (
            _Opt("mode", _parse_mode_index, help_text="mode index 'm,mu,n,sigma' (sigma: 1/2/tm/te)"),
            _Opt("grid", _parse_grid, (8, 8, 8), "display grid 'nr,nphi,nz'"),
        ),
        _cmd_eval,
    ),
    (
        "verify",
        "run numerical certification suites, print a JSON report",
        _GEOMETRY_OPTS
        + (
            _Opt("omega-max", float, help_text="angular frequency cutoff for the mode set"),
            _Opt("suite", _parse_suites, _SUITES,
                 "comma list from bessel,gram,curl,boundary (default all)"),
            _Opt("nr", int, DEFAULT_NR, "radial quadrature order"),
            _Opt("nz", int, DEFAULT_NZ, "axial quadrature order"),
            _Opt("gram-tol", float, 1e-8, "orthonormality tolerance"),
            _Opt("curl-rel-tol", float, 1e-8, "curl identity relative tolerance"),
            _Opt("curl-abs-tol", float, 1e-12, "curl identity absolute tolerance"),
            _Opt("boundary-tol", float, 1e-10, "wall leakage tolerance (relative to interior)"),
            _Opt("bessel-tol", float, 1e-12, "zero residual tolerance"),
        ),
        _cmd_verify,
    ),
    (
        "synth",
        "synthesize real E and B fields of a saved state on a grid as CSV",
        (
            _Opt("state", str, help_text="state file path"),
            _Opt("time", float, None, "evolve to this absolute time (default: file time)"),
            _Opt("grid", _parse_grid, (8, 8, 8), "display grid 'nr,nphi,nz'"),
        ),
        _cmd_synth,
    ),
    (
        "project",
        "recover mode amplitudes of a saved state by field projection, CSV",
        (
            _Opt("state", str, help_text="state file path"),
            _Opt("modes", _parse_mode_list, None,
                 "target modes 'm,mu,n,sigma;...' (alternative to --omega-max)"),
            _Opt("omega-max", float, None, "project onto all modes below this cutoff"),
            _Opt("nr", int, DEFAULT_NR, "radial quadrature order"),
            _Opt("nz", int, DEFAULT_NZ, "axial quadrature order"),
        ),
        _cmd_project,
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylcavity",
        description="Mode structure and quantized-field tools for a circular cylindrical cavity.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, doc, opts, handler in _COMMANDS:
        sub = subparsers.add_parser(name, help=doc, description=doc)
        for opt in opts:
            sub.add_argument(f"--{opt.name}", type=opt.convert, default=opt.default, metavar="V", help=opt.help_text)
        sub.add_argument("--config", default=None, metavar="FILE",
                         help="key = value file supplying any of the above options")
        sub.set_defaults(handler=handler, opts=opts, sub=sub)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:     # the file's values become defaults, converted like flags
        args.sub.set_defaults(**_read_config(args.sub, args.config, {o.name for o in args.opts}))
        args = parser.parse_args(argv)
    for opt in args.opts:
        if getattr(args, opt.name.replace("-", "_")) is _REQUIRED:
            args.sub.error(f"missing required option --{opt.name}")
    try:
        return args.handler(vars(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
