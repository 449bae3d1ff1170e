"""Plain-text persistence for field states.

Format: one `key = value` pair per line, `#` starts a comment.  Scalar
keys appear once; each mode line carries the index and amplitude:

    format_version = 1
    radius = 0.9
    height = 1.3
    speed_of_light = 1
    vacuum_permittivity = 1
    hbar = 1
    time = 0
    mode = 0 1 0 1 0.25 -1.5

The six mode fields are m, mu, n, sigma, Re(a), Im(a).  Floats are
written with repr-faithful precision (%.17g) so a save/load round trip
is exact.  Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

from .spectrum import _GEOMETRY_KEYS, CavityGeometry, ModeIndex, _modes
from .synthesis import FieldState

FORMAT_VERSION = 1

_SCALAR_KEYS = {"format_version", *(key for key, _ in _GEOMETRY_KEYS), "time"}


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _read_pairs(text: str, known, repeatable=(), canon=lambda key: key) -> dict:
    """Parse `key = value` lines into {key: [(value, lineno), ...]}.

    `#` starts a comment and blank lines are skipped.  Keys pass through
    `canon` and must be in `known`; only keys in `repeatable` may appear
    more than once.  Errors raise ValueError naming the line.
    """
    pairs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = canon(key.strip())
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in pairs and key not in repeatable:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs.setdefault(key, []).append((value.strip(), lineno))
    return pairs


def dumps_state(state: FieldState) -> str:
    geom = state.geom
    lines = [
        f"format_version = {FORMAT_VERSION}",
        *(f"{key} = {_fmt(getattr(geom, name))}" for key, name in _GEOMETRY_KEYS),
        f"time = {_fmt(state.t)}",
    ]
    for md, a in state.entries:
        idx = md.index
        lines.append(
            f"mode = {idx.m} {idx.mu} {idx.n} {idx.sigma} {_fmt(a.real)} {_fmt(a.imag)}"
        )
    return "\n".join(lines) + "\n"


def save_state(state: FieldState, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_state(state))


def _parse_mode(value: str, lineno: int):
    fields = value.split()
    if len(fields) != 6:
        raise ValueError(
            f"line {lineno}: mode needs 6 fields (m mu n sigma re im), got {len(fields)}"
        )
    try:
        m, mu, n, sigma = (int(f) for f in fields[:4])
        re, im = (float(f) for f in fields[4:])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad mode entry {value!r}") from exc
    return ModeIndex(m=m, mu=mu, n=n, sigma=sigma), complex(re, im)


def loads_state(text: str) -> FieldState:
    pairs = _read_pairs(text, _SCALAR_KEYS | {"mode"}, repeatable={"mode"})
    raw_modes = [_parse_mode(value, lineno) for value, lineno in pairs.pop("mode", ())]

    missing = _SCALAR_KEYS - pairs.keys()
    if missing:
        raise ValueError(f"missing keys: {', '.join(sorted(missing))}")

    def scalar(key: str) -> float:
        [(value, lineno)] = pairs[key]
        try:
            return float(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad number for {key!r}: {value!r}") from exc

    version = scalar("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version:g}, expected {FORMAT_VERSION}")

    geom = CavityGeometry(**{name: scalar(key) for key, name in _GEOMETRY_KEYS})
    entries = tuple(zip(_modes(geom, [idx for idx, _ in raw_modes]), [a for _, a in raw_modes]))
    return FieldState(geom=geom, entries=entries, t=scalar("time"))


def load_state(path) -> FieldState:
    with open(path, "r", encoding="ascii") as fh:
        return loads_state(fh.read())
