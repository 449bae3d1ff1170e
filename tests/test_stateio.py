"""State file round trips and schema enforcement."""

import numpy as np
import pytest

from cylcavity import (
    FORMAT_VERSION,
    CavityGeometry,
    FieldState,
    dumps_state,
    enumerate_modes,
    load_state,
    loads_state,
    save_state,
)


@pytest.fixture
def state(unit_geom, rng):
    modes = enumerate_modes(unit_geom, 5.0)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return FieldState(geom=unit_geom, entries=tuple(zip(modes, amps)), t=0.125)


def test_text_round_trip_is_exact(state):
    back = loads_state(dumps_state(state))
    assert back.geom == state.geom
    assert back.t == state.t
    assert back.modes == state.modes
    assert np.array_equal(back.amplitudes, state.amplitudes)
    assert dumps_state(back) == dumps_state(state)


def test_file_round_trip(state, tmp_path):
    path = tmp_path / "state.txt"
    save_state(state, path)
    back = load_state(path)
    assert back.modes == state.modes
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_header_declares_format_version(state):
    assert dumps_state(state).splitlines()[0] == f"format_version = {FORMAT_VERSION}"


def test_comments_and_blank_lines_ignored(state):
    text = "# saved state\n\n" + dumps_state(state) + "\n# trailing\n"
    assert loads_state(text).t == state.t


def test_si_geometry_round_trip(si_geom):
    modes = enumerate_modes(si_geom, 1.2 * si_geom.c * 2.405 / si_geom.a)
    state = FieldState(geom=si_geom, entries=((modes[0], 1e-3 + 2e-4j),), t=1e-12)
    back = loads_state(dumps_state(state))
    assert back.geom == si_geom
    assert back.t == 1e-12
    assert back.amplitudes[0] == 1e-3 + 2e-4j


@pytest.mark.parametrize("mutate,needle", [
    (lambda t: t.replace("format_version = 1", "format_version = 3"), "format_version"),
    (lambda t: t + "extra = 1\n", "unknown key"),
    (lambda t: t + "time = 9\n", "duplicate"),
    (lambda t: t.replace("radius", "raduis"), "unknown key"),
    (lambda t: t + "mode = 0 1 0 1 0.5\n", "6 fields"),
    (lambda t: t + "mode = 0 1 0 9 0.5 0.5\n", "sigma"),
    (lambda t: t.replace("time = 0.125", "time = soon"), "time"),
    (lambda t: t.replace("height = 1.3", "height -> 1.3"), "key = value"),
    (lambda t: t + "mode = 0 1 0 1 0.5 half\n", "bad mode entry"),
    (lambda t: t + "mode = 0 one 0 1 0.5 0.5\n", "bad mode entry"),
])
def test_malformed_inputs_rejected(state, mutate, needle):
    with pytest.raises(ValueError, match=needle):
        loads_state(mutate(dumps_state(state)))


def test_missing_scalar_rejected(state):
    text = "\n".join(line for line in dumps_state(state).splitlines()
                     if not line.startswith("hbar"))
    with pytest.raises(ValueError, match="missing"):
        loads_state(text)


def test_empty_state_round_trip(unit_geom):
    state = FieldState(geom=unit_geom, entries=())
    back = loads_state(dumps_state(state))
    assert back.entries == ()
    assert back.geom == unit_geom


def test_geometry_constants_restored():
    geom = CavityGeometry(a=0.04, L=0.11)
    state = FieldState(geom=geom, entries=())
    back = loads_state(dumps_state(state))
    assert back.geom.c == geom.c
    assert back.geom.eps0 == geom.eps0
    assert back.geom.hbar == geom.hbar
