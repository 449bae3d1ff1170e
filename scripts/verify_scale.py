"""Wall time and peak RSS of `cylcavity verify` at each cutoff given.

Usage: python scripts/verify_scale.py OMEGA_MAX... [VERIFY FLAGS...]
e.g.   python scripts/verify_scale.py 60 80 --suite gram,curl --nr 96 --nz 96

Each cutoff runs `python -m cylcavity verify` on the a = 0.9, L = 1.3
cavity of the README (c = eps0 = hbar = 1) in a fresh child, with this
checkout's src/ first on PYTHONPATH; flags after the cutoffs go to
verify unchanged; without --nr and --nz verify sizes its rule from the
modes.  One row per cutoff: the cutoff, the exit status, the
wall seconds, the child's own peak RSS (ru_maxrss from wait4) in MB and
the sha256 of its stdout.  This script imports no numpy: a child starts
with its parent's high-water RSS mark, so a large parent would set the
figure.
"""

import hashlib
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CAVITY = ["--radius", "0.9", "--height", "1.3", "--speed-of-light", "1", "--vacuum-permittivity", "1",
          "--hbar", "1"]


def run(omega_max: str, flags) -> tuple:
    """(exit status, wall s, peak RSS MB, stdout sha256) of one verify child."""
    argv = [sys.executable, "-m", "cylcavity", "verify", *CAVITY, "--omega-max", omega_max, *flags]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, write_end, 1),
                                                                 (os.POSIX_SPAWN_CLOSE, read_end)])
    os.close(write_end)
    with os.fdopen(read_end, "rb") as out:
        digest = hashlib.sha256(out.read()).hexdigest()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0, digest


def main(argv):
    split = next((i for i, arg in enumerate(argv) if arg.startswith("-")), len(argv))
    cutoffs, flags = argv[:split], argv[split:]
    if not cutoffs:
        raise SystemExit(__doc__)
    print(f"{'omega_max':>9} {'exit':>4} {'wall_s':>7} {'peak_mb':>8} stdout_sha256")
    for omega_max in cutoffs:
        status, wall, peak, digest = run(omega_max, flags)
        print(f"{omega_max:>9} {status:>4} {wall:>7.2f} {peak:>8.1f} {digest}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
