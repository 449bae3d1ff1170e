"""Run one cylcavity CLI command under the tracer and save its spans.

Usage: python perfbench/cli_child.py SPANS.json SUBCOMMAND [OPTIONS...]

The command's stdout, stderr and exit status are those of
``python -m cylcavity SUBCOMMAND [OPTIONS...]``; the spans of the call
are written to SPANS.json for the parent to merge into its op.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cylcavity.cli  # noqa: E402  (after the path insert)

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cylcavity.cli.main(argv)
    except SystemExit as exc:           # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans,
                       "counters": tracer.counters, "unobserved": tracer.unobserved}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
