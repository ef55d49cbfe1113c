"""Traced solver daemon: the span recorder around ``netsampling serve``.

Installs :mod:`tracer`'s wrappers, then hands over to the daemon's
public entry point (``repro.cli.main(["serve", ...])``).  ``SIGUSR1``
drops everything recorded so far, so the benchmark can discard its
untimed warm-up; the spans are written to ``--spans`` when the daemon
shuts down.  Usage::

    python3 perfbench/serve_daemon.py --socket PATH --spans OUT.npz
"""

from __future__ import annotations

import argparse
import signal
import sys

import tracer
from common import SRC_DIR

sys.path.insert(0, str(SRC_DIR))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    import repro.cli
    import repro.serve.server  # noqa: F401  (the wrappers cover serve too)

    rec = tracer.Recorder()
    tracer.install(rec)
    signal.signal(signal.SIGUSR1, lambda *_: rec.reset())
    try:
        return repro.cli.main(["serve", "--socket", args.socket])
    finally:
        rec.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
