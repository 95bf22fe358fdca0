"""Default-size digest check of the analytic paper figures.

Runs fig03, fig05, fig06, fig14, fig15 and fig17 exactly as
``python -m repro.experiments <id>`` does (default configs), hashes
each report's full-precision canonical JSON (``FigureReport.digest``,
as ``PINNED_REPORT_DIGESTS`` in ``test_figures.py`` does) and compares it with
the committed ``default_size_digests.json``.  Test-size runs are too
short to cross many chunk boundaries of the access streams; these
full-size runs are not.

    PYTHONPATH=src python tests/experiments/default_size_digests.py
    PYTHONPATH=src python tests/experiments/default_size_digests.py --write

Prints the wall time of every id and exits non-zero on any mismatch.
``--write`` regenerates the JSON; do that only for a deliberate model
change, together with the reason.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments.cli import run_experiment

DIGESTS_PATH = Path(__file__).resolve().with_suffix(".json")
IDS = ("fig03", "fig05", "fig06", "fig14", "fig15", "fig17")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the committed digests")
    args = parser.parse_args(argv)
    pinned = {} if args.write else json.loads(DIGESTS_PATH.read_text())
    digests = {}
    failures = []
    for name in IDS:
        start = time.perf_counter()
        digests[name] = run_experiment(name).digest()
        wall = time.perf_counter() - start
        status = "written" if args.write else (
            "ok" if digests[name] == pinned.get(name) else "MISMATCH")
        if status == "MISMATCH":
            failures.append(name)
        print(f"{name:<6} {wall:7.2f} s  {digests[name][:20]}  {status}")
    if args.write:
        DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
