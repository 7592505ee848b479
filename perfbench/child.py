"""Processes the benchmark starts besides ``python -m repro`` itself.

Run from the root of a checkout, with ``src`` on ``PYTHONPATH``::

    python3 perfbench/child.py probe PLAN
    python3 perfbench/child.py cli --spans OUT -- suite-run PLAN ...

``probe`` imports the CLI and loads a plan, then exits: the start-up
cost every fresh ``repro`` process pays. ``cli`` runs one ``repro``
command with layer spans installed and writes them to ``OUT``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time

import layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    probe = commands.add_parser("probe")
    probe.add_argument("plan")
    cli = commands.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.command == "probe":
        import repro.cli  # noqa: F401
        from repro.runner import CampaignPlan

        CampaignPlan.from_file(args.plan)
        return 0
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    layers.install(args.spans)
    from repro.cli import main as repro_main

    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro_main(argv)
    layers.dump(args.spans, time.perf_counter() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
