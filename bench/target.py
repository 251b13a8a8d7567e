"""The serving target: one ``MatchingServer`` process under load.

Started by :mod:`serve` as::

    python bench/target.py --algorithm demcom --requests 4000 --seed 17 --dir DIR [--spans FILE]

It builds the trace from the seed, starts a journaled gateway (default
``JournalConfig`` under ``DIR/journal``, which writes the initial
checkpoint) with a ``COMEVT1`` event log at ``DIR/events.comevt``, listens
on an ephemeral loopback port and prints ``{"port": N}`` once it is ready.
Each ``calibrate`` line on its standard input runs the calibration kernel
in this process and answers ``{"calibration_s": S}``, so the load
generator learns the speed of the CPU the target runs on.  It serves
until its standard input closes, then prints one JSON line with its peak
RSS and the journal and event-log sizes.  With ``--spans`` every
layer in :data:`tracing.LAYERS` is wrapped and the spans are written to
``FILE`` at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

import common

common.ensure_program()

from repro.service import JournalConfig, MatchingGateway, MatchingServer  # noqa: E402

from tracing import Tracer, write_spans  # noqa: E402
from workloads import build_trace, sim_config  # noqa: E402


async def _serve(server: MatchingServer) -> None:
    _, port = await server.start()
    print(json.dumps({"port": port}), flush=True)
    loop = asyncio.get_running_loop()
    closed = loop.create_future()
    stdin = sys.stdin.buffer

    def on_input() -> None:
        data = stdin.read1(4096)
        for _ in range(data.count(b"calibrate\n")):
            print(json.dumps({"calibration_s": common.calibration_s()}), flush=True)
        if not data and not closed.done():
            loop.remove_reader(stdin.fileno())
            closed.set_result(None)

    loop.add_reader(stdin.fileno(), on_input)
    try:
        await closed
    finally:
        await server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    tracer = Tracer(f"{args.algorithm}-{args.seed}-{args.dir.name}").install() if args.spans else None
    journal = JournalConfig(directory=args.dir / "journal")
    gateway = MatchingGateway(
        scenario=build_trace(args.requests, args.seed),
        algorithm=args.algorithm,
        config=sim_config(),
        journal=journal,
        events=args.dir / "events.comevt",
    )
    asyncio.run(_serve(MatchingServer(gateway)))
    report = {
        "peak_rss_mb": common.peak_rss_mb(),
        "journal_bytes": journal.journal_path.stat().st_size,
        "events_bytes": (args.dir / "events.comevt").stat().st_size,
    }
    if tracer is not None:
        tracer.uninstall()
        write_spans(args.spans, tracer.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
