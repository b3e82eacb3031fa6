"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; see ``perfbench/README.md``.  Exit code 0 means a result was printed
(``"correct"`` says whether every output check passed); 2 means the
benchmark could not run at all, for instance without ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("table3", "large_array", "serve_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    out_dir = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    from perfbench import batch, serve_mix

    trace = bool(args.trace)
    if args.workload == "serve_mix":
        outcome = serve_mix.run_serve_mix(args.seed, args.seconds, trace, out_dir, SRC)
    else:
        outcome = batch.run_batch(args.workload, args.seed, args.seconds, trace, out_dir, SRC)
    result = outcome.result(trace)
    outcome.print_notes()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
