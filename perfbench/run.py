"""Run one benchmark workload and print its result as the last line.

From the repository root::

    python3 perfbench/run.py --workload static --seed 1 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  The line
before the result carries the output digest, the environment fingerprint
and the workload's figures under their own names.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("static", "serve-rw", "congest-sim")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no source tree at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # Single-threaded numerics: the workloads are defined single-threaded
    # (serve-rw adds one pool worker), and BLAS threads would add noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import harness
    import networkx  # noqa: F401 - part of the import cost setup_s counts
    import repro.core  # noqa: F401
    import repro.congest  # noqa: F401
    import repro.dynamic  # noqa: F401
    import repro.serve  # noqa: F401

    import_s = time.perf_counter() - t_start
    trace = bool(args.trace)
    if args.workload == "static":
        import static

        outcome = static.run(args.seed, args.seconds, trace, import_s)
    elif args.workload == "serve-rw":
        import serve_rw

        outcome = serve_rw.run(args.seed, args.seconds, trace, import_s, ROOT)
    else:
        import congest_sim

        outcome = congest_sim.run(args.seed, args.seconds, trace, import_s)
    harness.emit(outcome, trace, ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
