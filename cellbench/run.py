"""Cell benchmark: seconds per ``train -> evaluate -> verify`` cell of the paper systems.

Run from the root of a source checkout::

    python3 cellbench/run.py --workload cell-vanderpol --seed 0 --seconds 20 --trace 0

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it records the
pinned inputs.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  See ``cellbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: BLAS threads, fixed before NumPy loads.  The kernels are small (32- and
#: 64-wide layers), and one thread gave the steadier spread on a shared
#: 2-core machine (see README.md).
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_arguments(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    source = Path(__file__).resolve().parents[1] / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"cellbench: no program sources at {source}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for variable in BLAS_VARIABLES:
        os.environ[variable] = threads
    sys.path.insert(0, str(source))

    import numpy

    import cells

    args = parse_arguments(argv, sorted(cells.WORKLOADS))
    inputs = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas_threads": threads,
        "budgets": cells.describe(args.workload),
    }
    print(json.dumps({"inputs": inputs}), flush=True)
    result = cells.run(args.workload, args.seed, args.seconds, bool(args.trace), source)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
