"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload edge --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` records spans around every layer call and prints the
per-layer metrics instead. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Result records and traces are written under ``.perfbench/``.
"""

import os

# BLAS threads are fixed before numpy loads: OpenBLAS would otherwise use
# every core regardless of the sessions' ``threads=1``, and the serve
# workload's worker plus its submitter must fit within two cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("edge", "serve", "deploy")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_workload

    # numpy generators take non-negative seeds only.
    seed = args.seed % 2**32
    result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
