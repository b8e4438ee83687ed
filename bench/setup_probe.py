"""Set-up time of a fresh process, printed in seconds.

Times from the start of the ``qlslab`` import (which imports numpy) until
the workload's problems are built: ``QLSP`` construction and
eigendecomposition, before the first op.

    python3 bench/setup_probe.py <workload> <seed>
"""
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    workload_name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    start = time.perf_counter()
    import qlslab.pipeline
    import qlslab.qlsp
    import qlslab.sim
    from workloads import make_workload

    workload = make_workload(workload_name, seed, qlslab.pipeline, qlslab.sim)
    workload.build_problems(qlslab.qlsp)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
