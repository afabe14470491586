"""Set-up probe: a fresh interpreter imports qbos and prepares one workload.

Usage: python3 bench/child.py WORKLOAD SEED WORKDIR

Prints one JSON line with the monotonic clock at the moment the first op
would be ready, the import and prepare times it measured itself, and the
speed of the CPU it ran on.  The caller times it from spawn to that moment,
less the time the first speed reading took, and scales that by the speed.

The speed is ``PY_REF_S`` over the mean CPU time of a pure-Python loop run
just before ``import qbos`` and just after set-up, in this interpreter: the
two vCPUs of a shared VM run at different speeds from moment to moment, so
a reading taken in the parent says little about the child.
"""

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
# one thread, as in the measured ops; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# the loop's CPU time at the speed at which workloads.reference_cpu takes REF_S: the
# median ratio of the two loops, measured on the 2-vCPU Intel Xeon VM of the baseline
PY_REF_S = 0.0051


def python_reference_cpu() -> float:
    """CPU seconds of a fixed loop of dict and str work, like the work of an import."""
    c0 = time.process_time()
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    return time.process_time() - c0


t_ref = time.perf_counter()
ref_before = python_reference_cpu()
t_import = time.perf_counter()
import qbos  # noqa: E402,F401  (timed: the import is what set-up pays)

t_imported = time.perf_counter()
import workloads  # noqa: E402


def main(argv: list[str]) -> None:
    workloads.require_qbos_from(SRC)
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    wl = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    wl.prepare(workdir, seed, wl.inputs(seed))
    t1 = time.perf_counter()
    ready = time.monotonic()
    ref = (ref_before + python_reference_cpu()) / 2
    print(json.dumps({"ready": ready, "import_s": t_imported - t_import,
                      "prepare_s": t1 - t0, "ref_wall_s": t_import - t_ref,
                      "speed": PY_REF_S / ref}))


if __name__ == "__main__":
    main(sys.argv[1:])
