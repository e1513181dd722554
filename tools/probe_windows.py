"""CPU time, verdicts and peak memory of the closure probe on two fixed windows.

    cd CHECKOUT && python3 path/to/tools/probe_windows.py

blockalg is imported from ./src of the current directory, so one copy of this
script measures any checkout.  Each case runs in a fresh process, on cold
probe tables, and prints one JSON line:

    case         the case name
    cpu_s        process CPU seconds of the case's probes (time.process_time)
    verdicts     the repr of each probe's verdict, in probe order
    maxrss_mb    the process's peak resident set size (ru_maxrss), in MB

The cases:

    criterion7   criterion 7's setup: Z^2 with J = N x N and J = {0} x {0},
                 K = L = 2, depth 6, 10 sample_nonzero seeds each, drawn from
                 a fresh Random(7) per spec
    wide         Z^2, J = N x N, K = L = 3, depth 6, the first two
                 sample_nonzero(Random(1)) seeds

Takes about half a minute on a 2-vCPU machine.
"""

import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path
from random import Random

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

from blockalg.core import J_NAT_NAT, J_ZERO_ZERO, enumerate_window, spec_validate  # noqa: E402
from blockalg.harness import sample_nonzero  # noqa: E402
from blockalg.lattice import lattice_from_strs  # noqa: E402
from blockalg.probe import simplicity_probe  # noqa: E402

DEPTH = 6
# case -> (J of each spec, K = L, seeds per spec, Random seed)
CASES = {
    "criterion7": ((J_NAT_NAT, J_ZERO_ZERO), 2, 10, 7),
    "wide": ((J_NAT_NAT,), 3, 2, 1),
}


def run_case(name: str) -> dict:
    js, bound, n_seeds, rseed = CASES[name]
    z2 = lattice_from_strs([["1", "0"], ["0", "1"]])
    probes = []
    for j in js:
        spec = spec_validate(z2, j)
        rng = Random(rseed)
        window = enumerate_window(spec, bound, bound)
        probes += [(spec, sample_nonzero(rng, spec, window)) for _ in range(n_seeds)]
    start = time.process_time()
    verdicts = [repr(simplicity_probe(spec, u, bound, bound, DEPTH)) for spec, u in probes]
    cpu = time.process_time() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"case": name, "cpu_s": round(cpu, 3), "verdicts": verdicts,
            "maxrss_mb": round(rss_kb / 1024, 1)}


def main() -> int:
    # maxtasksperchild=1: every case gets a new process, so its peak memory
    # and its tables are its own
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1, maxtasksperchild=1) as pool:
        for name in CASES:
            print(json.dumps(pool.apply(run_case, (name,))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
