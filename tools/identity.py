"""Identity check: hashes of the outputs a behaviour-preserving change must keep.

    cd CHECKOUT && python3 path/to/tools/identity.py

blockalg is imported from ./src of the current directory, so one copy of this
script checks any checkout.  Run it in two trees and compare the output; it
prints one line per hash:

    probe        sha256 of the 384 simplicity_probe verdict reprs: 16 stock
                 configs x (K, L) in {1,2}^2 x seeds 1-3 (sample_nonzero on
                 the K, L window) x depth 0 and 6
    suites       sha256 of stable_text and stable_dict of the six suites on
                 the 16 stock configs, seeds 1 and 2
    corrupted    sha256 of the failure records of the derivations suite on
                 the same runs with harness.bracket corrupted to
                 bracket(u, v) + u, followed by their count
    forced       sha256 of the failure records of the six suites on the same
                 runs with every predicate of harness.CHECKS replaced by one
                 that fails, followed by the count of records and of distinct
                 checks among them; this pins the inputs every check is
                 called with, and their order
    maps         sha256 of fmt_element(apply(d, x)) on the 16 stock configs,
                 for d each named map defined there, make_dmu of pi_hom 1
                 and 2, and ad of one sample_nonzero element (Random(1) on
                 the K = L = 1 window), and x each reduced monomial of that
                 window

Takes about 20 s on a 2-vCPU machine.
"""

import hashlib
import json
import sys
from pathlib import Path
from random import Random

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

from blockalg import derivations as dv  # noqa: E402
from blockalg import harness  # noqa: E402
from blockalg.core import enumerate_window, monomial, reduce  # noqa: E402
from blockalg.literals import fmt_element  # noqa: E402

SEEDS = (1, 2)
# trials, K and L per suite (locality: cap); the rest are run_suite defaults
SETTINGS = {
    "jacobi": dict(trials=200),
    "bracket": dict(trials=100),
    "derivations": dict(trials=30),
    "iso": dict(trials=30),
    "locality": dict(cap=6),
    "simplicity": dict(trials=2, k_bound=1, level_cap=1),
}


def sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def probe_verdicts(configs):
    for spec in configs:
        for k in (1, 2):
            for lvl in (1, 2):
                window = enumerate_window(spec, k, lvl)
                for s in (1, 2, 3):
                    seed = harness.sample_nonzero(Random(s), spec, window)
                    for depth in (0, 6):
                        yield repr(harness.simplicity_probe(spec, seed, k, lvl, depth))


def suite_reports(configs):
    for spec in configs:
        for name, kw in SETTINGS.items():
            for seed in SEEDS:
                rep = harness.run_suite(name, spec, seed, **kw)
                yield rep.stable_text()
                yield json.dumps(rep.stable_dict(), sort_keys=True)


def corrupted_failures(configs):
    real = harness.bracket
    harness.bracket = lambda u, v: real(u, v) + u
    try:
        out = []
        for spec in configs:
            for seed in SEEDS:
                rep = harness.run_suite("derivations", spec, seed, **SETTINGS["derivations"])
                out += [json.dumps(f.as_dict(), sort_keys=True) for f in rep.failures]
        return out
    finally:
        harness.bracket = real


def forced_failures(configs):
    real = dict(harness.CHECKS)
    for name, entry in real.items():
        harness.CHECKS[name] = entry._replace(holds=lambda spec, **inputs: False)
    try:
        out = []
        for spec in configs:
            for name, kw in SETTINGS.items():
                for seed in SEEDS:
                    rep = harness.run_suite(name, spec, seed, **kw)
                    out += [json.dumps(f.as_dict(), sort_keys=True) for f in rep.failures]
        return out
    finally:
        harness.CHECKS.update(real)


def map_values(configs):
    for spec in configs:
        window = enumerate_window(spec, 1, 1)
        ders = [dv.named(spec, a, permissive=True) for a in ("d1", "d1bar", "d2", "dt2", "dt1")]
        ders = [d for d in ders if d != dv.zero_derivation(spec)]
        ders += [dv.make_dmu(spec, dv.pi_hom(spec, p)) for p in (1, 2)]
        ders.append(dv.ad(harness.sample_nonzero(Random(1), spec, window)))
        for d in ders:
            for be, jj in window:
                yield fmt_element(dv.apply(d, reduce(spec, monomial(spec, be, jj))))


def main() -> None:
    configs = harness.default_configs()
    print(f"probe {sha(probe_verdicts(configs))}")
    print(f"suites {sha(suite_reports(configs))}")
    records = corrupted_failures(configs)
    print(f"corrupted {sha(records)} {len(records)}")
    records = forced_failures(configs)
    checks = {json.loads(r)["check"] for r in records}
    print(f"forced {sha(records)} {len(records)} {len(checks)}")
    print(f"maps {sha(map_values(configs))}")


if __name__ == "__main__":
    main()
