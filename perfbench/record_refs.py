"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_refs.py

Writes into ``perfbench/refs/``: the analytic CSVs of the analytic-sweep
workload, the count-bound pmfs, the analytic columns of ``dist``, and sha256
digests of the Monte Carlo columns of ``simulate``, ``mean-decodable
--with-mc`` and ``dist`` for seeds 0..RECORDED_SEEDS-1.  Run it only at a
commit whose outputs are known to be right: the benchmark treats these as the
truth.  It writes nothing and exits 1 if ``validate`` fails on more than
MAX_VALIDATE_FAILURES of those seeds.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from workloads import (MAX_VALIDATE_FAILURES, MC_COLUMNS, RECORDED_SEEDS, REFS,  # noqa: E402
                       Workload, columns, digest, read_csv)


def write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def main() -> int:
    out = HERE / "out" / "record"
    REFS.mkdir(exist_ok=True)
    if not (REFS / "digests.json").exists():
        (REFS / "digests.json").write_text("{}\n")

    digests, dist_bound = {}, None
    for seed in range(RECORDED_SEEDS):
        mc = Workload("monte-carlo", seed, out, mc_seed=seed)
        entry = digests[str(seed)] = {}
        for job in mc.jobs:
            rc = job.run()
            if job.name == "validate":
                entry["validate_exit"] = rc
                continue
            rows = read_csv(out / f"{job.name}.csv")
            entry[job.name] = digest(columns(rows, MC_COLUMNS[job.name]))
            if job.name == "dist" and seed == 0:
                dist_bound = columns(rows, ("n", "bound_pmf", "bound_ccdf"))
        print(f"seed {seed} recorded", flush=True)
    failed = [s for s, e in digests.items() if e["validate_exit"] != 0]
    print(f"validate exited non-zero for seeds {', '.join(failed) or 'none'}")
    if len(failed) > MAX_VALIDATE_FAILURES:
        print(f"error: more than {MAX_VALIDATE_FAILURES} of {RECORDED_SEEDS} seeds fail "
              "validate; refs/ left unchanged", file=sys.stderr)
        return 1

    write_rows(REFS / "dist_bound.csv", dist_bound)
    sweep = Workload("analytic-sweep", 0, out, mc_seed=0)
    for job in sweep.jobs:
        result = job.run()
        if job.name == "count_bound":
            write_rows(REFS / "count_bound.csv", workloads.count_bound_rows(result))
        else:
            shutil.copyfile(out / f"{job.name}.csv", REFS / f"{job.name}.csv")
    with open(REFS / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
