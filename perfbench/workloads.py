"""The benchmark's workloads: their jobs, and the checks on every job's output.

Every job goes through the package's public API or its in-process command
line (``asyncofdm.cli.main``), with the reference parameter set of
``cli.DEFAULTS`` and ``workers=1``.  Names are looked up on the package's
modules at call time, so the tracer's wrappers see every call.

The analytic grids are fixed, so their outputs are compared with the
reference values in ``refs/``.  The workload seed feeds the link-profile seed
and the closed-form offsets directly, and picks the Monte Carlo ``--seed``
from the recorded seeds (see ``mc_seed_for``); the seeded Monte Carlo columns
are compared byte for byte with the sha256 digests in ``refs/digests.json``
when the seed has one, and with the first pass always.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from asyncofdm import analytics, cli, link

REFS = Path(__file__).resolve().parent / "refs"

# asyncofdm.analytics.DEFAULT_RTOL when the references were recorded.  It is a
# constant here so that changing the package default cannot loosen the check.
DEFAULT_RTOL = 1e-6
CHECK_RTOL = 10 * DEFAULT_RTOL
# Floor for values near zero; every checked value is a count mean, probability
# or throughput of order 1 or below.
CHECK_ATOL = 1e-3 * CHECK_RTOL

COUNT_BOUND_POINTS = [(t, s) for t in (-12.0, -6.0, 0.0, 5.0, 10.0) for s in (0.2, 0.4)]
LINK_OFFSETS = (-300, -6, 50, 78, 200)
LINK_TRIALS = 2000
CLOSED_FORM_OFFSETS = 100
INTERIOR = 290  # |subcarrier| <= 290 keeps clear of the band edges (acceptance criterion 01)

# Columns of each seeded CSV that come from the Monte Carlo engine alone.
MC_COLUMNS = {
    "simulate": ("trial", "count", "nearest_sinr_db"),
    "mc_sweep": ("threshold_db", "sigma_over_n", "mc_value", "mc_ci_half"),
    "dist": ("n", "mc_pmf", "mc_ccdf", "mc_ci_half"),
}

WORKLOADS = ("analytic-sweep", "monte-carlo", "link-check")


@dataclass
class Job:
    name: str  # the per-job metric is <name>_s
    run: Callable[[], object]  # the timed call; returns what `check` inspects
    check: Callable[[object], list[str]]  # failure messages, empty when correct


def run_cli(argv: list[str], out: Path) -> int:
    """cli.main with --out, its progress lines on stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--out", str(out)])


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def columns(rows: list[list[str]], names) -> list[list[str]]:
    idx = [rows[0].index(n) for n in names]
    return [[r[i] for i in idx] for r in rows]


def digest(rows: list[list[str]]) -> str:
    return hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest()


def compare(rows: list[list[str]], ref: list[list[str]], what: str) -> list[str]:
    """Cells equal as text, or within CHECK_RTOL/CHECK_ATOL as numbers."""
    if len(rows) != len(ref) or rows[:1] != ref[:1]:
        return [f"{what}: shape or header differs from the reference"]
    worst, where = 0.0, None
    for i, (row, want) in enumerate(zip(rows, ref)):
        for j, (x, r) in enumerate(zip(row, want)):
            if x == r:
                continue
            try:
                excess = abs(float(x) - float(r)) / (CHECK_RTOL * abs(float(r)) + CHECK_ATOL)
            except ValueError:
                return [f"{what}: row {i} column {j} reads {x!r}, reference {r!r}"]
            if excess > worst:
                worst, where = excess, (i, j, x, r)
    if worst > 1.0:
        i, j, x, r = where
        return [f"{what}: row {i} column {j} reads {x}, reference {r} "
                f"({worst:.3g}x the tolerance)"]
    return []


def count_bound_rows(dists) -> list[list[str]]:
    rows = [["threshold_db", "sigma_over_n", "n", "pmf"]]
    for (t_db, sigma), dist in zip(COUNT_BOUND_POINTS, dists):
        rows += [[f"{t_db:g}", f"{sigma:g}", str(int(n)), f"{p:.10g}"]
                 for n, p in zip(dist.counts, dist.pmf)]
    return rows


# Monte Carlo seeds 0..RECORDED_SEEDS-1 have recorded digests.
RECORDED_SEEDS = 64
# ``validate`` tests four scenarios, each at 95% confidence and all on draws
# from one seed, so a correct program fails it on up to 1 - 0.95**4, about one
# seed in five (8 of the 64 at the reference commit, missing by 1.0-1.3
# interval half-widths in both directions).  More failing seeds than this
# means the simulation or the analytics is biased.
MAX_VALIDATE_FAILURES = 16


def mc_seed_for(seed: int, recorded: dict) -> int:
    """The Monte Carlo seed for a workload seed: one of the recorded seeds on
    which ``validate`` passed when the references were recorded."""
    if sorted(recorded, key=int) != [str(s) for s in range(RECORDED_SEEDS)]:
        raise ValueError(f"refs/digests.json must cover seeds 0-{RECORDED_SEEDS - 1}")
    passing = sorted(int(k) for k, v in recorded.items() if v["validate_exit"] == 0)
    if RECORDED_SEEDS - len(passing) > MAX_VALIDATE_FAILURES:
        raise ValueError(f"validate failed on {RECORDED_SEEDS - len(passing)} recorded seeds, "
                         f"more than {MAX_VALIDATE_FAILURES}; refs/digests.json is not usable")
    return passing[seed % len(passing)]


class Workload:
    """One workload's job list for one seed, writing its CSVs under `out`.

    `mc_seed` overrides the Monte Carlo seed that `seed` maps to; only the
    recording of new references needs that.
    """

    def __init__(self, name: str, seed: int, out: Path, mc_seed: int | None = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.name, self.seed, self.out = name, seed, out
        out.mkdir(parents=True, exist_ok=True)
        self.cfg = cli.load_config(None)
        with open(REFS / "digests.json") as fh:
            recorded = json.load(fh)
        self.mc_seed = mc_seed_for(seed, recorded) if mc_seed is None else mc_seed
        self.digests = recorded.get(str(self.mc_seed), {})
        self.first: dict[str, str] = {}  # digest of each seeded output in the first pass
        self.jobs = {
            "analytic-sweep": self._analytic_sweep,
            "monte-carlo": self._monte_carlo,
            "link-check": self._link_check,
        }[name]()

    # -- shared pieces --------------------------------------------------------

    def _path(self, job: str) -> Path:
        return self.out / f"{job}.csv"

    def _cli_job(self, name: str, argv: list[str], check: Callable[[Path], list[str]]) -> Job:
        path = self._path(name)

        def run():
            return run_cli(argv, path)

        def checked(rc):
            if rc != 0:
                return [f"{name}: exit code {rc}"]
            return check(path)

        return Job(name, run, checked)

    def _against_ref(self, name: str, ref: str, cols=None) -> Callable[[Path], list[str]]:
        def check(path):
            rows, want = read_csv(path), read_csv(REFS / ref)
            if cols is not None:
                rows, want = columns(rows, cols), columns(want, cols)
            return compare(rows, want, name)
        return check

    def _seeded(self, name: str, path: Path) -> list[str]:
        """Monte Carlo columns identical to the first pass and to the recorded digest."""
        got = digest(columns(read_csv(path), MC_COLUMNS[name]))
        fails = []
        if got != self.first.setdefault(name, got):
            fails.append(f"{name}: Monte Carlo output differs from the first pass")
        want = self.digests.get(name)
        if want is not None and got != want:
            fails.append(f"{name}: Monte Carlo output differs from the digest recorded "
                         f"for seed {self.mc_seed}")
        return fails

    # -- analytic-sweep -------------------------------------------------------

    def _analytic_sweep(self) -> list[Job]:
        cfg = self.cfg

        def count_bound():
            return [analytics.upsilon_upper_distribution(cfg.params(t), cfg.timing_model(s),
                                                         cfg.ofdm)
                    for t, s in COUNT_BOUND_POINTS]

        def check_count_bound(dists):
            return compare(count_bound_rows(dists), read_csv(REFS / "count_bound.csv"),
                           "count_bound")

        return [
            self._cli_job("mean_decodable",
                          ["mean-decodable", "--sweep=-15:10:1", "--sigma-over-n", "0,0.2"],
                          self._against_ref("mean_decodable", "mean_decodable.csv")),
            self._cli_job("nearest",
                          ["nearest", "--sweep=-15:10:0.5", "--sigma-over-n", "0,0.2,0.4"],
                          self._against_ref("nearest", "nearest.csv")),
            self._cli_job("throughput", ["throughput", "--sigma-over-n", "0,0.2,0.4"],
                          self._against_ref("throughput", "throughput.csv")),
            self._cli_job("hypotheses", ["hypotheses", "--hypotheses", "1,1,72", "--sweep=-15:10:1"],
                          self._against_ref("hypotheses", "hypotheses.csv")),
            Job("count_bound", count_bound, check_count_bound),
        ]

    # -- monte-carlo ----------------------------------------------------------

    def _monte_carlo(self) -> list[Job]:
        seed = ["--seed", str(self.mc_seed)]
        analytic_mean = self._against_ref(
            "mc_sweep", "mean_decodable.csv", ("threshold_db", "sigma_over_n", "analytic_value"))
        dist_bound = self._against_ref("dist", "dist_bound.csv", ("n", "bound_pmf", "bound_ccdf"))
        return [
            self._cli_job("simulate", ["simulate", "--trials", "5000"] + seed,
                          lambda p: self._seeded("simulate", p)),
            self._cli_job("mc_sweep",
                          ["mean-decodable", "--sweep=-15:10:1", "--sigma-over-n", "0,0.2",
                           "--with-mc", "--trials", "200"] + seed,
                          lambda p: analytic_mean(p) + self._seeded("mc_sweep", p)),
            self._cli_job("validate", ["validate", "--trials", "2000"] + seed, lambda p: []),
            self._cli_job("dist", ["dist", "--trials", "2000"] + seed,
                          lambda p: dist_bound(p) + self._seeded("dist", p)),
        ]

    # -- link-check -----------------------------------------------------------

    def _link_check(self) -> list[Job]:
        ofdm = self.cfg.ofdm
        paths = [self.out / f"link_profile_{d}.csv" for d in LINK_OFFSETS]

        def link_profile():
            return [run_cli(["link-profile", "--offset", str(d), "--trials", str(LINK_TRIALS),
                             "--seed", str(self.seed)], path)
                    for d, path in zip(LINK_OFFSETS, paths)]

        def check_link_profile(rcs):
            fails = []
            for d, rc, path in zip(LINK_OFFSETS, rcs, paths):
                if rc != 0:
                    fails.append(f"link_profile d={d}: exit code {rc}")
                    continue
                rows = np.array(read_csv(path)[1:], dtype=float)
                inner = rows[np.abs(rows[:, 0]) <= INTERIOR]
                if np.any(np.abs(inner[:, 2] - 1.0) > 0.02 + 5.0 * inner[:, 3]):
                    fails.append(f"link_profile d={d}: interior total power off 1 by more "
                                 "than 2% + 5 stderr")
            return fails

        def closed_form():
            rng = np.random.default_rng(self.seed)
            used = ofdm.used_array() % ofdm.n
            worst = 0.0
            for _ in range(CLOSED_FORM_OFFSETS):
                d = int(rng.integers(-(ofdm.n + ofdm.n_cp), 0))
                stream = link.gaussian_stream(ofdm, (-1, 0, 1), rng)
                direct = link.demodulate_window(link.receive_window(ofdm, stream, d, 0))[used]
                closed = link.closed_form_outputs(ofdm, stream, d, 0)[used]
                worst = max(worst, float(np.max(np.abs(direct - closed))
                                         / np.max(np.abs(direct))))
            return worst, [link.analytic_power_profile(ofdm, d) for d in LINK_OFFSETS]

        def check_closed_form(result):
            worst, profiles = result
            fails = []
            if not worst <= 1e-9:
                fails.append(f"link_closed_form: worst relative error {worst:.3g} > 1e-9")
            for d, prof in zip(LINK_OFFSETS, profiles):
                inner = np.abs(prof.subcarriers) <= INTERIOR
                if np.any(np.abs(prof.total[inner] - 1.0) > 0.02):
                    fails.append(f"link_closed_form: analytic interior total at d={d} "
                                 "off 1 by more than 2%")
            sir = profiles[LINK_OFFSETS.index(78)].sir_db(0)
            if not abs(sir - 19.3) <= 0.2:
                fails.append(f"link_closed_form: SIR at offset 78 is {sir:.3f} dB, "
                             "not 19.3 +/- 0.2")
            return fails

        return [Job("link_profile", link_profile, check_link_profile),
                Job("link_closed_form", closed_form, check_closed_form)]

    # -- outside the timed loop -----------------------------------------------

    def warm_up(self) -> None:
        """Touch each layer once so lazy imports and caches are ready before timing."""
        cfg, tmp = self.cfg, self.out / "warm_up.csv"
        analytics.nearest_decoding_prob(cfg.params(-12.0), cfg.timing_model(0.2), cfg.ofdm)
        if self.name == "monte-carlo":
            run_cli(["simulate", "--trials", "20", "--seed", str(self.mc_seed)], tmp)
        if self.name == "link-check":
            run_cli(["link-profile", "--trials", "20", "--seed", str(self.seed)], tmp)
        tmp.unlink(missing_ok=True)

    def final_checks(self) -> list[tuple[str, list[str]]]:
        """Untimed checks run once after the timed loop, as (name, failures)."""
        if self.name != "monte-carlo":
            return []
        path = self.out / "simulate_workers2.csv"
        rc = run_cli(["simulate", "--trials", "5000", "--seed", str(self.mc_seed),
                      "--workers", "2"], path)
        same = rc == 0 and path.read_bytes() == self._path("simulate").read_bytes()
        return [("simulate_workers2",
                 [] if same else ["simulate: --workers 2 output differs from --workers 1"])]
