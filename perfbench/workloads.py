"""The three seeded workloads: inputs, one timed pass, and output checks.

Each workload builds its inputs from the seed and hands the package only
those inputs, through its public API. Package functions are looked up on
their modules at call time, so the tracer's hooks see the benchmark's own
calls too. A pass is a fixed list of operations, each followed by
calibration blocks (see calibrate.py) that are not part of its time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import sumsetlab
from sumsetlab import cli, explorer, isoperimetry, laws, setops
from sumsetlab.reports import LawReport

import calibrate

# (backend, window radius) for kappa_grid; klein's 25-element window is
# under isoperimetry.ENUM_WINDOW_CAP, so only klein runs the fragment phase.
KAPPA_WINDOWS = (("zd:2", 4), ("klein", 3), ("heis", 3), ("free:2", 3))
KAPPA_C_RADIUS = 2
KAPPA_SAMPLES_PER_CELL = 3
# The grid's sets C are drawn once, from KAPPA_GRID_SEED: the branch and
# bound's cost depends so strongly on C that a fresh draw per seed moves a
# pass's time by 10-20% between seeds. The run's seed instead translates
# each C on the right by an element h of ball(2). |X(Ch)| = |XC| for every
# X, so the search, kappa_hat, the atoms and the fragments stay the same
# while every product key changes.
KAPPA_GRID_SEED = 0

# pair_campaign runs at this fixed campaign seed, whatever the run's seed:
# its instances, and so its cost, depend on the campaign seed, and the
# dimension laws on zd:2 make that cost heavy-tailed. With the run's seed
# as campaign seed, or even with the cells in a seeded order, the median
# cell time spread by 12-23% between seeds; with both fixed, by 6-7%.
PAIR_CAMPAIGN_SEED = 0

PAIR_LAWS = (
    "kempermann", "hls", "main_theorem", "corollary_ab", "3k4", "uvk",
    "freiman_dim", "ruzsa_dim", "gardner_gronchi",
)


def _cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _record_key(record: dict) -> tuple:
    return record["backend"], record["law"], record["index"], record["sub"]


def record_stream_digest(records: list[dict]) -> str:
    """SHA-256 of the canonical record stream, sorted by (backend, law, index, sub)."""
    ordered = sorted(records, key=_record_key)
    return _sha256_lines(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in ordered)


def kappa_digest(result) -> str:
    payload = [
        result.kappa_hat,
        result.certificate,
        [list(U.keys) for U in result.atoms],
        [list(F.keys) for F in result.fragments_sample],
    ]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()[:16]


@dataclass
class PassResult:
    wall: float
    op_times: list[float]
    cal: list[list[float]]
    outputs: list = field(default_factory=list)
    campaign_wall: float = 0.0
    campaign_cpu: float = 0.0
    store: dict | None = None
    digest: str | None = None
    op_digests: list | None = None
    records: int = 0
    unique_report_ratio: float = 0.0


class KappaGrid:
    """kappa_restricted with default arguments on a seeded grid of instances."""

    name = "kappa_grid"

    def __init__(self, seed: int, smoke: bool):
        grid_rng, rng = random.Random(KAPPA_GRID_SEED), random.Random(seed)
        n_values, sizes, samples = ((2,), (3,), 1) if smoke else ((2, 3, 4), (3, 4, 5), KAPPA_SAMPLES_PER_CELL)
        self.balls = [(spec, r) for spec, r in KAPPA_WINDOWS] + [(spec, KAPPA_C_RADIUS) for spec, _ in KAPPA_WINDOWS]
        self.instances = []
        for spec, radius in KAPPA_WINDOWS:
            backend = sumsetlab.backend_from_spec(spec)
            window = backend.ball(radius)
            pool = backend.ball_keys(KAPPA_C_RADIUS)
            for n in n_values:
                for size in sizes:
                    for _ in range(samples):
                        base, h = grid_rng.sample(pool, size), rng.choice(pool)
                        C = setops.FiniteSubset.from_keys(backend, (backend.mul_key(c, h) for c in base))
                        self.instances.append(isoperimetry.IsoInstance(C, n, window))
        self.units_per_pass = len(self.instances)

    def run_pass(self, scratch: Path) -> PassResult:
        outputs, times, cal = [], [], []
        perf = time.perf_counter
        for inst in self.instances:
            t0 = perf()
            try:
                result = isoperimetry.kappa_restricted(inst)
            except Exception as exc:  # a raising operation is a failed one
                result = exc
            times.append(perf() - t0)
            outputs.append(result)
            cal.append(calibrate.after_op(times[-1]))
        return PassResult(sum(times), times, cal, outputs)

    def check_pass(self, res: PassResult, reference: dict | None, first: bool) -> tuple[int, list[str]]:
        """Check every output, then drop them; each bad instance is one failed operation."""
        problems = []
        expected = reference["instances"] if reference else None
        digests = []
        for i, (inst, result) in enumerate(zip(self.instances, res.outputs)):
            why = self._check_result(inst, result)
            digests.append(None if why else kappa_digest(result))
            if why is None and expected is not None and digests[i] != expected[i]:
                why = "digest differs from the reference"
            if why is not None:
                problems.append(f"instance {i} ({inst.backend.spec}, n={inst.n}, |C|={len(inst.C)}): {why}")
        res.op_digests = digests
        res.digest = _sha256_lines(str(d) for d in digests)
        res.outputs.clear()
        return len(problems), problems

    @staticmethod
    def _check_result(inst, result) -> str | None:
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        lower = len(inst.C) - 1
        if result.kappa_hat < lower:
            return f"kappa_hat {result.kappa_hat} is below the global bound {lower}"
        exact = result.kappa_hat == lower
        if exact != (result.certificate == isoperimetry.CERTIFIED_EXACT):
            return f"certificate {result.certificate} does not match kappa_hat {result.kappa_hat}"
        if not result.atoms:
            return "no atoms reported"
        id_key = inst.backend.identity_key
        for kind, sets in (("atom", result.atoms), ("fragment", result.fragments_sample)):
            for S in sets:
                if not S.contains_key(id_key) or len(S) < inst.n:
                    return f"{kind} {S!r} lacks the identity or has fewer than n elements"
                if not S.is_subset(inst.window):
                    return f"{kind} {S!r} leaves the window"
                if setops.product_size(S, inst.C) - len(S) != result.kappa_hat:
                    return f"{kind} {S!r} does not attain kappa_hat"
        return None

    def reference_entry(self, res: PassResult) -> dict:
        return {"instances": res.op_digests}

    def reference_for(self, entry: dict | None) -> dict | None:
        """The reference entry: the digests hold at every seed."""
        return entry


class CampaignWorkload:
    """A campaign, whole or one cell at a time, optionally followed by a record-store round trip.

    Each run_campaign call is one operation, and so is the round trip.
    Split, a cell is one (backend, law) of the campaign, run by its own
    run_campaign call with every other setting the same. Each instance's
    inputs depend only on (campaign seed, backend, law, index), so the cells'
    records are the campaign's records, except that each names its cell's
    hash; the pass relabels them with the campaign's hash, and the check
    holds the stream to the whole campaign's reference digest.
    """

    def __init__(self, name: str, campaign, store_round_trip: bool, split: bool):
        self.name = name
        self.campaign = campaign
        self.store_round_trip = store_round_trip
        self.split = split
        c = campaign
        self.balls = sorted({(spec, r) for spec in c.backends for r in (c.radius, c.iso_radius, min(c.radius, 2))})
        for spec, r in self.balls:
            sumsetlab.backend_from_spec(spec).ball_keys(r)
        # config-defined tasks, so deduplicating records cannot move throughput
        self.units_per_pass = len(c.backends) * len(c.laws) * c.budget
        self._pass_no = 0

    def cells(self) -> list:
        """The campaigns of one pass: its cells, or the whole campaign."""
        c = self.campaign
        if not self.split:
            return [c]
        return [dataclasses.replace(c, backends=(spec,), laws=(law,)) for spec in c.backends for law in c.laws]

    def run_pass(self, scratch: Path) -> PassResult:
        perf = time.perf_counter
        runs, times, cal = [], [], []
        campaign_cpu = 0.0
        for cell in self.cells():
            t0, cpu0 = perf(), _cpu_seconds()
            try:
                run = explorer.run_campaign(cell)
            except Exception as exc:  # a raising operation is a failed one
                run = exc
            times.append(perf() - t0)
            campaign_cpu += _cpu_seconds() - cpu0
            runs.append(run)
            cal.append(calibrate.after_op(times[-1]))
        campaign_wall = sum(times)
        records = None
        if not any(isinstance(run, Exception) for run in runs):
            campaign_hash = self.campaign.hash()
            # in the whole campaign's order
            records = sorted((record for run in runs for record in run.records), key=_record_key)
            for record in records:
                record["campaign"] = campaign_hash
        store = None
        if self.store_round_trip and records is not None:
            path = scratch / f"records-{self._pass_no}.jsonl"
            t0 = perf()
            explorer.write_records(path, records)
            back = explorer.read_records(path)
            store = {"path": path, "back": back, "rows": explorer.summarize(back)}
            times.append(perf() - t0)
            cal.append(calibrate.after_op(times[-1]))
        self._pass_no += 1
        return PassResult(sum(times), times, cal, [runs, records], campaign_wall, campaign_cpu, store)

    def check_pass(self, res: PassResult, reference: dict | None, first: bool) -> tuple[int, list[str]]:
        """Check the cells' runs (and, on the first pass, replay and the CLI report), then drop them.

        A cell that raises is one failed operation; any other problem
        fails one more.
        """
        runs, records = res.outputs
        store = res.store
        raised = [f"run_campaign raised {type(run).__name__}: {run}" for run in runs if isinstance(run, Exception)]
        if raised:
            res.outputs.clear()
            return len(raised), raised
        problems = []
        unclean = [run.counts for run in runs if not run.clean]
        if unclean:
            problems.append(f"campaign is not clean: {unclean}")
        res.records = len(records)
        res.digest = record_stream_digest(records)
        if reference is not None and res.digest != reference["records_sha256"]:
            problems.append("record stream digest differs from the reference")
        distinct = {(r["backend"], r["law"], json.dumps(r["report"], sort_keys=True)) for r in records}
        res.unique_report_ratio = len(distinct) / max(len(records), 1)
        if first:
            problems += _replay_sample(records)
        if store is not None:
            if store.pop("back") != records:
                problems.append("read_records does not return the written records")
            if store["rows"] != explorer.summarize(records):
                problems.append("summarize of the read-back store differs")
            store["bytes"] = store["path"].stat().st_size
            if first:
                problems += _cli_report(store["path"], store["rows"], store["path"].parent)
            store["path"].unlink()
        res.outputs.clear()
        return (1 if problems else 0), problems

    def reference_entry(self, res: PassResult) -> dict:
        return {"campaign_seed": self.campaign.seed, "records_sha256": res.digest}

    def reference_for(self, entry: dict | None) -> dict | None:
        """The reference entry, if it was taken at this campaign's seed."""
        return entry if entry is not None and entry["campaign_seed"] == self.campaign.seed else None


def _replay_sample(records: list[dict]) -> list[str]:
    """Records at index 0 with a decided verdict must reproduce under laws.replay."""
    problems = []
    for record in records:
        if record["index"] != 0 or record["report"]["verdict"] not in ("holds", "violated"):
            continue
        report = LawReport.from_dict(record["report"])
        try:
            again = laws.replay(report)
        except Exception as exc:  # a replay that raises is a failed check
            problems.append(f"replay of {record['backend']}/{record['law']} raised {exc!r}")
            continue
        if (again.verdict, again.slack) != (report.verdict, report.slack):
            problems.append(f"replay of {record['backend']}/{record['law']} gives "
                            f"{again.verdict}/{again.slack}, record says {report.verdict}/{report.slack}")
    return problems


def _cli_report(store_path: Path, rows: list[dict], scratch: Path) -> list[str]:
    """`sumsetlab report` on the store must exit 0 and print the summarize rows."""
    out = scratch / "report.jsonl"
    code = cli.main(["report", "--run", str(store_path), "--format", "json", "--out", str(out)])
    printed = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines() if line]
    out.unlink()
    problems = []
    if code != 0:
        problems.append(f"sumsetlab report exited {code}")
    if printed != rows:
        problems.append("sumsetlab report rows differ from summarize")
    return problems


def pair_campaign(seed: int, smoke: bool) -> CampaignWorkload:
    # the run's seed is not used: see PAIR_CAMPAIGN_SEED
    c = explorer.Campaign(
        backends=("zd:2", "klein", "heis", "free:2"),
        laws=PAIR_LAWS,
        budget=3 if smoke else 200,
        seed=PAIR_CAMPAIGN_SEED,
        jobs=1,
        radius=3 if smoke else 5,
        sizes=(2, 8) if smoke else (8, 48),
    )
    return CampaignWorkload("pair_campaign", c, store_round_trip=True, split=True)


def catalogue_campaign(seed: int, smoke: bool) -> CampaignWorkload:
    # The full law catalogue of tests/test_explorer.py::test_full_law_catalogue_campaign,
    # at jobs=1: at jobs=2 its two threads, bound by the interpreter lock,
    # made the pass time swing with host load far more than calibration
    # follows (quartile spread over five seeds 13%, against 7% at jobs=1).
    radius = 1 if smoke else 2
    c = explorer.Campaign(
        backends=("zd:2", "klein"),
        laws=tuple(laws.LAW_IDS),
        budget=1 if smoke else 2,
        seed=seed,
        jobs=1,
        radius=radius,
        sizes=(1, 5),
        n_values=(1, 2),
        iso_radius=radius,
    )
    return CampaignWorkload("catalogue_campaign", c, store_round_trip=False, split=False)


WORKLOADS = {
    "kappa_grid": KappaGrid,
    "pair_campaign": pair_campaign,
    "catalogue_campaign": catalogue_campaign,
}


def make(name: str, seed: int, smoke: bool):
    return WORKLOADS[name](seed, smoke)
