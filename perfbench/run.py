#!/usr/bin/env python3
"""Benchmark for sumsetlab: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload kappa_grid --seed 0 --seconds 35 --trace 0

Run from a checkout of the repository: the package is imported from
./src, never from an installed copy. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs untraced passes,
then traced passes with spans around calls into the package's public
functions, then the microbenchmarks, and reports the per-layer metrics.
Times are reported in reference seconds: each operation's measured time
scaled by the speed of the host beside it, as calibrate.py describes.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; a readable table, the
run metadata and any failed check go to standard error, and the full
result (and, traced, the spans) to perfbench/results/.

``--workload all`` runs every workload in turn, each in its own process.
``--smoke`` runs every workload at a tiny size and fails unless each
metric named in BENCHMARK.json is emitted with its unit and nothing fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("kappa_grid", "pair_campaign", "catalogue_campaign")
DEFAULT_SEED = 0
SETUP_PROBES = 15
SETUP_CAL_BLOCKS = 25
SMOKE_SECONDS = 1.0
CHILD_TIMEOUT_S = 170

LOC_MODULES = ("__init__", "cli", "errors", "explorer", "groups", "isoperimetry", "laws", "reports", "setops")
SETOPS_FNS = ("product_size", "product_set", "dimension", "detect_progression", "min_progression_cover")
LAW_CHECKERS = (
    "check_kempermann", "check_hls", "check_freiman_dim", "check_ruzsa_dim", "check_gardner_gronchi",
    "check_equality_characterization", "check_3k4", "check_corollary_AB", "check_atom_lemmas",
    "check_uvk", "check_main_theorem", "check_c_lower", "example_klein_grid", "example_klein_union",
)


def import_workloads():
    """Import the benchmark's workload module, and with it ./src/sumsetlab."""
    init = SRC / "sumsetlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} is missing; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads
    import sumsetlab

    if Path(sumsetlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported sumsetlab from {sumsetlab.__file__}, not {init}")
    return workloads


# -- measuring -----------------------------------------------------------------


def run_passes(wl, budget_s: float, scratch: Path, reference, log: list[str], tracer=None):
    """Timed passes until the pass time spent would exceed budget_s; at least one.

    Each pass is checked, and its outputs dropped, before the next starts;
    a tracer is installed around the passes only, never around the checks.
    Returns the passes, attempted and failed operation counts.
    """
    passes, attempted, failed, spent = [], 0, 0, 0.0
    while True:
        if tracer is not None:
            tracer.install()
        try:
            res = wl.run_pass(scratch)
        finally:
            if tracer is not None:
                tracer.uninstall()
        spent += res.wall
        attempted += len(res.op_times)
        bad, problems = wl.check_pass(res, reference, first=not passes)
        if passes and res.digest != passes[0].digest:
            bad = max(bad, 1)
            problems.append("outputs differ from the first pass of this run")
        failed += bad
        log.extend(problems)
        passes.append(res)
        if spent + res.wall > budget_s:
            return passes, attempted, failed


def setup_probes(args, count: int) -> list[float]:
    """Set-up times of fresh interpreters, one after another: import, backends, balls, inputs.

    Each is in reference seconds, scaled by calibration blocks run in the
    same interpreter just before and after its set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 of n samples beyond it.

    Below 20 samples no percentile above the median qualifies, and the
    tail is the median, percentile 50.
    """
    return max(math.floor(100 - 1000 / n), 50)


def percentile(samples: list[float], p: int) -> float:
    """The smallest sample with at least p% of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def children_maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(children_before_kib: int) -> float:
    """Peak RSS of this process, plus that of the largest child ended since the snapshot.

    ru_maxrss is in KiB on Linux. A child's figure includes the parent
    pages it saw before exec, so children that ended before the snapshot,
    the set-up probes among them, are left out.
    """
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = children_maxrss_kib()
    return (self_kib + (child_kib if child_kib > children_before_kib else 0)) / 1024


def scaled_passes(passes) -> list[list[float]]:
    """Each pass's operation times in reference seconds.

    A pass's blocks are those after each of its operations, and those
    after the last operation of the pass before it, so that a pass of
    one long operation has blocks on both sides of it.
    """
    out = []
    for k, p in enumerate(passes):
        before = passes[k - 1].cal[-1] if k else []
        out.append(calibrate.scale(p.op_times, before + [t for c in p.cal for t in c]))
    return out


def pass_time(passes) -> float:
    """The time of one pass in reference seconds: the median over the run's passes.

    Passes repeat the same work. The median, unlike the fastest, does not
    fall as a faster host fits more passes into the run.
    """
    return statistics.median(sum(ops) for ops in scaled_passes(passes))


def end_to_end(wl, passes, setup_s: float, peak_rss: float, info: dict) -> dict:
    # Latencies are taken over every operation of every pass of the run.
    # The tail's percentile is set by the operations in one pass, p90 for
    # kappa_grid's 108, so that it does not move with the number of passes.
    wall = pass_time(passes)
    ops = [t for p in scaled_passes(passes) for t in p]
    pct = tail_percentile(len(passes[0].op_times))
    tail_s = percentile(ops, pct)
    info.update(op_samples=len(ops), op_tail_percentile=pct, pass_walls_measured=[p.wall for p in passes],
                calibration_block_mean_s=[statistics.fmean(t for c in p.cal for t in c) for p in passes],
                scaled_op_s=scaled_passes(passes),
                measured_op_s=[p.op_times for p in passes], calibration_blocks_s=[p.cal for p in passes],
                units_per_pass=wl.units_per_pass)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "throughput_per_s": (wl.units_per_pass / wall, "1/s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def per_layer(tracer, mul_calls: int, plain, traced, micro: dict) -> dict:
    summary = tracer.summary()
    n = len(traced)

    def span(name, key):
        return summary.get(name, {}).get(key, 0) / n

    m = {}
    for label, ns in micro["mul_key_ns"].items():
        m[f"groups.mul_key.ns.{label}"] = (ns, "ns")
    m["groups.mul_key.calls"] = (mul_calls / n, "count")
    m["groups.ball_keys.s"] = (micro["ball_keys_s"], "s")
    for (label, size), us in micro["product_size_us"].items():
        m[f"setops.product_size.us.{label}.{size}"] = (us, "us")
    for fn in SETOPS_FNS:
        m[f"setops.{fn}.self_s"] = (span(f"setops.{fn}", "self_s"), "s")
        m[f"setops.{fn}.calls"] = (span(f"setops.{fn}", "calls"), "count")

    kappa = summary.get("isoperimetry.kappa_restricted", {})
    m["isoperimetry.kappa_restricted.self_s"] = (span("isoperimetry.kappa_restricted", "self_s"), "s")
    m["isoperimetry.kappa_restricted.calls"] = (span("isoperimetry.kappa_restricted", "calls"), "count")
    for spec in ("zd:2", "klein", "heis", "free:2"):
        label = spec.replace(":", "")
        m[f"isoperimetry.kappa_restricted.s.{label}"] = (kappa.get("by_tag", {}).get(spec, 0.0) / n, "s")
    # the fragment search shared by kappa_restricted's fragment phase and enumerate_fragments
    m["isoperimetry.enumerate_fragments.s"] = (span("isoperimetry._Search.minimizers", "s"), "s")

    for fn in LAW_CHECKERS:
        m[f"laws.{fn}.self_s"] = (span(f"laws.{fn}", "self_s"), "s")
        m[f"laws.{fn}.calls"] = (span(f"laws.{fn}", "calls"), "count")
    eq = summary.get("laws.check_equality_characterization", {})
    m["laws.check_equality_characterization.pairs_per_s"] = (
        eq["work"] / eq["self_s"] if eq.get("self_s") else 0.0, "pairs/s")

    campaign_wall = sum(p.campaign_wall for p in traced)
    m["explorer.run_campaign.s"] = (span("explorer.run_campaign", "s"), "s")
    m["explorer.run_campaign.cpu_per_wall"] = (
        sum(p.campaign_cpu for p in traced) / campaign_wall if campaign_wall else 0.0, "ratio")
    first = traced[0]
    m["explorer.unique_report_ratio"] = (first.unique_report_ratio, "ratio")
    for fn in ("write_records", "read_records", "summarize"):
        per_10k = span(f"explorer.{fn}", "s") / first.records * 1e4 if first.records else 0.0
        m[f"explorer.{fn}.s_per_10k"] = (per_10k, "s/10k")
    store_bytes = first.store["bytes"] / first.records if first.store and first.records else 0.0
    m["explorer.store_bytes_per_record"] = (store_bytes, "bytes")
    m["reports.LawReport.to_dict.self_s"] = (span("reports.LawReport.to_dict", "self_s"), "s")
    m["cli.main.kappa.s"] = (micro["cli_kappa_s"], "s")

    for module, lines in loc_counts().items():
        m[f"loc.{module}"] = (lines, "lines")
    m["trace_overhead_ratio"] = (pass_time(traced) / pass_time(plain), "ratio")
    return m


# -- metadata ------------------------------------------------------------------


def loc_counts() -> dict[str, int]:
    """Lines per package module (0 once a module is gone) and over all modules."""
    counts = {}
    total = 0
    for path in sorted((SRC / "sumsetlab").glob("*.py")):
        lines = len(path.read_bytes().splitlines())
        total += lines
        if path.stem in LOC_MODULES:
            counts[path.stem] = lines
    out = {module: counts.get(module, 0) for module in LOC_MODULES}
    out["total"] = total
    return out


def metadata(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "sumsetlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "loc": loc_counts(),
    }


# -- entry points ----------------------------------------------------------------


def load_reference(args, wl):
    """The workload's reference outputs, if they apply to its inputs."""
    if args.smoke or not REFERENCE.is_file():
        return None
    return wl.reference_for(json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload))


def run_workload(args) -> dict:
    workloads = import_workloads()
    wl = workloads.make(args.workload, args.seed, args.smoke)
    reference = load_reference(args, wl)
    log: list[str] = []
    info: dict = {"reference_checked": reference is not None}
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        if args.trace:
            import microbench
            from tracing import Tracer

            plain, attempted, failed = run_passes(wl, args.seconds / 2, scratch, reference, log)
            tracer = Tracer(args.workload)
            traced, a2, f2 = run_passes(wl, args.seconds / 2, scratch, reference, log, tracer)
            attempted, failed = attempted + a2, failed + f2
            micro = {
                "mul_key_ns": microbench.mul_key_ns(),
                "product_size_us": microbench.product_size_us(),
                "ball_keys_s": microbench.ball_keys_s(wl.balls),
            }
            attempted += 1
            try:
                micro["cli_kappa_s"] = microbench.cli_kappa_s(scratch)
            except Exception as exc:  # the CLI call is one more operation
                failed += 1
                log.append(f"sumsetlab kappa failed: {exc!r}")
                micro["cli_kappa_s"] = 0.0
            metrics = per_layer(tracer, tracer.mul_key_calls(), plain, traced, micro)
            info["untraced_passes"], info["traced_passes"] = len(plain), len(traced)
            info["trace_targets_missing"] = tracer.missing
            tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.jsonl")
        else:
            # half the set-up probes before the passes and half after, so that
            # their median spans the run rather than its first second
            setup = setup_probes(args, SETUP_PROBES // 2)
            children_kib = children_maxrss_kib()
            passes, attempted, failed = run_passes(wl, args.seconds, scratch, reference, log)
            peak_rss = peak_rss_mb(children_kib)
            setup += setup_probes(args, SETUP_PROBES - len(setup))
            metrics = end_to_end(wl, passes, statistics.median(setup), peak_rss, info)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    info["error_rate"] = failed / attempted
    info["failures"] = log
    return {
        "result": {
            "correct": failed == 0 and not log,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
        "info": info,
    }


def print_table(title: str, metrics: dict, out) -> None:
    print(f"== {title}", file=out)
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}", file=out)


def check_against_manifest(trace: int, metrics: dict) -> list[str]:
    """Metric names and units must be exactly those BENCHMARK.json lists for this mode."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    problems = [f"missing metric {name}" for name in wanted if name not in got]
    problems += [f"metric {name} is not in BENCHMARK.json" for name in got if name not in wanted]
    problems += [f"metric {name} has unit {got[name]}, BENCHMARK.json says {unit}"
                 for name, unit in wanted.items() if name in got and got[name] != unit]
    return problems


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; combined result on the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 5, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name} {lines[-1]}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; assert every metric is emitted")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS

    if args.setup_probe:
        before = calibrate.blocks(SETUP_CAL_BLOCKS)
        start = time.perf_counter()
        import_workloads().make(args.workload, args.seed, args.smoke)
        measured = time.perf_counter() - start
        cal = before + calibrate.blocks(SETUP_CAL_BLOCKS)
        print(json.dumps({"setup_s": calibrate.to_reference(measured, cal), "measured_s": measured}))
        return 0
    if args.workload == "all":
        return run_all(args)

    out = run_workload(args)
    result, info = out["result"], out["info"]
    meta = metadata(args)
    problems = check_against_manifest(args.trace, result["metrics"]) if args.smoke else []
    if args.smoke and info["error_rate"] != 0:
        problems.append(f"error_rate is {info['error_rate']}")
    RESULTS.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps({"metadata": meta, "info": info, "result": result}, indent=1) + "\n", encoding="utf-8")

    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", result["metrics"], sys.stderr)
    print(f"  error_rate = {info['error_rate']} ({result['failed']} of {result['attempted']} operations failed)",
          file=sys.stderr)
    print("  metadata: " + json.dumps({k: meta[k] for k in ("git_sha", "python", "nproc", "machine", "seed")}),
          file=sys.stderr)
    for line in info["failures"][:20]:
        print(f"  FAILED: {line}", file=sys.stderr)
    for line in problems:
        print(f"  SMOKE: {line}", file=sys.stderr)
    if problems:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
