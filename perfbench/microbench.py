"""Per-layer microbenchmarks on fixed seeded inputs, independent of --seed."""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import sumsetlab
from sumsetlab import cli, groups, setops

MICRO_SEED = 20100906
BACKENDS = ("zd:2", "klein", "heis", "free:2")
PRODUCT_SIZES = (8, 32, 128)
MUL_PAIRS = 2000
REPEATS = 5
MIN_BATCH_S = 0.02

# `sumsetlab kappa` on one fixed instance file, in process
CLI_KAPPA_GROUP = "zd:2"
CLI_KAPPA_SET = "(0,0)\n(1,0)\n(0,1)\n(2,1)\n"
CLI_KAPPA_ARGS = ("--n", "3", "--radius", "4")


def metric_label(spec: str) -> str:
    return spec.replace(":", "")


def fresh_backend(spec: str) -> groups.GroupBackend:
    """A new backend instance, so no ball is cached yet."""
    kind, _, arg = spec.partition(":")
    if kind == "zd":
        return groups.LatticeBackend(int(arg))
    if kind == "free":
        return groups.FreeBackend(int(arg))
    return {"klein": groups.KleinBackend, "heis": groups.HeisenbergBackend}[kind]()


def _median_per_call(fn, calls_per_batch: int) -> float:
    """Median seconds per call over REPEATS batches, each batch run >= MIN_BATCH_S."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / (loops * calls_per_batch))
    return statistics.median(samples)


def mul_key_ns() -> dict[str, float]:
    rng = random.Random(MICRO_SEED)
    out = {}
    for spec in BACKENDS:
        backend = sumsetlab.backend_from_spec(spec)
        keys = backend.ball_keys(3)
        pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(MUL_PAIRS)]
        mul = backend.mul_key

        def batch():
            for a, b in pairs:
                mul(a, b)

        out[metric_label(spec)] = _median_per_call(batch, len(pairs)) * 1e9
    return out


def product_size_us() -> dict[tuple[str, int], float]:
    rng = random.Random(MICRO_SEED)
    out = {}
    for spec in BACKENDS:
        backend = sumsetlab.backend_from_spec(spec)
        for size in PRODUCT_SIZES:
            radius = next(r for r in range(1, 13) if len(backend.ball_keys(r)) >= 2 * size)
            keys = backend.ball_keys(radius)
            A = setops.FiniteSubset.from_keys(backend, rng.sample(keys, size))
            B = setops.FiniteSubset.from_keys(backend, rng.sample(keys, size))
            out[(metric_label(spec), size)] = _median_per_call(lambda: setops.product_size(A, B), 1) * 1e6
    return out


def ball_keys_s(balls) -> float:
    """Seconds to build the workload's balls on fresh backends; median of REPEATS."""
    samples = []
    for _ in range(REPEATS):
        fresh = {spec: fresh_backend(spec) for spec, _ in balls}
        t0 = time.perf_counter()
        for spec, radius in balls:
            fresh[spec].ball_keys(radius)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def cli_kappa_s(scratch: Path) -> float:
    """Seconds for one in-process `sumsetlab kappa` on the fixed instance; median of 3."""
    c_file, out_file = scratch / "cli_kappa_C.txt", scratch / "cli_kappa_out.json"
    c_file.write_text(CLI_KAPPA_SET, encoding="utf-8")
    argv = ["kappa", str(c_file), "--group", CLI_KAPPA_GROUP, *CLI_KAPPA_ARGS, "--format", "json", "--out", str(out_file)]
    samples = []
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            code = cli.main(argv)
            samples.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"sumsetlab kappa exited {code}")
    finally:
        c_file.unlink(missing_ok=True)
        out_file.unlink(missing_ok=True)
    return statistics.median(samples)
