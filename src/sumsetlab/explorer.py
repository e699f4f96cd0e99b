"""Seeded verification campaigns with an append-only JSONL record store.

Campaign identity (and hence the campaign hash) covers everything that
determines the produced records: backends, laws, grids, budget, seed.
The parallelism degree is an execution parameter and is excluded, so runs
at different job counts produce byte-identical record streams after the
canonical (backend, law, index, sub) ordering.

Per-instance randomness comes from a dedicated Mersenne Twister seeded by
SHA-256 of "seed:backend:law:index", so any single record can be replayed
in isolation.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field

from .errors import ParseError, ResourceLimitError, UsageError
from .groups import DEFAULT_BALL_CAP, GroupBackend, LatticeBackend, _digit_limit, _is_int, backend_from_spec
from .laws import LAW_IDS, LAWS, THEOREM_LAWS, check_3k4
from .reports import LawReport, VERDICT_FINDING, VERDICT_SKIPPED, VERDICT_VIOLATED, VERDICTS
from .setops import FiniteSubset, ProductTable, _text_lines

SCHEMA_VERSION = 1
ARTIFACT_VERSION = "0.1.0"

ATOM_HUNT_SUBSET_CAP = 1 << 12
HUNT_3K4_SET_CAP = 1 << 17


@dataclass(frozen=True)
class Campaign:
    backends: tuple[str, ...]
    laws: tuple[str, ...]
    budget: int = 100
    seed: int = 0
    jobs: int = 1
    radius: int = 3
    sizes: tuple[int, int] = (1, 8)
    n_values: tuple[int, ...] = (1, 2)
    k_values: tuple[int, ...] = (1,)
    d_values: tuple[int, ...] = (3,)
    m_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    iso_radius: int = 3

    def __post_init__(self):
        for name in ("backends", "laws"):
            object.__setattr__(self, name, _names(getattr(self, name), name))
        # every field with a default is an integer or a tuple of integers
        for f in dataclasses.fields(self):
            if f.default is not dataclasses.MISSING:
                value = _int_value(getattr(self, f.name), f.default, f"campaign field {f.name!r}")
                object.__setattr__(self, f.name, value)
        specs = [backend_from_spec(spec).spec for spec in self.backends]
        unknown = [law for law in self.laws if law not in LAW_IDS]
        if unknown:
            raise UsageError(f"unknown law ids: {unknown}")
        # a repeated entry would write each of its records once per repeat
        for what, names, keys in (("backends", self.backends, specs), ("laws", self.laws, self.laws)):
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise UsageError(f"campaign {what} repeat {key}: {names[keys.index(key)]!r} and {names[i]!r}")
        if self.budget < 1:
            raise UsageError("budget must be positive")
        if self.jobs < 1:
            raise UsageError("jobs must be positive")
        if len(self.sizes) != 2 or not 1 <= self.sizes[0] <= self.sizes[1]:
            raise UsageError(f"sizes must be [lo, hi] with 1 <= lo <= hi, got {list(self.sizes)}")
        for name in ("n_values", "k_values", "d_values", "m_values"):
            values = getattr(self, name)
            if not values:
                raise UsageError(f"{name} must not be empty")
            # uvk reports d < 3 as hypothesis_not_met, so d_values has no floor
            if name != "d_values" and min(values) < 1:
                raise UsageError(f"{name} must be at least 1, got {list(values)}")
        for name in ("radius", "iso_radius"):
            if not 0 <= getattr(self, name) <= DEFAULT_BALL_CAP:
                raise UsageError(f"{name} must be in 0..{DEFAULT_BALL_CAP}, got {getattr(self, name)}")

    def canonical(self) -> dict:
        # every field but jobs, an execution parameter; json writes tuples as lists
        fields = dataclasses.fields(self)
        return {"schema_version": SCHEMA_VERSION,
                **{f.name: getattr(self, f.name) for f in fields if f.name != "jobs"}}

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        version = _int_field(data, "schema_version", SCHEMA_VERSION, "campaign")
        if version != SCHEMA_VERSION:
            raise UsageError(f"unsupported campaign schema_version {version!r}")
        fields = dataclasses.fields(cls)
        names = {f.name for f in fields} | {"schema_version"}
        unknown = [key for key in data if key not in names]
        if unknown:
            raise UsageError(f"unknown campaign config keys: {unknown}")
        kwargs = {f.name: data[f.name] for f in fields if f.default is not dataclasses.MISSING and f.name in data}
        return cls(backends=data.get("backends"), laws=data.get("laws"), **kwargs)


def _names(value, what: str) -> tuple:
    """A campaign's backends or laws as a tuple; one string is a tuple of one."""
    if isinstance(value, str):
        value = [value]
    if not value:
        raise UsageError(f"campaign needs at least one {what[:-1]}")
    if not isinstance(value, (list, tuple)):
        raise UsageError(f"campaign {what} must be a string or a list, got {value!r}")
    return tuple(value)


def _int_field(data: dict, name: str, default, where: str):
    """data[name] as _int_value reads it; an absent field reads as the default."""
    return _int_value(data[name], default, f"{where} field {name!r}") if name in data else default


def _int_value(value, default, what: str):
    """value as an integer, or as a tuple of integers where the default is a tuple.

    Only int values count as integers: a bool, float or string is a
    UsageError naming `what`, as is a scalar where a list belongs.
    """
    if not isinstance(default, tuple):
        if not _is_int(value):
            raise UsageError(f"{what} needs an integer, got {value!r}")
        return value
    if not (isinstance(value, (list, tuple)) and all(_is_int(x) for x in value)):
        raise UsageError(f"{what} needs a list of integers, got {value!r}")
    return tuple(value)


def load_config(path) -> dict:
    """A campaign config file's JSON object; malformed JSON is a ParseError at its position."""
    data = _json_loads("".join(_text_lines(path, "campaign config")), f"campaign config {path}")
    if not isinstance(data, dict):
        raise ParseError(f"campaign config {path} is not a JSON object")
    return data


# a JSON string, skipped over, or an integer literal (no fraction or exponent) with its digits
_JSON_STRING_OR_INT = re.compile(r'"(?:[^"\\]|\\.)*"|(?<![\w.+-])-?(\d+)(?![\w.])')


def _json_loads(text: str, where: str, line: int = 1):
    """json.loads(text); malformed JSON, or an integer past Python's digit limit, is a ParseError.

    Lines count from `line`. json gives no position for the digit limit: it is the first such literal.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: {exc.msg}", line + exc.lineno - 1, exc.colno) from None
    except ValueError:
        m = next(m for m in _JSON_STRING_OR_INT.finditer(text) if len(m[1] or "") > sys.get_int_max_str_digits())
        pos = m.start()
        raise ParseError(f"{where}: {_digit_limit(m[1])}",
                         line + text.count("\n", 0, pos), pos - text.rfind("\n", 0, pos)) from None


@dataclass
class RunRecord:
    campaign_hash: str
    counts: dict[str, int]
    wall_clock: float
    version: str
    clean: bool
    records: list[dict] = field(default_factory=list)


def _instance_rng(seed: int, backend_spec: str, law: str, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{backend_spec}:{law}:{index}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_subset(rng: random.Random, backend: GroupBackend, radius: int, size: int) -> FiniteSubset:
    """Uniform size-`size` subset of the radius ball, without replacement."""
    ball = backend.ball_keys(radius)
    if size > len(ball):
        raise UsageError(f"cannot sample {size} elements from a ball of {len(ball)}")
    # ball keys are normal forms and rng.sample draws distinct ones
    return FiniteSubset._from_keys(backend, tuple(sorted(rng.sample(ball, size))))


@dataclass
class _Draw:
    """Seeded uniform subsets of the radius ball, sized within [lo, hi].

    The instance rng is created from ``rng_key``, (seed, backend, law,
    index), when the first set is drawn; a draw whose rng is still None
    did not depend on the index.
    """

    backend: GroupBackend
    rng_key: tuple
    radius: int
    iso_radius: int
    lo: int
    hi: int
    rng: random.Random | None = None

    def too_small(self, min_size: int) -> str | None:
        """Why no subset of at least `min_size` elements can be drawn, or None."""
        ball = len(self.backend.ball_keys(self.radius))
        if ball >= min_size:
            return None
        return f"minimum set size {min_size} exceeds the {ball}-element ball of radius {self.radius}"

    def subset(self, min_size: int = 1, max_size: int | None = None) -> FiniteSubset:
        lo = max(self.lo, min_size)
        hi = max(self.hi, lo) if max_size is None else min(self.hi, max_size)
        if self.rng is None:
            self.rng = _instance_rng(*self.rng_key)
        return sample_subset(self.rng, self.backend, self.radius, self.rng.randint(lo, hi))


def _skip(law: str, detail: str) -> list[LawReport]:
    return [LawReport(law, VERDICT_SKIPPED, None, {}, detail)]


def _run_law_instance(c: Campaign, backend_spec: str, law_id: str, index: int,
                      memo: dict | None = None) -> list[LawReport]:
    """The reports of one instance.

    An instance whose draw never created the rng depends on its index only
    through the grid parameters. With a memo, its reports are stored under
    (backend, law, params) and returned for every later index with the
    same parameters.
    """
    backend = backend_from_spec(backend_spec)
    hi = min(c.sizes[1], len(backend.ball_keys(c.radius)))
    law = LAWS[law_id]
    detail = law.skip(backend)
    if detail is not None:
        return _skip(law_id, detail)
    grids = {"n": c.n_values, "k": c.k_values, "d": c.d_values, "m": c.m_values}
    params = {p: grids[p][index % len(grids[p])] for p in law.params if p in grids}
    key = (backend_spec, law_id, *params.values())
    if memo is not None and key in memo:
        return memo[key]
    draw = _Draw(backend, (c.seed, backend_spec, law_id, index), c.radius, c.iso_radius,
                 min(c.sizes[0], hi), hi)
    drawn = law.sample(draw, params) if law.sample else {name: draw.subset() for name in law.sets}
    reports = _skip(law_id, drawn) if isinstance(drawn, str) else law.run(**params, **drawn)
    if memo is not None and draw.rng is None:
        memo[key] = reports
    return reports


def _record_sort_key(record: dict):
    return (record["backend"], record["law"], record["index"], record["sub"])


def run_campaign(c: Campaign, store_path=None) -> RunRecord:
    """Execute all instances; deterministic for a fixed seed at any job count."""
    start = time.perf_counter()
    campaign_hash = c.hash()
    cells = [(backend, law) for backend in c.backends for law in c.laws]

    def work(cell):
        # a cell runs its indices in order with its own memo, so an instance
        # that needs no rng is computed once however many jobs run
        backend, law = cell
        memo: dict = {}
        return [
            {
                "schema_version": SCHEMA_VERSION,
                "campaign": campaign_hash,
                "backend": backend,
                "law": law,
                "index": index,
                "sub": sub,
                "report": report.to_dict(),
            }
            for index in range(c.budget)
            for sub, report in enumerate(_run_law_instance(c, backend, law, index, memo))
        ]

    if c.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=c.jobs) as pool:
            chunks = list(pool.map(work, cells))
    else:
        chunks = [work(cell) for cell in cells]
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=_record_sort_key)

    counts: dict[str, int] = {verdict: 0 for verdict in VERDICTS}
    clean = True
    for record in records:
        verdict = record["report"]["verdict"]
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict == VERDICT_VIOLATED and record["law"] in THEOREM_LAWS:
            clean = False

    if store_path is not None:
        write_records(store_path, records)
    wall = time.perf_counter() - start
    return RunRecord(campaign_hash, counts, wall, ARTIFACT_VERSION, clean, records)


def write_records(path, records: list[dict]) -> None:
    """Append one canonical JSON object per line."""
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as exc:
        raise OSError(f"record store write failed at {path}: {exc}") from exc


def read_records(path) -> list[dict]:
    records = []
    for lineno, line in enumerate(_text_lines(path, "record store"), 1):
        line = line.strip()
        if not line:
            continue
        record = _json_loads(line, f"record store {path}", lineno)
        version = record.get("schema_version") if isinstance(record, dict) else None
        if not _is_int(version) or version != SCHEMA_VERSION:
            raise ParseError(f"record store {path}: schema_version {version!r} is not {SCHEMA_VERSION}", lineno)
        problem = _record_problem(record)
        if problem is not None:
            raise ParseError(f"record store {path}: {problem}", lineno)
        records.append(record)
    return records


# the type summarize needs of each record field
_RECORD_FIELDS = {"campaign": str, "backend": str, "law": str, "index": int, "sub": int, "report": dict}


def _record_problem(record: dict) -> str | None:
    """Why summarize cannot count a store record, or None."""
    for name, kind in _RECORD_FIELDS.items():
        value = record.get(name)
        if value is None:
            return f"record has no {name!r}"
        # a bool is no int here: summarize's key would take true for 1
        if not (_is_int(value) if kind is int else isinstance(value, kind)):
            return f"record {name!r} {value!r} has type {type(value).__name__}, not {kind.__name__}"
    report = record["report"]
    if report.get("verdict") not in VERDICTS:
        return f"report verdict {report.get('verdict')!r} is not one of {', '.join(VERDICTS)}"
    slack = report.get("slack")
    if slack is not None and not (_is_int(slack) or isinstance(slack, float) and math.isfinite(slack)):
        return f"report slack {slack!r} is not a number"
    return None


def summarize(records: list[dict]) -> list[dict]:
    """Per-law verdict counts and slack extremes, sorted by law id.

    A store that holds the same campaign twice counts each
    (campaign, backend, law, index, sub) once.
    """
    by_law: dict[str, dict] = {}
    seen = set()
    for record in records:
        key = (record["campaign"], record["backend"], record["law"], record["index"], record["sub"])
        if key in seen:
            continue
        seen.add(key)
        report = record["report"]
        row = by_law.setdefault(
            record["law"],
            {"law": record["law"], "holds": 0, "violated": 0, "hypothesis_not_met": 0,
             "finding": 0, "skipped": 0, "min_slack": None, "max_slack": None},
        )
        row[report["verdict"]] += 1
        slack = report.get("slack")
        if slack is not None:
            row["min_slack"] = slack if row["min_slack"] is None else min(row["min_slack"], slack)
            row["max_slack"] = slack if row["max_slack"] is None else max(row["max_slack"], slack)
    return [by_law[law] for law in sorted(by_law)]


# -- conjecture hunts --------------------------------------------------------

def hunt(conjecture: str, grid: dict) -> list[LawReport]:
    """Scan a parameter grid, emitting finding records only."""
    if conjecture not in HUNTS:
        raise UsageError(f"unknown conjecture id {conjecture!r}")
    if not isinstance(grid, dict):
        raise UsageError(f"a hunt grid is a JSON object, got {grid!r}")
    return HUNTS[conjecture](grid)


def _hunt_field(grid: dict, name: str, default, least: int):
    """A grid field as _int_field reads it; a UsageError names it when empty or below least."""
    value = _int_field(grid, name, default, "hunt grid")
    values = value if isinstance(value, tuple) else (value,)
    if not values or min(values) < least:
        raise UsageError(f"hunt grid field {name!r} needs values of at least {least}, got {json.dumps(value)}")
    return value


def _universe_keys(backend: GroupBackend, grid: dict) -> list[tuple]:
    if "span" in grid:
        span = _hunt_field(grid, "span", 0, 0)
        if not isinstance(backend, LatticeBackend) or backend.dim != 1:
            raise UsageError("span universes are defined for zd:1")
        return [(i,) for i in range(span + 1)]
    return list(backend.ball_keys(_hunt_field(grid, "radius", 3, 0)))


def _hunt_atom_conjecture(grid: dict) -> list[LawReport]:
    """The atom_conjecture law's findings over translation-normalized sets C and n <= n_max."""
    backend = backend_from_spec(grid.get("backend", "zd:1"))
    universe = _universe_keys(backend, grid)
    n_max = _hunt_field(grid, "n_max", 3, 1)
    window = backend.ball(_hunt_field(grid, "x_radius", 4, 0))
    id_key = backend.identity_key
    others = [k for k in universe if k != id_key]
    if 1 << len(others) > ATOM_HUNT_SUBSET_CAP:
        raise ResourceLimitError(
            f"{1 << len(others)} sets C exceed the atom hunt cap {ATOM_HUNT_SUBSET_CAP}"
        )
    law = LAWS["atom_conjecture"]
    findings: list[LawReport] = []
    for mask in range(1 << len(others)):
        keys = [id_key] + [k for i, k in enumerate(others) if mask >> i & 1]
        C = FiniteSubset.from_keys(backend, keys)
        for n in range(1, min(n_max, len(window)) + 1):
            findings += [r for r in law.run(C=C, n=n, window=window) if r.verdict == VERDICT_FINDING]
    return findings


def _hunt_3k4(grid: dict) -> list[LawReport]:
    """Exhaustive small-square progression-cover scan over a universe."""
    backend = backend_from_spec(grid.get("backend", "zd:1"))
    universe = FiniteSubset._from_keys(backend, tuple(_universe_keys(backend, grid)))
    sizes = _hunt_field(grid, "sizes", (4, 5), 1)
    total = sum(math.comb(len(universe), size) for size in sizes)
    if total > HUNT_3K4_SET_CAP:
        raise ResourceLimitError(f"{total} sets A exceed the 3k-4 hunt cap {HUNT_3K4_SET_CAP}")
    table = ProductTable(universe, universe)
    findings: list[LawReport] = []
    for size in sizes:
        for combo in itertools.combinations(range(len(universe)), size):
            # check_3k4 reports these as hypothesis_not_met, which a hunt drops
            if table.product_size(combo, combo) > 3 * size - 4:
                continue
            report = check_3k4(table.subset(combo))
            if report.verdict in (VERDICT_VIOLATED, VERDICT_FINDING):
                findings.append(
                    LawReport("3k4", VERDICT_FINDING, report.slack, report.witness, report.detail)
                )
    return findings


HUNTS = {
    "atom_conjecture": _hunt_atom_conjecture,
    "3k4": _hunt_3k4,
}
