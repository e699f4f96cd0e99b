"""Command-line interface.

Exit codes: 0 for clean runs (conjecture findings included), 1 when a
theorem-status law is violated, 2 for usage, parse, resource and file
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DomainError, ParseError, SumsetLabError, UsageError
from .explorer import (
    Campaign,
    load_config,
    read_records,
    run_campaign,
    summarize,
)
from .groups import _parse_int, backend_from_spec
from .isoperimetry import IsoInstance, kappa_restricted
from .laws import (
    LAWS,
    THEOREM_LAWS,
    check_c_lower,
    example_klein_grid,
    example_klein_union,
)
from .reports import VERDICT_VIOLATED, subset_payload
from .setops import FiniteSubset, product_set


def _add_common(parser: argparse.ArgumentParser, formats=("text", "json")) -> None:
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--out")


def _integer(text: str) -> int:
    """An integer flag, read in the set-file grammar: ASCII -?[0-9]+ within Python's digit limit."""
    return _parse_int(text, argparse.ArgumentTypeError)


def _emit(fmt: str, out, lines_text, objects) -> None:
    """Write text lines or one JSON object per line, to the file out or, when it is None, to stdout."""
    if fmt == "json":
        payload = "\n".join(json.dumps(obj, sort_keys=True) for obj in objects) + "\n"
    else:
        payload = "\n".join(lines_text) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_set(backend, path) -> FiniteSubset:
    S = FiniteSubset.from_file(backend, path)
    if len(S) == 0:
        raise DomainError(f"set file {path} holds no elements")
    return S


def _report_lines(report) -> str:
    slack = "" if report.slack is None else f" slack={report.slack}"
    detail = f" ({report.detail})" if report.detail else ""
    return f"{report.law}: {report.verdict}{slack}{detail}"


def _cmd_sumset(args) -> int:
    backend = backend_from_spec(args.group)
    A = _load_set(backend, args.a_file)
    B = _load_set(backend, args.b_file)
    AB = product_set(A, B)
    dfc = len(AB) - len(A) - len(B)
    lines = [str(g) for g in AB]
    lines.append(f"|AB| = {len(AB)}")
    lines.append(f"deficiency = {dfc}")
    obj = {"product": subset_payload(AB), "size": len(AB), "deficiency": dfc}
    _emit(args.format, args.out, lines, [obj])
    return 0


def _cmd_kappa(args) -> int:
    backend = backend_from_spec(args.group)
    C = _load_set(backend, args.c_file)
    window = backend.ball(args.radius)
    result = kappa_restricted(IsoInstance(C, args.n, window))
    lines = [
        f"kappa_hat = {result.kappa_hat}",
        f"certificate = {result.certificate}",
        f"atoms = {[ [str(g) for g in U] for U in result.atoms ]}",
    ]
    obj = {
        "kappa_hat": result.kappa_hat,
        "certificate": result.certificate,
        "n": args.n,
        "radius": args.radius,
        "atoms": [subset_payload(U) for U in result.atoms],
        "fragments_sample": [subset_payload(F) for F in result.fragments_sample],
    }
    _emit(args.format, args.out, lines, [obj])
    return 0


def _verify_input(args, backend, name: str) -> FiniteSubset:
    """A law's named set: from --<name>-file, or for a window the --radius ball by default."""
    if name == "window":
        return _load_set(backend, args.window_file) if args.window_file else backend.ball(args.radius)
    path = getattr(args, f"{name.lower()}_file")
    if path is None:
        raise UsageError(f"law {args.law} requires --{name.lower()}-file")
    return _load_set(backend, path)


def _cmd_verify(args) -> int:
    backend = backend_from_spec(args.group)
    law = LAWS.get(args.law)
    if law is None:
        raise UsageError(f"unknown law id {args.law!r}")
    reason = law.skip(backend)
    if reason is not None:
        raise UsageError(f"law {args.law} does not apply to {backend.spec}: {reason}")
    flags = {"n": args.n, "k": args.k, "d": args.d, "m": args.m,
             "use_general_bound": args.general_bound, "sizes": (2, args.max_size)}
    inputs = {name: _verify_input(args, backend, name) for name in law.sets}
    reports = law.run(**inputs, **{p: flags[p] for p in law.params})
    _emit(args.format, args.out, [_report_lines(r) for r in reports], [r.to_dict() for r in reports])
    bad = any(r.verdict == VERDICT_VIOLATED and r.law in THEOREM_LAWS for r in reports)
    return 1 if bad else 0


def _example_klein_grid(args) -> tuple[list[str], dict]:
    A, B, report = example_klein_grid(args.m)
    lines = ["A: " + " ".join(str(g) for g in A), f"|B| = {len(B)}", _report_lines(report)]
    return lines, {"A": subset_payload(A), "B": subset_payload(B), "report": report.to_dict()}


def _example_klein_union(args) -> tuple[list[str], dict]:
    A, report = example_klein_union(args.m)
    return [f"|A| = {len(A)}", _report_lines(report)], {"A": subset_payload(A), "report": report.to_dict()}


def _example_c_lower(args) -> tuple[list[str], dict]:
    obj = check_c_lower(args.k).witness
    return [f"k = {obj['k']}: |B| = {obj['B_size']}, deficiency = {obj['deficiency']} (m = {obj['m']})"], obj


# example name -> (text lines, JSON object) for the parsed arguments
EXAMPLES = {
    "klein-grid": _example_klein_grid,
    "klein-union": _example_klein_union,
    "c-lower": _example_c_lower,
}


def _cmd_example(args) -> int:
    lines, obj = EXAMPLES[args.name](args)
    _emit(args.format, args.out, lines, [obj])
    return 0


def _cmd_explore(args) -> int:
    data = load_config(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    elif "seed" not in data:
        data["seed"] = int.from_bytes(os.urandom(4), "big")
        print(f"seed: {data['seed']}", file=sys.stderr)
    if args.jobs is not None:
        data["jobs"] = args.jobs
    campaign = Campaign.from_dict(data)
    run = run_campaign(campaign, store_path=args.out)
    lines = [
        f"campaign = {run.campaign_hash}",
        f"records = {len(run.records)}",
        f"counts = {run.counts}",
        f"clean = {run.clean}",
        f"wall_clock = {run.wall_clock:.3f}s",
    ]
    obj = {
        "campaign": run.campaign_hash,
        "records": len(run.records),
        "counts": run.counts,
        "clean": run.clean,
        "version": run.version,
    }
    # --out is the record store, so the summary goes to stdout
    _emit(args.format, None, lines, [obj])
    return 0 if run.clean else 1


def _cmd_report(args) -> int:
    rows = summarize(read_records(args.run))
    header = ["law", "holds", "violated", "hypothesis_not_met", "finding", "skipped",
              "min_slack", "max_slack"]
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join("" if row[h] is None else str(row[h]) for h in header))
    _emit(args.format, args.out, csv_lines, rows)
    violated = any(row["violated"] for row in rows if row["law"] in THEOREM_LAWS)
    return 1 if violated else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Product sets, progression covers and isoperimetric atoms "
                    "in concrete torsion-free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group_kw = dict(required=True, help="group spec: zd:<d>, free:<k>, klein, heis")

    p = sub.add_parser("sumset", help="product set of two set files")
    p.add_argument("a_file")
    p.add_argument("b_file")
    p.add_argument("--group", **group_kw)
    _add_common(p)
    p.set_defaults(func=_cmd_sumset)

    p = sub.add_parser("kappa", help="restricted isoperimetric minimum of a set file")
    p.add_argument("c_file")
    p.add_argument("--group", **group_kw)
    p.add_argument("--n", type=_integer, default=1)
    p.add_argument("--radius", type=_integer, default=4)
    _add_common(p)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("verify", help="run one law check")
    p.add_argument("--law", required=True, help="law id, e.g. kempermann")
    p.add_argument("--group", **group_kw)
    p.add_argument("--a-file")
    p.add_argument("--b-file")
    p.add_argument("--c-file")
    p.add_argument("--window-file")
    p.add_argument("--n", type=_integer, default=2)
    p.add_argument("--k", type=_integer, default=1)
    p.add_argument("--d", type=_integer, default=3)
    p.add_argument("--m", type=_integer, default=1)
    p.add_argument("--radius", type=_integer, default=3)
    p.add_argument("--max-size", type=_integer, default=4)
    p.add_argument("--general-bound", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="construct a named example family")
    p.add_argument("--name", required=True, choices=tuple(EXAMPLES))
    p.add_argument("--m", type=_integer, default=1)
    p.add_argument("--k", type=_integer, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("explore", help="run a seeded campaign from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_integer)
    p.add_argument("--jobs", type=_integer)
    _add_common(p)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("report", help="summarize a record store as a table")
    p.add_argument("--run", required=True, help="path to a records JSONL file")
    # the text table is comma-separated, so csv names it too
    _add_common(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (SumsetLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
