"""Command-line runner for the figure reproductions.

Usage (the scenario registry + parallel runner)::

    python -m repro.experiments list                 # what can I run?
    python -m repro.experiments list --json
    python -m repro.experiments run fig2a --jobs 4   # parallel, cached
    python -m repro.experiments run fig4bc --num-pieces 400 --json
    python -m repro.experiments run all --jobs 8 --no-cache
    python -m repro.experiments run fig3a --set runs=2 --set duration=10
    python -m repro.experiments run all --chart --no-cache --trace run.jsonl

Every run axis (:data:`repro.runner.axes.AXES`: ``--backend``,
``--audit``, ``--chaos``, ``--strategy-mix``, ``--content``,
``--catalog``/``--demand`` ...) registers its own flags.

``run`` caches each simulated cell on disk keyed by (scenario, params,
seed, code version); a re-run with nothing changed executes zero
simulations.  ``--trace`` installs a global JSONL trace sink, which
forces serial execution (the sink lives in this process).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional

from ..runner import (
    AXES,
    Runner,
    ResultCache,
    UnknownScenarioError,
    default_cache_dir,
    get_scenario,
    print_progress,
    scenario_names,
)

# `all` order (the simple figures first, then the piecewise ones); kept
# stable so logs remain comparable.
ALL_ORDER: List[str] = [
    "fig2a", "fig2bc", "fig3a", "fig3b", "fig3c", "fig4a",
    "fig8a", "fig8b", "fig8c", "fig9c", "fig4bc", "fig9ab",
    "figx_chaos", "figx_scale", "figx_hybrid", "figx_arena", "figx_erasure",
    "figx_cdn",
]


def _overrides_for(name: str, num_pieces: Optional[int],
                   sets: Optional[Dict[str, object]] = None,
                   swarm_size: Optional[int] = None,
                   focal_hosts: Optional[int] = None) -> Dict[str, object]:
    """Merge --num-pieces / --swarm-size / --focal-hosts / --set into
    accepted overrides.

    A dedicated flag and a ``--set`` spelling of the same key is a
    contradiction, not a precedence question: erroring out beats
    silently ignoring one of the two values the user asked for.
    """
    overrides: Dict[str, object] = dict(sets or {})
    defaults = get_scenario(name).defaults

    def put(key: str, value: object, flag: str) -> None:
        if key in overrides:
            raise SystemExit(
                f"error: {flag} conflicts with --set {key}=...; "
                f"pass one or the other"
            )
        overrides[key] = value

    if num_pieces is not None and "num_pieces" in defaults:
        put("num_pieces", num_pieces, "--num-pieces")
    if swarm_size is not None:
        # figx_scale sweeps a list of sizes; a single --swarm-size pins
        # it (figx_hybrid's equivalent axis is the background size).
        if "swarm_sizes" in defaults:
            put("swarm_sizes", [swarm_size], "--swarm-size")
        elif "background_sizes" in defaults:
            put("background_sizes", [swarm_size], "--swarm-size")
        elif "swarm_size" in defaults:
            put("swarm_size", swarm_size, "--swarm-size")
    if focal_hosts is not None and "focal_hosts" in defaults:
        put("focal_hosts", focal_hosts, "--focal-hosts")
    return overrides


def _parse_set(pairs: List[str]) -> Dict[str, object]:
    """``key=value`` pairs; values are parsed as JSON, else kept as strings."""
    out: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _resolve_names(figure: str) -> List[str]:
    if figure == "all":
        known = scenario_names()
        return [n for n in ALL_ORDER if n in known] + [
            n for n in known if n not in ALL_ORDER
        ]
    try:
        get_scenario(figure)
    except UnknownScenarioError as exc:
        # The CLI turns the registry error into a clean exit; library
        # callers of get_scenario/run_scenario get the exception itself.
        raise SystemExit(f"error: {exc.args[0]}") from None
    return [figure]


def _result_payload(run) -> Dict[str, object]:
    payload = asdict(run.result)
    payload["scenario"] = run.spec.name
    payload["spec_hash"] = run.spec.spec_hash()
    payload["backend"] = run.spec.axis("backend")
    payload["stats"] = {
        "total_cells": run.stats.total_cells,
        "executed": run.stats.executed,
        "cache_hits": run.stats.cache_hits,
        "failed": run.stats.failed,
        "retries": run.stats.retries,
        "elapsed_s": run.stats.elapsed_s,
    }
    payload["failures"] = [
        {"key": list(f.key), "seed": f.seed, "attempts": f.attempts,
         "error": f.error}
        for f in run.failures
    ]
    return payload


def _cmd_list(args) -> None:
    names = scenario_names()
    if args.json:
        print(json.dumps(
            [
                {
                    "name": n,
                    "description": get_scenario(n).description,
                    "defaults": get_scenario(n).params(),
                }
                for n in names
            ],
            indent=2, sort_keys=True,
        ))
        return
    width = max(len(n) for n in names)
    for n in names:
        print(f"{n.ljust(width)}  {get_scenario(n).description}")


def _cmd_run(args) -> None:
    names = []
    for figure in args.figures:
        for name in _resolve_names(figure):
            if name not in names:
                names.append(name)
    sets = _parse_set(args.set or [])
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = None if args.quiet else print_progress
    axes: Dict[str, object] = {}
    for axis in AXES:
        axes.update(axis.keywords_from_args(args, sets))
    try:
        runner = Runner(
            jobs=args.jobs, cache=cache, progress=progress,
            cell_timeout=args.cell_timeout, **axes,
        )
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        raise SystemExit(f"error: {message}") from None
    failed_cells = 0

    def run_all() -> None:
        nonlocal failed_cells
        payloads = []
        for name in names:
            start = time.time()
            try:
                run = runner.run(
                    name,
                    _overrides_for(name, args.num_pieces, sets,
                                   swarm_size=args.swarm_size,
                                   focal_hosts=args.focal_hosts),
                )
            except ValueError as exc:
                raise SystemExit(f"error: {exc}") from None
            failed_cells += len(run.failures)
            if args.json:
                payloads.append(_result_payload(run))
            else:
                print(run.result.table())
                if args.chart:
                    from ..analysis import ascii_chart

                    print()
                    print(ascii_chart(run.result))
                for failure in run.failures:
                    print(f"warning: {failure.summary()}", file=sys.stderr)
                print(f"[{run.stats.summary()} | {time.time() - start:.1f}s]")
                print()
        if args.json:
            out = payloads[0] if len(payloads) == 1 else payloads
            print(json.dumps(out, indent=2, sort_keys=True))

    if args.trace is not None:
        from ..obs import tracing

        try:
            open(args.trace, "w", encoding="utf-8").close()
        except OSError as exc:
            raise SystemExit(f"cannot write trace log {args.trace}: {exc}")
        with tracing.capture(path=args.trace):
            run_all()
        print(f"[trace written to {args.trace}]", file=sys.stderr)
    else:
        run_all()

    if args.audit and failed_cells:
        # Under --audit a failed cell is (almost always) an invariant
        # violation; make the run's exit status reflect it for CI.
        raise SystemExit(1)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for independent cells (default 1)")
    parser.add_argument("--json", action="store_true",
                        help="emit the result as JSON instead of a table")
    parser.add_argument("--no-cache", action="store_true",
                        help="always simulate; do not read or write the cache")
    parser.add_argument("--cache-dir", default=default_cache_dir(), metavar="DIR",
                        help="result cache location (default: $REPRO_CACHE_DIR "
                             "or ./.repro-cache)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a scenario parameter (JSON value); "
                             "repeatable")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress per-cell progress lines on stderr")
    parser.add_argument("--num-pieces", type=int, default=None,
                        help="piece count for fig4bc/fig9ab (20 or 400)")
    parser.add_argument("--swarm-size", type=int, default=None, metavar="N",
                        help="pin the swarm size for scenarios that sweep it "
                             "(figx_scale: replaces the size grid with [N]; "
                             "figx_hybrid: pins the background size)")
    parser.add_argument("--focal-hosts", type=int, default=None, metavar="N",
                        help="number of packet-level focal hosts for "
                             "hybrid-backend scenarios (figx_hybrid)")
    parser.add_argument("--chart", action="store_true",
                        help="also render an ASCII chart of the series")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the structured cross-layer event log of "
                             "the run as JSONL to PATH (forces --jobs 1; "
                             "render it with scripts/run_report.py)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock budget; a cell exceeding it "
                             "becomes a failed cell instead of hanging the run")
    for axis in AXES:
        for names, options in axis.flags:
            parser.add_argument(*names, **options)


def main(argv=None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures via the scenario registry.",
    )
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--json", action="store_true",
                        help="emit names, descriptions and defaults as JSON")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser(
        "run", help="run one or more scenarios (or 'all') through the runner"
    )
    p_run.add_argument("figures", nargs="+", metavar="figure",
                       help="|".join(scenario_names()) + "|all")
    _add_run_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("choose a command: list | run")
    args.func(args)


if __name__ == "__main__":
    main(sys.argv[1:])
