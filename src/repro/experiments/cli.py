"""Command-line interface for the scenario-sweep subsystem.

Usage (module entry point)::

    python -m repro.experiments list                 # registered scenarios
    python -m repro.experiments run rand-vs-seq-write --parallel --out out.json
    python -m repro.experiments run figure4 --serial --quick
    python -m repro.experiments fleet fleet-smoke --shards 4
    python -m repro.experiments diff before.json after.json --metric iops
    python -m repro.experiments report --quick       # full paper report

``run`` executes a registered scenario through :class:`SweepRunner`
(parallel across worker processes by default), caches per-cell JSON results
under ``--cache-dir`` (default ``$REPRO_SWEEP_CACHE`` or ``.sweep-cache``),
prints a metrics table, and optionally saves the whole sweep to ``--out``;
``--shards N`` additionally shards any fleet cells inside the pool.
``fleet`` is a view of the same pipeline for a scenario's fleet cells: the
same front half (scenario, cells, ``--quick``, run config), the same
runner and cache (in-process, one cell at a time, so each cell's tenant,
group and fault tables print as it finishes, with the coordinator's
``runtime:`` line of a fresh cell), and the same ``--out`` sweep-result
file, which ``diff`` reads.  Its own options -- ``--faults``, ``--macro``
and ``--epoch-us`` -- rewrite each cell's topology (different physics,
so the cache key sees them).  Every ``--shards`` / ``--transport`` /
``--run-ahead`` combination produces bit-identical fleet metrics (so none
of them enters the cache key).
On ``run`` and ``fleet``, the execution flags apply on top of the
scenario's ``run:`` block, once per scenario, giving the one
:class:`repro.cluster.FleetRunConfig` its fleet cells run under; a flag
that differs from a field the block sets (even to its default) is an
error (path-addressed, exit 2), and on ``fleet``, ``--serial`` counts as
``--transport local``.  ``diff`` compares two saved sweeps cell-by-cell.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.cluster.transport import TRANSPORTS
from repro.experiments import table1
from repro.experiments.common import format_table
from repro.experiments.scenarios import (
    all_scenarios,
    get_scenario,
    load_user_scenarios,
)
from repro.experiments.sweep import (
    SweepResult,
    SweepRunner,
    default_cache_dir,
    diff_results,
    quick_cells,
)

#: Metrics columns printed by ``run`` (in order).
_TABLE_METRICS = ("mean_us", "p999_us", "throughput_gbps", "iops")


def _render_stage_breakdown(stages: dict) -> str:
    """Table for one trace breakdown ({stage: {count, mean_us, ...}})."""
    rows = []
    for stage, stats in stages.items():
        rows.append([stage, str(stats["count"]), f"{stats['mean_us']:.1f}",
                     f"{stats['p99_us']:.1f}", f"{stats['share']:.1%}"])
    return format_table(["stage", "count", "mean_us", "p99_us", "share"], rows)


def _print_traces(result) -> None:
    """Per-cell request-path latency breakdowns (cells with trace=True)."""
    for outcome in result.outcomes:
        trace = outcome.metrics.get("trace")
        if not trace:
            continue
        labels = json.dumps(outcome.params, sort_keys=True)
        print(f"\n## request-path breakdown {labels} "
              f"({trace['completed_requests']} requests)")
        per_device = trace.get("devices")
        if per_device:
            for device_name, stages in sorted(per_device.items()):
                print(f"[{device_name}]")
                print(_render_stage_breakdown(stages))
        else:
            print(_render_stage_breakdown(trace["stages"]))

        streams = outcome.metrics.get("streams")
        if streams:
            rows = [[name, s["device"], s["pattern"], str(s["queue_depth"]),
                     f"{s['mean_us']:.1f}", f"{s['p99_us']:.1f}",
                     f"{s['throughput_gbps']:.2f}"]
                    for name, s in sorted(streams.items())]
            print(format_table(["stream", "device", "pattern", "qd",
                                "mean_us", "p99_us", "GB/s"], rows))


def _print_scan_warnings() -> None:
    """Surface $REPRO_SCENARIO_PATH files that failed to load (stderr)."""
    for file, message in load_user_scenarios():
        print(f"warning: skipped scenario document {file}: {message}",
              file=sys.stderr)


def _cmd_list(_args) -> int:
    _print_scan_warnings()
    rows = []
    for spec in all_scenarios():
        try:
            cell_count = str(len(spec.cells()))
        except ValueError:
            cell_count = "?"
        rows.append([spec.name, cell_count,
                     ",".join(spec.tags) or "-", spec.description])
    print(format_table(["Scenario", "Cells", "Tags", "Description"], rows))
    return 0


def _resolve_scenario(target: str):
    """A registered scenario name, or a document file by path.

    ``run``/``fleet``/``submit`` share this: any argument ending in a
    config suffix (.yaml/.yml/.json) loads as a scenario or fleet
    document; anything else must be a registered name.  Raises
    ``ValueError`` with the one-line CLI error message.
    """
    from repro.config import SCENARIO_SUFFIXES, ConfigError, scenario_from_path

    if Path(target).suffix in SCENARIO_SUFFIXES:
        try:
            return scenario_from_path(target)
        except ConfigError as error:
            raise ValueError(str(error)) from None
    try:
        return get_scenario(target)
    except KeyError as error:
        raise ValueError(error.args[0]) from None


def _cli_fleet_flags(args, serial_is_local: bool = False) -> dict:
    """Explicitly set fleet-execution CLI flags, as ``FleetRunConfig``
    field -> ``(flag as typed, value)``.

    ``serial_is_local`` is the ``fleet`` verb's reading of ``--serial``:
    it counts as ``--transport local`` (keep shards in-process), so it
    contradicts any other explicit transport (``ValueError``).  ``run``
    uses ``--serial`` for the sweep pool instead.
    """
    flags = {}
    for field in ("shards", "run_ahead", "transport"):
        value = getattr(args, field, None)
        if value is not None:
            flags[field] = (f"--{field.replace('_', '-')} {value}", value)
    if serial_is_local and args.serial:
        if args.transport not in (None, "auto", "local"):
            raise ValueError(f"--serial contradicts --transport "
                             f"{args.transport} (drop one)")
        flags["transport"] = ("--serial", "local")
    return flags


def _run_config(spec, flags: dict):
    """The scenario's ``run:`` block with the CLI flags applied on top: the
    one :class:`repro.cluster.FleetRunConfig` its fleet cells run under.

    Raises ``ValueError`` with the one-line CLI error when a flag differs
    from a field the block sets, even to its default (the run is
    ambiguous, so the CLI refuses it instead of silently picking a side),
    or a flag value is invalid.
    """
    from repro.cluster import FleetRunConfig

    block = dict(spec.run)
    for field, (flag, value) in flags.items():
        if field in block and block[field] != value:
            raise ValueError(f"run.{field}: {flag} contradicts the scenario "
                             f"document's run.{field} = {block[field]} (drop "
                             f"the flag or edit the document)")
    return FleetRunConfig(**block).merged(
        **{field: value for field, (_, value) in flags.items()})


def _sweep_setup(args, serial_is_local: bool = False, parallel: bool = False,
                 max_workers: Optional[int] = None):
    """The front half of ``run`` and ``fleet``: the scenario, its cells
    (shrunk by ``--quick``) and the runner -- the cache flags, and the run
    config its fleet cells run under (:func:`_run_config`).

    Raises ``ValueError`` with the one-line CLI error (exit 2).
    """
    spec = _resolve_scenario(args.scenario)
    try:
        cells = spec.cells()
    except ValueError as error:
        raise ValueError(f"cannot expand scenario {spec.name!r}: "
                         f"{error}") from None
    if args.quick:
        cells = quick_cells(cells)
    runner = SweepRunner(
        parallel=parallel, max_workers=max_workers,
        cache_dir=None if args.no_cache
        else (args.cache_dir or default_cache_dir()),
        force=args.force,
        fleet_config=_run_config(spec, _cli_fleet_flags(args,
                                                        serial_is_local)))
    return spec, cells, runner


def _cmd_run(args) -> int:
    try:
        spec, cells, runner = _sweep_setup(args, parallel=not args.serial,
                                           max_workers=args.workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if spec.name == "table1":
        print(table1.render_table1(table1.run_table1()))
        return 0
    if not cells:
        print(f"scenario {spec.name!r} has no cells")
        return 1
    started = time.monotonic()
    result = runner.run_cells(spec.name, cells)
    elapsed = time.monotonic() - started
    label_keys = sorted({key for outcome in result.outcomes
                         for key in outcome.params})
    headers = label_keys + list(_TABLE_METRICS) + ["cached"]
    rows = []
    for outcome in result.outcomes:
        row = [str(outcome.params.get(key, "-")) for key in label_keys]
        for metric in _TABLE_METRICS:
            value = outcome.metrics.get(metric)
            row.append("-" if value is None else f"{value:.2f}")
        row.append("yes" if outcome.cached else "no")
        rows.append(row)
    print(f"# {spec.name}: {spec.description}")
    print(format_table(headers, rows))
    _print_traces(result)
    mode = "serial" if args.serial else f"parallel x{runner.max_workers or 'auto'}"
    print(f"{len(result)} cells in {elapsed:.1f}s ({mode}, "
          f"{result.cache_hits} cached)")
    if args.out:
        path = result.save(args.out)
        print(f"sweep saved to {path}")
    return 0


def _fleet_rewrite(args):
    """``fleet``'s own options as one cell transform: ``--faults`` (folded
    into the topology exactly as a cell document's ``faults`` is),
    ``--epoch-us`` and ``--macro`` rewrite ``cell.fleet``, so the cache key
    sees them (a different fault schedule, synchronization window or group
    simulation mode is different physics).  With none given, it keeps
    the cell as it is.

    Raises ``ValueError`` with the one-line CLI error, here for a bad
    ``--faults`` spec and in the transform for an override the topology
    rejects.
    """
    from dataclasses import replace

    from repro.cluster import FleetTopology
    from repro.cluster.faults import canonical_fault_spec, parse_fault_spec
    from repro.config import fold_faults

    faults = None
    if args.faults is not None:
        text = args.faults
        if text.startswith("@"):
            try:
                text = Path(text[1:]).read_text()
            except OSError as error:
                raise ValueError(
                    f"cannot read --faults file: {error}") from None
        try:
            faults = canonical_fault_spec(*parse_fault_spec(text))
        except ValueError as error:
            raise ValueError(f"bad --faults spec: {error}") from None
    modes: dict[str, str] = {}
    for token in args.macro or ():
        for entry in token.split(","):
            entry = entry.strip()
            if entry:
                name, _, mode = entry.partition("=")
                modes[name] = mode or "macro"
    if faults is None and args.epoch_us is None and not modes:
        return lambda cell: cell

    def rewrite(cell):
        fleet = cell.fleet if faults is None else fold_faults(cell.fleet,
                                                              faults)
        topology = FleetTopology.from_json(fleet)
        if args.epoch_us is not None:
            topology = topology.scaled(epoch_us=args.epoch_us)
        return replace(cell, fleet=topology.with_modes(modes).canonical())

    return rewrite


def _print_fleet_outcome(outcome) -> None:
    """One fleet cell's tenant, group and fault tables, then its
    ``runtime:`` line (fresh cells) or the cache note."""
    payload = outcome.metrics["fleet"]
    fleet_metrics = payload["fleet"]
    labels = json.dumps(outcome.params, sort_keys=True)
    print(f"\n# {payload['topology']['name']} {labels}")
    print(f"{fleet_metrics['devices']} devices, "
          f"{payload['topology']['tenants']} tenants, "
          f"{payload['topology']['edges']} replication edges")
    rows = [[name,
             tenant["group"],
             str(tenant["devices"]),
             str(tenant["ios_completed"]),
             f"{tenant['mean_us']:.1f}",
             f"{tenant['p99_us']:.1f}",
             f"{tenant['p999_us']:.1f}",
             f"{tenant['throughput_gbps']:.3f}",
             f"{tenant['iops']:.0f}"]
            for name, tenant in sorted(payload["tenants"].items())]
    print(format_table(["tenant", "group", "devs", "ios", "mean_us",
                        "p99_us", "p999_us", "GB/s", "IOPS"], rows))
    rows = [[name, group["device_type"], str(group["devices"]),
             str(group["ios_completed"]), str(group["replica_writes"]),
             f"{group['mean_us']:.1f}" if group["ios_completed"] else "-"]
            for name, group in sorted(payload["groups"].items())]
    print(format_table(["group", "device", "devs", "tenant ios",
                        "replica writes", "mean_us"], rows))
    print(f"fleet: {fleet_metrics['ios_completed']} ios, "
          f"mean {fleet_metrics['mean_us']:.1f}us, "
          f"p99.9 {fleet_metrics['p999_us']:.1f}us, "
          f"{fleet_metrics['throughput_gbps']:.3f} GB/s aggregate")
    faults = payload.get("faults")
    if faults:
        during, steady = faults["during_rebuild"], faults["steady"]
        print(f"faults: {len(faults['events'])} event(s), "
              f"{faults['degraded_us']:.0f}us degraded, rebuild "
              f"{faults['rebuild_writes']} chunks / "
              f"{faults['rebuild_bytes']} bytes "
              f"({faults['rebuild_gbps']:.3f} GB/s), "
              f"shed {faults['shed_ios']} ios")
        print(f"  p99 during rebuild {during['p99_us']:.1f}us "
              f"({during['ios']} ios) vs steady "
              f"{steady['p99_us']:.1f}us ({steady['ios']} ios)")
    runtime = outcome.runtime
    if runtime is None:
        print("runtime: cached result (use --force to re-run)")
    else:
        print(f"runtime: {runtime['shards']} shard(s) "
              f"({runtime['mode']}, {runtime['transport']} transport), "
              f"{runtime['epochs']} epochs, "
              f"{runtime['coordinator_rounds']} coordinator round(s), "
              f"{runtime['wall_s']:.2f}s wall, "
              f"{runtime['events_per_sec']:.0f} events/s")


def _cmd_fleet(args) -> int:
    """Run a scenario's fleet cells through ``run``'s pipeline, in-process
    and one cell at a time, printing each cell's tables as it finishes."""
    try:
        spec, cells, runner = _sweep_setup(args, serial_is_local=True)
        rewrite = _fleet_rewrite(args)
        cells = [rewrite(cell) for cell in cells if cell.fleet is not None]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not cells:
        print(f"error: scenario {spec.name!r} has no fleet cells "
              f"(fleet scenarios: see 'list', tag 'fleet')", file=sys.stderr)
        return 2
    result = SweepResult(scenario=spec.name)
    for cell in cells:
        [outcome] = runner.run_cells(spec.name, [cell]).outcomes
        result.outcomes.append(outcome)
        _print_fleet_outcome(outcome)
    if args.out:
        path = result.save(args.out)
        print(f"\nsweep saved to {path}")
    return 0


def _cmd_diff(args) -> int:
    try:
        a = SweepResult.load(args.a)
        b = SweepResult.load(args.b)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as error:
        print(f"error: not a sweep-result file (save one with 'run --out' "
              f"or 'fleet --out'): {error!r}", file=sys.stderr)
        return 2
    rows = diff_results(a, b, metric=args.metric)
    table = []
    changed = one_sided = 0
    for row in rows:
        change = row["relative_change"]
        one_sided += row["one_sided"]
        if row["one_sided"] or (change is not None
                                and abs(change) > args.tolerance):
            changed += 1
        table.append([
            json.dumps(row["cell"].get("labels") or row["cell"], sort_keys=True),
            "-" if row[f"{args.metric}_a"] is None else f"{row[f'{args.metric}_a']:.3f}",
            "-" if row[f"{args.metric}_b"] is None else f"{row[f'{args.metric}_b']:.3f}",
            "-" if change is None else f"{change:+.1%}",
        ])
    print(format_table(["Cell", f"{args.metric} (A)", f"{args.metric} (B)",
                        "Change"], table))
    print(f"{changed} cells changed beyond +-{args.tolerance:.0%} "
          f"({one_sided} with {args.metric} on one side only)")
    return 1 if changed and args.fail_on_change else 0


def _cmd_report(args) -> int:
    from repro.experiments.runner import run_all
    report = run_all(quick=args.quick)
    print(report.render())
    return 0


def _cmd_validate(args) -> int:
    """Validate config documents without running anything (exit 2 on any)."""
    from repro.config import (
        ConfigError,
        cell_from_document,
        document_kind,
        load_document,
        scenario_for_document,
    )

    failures = 0
    for file in args.files:
        try:
            document = load_document(file)
            kind = document_kind(document, path=file)
            if kind == "cell":
                cell = cell_from_document(document, path=file)
                print(f"{file}: OK (cell, device {cell.device!r})")
                continue
            spec = scenario_for_document(document, path=file)
        except ConfigError as error:
            # Document paths start with the file name.
            print(f"error: {error}", file=sys.stderr)
            failures += 1
            continue
        try:
            cell_count = len(spec.cells())
        except ValueError as error:
            # A cell's own path does not: a grid value, a device a cell
            # builds, a fleet axis.
            print(f"error: {file}: {error}", file=sys.stderr)
            failures += 1
            continue
        print(f"{file}: OK ({kind} {spec.name!r}, {cell_count} cells)")
    return 2 if failures else 0


def _check_endpoint(args) -> Optional[str]:
    """Shared --socket/--port validation; an error message or None."""
    if (args.socket is None) == (args.port is None):
        return "pass exactly one of --socket PATH or --port N"
    return None


def _cmd_serve(args) -> int:
    from repro.serve import ExperimentServer

    problem = _check_endpoint(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    _print_scan_warnings()
    from repro.cluster import FleetRunConfig

    overrides = {field: value
                 for field, (_, value) in _cli_fleet_flags(args).items()}
    try:
        fleet_config = FleetRunConfig(**overrides) if overrides else None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        server = ExperimentServer(
            socket_path=args.socket, host=args.host, port=args.port,
            max_pending=args.max_pending, job_workers=args.job_workers,
            cache_dir=args.cache_dir, no_cache=args.no_cache,
            fleet_config=fleet_config)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        server.start()
    except OSError as error:
        print(f"error: cannot bind {args.socket or args.port}: {error}",
              file=sys.stderr)
        return 2
    print(f"serving on {server.address} "
          f"(max-pending {args.max_pending}, "
          f"{args.job_workers} job worker(s))", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _event_metric_summary(metrics: dict) -> str:
    """One-line metric summary for a streamed cell (device or fleet cell)."""
    headline = metrics.get("fleet", {}).get("fleet") \
        if isinstance(metrics.get("fleet"), dict) else None
    headline = headline or metrics
    parts = []
    for metric in _TABLE_METRICS:
        value = headline.get(metric)
        if isinstance(value, (int, float)):
            parts.append(f"{metric}={value:.2f}")
    return " ".join(parts) or "(no headline metrics)"


def _cmd_submit(args) -> int:
    from repro.config import SCENARIO_SUFFIXES, ConfigError, load_document
    from repro.serve import ServeClient

    problem = _check_endpoint(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    document = None
    scenario_name = None
    target = Path(args.target)
    if target.suffix in SCENARIO_SUFFIXES:
        try:
            document = load_document(target)
        except ConfigError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        scenario_name = args.target
    try:
        with ServeClient(socket_path=args.socket, host=args.host,
                         port=args.port, timeout=args.timeout) as client:
            response = client.submit(scenario=scenario_name,
                                     document=document, quick=args.quick,
                                     watch=not args.no_watch)
            if not response.get("ok"):
                print(f"error: submission rejected: "
                      f"{response.get('reason')}", file=sys.stderr)
                return 2
            if args.json:
                print(json.dumps(response, sort_keys=True), flush=True)
            else:
                print(f"accepted {response['job']}: "
                      f"{response['scenario']} "
                      f"({response['cells']} cells, "
                      f"position {response['position']})", flush=True)
            if args.no_watch:
                return 0
            terminal = None
            for event in client.stream():
                if args.json:
                    print(json.dumps(event, sort_keys=True), flush=True)
                elif event["event"] == "cell":
                    labels = json.dumps(event["labels"], sort_keys=True)
                    cached = " (cached)" if event["cached"] else ""
                    print(f"cell {event['index'] + 1}/{event['total']} "
                          f"{labels} "
                          f"{_event_metric_summary(event['metrics'])}"
                          f"{cached}", flush=True)
                if event["event"] in ("done", "failed", "error"):
                    terminal = event
    except (ConnectionError, TimeoutError, OSError) as error:
        endpoint = args.socket or f"{args.host}:{args.port}"
        print(f"error: cannot reach server at {endpoint}: {error}",
              file=sys.stderr)
        return 2
    if terminal is None or terminal["event"] != "done":
        reason = (terminal or {}).get("reason", "stream ended early")
        print(f"error: job failed: {reason}", file=sys.stderr)
        return 1
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(terminal, indent=2, sort_keys=True))
        print(f"result saved to {path}")
    if not args.json:
        results = terminal["results"]
        cached = sum(1 for entry in results if entry["cached"])
        print(f"{terminal['job']} done: {len(results)} cells "
              f"({cached} cached)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Scenario sweeps over the simulated SSD/ESSD devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios").set_defaults(
        func=_cmd_list)

    run_parser = sub.add_parser("run", help="run one scenario sweep")
    run_parser.add_argument("scenario")
    run_parser.add_argument("--serial", action="store_true",
                            help="run cells in-process instead of worker processes")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="worker-process count (default: CPU count)")
    run_parser.add_argument("--shards", type=int, default=None,
                            help="shard count applied to fleet cells "
                                 "(nested inside the sweep pool); errors if "
                                 "a document's run: block disagrees")
    run_parser.add_argument("--transport", default=None, choices=TRANSPORTS,
                            help="shard transport for fleet cells (default "
                                 "auto: local at one shard, else executor); "
                                 "errors if a document's run: block "
                                 "disagrees")
    run_parser.add_argument("--cache-dir", default=None,
                            help="result-cache directory (default: "
                                 "$REPRO_SWEEP_CACHE or .sweep-cache)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="disable the result cache entirely")
    run_parser.add_argument("--force", action="store_true",
                            help="ignore cached results and re-run")
    run_parser.add_argument("--quick", action="store_true",
                            help="shrink per-cell I/O budgets for a fast pass")
    run_parser.add_argument("--out", default=None,
                            help="save the sweep result JSON to this path")
    run_parser.set_defaults(func=_cmd_run)

    fleet_parser = sub.add_parser(
        "fleet", help="run a fleet scenario on the sharded cluster runner")
    fleet_parser.add_argument("scenario")
    fleet_parser.add_argument("--shards", type=int, default=None,
                              help="shard-simulator count (default 1: the "
                                   "serial reference path); errors if a "
                                   "document's run: block disagrees")
    fleet_parser.add_argument("--serial", action="store_true",
                              help="keep all shards in-process (no worker "
                                   "processes), whatever --shards says; "
                                   "counts as --transport local")
    fleet_parser.add_argument("--transport", default=None, choices=TRANSPORTS,
                              help="shard transport: executor (one worker "
                                   "process per shard), local (in-process), "
                                   "or auto (default: local at one shard, "
                                   "else executor); errors if a document's "
                                   "run: block disagrees")
    fleet_parser.add_argument("--epoch-us", type=float, default=None,
                              help="override the topology's conservative "
                                   "synchronization window")
    fleet_parser.add_argument("--faults", default=None, metavar="JSON|@FILE",
                              help="fault schedule to inject: JSON text or "
                                   "@file, either a list of fault events or "
                                   '{"events": [...], "policy": {...}} '
                                   "(replaces any schedule in the topology; "
                                   "part of the cache key)")
    fleet_parser.add_argument("--macro", action="append", default=None,
                              metavar="GROUP[=MODE][,GROUP...]",
                              help="override group simulation modes, e.g. "
                                   "'--macro web' or '--macro web=macro,"
                                   "db=discrete': macro groups run as "
                                   "calibrated mean-field aggregates "
                                   "(metrics flagged approximate; part of "
                                   "the cache key)")
    fleet_parser.add_argument("--run-ahead", type=int, default=None,
                              help="epochs granted per coordinator task for "
                                   "self-contained shards (default 16; 1 "
                                   "restores per-epoch barriers); errors if "
                                   "a document's run: block disagrees")
    fleet_parser.add_argument("--cache-dir", default=None,
                              help="result-cache directory (default: "
                                   "$REPRO_SWEEP_CACHE or .sweep-cache)")
    fleet_parser.add_argument("--no-cache", action="store_true",
                              help="disable the result cache entirely")
    fleet_parser.add_argument("--force", action="store_true",
                              help="ignore cached results and re-run")
    fleet_parser.add_argument("--quick", action="store_true",
                              help="shrink tenant workloads for a fast pass")
    fleet_parser.add_argument("--out", default=None,
                              help="save the sweep result JSON to this path "
                                   "(the file 'run --out' writes, which "
                                   "'diff' reads)")
    fleet_parser.set_defaults(func=_cmd_fleet)

    diff_parser = sub.add_parser("diff", help="compare two saved sweep results")
    diff_parser.add_argument("a")
    diff_parser.add_argument("b")
    diff_parser.add_argument("--metric", default="throughput_gbps")
    diff_parser.add_argument("--tolerance", type=float, default=0.05)
    diff_parser.add_argument("--fail-on-change", action="store_true")
    diff_parser.set_defaults(func=_cmd_diff)

    report_parser = sub.add_parser("report",
                                   help="render the full paper report (Table I, "
                                        "Figures 2-5)")
    report_parser.add_argument("--quick", action="store_true")
    report_parser.set_defaults(func=_cmd_report)

    validate_parser = sub.add_parser(
        "validate", help="validate scenario/fleet/cell config documents "
                         "(YAML/JSON) without running them")
    validate_parser.add_argument("files", nargs="+", metavar="FILE")
    validate_parser.set_defaults(func=_cmd_validate)

    serve_parser = sub.add_parser(
        "serve", help="run the persistent experiment service "
                      "(line-JSON protocol, see repro.serve)")
    serve_parser.add_argument("--socket", default=None, metavar="PATH",
                              help="listen on this unix socket")
    serve_parser.add_argument("--port", type=int, default=None, metavar="N",
                              help="listen on localhost TCP port N "
                                   "(0 = ephemeral)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="TCP bind address (default 127.0.0.1)")
    serve_parser.add_argument("--max-pending", type=int, default=8,
                              help="admission control: queued jobs beyond "
                                   "this are rejected with a reason "
                                   "(default 8)")
    serve_parser.add_argument("--job-workers", type=int, default=1,
                              help="concurrently running jobs (default 1)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="result-cache directory (default: "
                                   "$REPRO_SWEEP_CACHE or .sweep-cache)")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="disable the result cache entirely")
    serve_parser.add_argument("--shards", type=int, default=None,
                              help="shard count applied to fleet cells; a "
                                   "submitted document's run: block wins")
    serve_parser.add_argument("--transport", default=None, choices=TRANSPORTS,
                              help="shard transport for fleet cells; a "
                                   "submitted document's run: block wins")
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit a scenario (registered name or document "
                       "file) to a running serve process")
    submit_parser.add_argument("target",
                               help="registered scenario name, or a "
                                    "YAML/JSON document file")
    submit_parser.add_argument("--socket", default=None, metavar="PATH",
                               help="connect to this unix socket")
    submit_parser.add_argument("--port", type=int, default=None, metavar="N",
                               help="connect to localhost TCP port N")
    submit_parser.add_argument("--host", default="127.0.0.1",
                               help="TCP host (default 127.0.0.1)")
    submit_parser.add_argument("--quick", action="store_true",
                               help="shrink per-cell I/O budgets (same as "
                                    "run/fleet --quick)")
    submit_parser.add_argument("--no-watch", action="store_true",
                               help="return after admission instead of "
                                    "streaming results")
    submit_parser.add_argument("--timeout", type=float, default=300.0,
                               help="per-response timeout in seconds "
                                    "(default 300)")
    submit_parser.add_argument("--json", action="store_true",
                               help="print raw protocol events as JSON lines")
    submit_parser.add_argument("--out", default=None,
                               help="save the terminal result JSON to this "
                                    "path")
    submit_parser.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
