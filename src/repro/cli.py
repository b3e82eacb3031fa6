"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run <workload>``      run a workload on the job engine (parallel + cached)
``check <workload>``    deep-verify a workload's invariants (docs/robustness.md)
``table1``              print the test-circuit parameter table
``table2``              run the Random/IFA/DFA comparison (Table 2)
``table3``              run the exchange experiment (Table 3; slower)
``fig6``                run the real-chip IR-drop comparison (Fig. 6)
``assign <design.json>``   assign a JSON design and print the result
``route <design.json>``    assign + route, optionally exporting an SVG
``drc <design.json>``      design-rule check a JSON design
``stats <trace>``       analyse a trace: span tree, phases, SA curve, cache
``check-trace <trace>`` validate a trace against the event schema + span tree
``bench run``           execute registered benches into the perf ledger
``bench compare``       gate the latest ledger records against a baseline

``table2``/``table3``/``fig6`` run the workload of that name on the job
engine with the cache off (``--jobs N`` fans its independent jobs out over
worker processes); ``run`` adds the result cache and a JSONL telemetry
trace on top (see docs/runtime.md).  ``--verify {off,strict,
repair}`` makes the engine re-check every job result (fresh or cached)
before it is tabulated: ``strict`` fails on an invalid value, ``repair``
recomputes it (see docs/robustness.md).  ``run --trace out.jsonl`` writes a
schema-versioned trace with hierarchical spans; ``run --profile cprofile``
adds per-job profiles to it (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal as _signal
import sys

from .assign import DFAAssigner, IFAAssigner, RandomAssigner, assign_design
from .flow import render_table1
from .routing import MonotonicRouter, max_density_of_design


def _cmd_table1(args) -> int:
    print(render_table1())
    return 0


class _DrainSignal(KeyboardInterrupt):
    """SIGTERM/SIGINT during a run, carrying the signal number.

    Subclasses :class:`KeyboardInterrupt` so it rides the engine's
    control-flow path (never swallowed, never retried) out of a blocking
    ``future.result()`` wait.
    """

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(f"signal {signum}")


@contextlib.contextmanager
def _drain_on_signal():
    """Convert SIGTERM/SIGINT into :class:`_DrainSignal` for the block.

    Lets ``repro run`` (and friends) exit ``128+signum`` after flushing
    sinks instead of dying with a traceback; previous handlers are
    restored on the way out.  A non-main thread (tests driving ``main()``
    directly) cannot install handlers — the block simply runs bare.
    """

    def handler(signum, frame):
        raise _DrainSignal(signum)

    previous = {}
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        try:
            previous[signum] = _signal.signal(signum, handler)
        except ValueError:  # pragma: no cover - not the main thread
            pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            _signal.signal(signum, old)


def _run_workload(
    name: str,
    seed=None,
    grid=None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir=None,
    trace=None,
    timeout=None,
    retries: int = 1,
    verify: str = "off",
    profile=None,
    tempering: int = 0,
    swap_stride: int = 2,
    ladder: float = 1.25,
) -> int:
    """Execute one named workload on the job engine and print its table."""
    from .obs.schema import SCHEMA_VERSION
    from .obs.spans import span
    from .runtime import JobEngine, JsonlSink, ResultCache, Telemetry
    from .runtime.workloads import WORKLOADS

    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    grid = workload.default_grid if grid is None else grid
    specs = workload.build(seed, grid)
    # ExitStack owns the sink: however this function exits — success, a job
    # failure, or an exception anywhere below — the trace file is flushed
    # and closed exactly once (the pre-obs code leaked the handle when the
    # engine raised mid-run).
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(JsonlSink(trace)) if trace else None
        telemetry = Telemetry(sink=sink)
        meta = {"workload": name, "jobs": jobs, "verify": verify}
        if seed is not None:
            meta["seed"] = seed
        if profile:
            meta["profile"] = profile
        telemetry.emit(
            "trace.meta", schema=SCHEMA_VERSION, tool="repro", command="run", **meta
        )
        cache = ResultCache(cache_dir) if use_cache else None
        engine = JobEngine(
            jobs=jobs,
            cache=cache,
            telemetry=telemetry,
            timeout=timeout,
            retries=retries,
            verify=verify,
            profile=profile,
        )
        print(
            f"running {len(specs)} {name} job(s) "
            f"(jobs={jobs}, seed={seed}, cache={'on' if cache else 'off'})...",
            file=sys.stderr,
        )
        try:
            with _drain_on_signal(), span("run", telemetry, workload=name):
                if tempering:
                    outcomes = _run_tempering_specs(
                        engine,
                        specs,
                        chains=tempering,
                        swap_stride=swap_stride,
                        ladder=ladder,
                    )
                else:
                    outcomes = engine.run(specs)
        except _DrainSignal as exc:
            # Graceful drain: release the worker pool, let the ExitStack
            # flush/close the trace sink, and exit with the conventional
            # 128+signum so supervisors can tell a signal from a failure.
            engine.close()
            print(
                f"interrupted by signal {exc.signum}; "
                f"trace flushed, exiting {128 + exc.signum}",
                file=sys.stderr,
            )
            return 128 + exc.signum
        failures = [outcome for outcome in outcomes if not outcome.ok]
        if failures:
            for outcome in failures:
                print(f"FAILED {outcome.spec.label()}: {outcome.error}", file=sys.stderr)
            return 1
        print(workload.render(outcomes))
        # The whole run: a tempering run is many engine rounds, and the
        # counters already sum across them.
        counters = telemetry.metrics.counters()
        (run,) = [
            event
            for event in telemetry.events_named("span.end")
            if event["name"] == "run"
        ]
        jobs_total, hits, misses = (
            int(counters.get(name, 0))
            for name in ("jobs.total", "cache.hits", "cache.misses")
        )
        summary = (
            f"done in {run['seconds']:.2f}s: {jobs_total} jobs, "
            f"{hits} cache hit(s), {misses} miss(es)"
        )
        if trace:
            summary += f"; trace written to {trace}"
        print(summary, file=sys.stderr)
        return 0


def _run_tempering_specs(
    engine, specs, chains: int, swap_stride: int, ladder: float
):
    """Run each codesign spec as a parallel-tempering run; others normally.

    The coordinator fans its per-chain segment jobs out through *engine*
    (so ``--jobs`` and the cache apply); each codesign spec's result is
    wrapped back into a :class:`JobOutcome` so the workload renderers see
    the familiar shape.
    """
    import time

    from .exchange import SAParams
    from .runtime.engine import JobOutcome
    from .runtime.jobs import _build_circuit_design, _sa_params
    from .tune import TemperingConfig, run_tempering

    config = TemperingConfig(
        chains=chains, swap_stride=swap_stride, ladder_ratio=ladder
    )
    outcomes = []
    for spec in specs:
        if spec.kind != "codesign":
            outcomes.extend(engine.run([spec]))
            continue
        schedule = _sa_params(spec.params)
        if isinstance(schedule, str):
            from .presets import resolve_sa_params

            schedule = resolve_sa_params(
                schedule, _build_circuit_design(spec.params)
            )
        started = time.perf_counter()
        try:
            value = run_tempering(
                engine,
                circuit=int(spec.params["circuit"]),
                config=config,
                schedule=schedule or SAParams(),
                seed=spec.seed if spec.seed is not None else 0,
                tiers=int(spec.params.get("tiers", 1)),
                grid=int(spec.params.get("grid", 32)),
            )
        except Exception as exc:
            outcomes.append(
                JobOutcome(
                    spec=spec,
                    error=str(exc),
                    error_class=type(exc).__name__,
                    attempts=1,
                    seconds=round(time.perf_counter() - started, 6),
                )
            )
            continue
        outcomes.append(
            JobOutcome(
                spec=spec,
                value=value,
                attempts=1,
                seconds=round(time.perf_counter() - started, 6),
            )
        )
    return outcomes


def _cmd_run(args) -> int:
    return _run_workload(
        args.workload,
        seed=args.seed,
        grid=args.grid,
        jobs=args.jobs,
        use_cache=args.cache,
        cache_dir=args.cache_dir,
        trace=args.trace,
        timeout=args.timeout,
        retries=args.retries,
        verify=args.verify,
        profile=args.profile,
        tempering=args.tempering,
        swap_stride=args.swap_stride,
        ladder=args.ladder,
    )


def _render_tune_front(report) -> str:
    """Text table of a sweep report's Pareto front, knee starred."""
    knee = report.get("knee")
    lines = [
        f'tune sweep: {report.get("circuit", "?")} '
        f'({len(report.get("cells", []))} schedules, '
        f'front {len(report.get("front", []))})',
        "    T0       alpha  moves    cost        seconds",
    ]
    for cell in report.get("front", []):
        schedule = cell["schedule"]
        star = " *" if knee is not None and cell == knee else ""
        lines.append(
            f'    {schedule["initial_temp"]:<8g} '
            f'{schedule["cooling"]:<6g} '
            f'{schedule["moves_per_temp"]:<8d} '
            f'{cell["cost"]:<11.6g} '
            f'{cell["seconds"]:<10.6g}{star}'
        )
    if knee is not None:
        schedule = knee["schedule"]
        lines.append(
            f'  knee (recommended): T0={schedule["initial_temp"]:g} '
            f'alpha={schedule["cooling"]:g} '
            f'moves={schedule["moves_per_temp"]}'
        )
    return "\n".join(lines)


def _cmd_tune(args) -> int:
    """Schedule auto-tuning: grid sweep or re-render a saved report."""
    import json

    if args.action == "pareto":
        from .tune import knee_point, pareto_front, render_pareto_svg

        if not args.report:
            print("tune pareto needs --report <tune_pareto_*.json>", file=sys.stderr)
            return 2
        try:
            with open(args.report, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot load tune report: {exc}", file=sys.stderr)
            return 2
        # Re-derive front + knee from the cells so a hand-edited or
        # merged report stays self-consistent.
        report["front"] = pareto_front(report.get("cells", []))
        report["knee"] = knee_point(report["front"])
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as handle:
                handle.write(render_pareto_svg(report))
            print(f"wrote {args.svg}", file=sys.stderr)
        print(_render_tune_front(report))
        return 0

    from .obs.schema import SCHEMA_VERSION
    from .obs.spans import span
    from .runtime import JobEngine, JsonlSink, ResultCache, Telemetry
    from .tune import SweepGrid, run_sweep, write_report

    grid_kwargs = {
        "final_temp": args.final_temp,
        "replicates": args.replicates,
    }
    if args.t0 is not None:
        grid_kwargs["initial_temps"] = args.t0
    if args.alpha is not None:
        grid_kwargs["coolings"] = args.alpha
    if args.moves is not None:
        grid_kwargs["moves"] = args.moves
    grid = SweepGrid(**grid_kwargs)
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(JsonlSink(args.trace)) if args.trace else None
        telemetry = Telemetry(sink=sink)
        telemetry.emit(
            "trace.meta",
            schema=SCHEMA_VERSION,
            tool="repro",
            command="tune",
            seed=args.seed,
            jobs=args.jobs,
        )
        cache = ResultCache(args.cache_dir) if args.cache else None
        engine = JobEngine(
            jobs=args.jobs, cache=cache, telemetry=telemetry
        )
        print(
            f"sweeping {grid.cell_count()} cells on circuit{args.circuit} "
            f"(jobs={args.jobs}, seed={args.seed}, "
            f"cache={'on' if cache else 'off'})...",
            file=sys.stderr,
        )
        try:
            with _drain_on_signal(), span("tune", telemetry):
                report, outcomes = run_sweep(
                    engine,
                    args.circuit,
                    grid=grid,
                    seed=args.seed,
                    tiers=args.tiers,
                )
        except _DrainSignal as exc:
            engine.close()
            print(
                f"interrupted by signal {exc.signum}; exiting {128 + exc.signum}",
                file=sys.stderr,
            )
            return 128 + exc.signum
        except RuntimeError as exc:
            print(f"tune sweep failed: {exc}", file=sys.stderr)
            return 1
        written = write_report(report, args.out)
        print(_render_tune_front(report))
        hits = sum(1 for outcome in outcomes if outcome.cached)
        summary = (
            f"{len(outcomes)} cells, {hits} cache hit(s); wrote "
            + ", ".join(written)
        )
        if args.trace:
            summary += f"; trace written to {args.trace}"
        print(summary, file=sys.stderr)
        return 0


def _cmd_stats(args) -> int:
    """Analyse a trace (or compare bench records with ``--compare``).

    ``--compare`` accepts either two ``BENCH_*.json`` records (pairwise
    diff, as before) or one/many history sources — a
    ``BENCH_history.jsonl`` ledger or 3+ records — rendered as an N-way
    per-metric trajectory table with sparklines.
    """
    import json

    if args.compare:
        from .obs import ledger as _ledger

        paths = args.compare
        if len(paths) == 2 and not any(
            str(p).endswith(".jsonl") for p in paths
        ):
            from .obs.bench import (
                compare_bench_records,
                load_bench_record,
                render_compare,
            )

            try:
                old = load_bench_record(paths[0])
                new = load_bench_record(paths[1])
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"cannot load bench record: {exc}", file=sys.stderr)
                return 2
            diff = compare_bench_records(old, new)
            if args.format == "json":
                print(json.dumps(diff, indent=2, sort_keys=True))
            else:
                print(render_compare(diff))
            return 0

        # N-way: flatten every source (history files contribute all their
        # records, .json files one each) into one chronological stream.
        records = []
        for path in paths:
            if str(path).endswith(".jsonl"):
                loaded = _ledger.load_history(path)
                if not loaded:
                    print(f"no ledger records in {path}", file=sys.stderr)
                    return 2
                records.extend(loaded)
            else:
                from .obs.bench import load_bench_record

                try:
                    records.append(load_bench_record(path))
                except (OSError, ValueError, json.JSONDecodeError) as exc:
                    print(f"cannot load bench record: {exc}", file=sys.stderr)
                    return 2
        if args.format == "json":
            print(json.dumps(records, indent=2, sort_keys=True))
        else:
            print(_ledger.history_table(records))
        return 0

    if not args.trace:
        print("stats needs a trace file (or --compare OLD NEW)", file=sys.stderr)
        return 2
    from .obs.stats import render_stats, stats_summary
    from .obs.trace import load_trace, write_chrome

    try:
        events, problems = load_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"warning: {args.trace}: {problem}", file=sys.stderr)
    if args.chrome:
        write_chrome(events, args.chrome)
        print(f"Chrome trace written to {args.chrome} "
              "(load in Perfetto or chrome://tracing)", file=sys.stderr)
    if args.curves:
        from .obs.curves import write_curves

        written = write_curves(events, args.curves_dir)
        if written:
            for path in written:
                print(f"wrote {path}", file=sys.stderr)
        else:
            print("no sa.curve events in trace", file=sys.stderr)
    summary = stats_summary(events)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_stats(summary, top=args.top))
    return 0


def _cmd_bench(args) -> int:
    """The perf-regression ledger: run registered benches / gate on them."""
    from .obs import ledger as _ledger

    if args.action == "run":
        only = args.only.split(",") if args.only else None
        records = _ledger.run_ledger(
            args.bench_dir, args.history, only=only
        )
        if not records:
            print(
                f"no registered benches under {args.bench_dir} "
                "(a module registers by defining ledger_metrics())",
                file=sys.stderr,
            )
            return 2
        print(
            f"{len(records)} record(s) appended to "
            f"{args.history or _ledger.DEFAULT_HISTORY}"
        )
        return 0
    result = _ledger.compare_ledger(
        args.history,
        baseline_path=args.baseline,
        against=args.against,
        gate_pct=args.gate,
    )
    for row in result["rows"]:
        print(row)
    if result["failures"]:
        for failure in result["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"ledger gate passed (gate {args.gate:g}%)")
    return 0


def _cmd_check_trace(args) -> int:
    """Validate a trace: event schema + a single rooted span tree."""
    from .obs.trace import load_trace
    from .verify import check_trace_events

    try:
        events, problems = load_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    report = check_trace_events(events, subject=str(args.trace))
    for problem in problems:
        report.error("trace.malformed-line", problem)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_check(args) -> int:
    from .verify import check_workload

    if args.verify == "off":
        print("check requires an active policy (strict or repair)", file=sys.stderr)
        return 2
    report = check_workload(
        args.workload, seed=args.seed, grid=args.grid, verify=args.verify
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_paper(args) -> int:
    """``table2`` / ``table3`` / ``fig6``: the workload on the engine, cache off."""
    return _run_workload(
        args.command,
        seed=args.seed,
        grid=getattr(args, "grid", None),
        jobs=args.jobs,
        verify=args.verify,
    )


def _cmd_fuzz(args) -> int:
    """Differential fuzzing: generate + check, or replay the corpus."""
    import contextlib as _contextlib

    from .fuzz import replay_corpus, run_fuzz
    from .obs.schema import SCHEMA_VERSION
    from .runtime import JsonlSink, Telemetry

    with _contextlib.ExitStack() as stack:
        sink = stack.enter_context(JsonlSink(args.trace)) if args.trace else None
        telemetry = Telemetry(sink=sink)
        telemetry.emit(
            "trace.meta", schema=SCHEMA_VERSION, tool="repro", command="fuzz"
        )
        if args.action == "replay":
            report = replay_corpus(args.corpus, telemetry=telemetry)
        else:
            try:
                report = run_fuzz(
                    cases=args.cases,
                    seed=args.seed,
                    oracles=args.oracle,
                    minutes=args.minutes,
                    corpus_dir=args.corpus,
                    telemetry=telemetry,
                    shrink=not args.no_shrink,
                )
            except KeyError as exc:
                print(f"fuzz: {exc}", file=sys.stderr)
                return 2
        print(report.render())
        if args.trace:
            print(f"trace written to {args.trace}", file=sys.stderr)
        return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """Run the long-running co-design daemon (see docs/serving.md)."""
    from .serve import ServeConfig, serve_main

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=args.cache,
        cache_dir=args.cache_dir,
        max_cache_bytes=args.max_cache_bytes,
        queue_limit=args.queue_limit,
        batch_window=args.batch_window,
        batch_max=args.batch_max,
        timeout=args.timeout,
        retries=args.retries,
        verify=args.verify,
        trace=args.trace,
        drain_deadline=args.drain_deadline,
        journal=args.journal,
    )
    return serve_main(config)


def _cmd_journal(args) -> int:
    """Inspect (and optionally compact) a job journal file."""
    import json

    from .errors import JournalError
    from .runtime.journal import JobJournal

    if not os.path.exists(args.path):
        print(f"no journal at {args.path}", file=sys.stderr)
        return 2
    try:
        # compact_bytes=None: inspection must never rewrite as a side
        # effect; --compact below is the only write this command does.
        with JobJournal(args.path, compact_bytes=None) as journal:
            if args.compact:
                kept = journal.compact()
                # stderr: `--json` consumers parse stdout as one document.
                print(f"compacted to {kept} live record(s)", file=sys.stderr)
            summary = journal.summary()
    except JournalError as exc:
        print(f"journal error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"journal {summary['path']}")
    print(f"  {summary['bytes']} bytes, seq {summary['seq']}")
    records = summary["records"]
    print(
        "  records: "
        + ", ".join(f"{name}={records[name]}" for name in sorted(records))
    )
    print(
        f"  live: {summary['settled']} settled, "
        f"{summary['inflight']} in-flight, {summary['failed']} failed"
    )
    diagnostics = {
        name: count
        for name, count in summary["diagnostics"].items()
        if count
    }
    if diagnostics:
        print(
            "  diagnostics: "
            + ", ".join(f"{name}={count}" for name, count in sorted(diagnostics.items()))
        )
    return 0


def _load(path):
    from .io import load_design

    return load_design(path)


def _assigner(name: str):
    return {
        "random": RandomAssigner(),
        "ifa": IFAAssigner(),
        "dfa": DFAAssigner(),
    }[name]


def _cmd_assign(args) -> int:
    design = _load(args.design)
    assignments = assign_design(_assigner(args.method), design, seed=args.seed)
    print(design.describe())
    for side, assignment in assignments.items():
        print(f"{side.value}: {assignment.order}")
    print(f"max density: {max_density_of_design(assignments)}")
    if args.output:
        from .io import save_assignments

        save_assignments(assignments, args.output)
        print(f"assignment written to {args.output}")
    return 0


def _cmd_route(args) -> int:
    design = _load(args.design)
    assignments = assign_design(_assigner(args.method), design, seed=args.seed)
    router = MonotonicRouter()
    total_length = 0.0
    worst = 0
    for side, assignment in assignments.items():
        result = router.route(assignment)
        total_length += result.total_routed_length
        worst = max(worst, result.max_density)
        if args.svg:
            from .io import save_routing_svg

            path = f"{args.svg}_{side.value}.svg"
            save_routing_svg(assignment, result, path)
            print(f"wrote {path}")
        if args.csv:
            from .routing import write_routing_csv

            path = f"{args.csv}_{side.value}.csv"
            write_routing_csv(assignment, result, path)
            print(f"wrote {path}")
    print(f"max density: {worst}")
    print(f"total routed length: {total_length:.2f} um")
    return 0


def _cmd_report(args) -> int:
    from .flow import generate_report

    generate_report(
        args.output,
        seed=args.seed,
        grid_size=args.grid,
        include_table3=not args.quick,
        include_fig6=not args.quick,
    )
    print(f"report written to {args.output}")
    return 0


def _cmd_drc(args) -> int:
    from .package.validate import check_design

    design = _load(args.design)
    assignments = assign_design(DFAAssigner(), design)
    from .routing import max_density as quadrant_density

    densities = {
        side: quadrant_density(assignment)
        for side, assignment in assignments.items()
    }
    report = check_design(design, max_density=densities)
    print(report.render())
    return 0 if report.is_clean else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _csv_floats(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a float list: {text!r}") from None


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int list: {text!r}") from None


def _add_verify_flag(parser, default: str = "off") -> None:
    from .verify import CLI_POLICIES

    parser.add_argument(
        "--verify",
        choices=CLI_POLICIES,
        default=default,
        help="result-verification policy (see docs/robustness.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Package routability- and IR-drop-aware finger/pad planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1").set_defaults(func=_cmd_table1)

    from .runtime.workloads import WORKLOADS

    prun = sub.add_parser(
        "run", help="run a workload on the job engine (parallel + cached)"
    )
    prun.add_argument(
        "workload",
        nargs="?",
        default="table2",
        choices=sorted(WORKLOADS),
        help="evaluation target (default: table2)",
    )
    prun.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes"
    )
    prun.add_argument(
        "--seed", type=int, default=None, help="base seed (workload default if omitted)"
    )
    prun.add_argument(
        "--grid", type=int, default=None, help="power grid size (workload default)"
    )
    prun.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve/store results in the digest-keyed disk cache",
    )
    prun.add_argument(
        "--cache-dir", default=None, help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)"
    )
    prun.add_argument("--trace", default=None, help="write a JSONL telemetry trace here")
    prun.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout in seconds"
    )
    prun.add_argument(
        "--retries", type=int, default=1, help="retry attempts for failing jobs"
    )
    prun.add_argument(
        "--profile",
        choices=("cprofile", "sample"),
        default=None,
        help="profile each job; results land in the trace as 'profile' events",
    )
    prun.add_argument(
        "--tempering",
        type=_positive_int,
        default=0,
        metavar="K",
        help="run codesign jobs as K-chain replica-exchange parallel "
             "tempering through the engine (docs/tuning.md)",
    )
    prun.add_argument(
        "--swap-stride",
        type=int,
        default=2,
        help="temperature tiers between swap rounds (0 = multi-start SA, "
             "no exchanges); only with --tempering",
    )
    prun.add_argument(
        "--ladder",
        type=float,
        default=1.25,
        help="temperature ratio between adjacent chains; only with --tempering",
    )
    _add_verify_flag(prun)
    prun.set_defaults(func=_cmd_run)

    ptu = sub.add_parser(
        "tune",
        help="SA schedule auto-tuning: cached grid sweeps + Pareto fronts",
    )
    ptu.add_argument(
        "action",
        choices=("sweep", "pareto"),
        help="sweep: run the schedule grid through the engine; "
             "pareto: re-render a saved tune_pareto_*.json report",
    )
    ptu.add_argument(
        "--circuit", type=_positive_int, default=1,
        help="Table-1 circuit index to tune on (default: 1)",
    )
    ptu.add_argument(
        "--tiers", type=_positive_int, default=1,
        help="stacking tiers (psi) of the tuned design",
    )
    ptu.add_argument(
        "--t0", type=_csv_floats, default=None, metavar="CSV",
        help="comma-separated initial temperatures (default: 0.01,0.03,0.1)",
    )
    ptu.add_argument(
        "--alpha", type=_csv_floats, default=None, metavar="CSV",
        help="comma-separated cooling factors (default: 0.85,0.9,0.95)",
    )
    ptu.add_argument(
        "--moves", type=_csv_ints, default=None, metavar="CSV",
        help="comma-separated moves-per-temperature (default: 40,80,150)",
    )
    ptu.add_argument(
        "--final-temp", type=float, default=1e-4,
        help="shared final temperature of every swept schedule",
    )
    ptu.add_argument(
        "--replicates", type=_positive_int, default=2,
        help="seed replicates per schedule (averaged; default: 2)",
    )
    ptu.add_argument("--seed", type=int, default=0, help="base sweep seed")
    ptu.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes"
    )
    ptu.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve/store cells from the digest-keyed disk cache",
    )
    ptu.add_argument(
        "--cache-dir", default=None,
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    ptu.add_argument(
        "--out", default="results",
        help="directory for tune_pareto_<circuit>.json/.svg (default: results)",
    )
    ptu.add_argument(
        "--trace", default=None, help="write a JSONL telemetry trace here"
    )
    ptu.add_argument(
        "--report", default=None,
        help="saved tune_pareto_*.json to re-render (pareto action)",
    )
    ptu.add_argument(
        "--svg", default=None,
        help="also write the re-rendered SVG here (pareto action)",
    )
    ptu.set_defaults(func=_cmd_tune)

    pst = sub.add_parser(
        "stats", help="analyse a JSONL trace (span tree, phases, SA curve)"
    )
    pst.add_argument("trace", nargs="?", default=None, help="JSONL trace file")
    pst.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    pst.add_argument(
        "--top", type=_positive_int, default=10, help="span rows in the text report"
    )
    pst.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="also export Chrome trace_event JSON (Perfetto-loadable) here",
    )
    pst.add_argument(
        "--compare",
        nargs="+",
        default=None,
        metavar="RECORD",
        help="compare perf records instead of reading a trace: two "
             "BENCH_*.json files diff pairwise; a BENCH_history.jsonl "
             "(or 3+ records) renders an N-way trajectory table",
    )
    pst.add_argument(
        "--curves",
        action="store_true",
        help="render each sa.curve event in the trace to "
             "sa_curve_<circuit>.svg + .json under --curves-dir",
    )
    pst.add_argument(
        "--curves-dir",
        default="results",
        help="output directory for --curves (default: results)",
    )
    pst.set_defaults(func=_cmd_stats)

    pb = sub.add_parser(
        "bench",
        help="perf-regression ledger: run registered benches, gate on history",
    )
    pb.add_argument(
        "action",
        choices=("run", "compare"),
        help="run: execute ledger_metrics() benches and append to the "
             "history; compare: gate the latest records",
    )
    pb.add_argument(
        "--bench-dir", default="benchmarks",
        help="directory scanned for bench_*.py modules (default: benchmarks)",
    )
    pb.add_argument(
        "--history", default=None,
        help="ledger history path (default: results/BENCH_history.jsonl)",
    )
    pb.add_argument(
        "--only", default=None,
        help="comma-separated bench names to run (default: all registered)",
    )
    pb.add_argument(
        "--baseline", default=None,
        help="baseline spec file for compare "
             "(default: results/BENCH_baseline.json)",
    )
    pb.add_argument(
        "--against", default=None, metavar="REV",
        help="compare against the latest history records of this git rev "
             "(prefix match) instead of the baseline file",
    )
    pb.add_argument(
        "--gate", type=float, default=20.0,
        help="regression gate percentage for relative specs (default: 20)",
    )
    pb.set_defaults(func=_cmd_bench)

    pct = sub.add_parser(
        "check-trace", help="validate a trace: event schema + rooted span tree"
    )
    pct.add_argument("trace", help="JSONL trace file")
    pct.set_defaults(func=_cmd_check_trace)

    pchk = sub.add_parser(
        "check", help="deep-verify a workload's invariants without tabulating"
    )
    pchk.add_argument(
        "workload",
        nargs="?",
        default="smoke",
        choices=sorted(WORKLOADS),
        help="workload to verify (default: smoke)",
    )
    pchk.add_argument(
        "--seed", type=int, default=None, help="base seed (workload default if omitted)"
    )
    pchk.add_argument(
        "--grid", type=int, default=None, help="power grid size (workload default)"
    )
    _add_verify_flag(pchk, default="strict")
    pchk.set_defaults(func=_cmd_check)

    p2 = sub.add_parser("table2", help="run the Table-2 comparison")
    p2.add_argument("--seed", type=int, default=42)
    p2.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    _add_verify_flag(p2)
    p2.set_defaults(func=_cmd_paper)

    p3 = sub.add_parser("table3", help="run the Table-3 exchange experiment")
    p3.add_argument("--seed", type=int, default=7)
    p3.add_argument("--grid", type=int, default=32, help="power grid size")
    p3.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    _add_verify_flag(p3)
    p3.set_defaults(func=_cmd_paper)

    p6 = sub.add_parser("fig6", help="run the Fig.-6 real-chip comparison")
    p6.add_argument("--seed", type=int, default=2009)
    p6.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    _add_verify_flag(p6)
    p6.set_defaults(func=_cmd_paper)

    pa = sub.add_parser("assign", help="assign a JSON design")
    pa.add_argument("design")
    pa.add_argument("--method", choices=("random", "ifa", "dfa"), default="dfa")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--output", help="write the assignment JSON here")
    pa.set_defaults(func=_cmd_assign)

    pr = sub.add_parser("route", help="assign and route a JSON design")
    pr.add_argument("design")
    pr.add_argument("--method", choices=("random", "ifa", "dfa"), default="dfa")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--svg", help="SVG path prefix, one file per side")
    pr.add_argument("--csv", help="per-net CSV path prefix, one file per side")
    pr.set_defaults(func=_cmd_route)

    pd = sub.add_parser("drc", help="design-rule check a JSON design")
    pd.add_argument("design")
    pd.set_defaults(func=_cmd_drc)

    from .fuzz.oracles import ORACLES

    pf = sub.add_parser(
        "fuzz",
        help="differential fuzzing across the redundant oracles",
    )
    pf.add_argument(
        "action",
        nargs="?",
        default="run",
        choices=("run", "replay"),
        help="run a campaign or replay the minimized corpus (default: run)",
    )
    pf.add_argument(
        "--cases", type=_positive_int, default=100, help="cases to generate"
    )
    pf.add_argument(
        "--minutes",
        type=float,
        default=None,
        help="wall-clock budget; stops early even with cases remaining",
    )
    pf.add_argument(
        "--oracle",
        action="append",
        choices=sorted(ORACLES),
        default=None,
        help="restrict to this oracle (repeatable; default: all)",
    )
    pf.add_argument("--seed", type=int, default=0, help="case-stream seed")
    pf.add_argument(
        "--corpus",
        default="tests/data/fuzz_corpus",
        help="corpus directory for minimized failures / replay",
    )
    pf.add_argument(
        "--no-shrink",
        action="store_true",
        help="record failures without delta-debugging them first",
    )
    pf.add_argument("--trace", default=None, help="write a JSONL telemetry trace here")
    pf.set_defaults(func=_cmd_fuzz)

    ps = sub.add_parser(
        "serve", help="run the co-design daemon (HTTP + SSE; docs/serving.md)"
    )
    ps.add_argument("--host", default="127.0.0.1", help="bind address")
    ps.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 = ephemeral)"
    )
    ps.add_argument(
        "--workers", type=_positive_int, default=2,
        help="warm worker processes (1 = run jobs in the dispatcher)",
    )
    ps.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve/store results in the digest-keyed disk cache",
    )
    ps.add_argument(
        "--cache-dir", default=None,
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    ps.add_argument(
        "--max-cache-bytes", type=int, default=None,
        help="LRU-evict the cache past this size "
             "(default: $REPRO_CACHE_MAX_BYTES or unbounded)",
    )
    ps.add_argument(
        "--queue-limit", type=_positive_int, default=64,
        help="pending jobs beyond this are rejected with HTTP 429",
    )
    ps.add_argument(
        "--batch-window", type=float, default=0.01,
        help="seconds to coalesce distinct requests into one engine batch",
    )
    ps.add_argument(
        "--batch-max", type=_positive_int, default=16,
        help="max requests per engine batch",
    )
    ps.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout in seconds"
    )
    ps.add_argument(
        "--retries", type=int, default=1, help="retry attempts for failing jobs"
    )
    ps.add_argument(
        "--trace", default=None, help="write a JSONL telemetry trace here"
    )
    ps.add_argument(
        "--drain-deadline", type=float, default=10.0,
        help="seconds SIGTERM waits for in-flight jobs before giving up",
    )
    ps.add_argument(
        "--journal", default=None,
        help="persistent job journal (WAL): settled results and in-flight "
             "re-enqueues survive kill -9 (docs/robustness.md)",
    )
    _add_verify_flag(ps)
    ps.set_defaults(func=_cmd_serve)

    pj = sub.add_parser(
        "journal",
        help="inspect or compact a job journal (docs/robustness.md)",
    )
    pj.add_argument("path", help="journal file written by --journal/JobJournal")
    pj.add_argument(
        "--compact", action="store_true",
        help="rewrite keeping one record per live digest",
    )
    pj.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    pj.set_defaults(func=_cmd_journal)

    pp = sub.add_parser("report", help="regenerate the whole evaluation")
    pp.add_argument("--output", default="results/REPORT.md")
    pp.add_argument("--seed", type=int, default=7)
    pp.add_argument("--grid", type=int, default=32)
    pp.add_argument(
        "--quick", action="store_true", help="skip the slow Table-3/Fig-6 runs"
    )
    pp.set_defaults(func=_cmd_report)

    return parser


def _drain_broken_pipe() -> int:
    """Downstream closed our stdout (``repro ... | head``): normal pipeline
    behaviour, not an error.  Point stdout at devnull so the interpreter's
    exit-time flush cannot raise a second time."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    except (OSError, ValueError, AttributeError):
        # stdout may be detached, already closed, or a file-less object
        # (tests swap in StringIO-like stand-ins).
        pass
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Flush while the handler can still see the failure: with a
        # block-buffered stdout (the default when piping) a closed pipe
        # only surfaces at the interpreter's exit-time flush, outside any
        # try — so every subcommand, not just stats, must drain here.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        return _drain_broken_pipe()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
