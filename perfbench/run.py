"""End-to-end exploration benchmark: one run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest-explore --seed 1 --seconds 25 --trace 0

Steps, each in a process of its own:

1. ``prepare.py`` generates the cube, the snapshot, the held-back
   batches, the seeded analyst script and the fault probes;
2. the store is set up ``SETUPS`` times (``setup_s`` is the median);
3. the last set-up runs the closed loop for ``--seconds`` (``session.py``,
   or for serve-tenants the server plus ``serve.py client``);
4. this process checks the outputs against the independent reference
   model (``reference.py``) and prints the metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, as ``BENCHMARK.json``
names them.  Per-layer figures of the measured window are per analyst
session; set-up figures are totals over one set-up.  The line before it
reports workload-only figures and sample counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import (  # noqa: E402
    Cube, QueryFault, QuerySpec, check_result, holds_example, row_matches_example)
from workloads import PYTHONHASHSEED, SETUPS, WORKLOADS  # noqa: E402

PROPOSE_KINDS = ("disaggregate", "percentile", "rollup", "similarity", "slice", "topk")


class BenchmarkError(Exception):
    """The benchmark could not run (not a fault of the measured program)."""


def run_step(command: list[str], env: dict, timeout: float) -> None:
    completed = subprocess.run(command, env=env, timeout=timeout,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(command[:3])} exited {completed.returncode}: {completed.stderr[-3000:]}")


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def median(values):
    return statistics.median(values) if values else None


def slot_median(cycles: list[list[float]]):
    """Mean over a cycle's call slots of each slot's median across cycles.

    Every cycle replays the same session shapes in the same order, so the
    i-th call of one cycle is like-for-like with the i-th call of every
    other: its median over the cycles is robust to a call that met a
    collection or the other tenant's query.  Single latencies mix cheap
    and costly shapes (and result-cache hits with misses), and their
    plain median jumps between them.  Only cycles of the common length
    are used; a cycle whose session could not apply makes one shorter.
    """
    lengths = [len(cycle) for cycle in cycles if cycle]
    if not lengths:
        return None
    common = statistics.mode(lengths)
    whole = [cycle for cycle in cycles if len(cycle) == common]
    return statistics.fmean(statistics.median(slot) for slot in zip(*whole))


def flat(cycles: list[list[float]]) -> list[float]:
    return [value for cycle in cycles for value in cycle]


# -- running --------------------------------------------------------------------

def run_in_process(args, work: str, env: dict) -> dict:
    worker = [sys.executable, os.path.join(HERE, "session.py"), "--dir", work]
    setups = []
    for index in range(SETUPS - 1):
        out = os.path.join(work, f"setup-{index}.json")
        run_step(worker + ["--seconds", "0", "--out", out, "--setup-only"], env, 150)
        setups.append(read_json(out)["setup_s"])
    out = os.path.join(work, "result.json")
    run_step(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
             env, 150 + args.seconds)
    result = read_json(out)
    result["setups"] = setups + [result["setup_s"]]
    if args.trace:
        import tracing

        result["analysis"] = tracing.analyze(tracing.load(out + ".spans"), tuple(result["window"]))
    return result


def serve_ready(host: str, port: int, example: list[str]) -> None:
    """The server can serve once a session is open and has synthesized."""
    from serve import Connection, open_session

    connection = Connection(host, port, "setup")
    try:
        session = open_session(connection)
        reply, _ = connection.step(session, {"action": "synthesize", "values": example})
        if not reply.get("ok"):
            raise BenchmarkError(f"first synthesis failed: {reply}")
    finally:
        connection.close()


def run_served(args, work: str, env: dict, script: dict) -> dict:
    from serve import start_server, stop_server
    from session import peak_rss_mb

    example = script["warmup"][0]["example"]
    setups = []
    spans = os.path.join(work, "server.spans")
    for index in range(SETUPS):
        measured = index == SETUPS - 1
        start = time.perf_counter()
        process, host, port = start_server(work, env, trace=bool(args.trace) and measured,
                                           spans=spans)
        try:
            serve_ready(host, port, example)
            setups.append(time.perf_counter() - start)
            if not measured:
                continue
            out = os.path.join(work, "result.json")
            run_step([sys.executable, os.path.join(HERE, "serve.py"), "client",
                      "--host", host, "--port", str(port), "--dir", work,
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", out], env, 150 + args.seconds)
            rss = peak_rss_mb(str(process.pid))
        finally:
            stop_server(process)
    result = read_json(out)
    result.update(setups=setups, setup_s=setups[-1], rss_peak_mb=rss)
    if args.trace:
        import tracing

        result["analysis"] = tracing.analyze(tracing.load(spans), tuple(result["window"]))
        begin, end = result["window"]
        result["analysis"]["client_http_ms"] = sum(
            (stop - start) * 1000.0 for name, start, stop, _parent, _count
            in tracing.load(out + ".spans").values() if begin <= start and stop <= end)
    return result


def exec_records(result: dict):
    """The executed results a run recorded, in memory or as JSON lines."""
    records = result["exec_records"]
    if isinstance(records, list):
        yield from records
        return
    with open(records, encoding="utf-8") as handle:
        for line in handle:
            yield json.loads(line)


# -- checking -------------------------------------------------------------------

def check(work: str, script: dict, result: dict) -> tuple[int, list[str], list[str]]:
    """Check outputs against the reference; returns (failed ops, failures, wrong).

    ``failures`` are operations whose output breaks the method's
    guarantees (counted as failed); ``wrong`` are answers that disagree
    with the reference (they make the run incorrect).
    """
    cube = Cube(script["paths"])
    with open(os.path.join(work, "cube.nt"), encoding="utf-8") as handle:
        sizes = [len(cube.load(handle.read()))]
    records = itertools.chain(result["synth_records"], exec_records(result),
                              result["state_records"])
    top_state = max((record["state"] for record in records), default=0)
    for state in range(top_state):
        if state >= len(script["batches"]):
            sizes.append(sizes[-1])  # a batch appended again adds nothing
            continue
        with open(os.path.join(work, script["batches"][state]), encoding="utf-8") as handle:
            sizes.append(sizes[-1] + len(cube.load(handle.read())))
    observations = cube.observations

    def at(state):
        return observations[:sizes[state]]

    measures = set(script["measures"])
    failed, failures, wrong = 0, [], []
    never = set()
    for record in result["synth_records"]:
        example = tuple(record["example"])
        for text in record["candidates"]:
            if (text, example) not in never:
                try:
                    spec = QuerySpec(text, measures)
                except QueryFault as fault:
                    wrong.append(f"synthesize{list(example)}: {fault}")
                    break
                state = at(record["state"])
                if holds_example(cube, spec, example, state):
                    continue
                # Observations are only added, so no row in the final state
                # means no row in any state.
                if len(state) == len(observations) or \
                        not holds_example(cube, spec, example, observations):
                    never.add((text, example))
            failed += 1
            if record["probe"] is None:
                failures.append(f"synthesize{list(example)}: a candidate has no matching row")
            break
    for record in exec_records(result):
        try:
            spec = QuerySpec(record["sparql"], measures)
        except QueryFault as fault:
            wrong.append(f"{fault}: {record['sparql'][:200]!r}")
            continue
        rows = [dict(zip(record["vars"], row)) for row in record["rows"]]
        example = record.get("example")
        if example is not None:
            remaining = spec.unsliced(cube, tuple(example))
            if not any(row_matches_example(cube, spec, row, remaining) for row in rows):
                failed += 1
                failures.append(f"no row matches {example} in {spec.group}")
        if record.get("full", True):
            wrong.extend(check_result(cube, spec, rows, at(record["state"])))
    for record in result["state_records"]:
        state_obs = at(record["state"])
        if record["observations"] != len(state_obs):
            wrong.append(f"state {record['state']}: {record['observations']} observations, "
                         f"reference {len(state_obs)}")
        expected = {"|".join(path): count for path, count in cube.level_members(state_obs).items()}
        if record["levels"] != expected:
            wrong.append(f"state {record['state']}: level member counts differ from the reference")
    return failed, failures, wrong


# -- metrics ----------------------------------------------------------------------

def end_to_end(result: dict) -> dict:
    samples = result["samples"]
    return {
        "setup_s": median(result["setups"]),
        "interactions_per_s": result["interactions"] / result["busy_s"],
        "requests_per_s": result["attempted"] / result["wall_s"],
        "synthesize_ms.p50": slot_median(samples["synthesize"]),
        "execute_ms.p50": slot_median(samples["execute"]),
        "propose_ms.p50": slot_median(samples["propose"]),
        "step_ms.p50": slot_median(samples["step"]),
        "rss_peak_mb": result["rss_peak_mb"],
    }


def per_layer(result: dict, served: bool) -> dict:
    import tracing

    analysis = result["analysis"]
    rounds = result["rounds"]
    measured, setup = analysis["measured"], analysis["setup"]

    def calls(name, table=measured):
        return table.get(name, [0, 0.0, 0])[0]

    def total_ms(name, table=measured):
        return table.get(name, [0, 0.0, 0])[1]

    metrics = {
        "store.snapshot_load_ms": total_ms("store.snapshot_load", setup),
        "store.ingest_triples_per_s": (
            setup["store.add_all"][2] / (setup["store.add_all"][1] / 1000.0)
            if "store.add_all" in setup else 0.0),
        "store.flush_calls": float(calls("store.flush", setup) + calls("store.flush")),
        "store.flush_ms": total_ms("store.flush", setup) + total_ms("store.flush"),
        "store.wal_bytes_per_triple": (
            result["wal"]["bytes"] / result["wal"]["records"] if result.get("wal") else 0.0),
        "store.text_index_build_ms": total_ms("store.text_index_build", setup),
        "core.bootstrap_ms": total_ms("core.bootstrap", setup),
        "core.bootstrap_queries": float(analysis["bootstrap_queries"]),
        "gc.setup_pause_ms": analysis["setup_gc_ms"],
    }
    per_round = {
        "store.text_index_refresh_ms": total_ms("store.text_index_refresh"),
        "sparql.evaluate_ms": total_ms("sparql.evaluate"),
        "sparql.parse_ms": total_ms("sparql.parse"),
        "sparql.plan_ms": total_ms("sparql.plan"),
        "sparql.aggregate_ms": total_ms("sparql.aggregate"),
        "sparql.batched_ms": total_ms("sparql.batched"),
        "sparql.per_row_calls": calls("sparql.per_row"),
        "sparql.per_row_ms": total_ms("sparql.per_row"),
        "core.interpretations_ms": total_ms("core.interpretations"),
        "core.validate_ms": total_ms("core.validate"),
        "core.vgraph_refresh_ms": total_ms("core.vgraph_refresh"),
        "gc.pause_ms": analysis["gc_pause_ms"],
        "gc.gen2_collections": analysis["gc_gen2"],
    }
    for name in ("select", "ask_batch", "ask", "keyword"):
        per_round[f"store.{name}_calls"] = calls(f"store.{name}")
        per_round[f"store.{name}_ms"] = total_ms(f"store.{name}")
    for kind in PROPOSE_KINDS:
        per_round[f"core.propose_ms.{kind}"] = total_ms(f"core.propose.{kind}")
    for layer in ("core", "sparql", "store", "serving", "server"):
        per_round[f"layer.{layer}.self_ms"] = analysis["self_ms"].get(layer, 0.0)
    if served:
        before, after = result["stats"]
        # GET /stats reports fused aggregates but not shared batch steps.
        endpoint = {"fused_aggregates": after["endpoint"]["fused_aggregates"]
                    - before["endpoint"]["fused_aggregates"], "batch_shared_steps": 0}
        hits = sum(t["hits"] for t in after["cache"].values()) - sum(
            t["hits"] for t in before["cache"].values())
        misses = sum(t["misses"] for t in after["cache"].values()) - sum(
            t["misses"] for t in before["cache"].values())
        metrics["serving.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["server.healthz_ms.p50"] = median(result["healthz_ms"])
        request_ms = result["busy_s"] * 1000.0 + sum(flat(result["samples"]["dashboard"]))
        # The client's HTTP spans enclose the server's; what they add is
        # transport, HTTP framing and reading the body.
        covered = analysis["client_http_ms"]
        server_ms = analysis["async_ms"]
    else:
        endpoint = result["endpoint"]
        metrics["serving.cache_hit_ratio"] = 0.0
        metrics["server.healthz_ms.p50"] = 0.0
        request_ms = result["busy_s"] * 1000.0
        covered = server_ms = analysis["root_ms"]
    per_round["sparql.fused_aggregates"] = endpoint["fused_aggregates"]
    per_round["sparql.batch_shared_steps"] = endpoint["batch_shared_steps"]
    metrics.update({name: value / rounds for name, value in per_round.items()})
    # Client HTTP time outside every server span: transport, HTTP framing
    # and the client reading the body (0 in process).
    metrics["layer.http.self_ms"] = (covered - server_ms) / rounds if served else 0.0
    metrics["trace.coverage"] = covered / request_ms
    metrics["trace.server_coverage"] = server_ms / request_ms
    metrics["trace.overhead_pct"] = (
        100.0 * analysis["spans"] * tracing.span_cost_s() / (request_ms / 1000.0))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    scratch = os.path.join(root, ".perfbench-work")
    work = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        phases = [time.perf_counter()]
        run_step([sys.executable, os.path.join(HERE, "prepare.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--out", work,
                  "--cache", os.path.join(scratch, "cubes")], env, 150)
        script = read_json(os.path.join(work, "script.json"))
        phases.append(time.perf_counter())
        served = args.workload == "serve-tenants"
        if served:
            result = run_served(args, work, env, script)
        else:
            result = run_in_process(args, work, env)
        phases.append(time.perf_counter())
        failed, failures, wrong = check(work, script, result)
        phases.append(time.perf_counter())
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, RuntimeError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed += result["failed"]
    failures = result["problems"] + failures
    samples = {kind: flat(cycles) for kind, cycles in result["samples"].items()}
    report = {
        "workload": args.workload, "seed": args.seed, "PYTHONHASHSEED": PYTHONHASHSEED,
        "sessions": result["rounds"], "cycles": len(result["samples"]["step"]),
        "setups_s": result["setups"],
        # Seconds spent preparing inputs, setting up and measuring, checking.
        "phases_s": [round(b - a, 2) for a, b in zip(phases, phases[1:])],
        "samples": {k: len(v) for k, v in samples.items()},
        "execute_ms.p90": (statistics.quantiles(samples["execute"], n=10)[-1]
                           if len(samples["execute"]) >= 100 else None),
        "append_ms.p50": median(samples.get("append", [])),
        "refresh_ms.p50": median(samples.get("refresh", [])),
        "dashboard_ms.p50": median(samples.get("dashboard", [])),
        "same_level_probe": script["same_level"],
        "fig7_strata": script["fig7"],
        # With --trace 1 these show the traced run's cost next to an
        # untraced run's result line.
        "end_to_end": end_to_end(result),
        "failures": failures[:10], "wrong": wrong[:10],
    }
    print(json.dumps(report))
    # BENCHMARK.json names the metrics and their units; every one is printed.
    values = per_layer(result, served) if args.trace else end_to_end(result)
    benchmark = read_json(os.path.join(root, "BENCHMARK.json"))
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not wrong,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
