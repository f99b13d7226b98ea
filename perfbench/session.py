"""The measured process of the ingest-explore workload.

Usage (``run.py`` calls it, from the repository root, with ``src`` on
``PYTHONPATH``)::

    python3 perfbench/session.py --dir DIR \\
        --seconds 25 --trace 0 --out RESULT.json [--setup-only]

It ingests the prepared cube through the durable store (WAL), builds the
text index and bootstraps the virtual schema graph, then replays whole
cycles of scripted analyst sessions until ``--seconds`` have passed,
appending one held-back batch (and refreshing) after each cycle.  Timers wrap only the program's calls; the
property checks and the records ``run.py`` checks against the reference
are made between them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SESSION_SHAPES, WORKLOADS, choose_refinement  # noqa: E402

_TOP_K = re.compile(r"top-(\d+)")


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def term_text(term):
    if term is None:
        return None
    lexical = getattr(term, "lexical", None)
    return lexical if lexical is not None else term.value


def rows_of(results) -> tuple[list[str], list[list]]:
    names = [variable.name for variable in results.variables]
    return names, [[term_text(cell) for cell in row] for row in results.rows]


class Store:
    """One set-up of the store, text index and virtual schema graph."""

    def __init__(self, directory: str, flush_threshold: int):
        from repro.core import VirtualSchemaGraph
        from repro.qb import OBSERVATION_CLASS
        from repro.rdf.ntriples import parse_ntriples
        from repro.store import Endpoint, Graph

        start = time.perf_counter()
        self.graph = Graph.open_durable(os.path.join(directory, f"store-{os.getpid()}"),
                                        flush_threshold=flush_threshold)
        with open(os.path.join(directory, "cube.nt"), encoding="utf-8") as handle:
            self.graph.add_all(parse_ntriples(handle))
        self.endpoint = Endpoint(self.graph)
        self.endpoint.text_index  # built here, not in the first synthesis
        self.vgraph = VirtualSchemaGraph.bootstrap(self.endpoint, OBSERVATION_CLASS)
        self.setup_s = time.perf_counter() - start

    def close(self) -> None:
        self.graph.close()


class Loop:
    """The scripted closed loop of one analyst, with appends between cycles."""

    def __init__(self, store: Store, script: dict, directory: str, records: str):
        from repro.core import ExplorationSession
        from repro.rdf.ntriples import parse_ntriples

        self.store = store
        self.state = 0  # batches appended so far
        self.script = script
        self.directory = directory
        self.parse = parse_ntriples
        # Executed results go to a file as they come, so the measured
        # heap does not grow with the records run.py checks.
        self.records = open(records, "w", encoding="utf-8")
        self.new_session = lambda: ExplorationSession(store.endpoint, store.vgraph)
        self.session = self.new_session()
        self.reset()

    def reset(self) -> None:
        """Forget what was measured so far (after the warm-up cycle)."""
        # Latencies in ms per kind, one list per cycle.
        self.samples = {k: [] for k in (
            "synthesize", "execute", "propose", "step", "append", "refresh")}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.synth_records: list[dict] = []
        self.records.seek(0)
        self.records.truncate()
        self.state_records: list[dict] = []
        self.busy = 0.0  # analyst time, appends and refreshes included
        self.interactions = 0

    def timed(self, kind: str, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        if kind is not None:
            self.samples[kind][-1].append(elapsed * 1000.0)
        return value, elapsed

    def new_cycle(self) -> None:
        for values in self.samples.values():
            values.append([])

    def interaction(self, kind: str | None, fn, *args, **kwargs):
        value, elapsed = self.timed(kind, fn, *args, **kwargs)
        self.interactions += 1
        self.samples["step"][-1].append(elapsed * 1000.0)
        return value

    def check_execute(self, query, results, round_: dict, position: int,
                      explanation: str = "") -> bool:
        """Check Top-K's row limit; record the result for run.py.

        Every result is checked for a row matching the example by run.py,
        against the reference; the one at the session's seeded position
        is compared with the reference aggregates in full.
        """
        ok = True
        top = _TOP_K.search(explanation)
        if top and len(results) > int(top.group(1)):
            ok = False
            self.problems.append(f"{explanation!r} returned {len(results)} rows")
        names, rows = rows_of(results)
        self.records.write(json.dumps({
            "sparql": query.sparql(), "vars": names, "rows": rows, "state": self.state,
            "example": round_["example"], "full": position == round_["sample"]}) + "\n")
        return ok

    def synthesize(self, example: list[str], probe: str | None):
        self.attempted += 1
        candidates = self.interaction("synthesize", self.session.synthesize, *example)
        self.synth_records.append({
            "example": example, "probe": probe, "state": self.state,
            "candidates": [c.sparql() for c in candidates]})
        return candidates

    def round(self, round_: dict) -> None:
        """synthesize (tries, then the example), choose(0), menu, apply,
        menu, apply, back, 2 probes.

        The probes are the fixed same-level example and the session's
        Fig. 7 draw that trips the fault; their latencies count like the
        analyst's own syntheses.
        """
        session = self.session
        remaining = 6  # analyst operations after synthesize
        for values in round_["tries"]:
            self.synthesize(values, None)
        candidates = self.synthesize(round_["example"], None)
        if not candidates:
            self.problems.append(f"no candidate for {round_['example']}")
            self.attempted += remaining
            self.failed += remaining + 1
        else:
            self.attempted += remaining
            results = self.interaction("execute", session.choose, 0)
            self.failed += not self.check_execute(session.query, results, round_, 0)
            menu = self.interaction("propose", session.all_refinements)
            previous = None
            for position, pick in enumerate(round_["picks"], start=1):
                choice = choose_refinement(previous, {k: len(v) for k, v in menu.items()}, pick)
                if choice is None:
                    self.problems.append(f"nothing to apply after {previous}: "
                                         f"{sorted((k, len(v)) for k, v in menu.items())}")
                    self.failed += 1
                else:
                    previous = choice[0]
                    chosen = menu[choice[0]][choice[1]]
                    results = self.interaction(
                        "execute", session.apply, chosen, len(menu[choice[0]]))
                    self.failed += not self.check_execute(
                        chosen.query, results, round_, position, chosen.explanation)
                if position == 1:
                    menu = self.interaction("propose", session.all_refinements)
            self.interaction(None, session.back)
        self.synthesize(self.script["same_level"], "same-level")
        self.synthesize(round_["tripping"], "tripping")

    def append(self) -> None:
        """One held-back batch through the WAL, then the refresh it needs."""
        name = self.script["batches"][self.state % len(self.script["batches"])]
        with open(os.path.join(self.directory, name), encoding="utf-8") as handle:
            text = handle.read()
        self.attempted += 2
        self.timed("append", lambda: self.store.graph.add_all(self.parse(text)))
        self.state += 1

        def refresh():
            self.store.vgraph = self.store.vgraph.refreshed(self.store.endpoint)
            self.store.endpoint.refresh_text_index()

        self.timed("refresh", refresh)
        self.session = self.new_session()
        vgraph = self.store.vgraph
        self.state_records.append({
            "state": self.state,
            "observations": vgraph.observation_count,
            "levels": {"|".join(p.value for p in path): level.member_count
                       for path, level in vgraph.levels.items()},
        })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(args.dir, "script.json"), encoding="utf-8") as handle:
        script = json.load(handle)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    store = Store(args.dir, WORKLOADS[script["workload"]]["flush_threshold"])
    result = {"setup_s": store.setup_s}
    if not args.setup_only:
        loop = Loop(store, script, args.dir, args.out + ".records")
        loop.new_cycle()
        for round_ in script["warmup"]:  # one cycle, not counted
            loop.round(round_)
        loop.reset()
        before = store.endpoint.stats.snapshot()
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < args.seconds:
            loop.new_cycle()
            for _ in range(SESSION_SHAPES):  # whole cycles only
                loop.round(script["rounds"][index % len(script["rounds"])])
                index += 1
            loop.append()
        end = time.perf_counter()
        after = store.endpoint.stats.snapshot()
        result.update({
            "wall_s": end - start, "busy_s": loop.busy, "rounds": index,
            "interactions": loop.interactions, "samples": loop.samples,
            "attempted": loop.attempted, "failed": loop.failed,
            "problems": loop.problems, "synth_records": loop.synth_records,
            "exec_records": args.out + ".records", "state_records": loop.state_records,
            "window": [start, end],
            "endpoint": {name: getattr(after, name) - getattr(before, name)
                         for name in ("fused_aggregates", "batch_shared_steps")},
        })
        stats = store.graph.durability_stats()
        result["wal"] = {"bytes": stats["wal_bytes"], "records": stats["wal_records"]}
        loop.records.close()
    result["rss_peak_mb"] = peak_rss_mb()
    store.close()
    if tracer is not None:
        tracer.dump(args.out + ".spans")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
