"""serve-tenants: the server process and the measured HTTP client.

``run.py`` starts the server with :func:`start_server` (``repro serve
--snapshot`` in a process of its own, 2 workers, result cache on) and the
client as ``python3 perfbench/serve.py client ...``.  With tracing on,
the server runs as ``python3 perfbench/serve.py server ...``, which
installs the span wrappers and then calls the same ``repro serve``.

The client opens two keep-alive connections and runs one closed loop
with one request in flight: the ``analyst`` tenant runs scripted session
rounds through the JSON session API, and after each analyst step the
``dashboard`` tenant sends one group-by query.  The dashboard shows a new
view every cycle, so each cycle holds the same number of result-cache
misses and hits.  Tenants do not send at once: on a two-core machine
shared with other work, concurrent tenants made every latency depend on
the CPU the machine had left.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SESSION_SHAPES, choose_refinement  # noqa: E402

_TOP_K = re.compile(r"top-(\d+)")
_READY = re.compile(r"serving SPARQL at (http://[^/\s]+)/sparql")


def server_command(directory: str, trace: bool, spans: str | None) -> list[str]:
    serve_args = ["serve", "--snapshot", os.path.join(directory, "store.snap"),
                  "--workers", "2", "--port", "0"]
    if trace:
        return [sys.executable, os.path.join(HERE, "serve.py"), "server",
                "--spans", spans, "--", *serve_args]
    return [sys.executable, "-m", "repro", *serve_args]


def start_server(directory: str, env: dict, trace: bool = False, spans: str | None = None,
                 timeout: float = 60.0):
    """Spawn the server; returns (process, host, port) once it listens."""
    process = subprocess.Popen(
        server_command(directory, trace, spans), env=env, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = _READY.search(line)
        if match:
            host, port = match.group(1)[len("http://"):].rsplit(":", 1)
            return process, host, int(port)
    stop_server(process)
    raise RuntimeError("the server did not start: " + process.stderr.read()[-2000:])


def stop_server(process, timeout: float = 30.0) -> None:
    """Close the server's stdin (its shutdown signal) and wait for it."""
    try:
        process.stdin.close()
    except OSError:
        pass
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()


class Connection:
    """One keep-alive connection speaking for one tenant."""

    def __init__(self, host: str, port: int, tenant: str):
        self.http = http.client.HTTPConnection(host, port, timeout=120)
        self.tenant = tenant

    def call(self, method: str, path: str, body: bytes | None = None,
             content_type: str = "application/json") -> tuple[int, dict, float]:
        headers = {"x-repro-tenant": self.tenant, "Accept": "application/sparql-results+json"}
        if body is not None:
            headers["Content-Type"] = content_type
        start = time.perf_counter()
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        payload = response.read()
        elapsed = time.perf_counter() - start
        return response.status, json.loads(payload), elapsed

    def step(self, session: str, document: dict) -> tuple[dict, float]:
        status, reply, elapsed = self.call(
            "POST", f"/sessions/{session}/steps", json.dumps(document).encode())
        if status != 200:
            reply = {"ok": False, "error": reply}
        return reply, elapsed

    def close(self) -> None:
        self.http.close()


def open_session(connection: Connection) -> str:
    status, reply, _ = connection.call("POST", "/sessions", b"{}")
    if status != 201:
        raise RuntimeError(f"cannot open a session: {reply}")
    return reply["session"]


def bindings_rows(results: dict) -> tuple[list[str], list[list]]:
    names = results["vars"]
    return names, [[b.get(n, {}).get("value") for n in names] for b in results["bindings"]]


class Client:
    def __init__(self, host: str, port: int, script: dict):
        self.script = script
        self.analyst = Connection(host, port, "analyst")
        self.dashboard = Connection(host, port, "dashboard")
        self.session = open_session(self.analyst)
        # Latencies in ms per kind, one list per cycle.
        self.samples = {k: [] for k in (
            "synthesize", "execute", "propose", "step", "dashboard")}
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.interactions = 0
        self.problems: list[str] = []
        self.synth_records: list[dict] = []
        self.exec_records: list[dict] = []
        self.dashboard_records: dict[str, dict] = {}
        self.cycle = -1
        self.next_dashboard = 0

    def new_cycle(self) -> None:
        for values in self.samples.values():
            values.append([])
        self.cycle += 1
        self.next_dashboard = 0

    def reset(self) -> None:
        for values in self.samples.values():
            values.clear()
        self.attempted = self.failed = self.interactions = 0
        self.busy = 0.0
        self.problems.clear()
        self.synth_records.clear()
        self.exec_records.clear()
        self.dashboard_records.clear()

    def interaction(self, kind: str | None, document: dict) -> dict:
        reply, elapsed = self.analyst.step(self.session, document)
        self.busy += elapsed
        self.interactions += 1
        self.attempted += 1
        self.samples["step"][-1].append(elapsed * 1000.0)
        if kind is not None:
            self.samples[kind][-1].append(elapsed * 1000.0)
        if not reply.get("ok"):
            self.failed += 1
            self.problems.append(f"{document['action']} failed: {reply.get('error')}")
        self.dashboard_query()
        return reply

    def execute(self, document: dict, example, round_: dict, position: int,
                explanation: str = "") -> dict:
        reply = self.interaction("execute", document)
        if "results" in reply:
            names, rows = bindings_rows(reply["results"])
            top = _TOP_K.search(explanation)
            if top and len(rows) > int(top.group(1)):
                self.failed += 1
                self.problems.append(f"{explanation!r} returned {len(rows)} rows")
            # Every execute is checked for the example; one per session in full.
            self.exec_records.append({
                "sparql": reply["query"]["sparql"], "vars": names, "rows": rows,
                "state": 0, "example": example, "full": position == round_["sample"]})
        return reply

    def synthesize(self, values: list[str], probe: str | None) -> None:
        reply = self.interaction("synthesize", {"action": "synthesize", "values": values})
        candidates = [c["sparql"] for c in reply.get("candidates", [])]
        self.synth_records.append({"example": values, "probe": probe, "state": 0,
                                   "candidates": candidates})

    def analyst_round(self, round_: dict) -> None:
        example = round_["example"]
        for values in round_["tries"] + [example]:
            self.synthesize(values, None)
        self.execute({"action": "choose", "index": 0}, example, round_, 0)
        menu = self.interaction("propose", {"action": "all_refinements"})
        previous = None
        for position, pick in enumerate(round_["picks"], start=1):
            entries = menu.get("refinements", {})
            choice = choose_refinement(previous, {k: len(v) for k, v in entries.items()}, pick)
            if choice is None:
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"nothing to apply after {previous}: "
                                     f"{sorted((k, len(v)) for k, v in entries.items())}")
            else:
                kind, index = previous = choice
                self.execute({"action": "apply", "kind": kind, "index": index},
                             example, round_, position, entries[kind][index]["explanation"])
            if position == 1:
                menu = self.interaction("propose", {"action": "all_refinements"})
        self.interaction(None, {"action": "back"})
        self.synthesize(self.script["same_level"], "same-level")
        self.synthesize(round_["tripping"], "tripping")

    def dashboard_query(self) -> None:
        """The dashboard tenant's query after an analyst step: the next of
        its queries, in the cycle's view."""
        views = self.script["dashboard"]["views"]
        queries = self.script["dashboard"]["queries"]
        text = queries[self.next_dashboard % len(queries)].replace(
            "{view}", views[self.cycle % len(views)])
        self.next_dashboard += 1
        self.attempted += 1
        status, reply, elapsed = self.dashboard.call(
            "POST", "/sparql", text.encode(), "application/sparql-query")
        self.samples["dashboard"][-1].append(elapsed * 1000.0)
        if status != 200:
            self.failed += 1
            self.problems.append(f"dashboard query answered {status}: {text[:80]!r}")
        elif text not in self.dashboard_records:
            names = reply["head"]["vars"]
            rows = [[b.get(n, {}).get("value") for n in names]
                    for b in reply["results"]["bindings"]]
            self.dashboard_records[text] = {
                "sparql": text, "vars": names, "rows": rows,
                "state": 0, "example": None, "full": True}

    def close(self) -> None:
        self.analyst.close()
        self.dashboard.close()


def client_main(args) -> int:
    with open(os.path.join(args.dir, "script.json"), encoding="utf-8") as handle:
        script = json.load(handle)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.CLIENT_ENTRY_POINTS, collections=False)
    client = Client(args.host, args.port, script)
    rounds = script["rounds"]
    client.new_cycle()
    for round_ in script["warmup"]:  # one cycle, not counted
        client.analyst_round(round_)
    client.reset()
    _, stats_before, _ = client.analyst.call("GET", "/stats")
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds:
        client.new_cycle()
        for _ in range(SESSION_SHAPES):  # whole cycles only
            client.analyst_round(rounds[index % len(rounds)])
            index += 1
    end = time.perf_counter()
    _, stats_after, _ = client.analyst.call("GET", "/stats")
    healthz = []
    if args.trace:
        for _ in range(50):
            healthz.append(client.analyst.call("GET", "/healthz")[2] * 1000.0)
    client.close()
    if tracer is not None:
        tracer.dump(args.out + ".spans")
    result = {
        "wall_s": end - start, "busy_s": client.busy, "rounds": index,
        "interactions": client.interactions, "samples": client.samples,
        "attempted": client.attempted, "failed": client.failed,
        "problems": client.problems, "synth_records": client.synth_records,
        "exec_records": client.exec_records + list(client.dashboard_records.values()),
        "state_records": [], "window": [start, end], "healthz_ms": healthz,
        "stats": [stats_before, stats_after],
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def server_main(args) -> int:
    """``repro serve`` with the span wrappers installed; spans on exit."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    from repro.cli import main

    try:
        return main(args.serve_args)
    finally:
        tracer.dump(args.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    client = commands.add_parser("client")
    client.add_argument("--host", required=True)
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--dir", required=True)
    client.add_argument("--seconds", type=float, required=True)
    client.add_argument("--trace", type=int, choices=(0, 1), default=0)
    client.add_argument("--out", required=True)
    server = commands.add_parser("server")
    server.add_argument("--spans", required=True)
    server.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "client":
        return client_main(args)
    if args.serve_args and args.serve_args[0] == "--":
        args.serve_args = args.serve_args[1:]
    return server_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
