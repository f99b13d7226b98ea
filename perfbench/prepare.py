"""Make one run's inputs, in a process of its own.

Usage: ``python3 perfbench/prepare.py --workload NAME --seed N --out DIR
--cache CACHE`` (run from the repository root; ``run.py`` calls it).

The cube itself is generated once per checkout into ``CACHE``, keyed by a
digest of the program's sources.  Writes into ``DIR``:

* ``cube.nt`` - the triples the store starts from;
* ``batch-NNN.nt`` - held-back observation batches (ingest-explore);
* ``store.snap`` - a columnar snapshot of ``cube.nt`` (serve-tenants);
* ``script.json`` - level paths and measures for the reference, the
  seeded analyst rounds (each with its tries and the next tripping Fig. 7
  probe), the fixed same-level probe, the Fig. 7 fault counts and the
  dashboard queries;
* in ``CACHE`` beside the cube, ``fig7.json`` - the seed-independent
  Fig. 7 strata (:func:`fig7_strata`).

The generator's graph lives only here; the measured process loads what
these files hold, so its heap is the program's own.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import OBSERVATION, RDF_TYPE, Cube  # noqa: E402
from workloads import (  # noqa: E402
    FIG7_DRAWS, GENERATOR_SEED, ROUNDS, SESSION_SHAPES, TRIES, WORKLOADS)


def schema_layout(kg):
    """Level paths and measure predicates of a generated cube's schema."""
    from repro.qb.cube import CubeBuilder

    builder = CubeBuilder(kg.schema)
    paths = []
    for dimension in kg.schema.dimensions:
        head = builder.dimension_predicate(dimension).value
        for hierarchy in dimension.hierarchies:
            for depth in range(len(hierarchy.levels)):
                path = [head] + [
                    builder.rollup_predicate(name).value
                    for name in hierarchy.rollup_names[:depth]
                ]
                if path not in paths:
                    paths.append(path)
    measures = [builder.measure_predicate(m).value for m in kg.schema.measures]
    return paths, measures


def split_triples(kg, base_count: int):
    """N-Triples lines of the base store and of each held-back observation."""
    base, held = [], {}
    prefix = kg.schema.namespace + "obs/"
    for triple in kg.graph:
        line = triple.n3() + "\n"
        subject = triple.s.value if hasattr(triple.s, "value") else ""
        if subject.startswith(prefix) and int(subject[len(prefix):]) >= base_count:
            held.setdefault(subject, []).append(line)
        else:
            base.append(line)
    return "".join(base), held


def safe(cube: Cube, example: tuple[str, ...], base: list[str], everything: list[str]) -> bool:
    """Does every reading combination of the example co-occur in the base?

    Readings are taken over the whole cube, so the answer also holds after
    every append.  Examples failing this are not drawn, because the
    program's known containment fault fails them on some seeds only.
    """
    if len(set(example)) != len(example):
        return False
    combinations = list(cube.consistent_combinations(example, everything))
    return bool(combinations) and all(cube.combination_has_row(c, base) for c in combinations)


def trips(cube: Cube, example: tuple[str, ...], everything: list[str]) -> bool:
    """Does some reading combination of the example never co-occur?

    Such an example trips the REOLAP containment fault in every store
    state: the program still offers the combination as a candidate, and
    no row of its result can match the example.
    """
    return any(not cube.combination_has_row(c, everything)
               for c in cube.consistent_combinations(example, everything))


def fig7_strata(cube: Cube, base: list[str], everything: list[str], by_dimension) -> dict:
    """Fig. 7 draws with a fixed generator, sorted by the fault they trip.

    A draw takes one or two dimensions at random, a level of each, one
    observation, and the labels of the members it reaches there.  It is
    ``safe`` when every reading combination co-occurs in the base store,
    ``trip`` when one never co-occurs in the whole cube, and ``late``
    otherwise (it co-occurs only once some held-back batch is in).
    Returns the counts and the distinct tripping examples.
    """
    rng = random.Random("fig7-strata")
    dimensions = sorted(by_dimension)
    counts = {"safe": 0, "late": 0, "trip": 0}
    tripping = []
    for _draw in range(FIG7_DRAWS):
        paths = [by_dimension[d][rng.randrange(len(by_dimension[d]))]
                 for d in rng.sample(dimensions, rng.choice((1, 2)))]
        example = example_at(rng, cube, base[rng.randrange(len(base))], paths)
        if example is None or len(set(example)) != len(example):
            continue
        if safe(cube, example, base, everything):
            counts["safe"] += 1
        elif trips(cube, example, everything):
            counts["trip"] += 1
            if list(example) not in tripping:
                tripping.append(list(example))
        else:
            counts["late"] += 1
    return {"counts": counts, "tripping": tripping}


def example_at(rng, cube: Cube, obs: str, paths) -> tuple[str, ...] | None:
    """Labels of the members one observation reaches at the given levels."""
    labels = []
    for path in paths:
        members = [m for m in cube.reach(obs, path) if m in cube.labels]
        if not members:
            return None
        labels.append(cube.labels[members[rng.randrange(len(members))]])
    return tuple(labels)


def draw_example(rng, cube: Cube, base: list[str], everything: list[str], paths,
                 fallback: tuple[str, ...]) -> list[str]:
    """A Fig. 7 style example at the given levels, drawn from one observation.

    ``fallback`` (found with a fixed generator) is used when the seeded
    draws find no containment-safe example, which only happens for levels
    whose members rarely co-occur.
    """
    for _attempt in range(300):
        example = example_at(rng, cube, base[rng.randrange(len(base))], paths)
        if example is not None and safe(cube, example, base, everything):
            return list(example)
    return list(fallback)


def session_shapes(workload: str, cube: Cube, base, everything, by_dimension) -> list[dict]:
    """The fixed cycle of session shapes every run replays.

    A shape fixes the example's levels (one or two dimensions, as in
    Fig. 7) and the two refinement picks; the seed only chooses the
    members.  Result sizes and menus follow from the levels, so every run
    measures the same mix of work whatever its seed.
    """
    rng = random.Random(f"{workload}-shapes")
    dimensions = sorted(by_dimension)
    shapes = []
    while len(shapes) < SESSION_SHAPES:
        size = 1 + len(shapes) % 2
        paths = [by_dimension[d][rng.randrange(len(by_dimension[d]))]
                 for d in rng.sample(dimensions, size)]
        picks = [[rng.random(), rng.random()], [rng.random(), rng.random()]]
        for _attempt in range(300):
            example = example_at(rng, cube, base[rng.randrange(len(base))], paths)
            if example is not None and safe(cube, example, base, everything):
                shapes.append({"paths": paths, "picks": picks, "fallback": list(example)})
                break
    return shapes


def fault_probes(cube: Cube, base: list[str], everything: list[str], by_dimension):
    """Two fixed examples that trip the REOLAP containment fault.

    * ``same-level``: two members of one level.  Their readings at that
      level share anchor group 0, so no single row can match both.
    * ``never-together``: two members of base levels of two dimensions
      that no observation of the whole cube reaches together; validation
      does not restrict the ASK to them, so the candidate survives.  It
      stands in for the Fig. 7 draws only on a cube where none trips.

    Both depend only on the fixed cube, never on ``--seed``.
    """
    labelled = {
        path: [(m, cube.labels[m]) for m in sorted(cube.members_at(path, base)) if m in cube.labels]
        for path in cube.paths
    }
    base_levels = [by_dimension[d][0] for d in sorted(by_dimension)]
    widest = max(base_levels, key=lambda p: (len(labelled[p]), p))
    same_level = [labelled[widest][0][1], labelled[widest][1][1]]
    never_together = None
    pairs = ((a, b) for a in base_levels for b in base_levels if a < b)
    for first, second in sorted(pairs, key=lambda ab: -len(labelled[ab[0]]) * len(labelled[ab[1]])):
        for (_ma, label_a), (_mb, label_b) in itertools.product(labelled[first], labelled[second]):
            example = (label_a, label_b)
            if label_a != label_b and any(
                not cube.combination_has_row(c, everything)
                for c in cube.consistent_combinations(example, everything)
            ):
                never_together = list(example)
                break
        if never_together:
            break
    if same_level is None or never_together is None:
        raise RuntimeError("the cube offers no fault probe")
    return {"same-level": same_level, "never-together": never_together}


def dashboard(cube: Cube, base: list[str], measures, view_predicate: str) -> dict:
    """The dashboard tenant's group-by queries, one per level of the cube.

    Each query groups the first measure by one level, in the shape the
    program itself emits, and shows one *view*: the observations of one
    member of the view level (``{view}`` in the text).  The client moves
    to the next view every cycle, so each cycle's first send of a query
    misses the result cache and its repeats hit it.
    """
    queries = []
    for path in cube.paths:
        lines = [f"  ?obs <{RDF_TYPE}> <{OBSERVATION}> ."]
        subject = "obs"
        for depth, predicate in enumerate(path):
            target = f"l{depth}"
            lines.append(f"  ?{subject} <{predicate}> ?{target} .")
            subject = target
        lines.append(f"  ?obs <{view_predicate}> <{{view}}> .")
        lines.append(f"  ?obs <{measures[0]}> ?m .")
        aggregates = " ".join(f"({f}(?m) AS ?{f.lower()}_m)" for f in ("SUM", "MIN", "MAX", "AVG"))
        queries.append(
            f"SELECT ?{subject} {aggregates}\nWHERE {{\n" + "\n".join(lines)
            + f"\n}}\nGROUP BY ?{subject}"
        )
    views = sorted(cube.members_at((view_predicate,), base))
    return {"queries": queries, "views": views}


def source_digest(root: str) -> str:
    """Digest of the program and of this benchmark's generation code."""
    digest = hashlib.sha256()
    names = [os.path.join(HERE, name) for name in ("prepare.py", "workloads.py")]
    for directory, _dirs, files in os.walk(os.path.join(root, "src", "repro")):
        names.extend(os.path.join(directory, f) for f in files if f.endswith(".py"))
    for name in sorted(names):
        with open(name, "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def generate_cube(workload: str, directory: str) -> None:
    """Generate the fixed cube once: base triples, held-back lines, snapshot."""
    from repro.datasets import generate_dbpedia, generate_eurostat, generate_production

    config = WORKLOADS[workload]
    generator = {"eurostat": generate_eurostat, "dbpedia": generate_dbpedia,
                 "production": generate_production}[config["dataset"]]
    kg = generator(n_observations=config["observations"], scale=config["scale"],
                   seed=GENERATOR_SEED)
    paths, measures = schema_layout(kg)
    base_text, held = split_triples(kg, config["observations"] - config["held_back"])
    partial = directory + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    with open(os.path.join(partial, "cube.nt"), "w", encoding="utf-8") as handle:
        handle.write(base_text)
    if config["held_back"] == 0:
        kg.graph.save_snapshot(os.path.join(partial, "store.snap"))
    with open(os.path.join(partial, "cube.json"), "w", encoding="utf-8") as handle:
        json.dump({"paths": paths, "measures": measures, "held": held}, handle)
    os.replace(partial, directory)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache", required=True,
                        help="directory keeping generated cubes between runs")
    args = parser.parse_args(argv)
    config = WORKLOADS[args.workload]

    # The cube depends only on the workload and the code, never on the
    # seed, so it is generated once per checkout and linked into each run.
    root = os.path.dirname(HERE)
    cached = os.path.join(args.cache, f"{args.workload}-{source_digest(root)}")
    if not os.path.isdir(cached):
        generate_cube(args.workload, cached)
    os.makedirs(args.out, exist_ok=True)
    for name in ("cube.nt", "store.snap"):
        if os.path.exists(os.path.join(cached, name)):
            os.link(os.path.join(cached, name), os.path.join(args.out, name))
    with open(os.path.join(cached, "cube.json"), encoding="utf-8") as handle:
        layout = json.load(handle)
    paths, measures, held = layout["paths"], layout["measures"], layout["held"]
    with open(os.path.join(args.out, "cube.nt"), encoding="utf-8") as handle:
        base_text = handle.read()
    base_count = config["observations"] - config["held_back"]

    rng = random.Random(args.seed)
    held_subjects = sorted(held)
    rng.shuffle(held_subjects)
    batches = []
    for start in range(0, len(held_subjects), config["batch"] or 1):
        chunk = held_subjects[start:start + config["batch"]]
        if len(chunk) < config["batch"]:
            break
        name = f"batch-{len(batches):03d}.nt"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
            handle.write("".join(line for subject in chunk for line in held[subject]))
        batches.append(name)

    cube = Cube(paths)
    base = cube.load(base_text)
    everything = base + sorted(held)
    for subject in held:
        cube.load("".join(held[subject]))
    by_dimension = {}
    for path in cube.paths:
        by_dimension.setdefault(path[0], []).append(path)
    shapes = session_shapes(args.workload, cube, base, everything, by_dimension)
    strata_file = os.path.join(cached, "fig7.json")
    if not os.path.exists(strata_file):  # seed-independent, so cached with the cube
        with open(strata_file + ".partial", "w", encoding="utf-8") as handle:
            json.dump(fig7_strata(cube, base, everything, by_dimension), handle)
        os.replace(strata_file + ".partial", strata_file)
    with open(strata_file, encoding="utf-8") as handle:
        strata = json.load(handle)
    probes = fault_probes(cube, base, everything, by_dimension)
    tripping = strata["tripping"] or [probes["never-together"]]

    def session(number):
        shape = shapes[number % len(shapes)]
        examples = [draw_example(rng, cube, base, everything, shape["paths"],
                                 tuple(shape["fallback"])) for _ in range(TRIES + 1)]
        return {
            "tries": examples[:-1],
            "example": examples[-1],
            "picks": shape["picks"],
            "sample": rng.randrange(3),
            # The session's second probe: the next Fig. 7 draw that trips
            # the fault, in the strata's fixed order.  Their syntheses
            # differ up to threefold in cost, so a seeded pick moved
            # synthesize_ms.p50 from seed to seed.
            "tripping": tripping[number % len(tripping)],
        }

    warmup = [session(number) for number in range(len(shapes))]
    rounds = [session(len(shapes) + number) for number in range(ROUNDS)]
    script = {
        "workload": args.workload,
        "seed": args.seed,
        "paths": paths,
        "measures": measures,
        "base_observations": base_count,
        "batches": batches,
        "warmup": warmup,
        "rounds": rounds,
        "same_level": probes["same-level"],
        "fig7": strata["counts"],
        "dashboard": (dashboard(cube, base, measures, config["dashboard_view"])
                      if config.get("dashboard_view") else None),
    }
    with open(os.path.join(args.out, "script.json"), "w", encoding="utf-8") as handle:
        json.dump(script, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
