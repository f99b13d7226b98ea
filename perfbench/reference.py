"""Independent reference model of a generated cube, and the answer checks.

The model is built from the N-Triples the preparation step writes, with
its own parser and plain dictionaries; it shares no code with the store,
the SPARQL engine or REOLAP.  It answers the questions the benchmark
asks of the program's outputs:

* the SUM/MIN/MAX/AVG group-by of an executed query.  The query text is
  read only for its level paths, slices, member restrictions, measure
  and aggregates (:class:`QuerySpec`); the model gives them their meaning
  itself: an observation contributes once to the group of the members it
  reaches, if those members satisfy every slice and restriction.  A
  restriction on a level the query does not navigate is a fault of the
  query (:class:`QueryFault`), whatever SPARQL would make of it;
* whether a query's result holds a row matching an example tuple;
* the observation count and per-level member counts of a store state.

Only the standard library is used, so the model runs in processes that
never import the program.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import defaultdict

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
OBSERVATION = "http://purl.org/linked-data/cube#Observation"

_LINE = re.compile(r'^<([^>]*)> <([^>]*)> (?:<([^>]*)>|"((?:[^"\\]|\\.)*)"(?:\^\^<([^>]*)>|@[\w-]+)?) \.$')
_NUMERIC_TYPES = ("integer", "int", "long", "decimal", "double", "float")


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return text.encode("latin-1", "backslashreplace").decode("unicode_escape")


class Cube:
    """Plain-dictionary view of the triples that reached the store."""

    def __init__(self, paths: list[list[str]]):
        self.paths = [tuple(path) for path in paths]
        self.links: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
        self.numbers: dict[str, dict[str, float]] = defaultdict(dict)
        self.labels: dict[str, str] = {}
        self.observations: list[str] = []
        self._reach: dict[tuple[str, tuple[str, ...]], tuple[str, ...]] = {}
        self._members_at: dict[tuple[tuple[str, ...], int], set[str]] = {}
        self._by_label: dict[str, list[str]] | None = None
        self._held_by: dict[str, set[str]] = {}
        # (predicate, object) -> subjects, built on first use after a load.
        self._subjects: dict[tuple[str, str], set[str]] | None = None

    def load(self, text: str) -> list[str]:
        """Add an N-Triples document; returns the observations it added."""
        added = []
        for line in text.splitlines():
            if not line:
                continue
            match = _LINE.match(line)
            if match is None:
                raise ValueError(f"unparsable N-Triples line: {line[:120]!r}")
            subject, predicate, iri, lexical, datatype = match.groups()
            if iri is not None:
                if predicate == RDF_TYPE:
                    if iri == OBSERVATION:
                        added.append(subject)
                    continue
                self.links[subject][predicate].append(iri)
            elif predicate == RDFS_LABEL:
                self.labels[subject] = _unescape(lexical)
            elif datatype and datatype.rsplit("#", 1)[-1] in _NUMERIC_TYPES:
                self.numbers[subject][predicate] = float(lexical)
        self.observations.extend(added)
        self._subjects = None
        return added

    # -- navigation ------------------------------------------------------

    def reach(self, node: str, path: tuple[str, ...]) -> tuple[str, ...]:
        """Members reached from ``node`` along ``path`` (several for M-to-N)."""
        key = (node, path)
        cached = self._reach.get(key)
        if cached is None:
            frontier = [node]
            for predicate in path:
                frontier = [o for s in frontier for o in self.links.get(s, {}).get(predicate, ())]
            cached = self._reach[key] = tuple(sorted(set(frontier)))
        return cached

    def sliced(self, spec: "QuerySpec", observations: list[str]) -> list[str]:
        """The observations that carry every slice the query puts on
        ``?obs`` itself; no other observation has a binding."""
        slices = [(p, o) for s, p, o, constant in spec.patterns if constant and s == "obs"]
        if not slices:
            return observations
        if self._subjects is None:
            self._subjects = defaultdict(set)
            for subject, links in self.links.items():
                for predicate, targets in links.items():
                    for target in targets:
                        self._subjects[(predicate, target)].add(subject)
        kept = set.intersection(*(self._subjects.get(key, set()) for key in slices))
        return [obs for obs in observations if obs in kept]

    def members_at(self, path: tuple[str, ...], observations: list[str]) -> set[str]:
        """Distinct members the observations reach through ``path``.

        ``observations`` is always a prefix of :attr:`observations` (the
        store only grows), so its length identifies it.
        """
        key = (path, len(observations))
        found = self._members_at.get(key)
        if found is None:
            found = self._members_at[key] = {
                m for obs in observations for m in self.reach(obs, path)}
        return found

    def level_members(self, observations: list[str]) -> dict[tuple[str, ...], int]:
        """Distinct members reachable from the observations, per level path."""
        return {path: len(self.members_at(path, observations)) for path in self.paths}

    def readings(self, label: str, observations: list[str]) -> list[tuple[tuple[str, ...], str]]:
        """Every (level path, member) a keyword can be read as.

        A reading is a member carrying the label that some observation
        reaches through the level's path, as Section 5.1 defines it.
        """
        if self._by_label is None:
            self._by_label = defaultdict(list)
            for iri, text in self.labels.items():
                self._by_label[text].append(iri)
        found = []
        for path in self.paths:
            reached = self.members_at(path, observations)
            found.extend((path, m) for m in self._by_label.get(label, ()) if m in reached)
        return sorted(found)

    def held_by(self, label: str) -> set[str]:
        """Members that stand for a label: those carrying it and every
        member they roll up to, through any number of steps."""
        found = self._held_by.get(label)
        if found is None:
            self.readings("", [])  # builds the label index
            found = set(self._by_label.get(label, ()))
            frontier = list(found)
            while frontier:
                member = frontier.pop()
                for targets in self.links.get(member, {}).values():
                    for target in targets:
                        if target not in found:
                            found.add(target)
                            frontier.append(target)
            self._held_by[label] = found
        return found

    def combination_has_row(self, combination, observations: list[str]) -> bool:
        """Would the group-by over these readings' levels hold the example?

        One result row carries one member per grouped level, so two
        readings at the same level with different members never share a
        row; otherwise some observation must reach every reading.
        """
        by_path: dict[tuple[str, ...], set[str]] = defaultdict(set)
        for path, member in combination:
            by_path[path].add(member)
        if any(len(members) > 1 for members in by_path.values()):
            return False
        return any(
            all(member in self.reach(obs, path) for path, member in combination)
            for obs in observations
        )

    def consistent_combinations(self, example: tuple[str, ...], observations: list[str]):
        """Reading combinations REOLAP would turn into candidates.

        Mirrors the paper's consistency rule: readings from one dimension
        must sit at the same level.  Duplicate combinations are dropped.
        """
        per_label = [self.readings(label, observations) for label in example]
        seen = set()
        for combination in itertools.product(*per_label):
            levels: dict[str, tuple[str, ...]] = {}
            if any(levels.setdefault(p[0], p) != p for p, _m in combination):
                continue
            key = tuple(sorted(combination))
            if key not in seen:
                seen.add(key)
                yield combination

    # -- group-by ----------------------------------------------------------

    def group_by(self, spec: "QuerySpec", observations: list[str]) -> dict[tuple, dict[str, float]]:
        """Reference answer of a parsed query: group key -> aggregates.

        Each observation is navigated along the query's level paths; one
        navigation is one contribution of its measure to the group of the
        members it reaches.  It counts once if its members satisfy every
        slice and every member restriction, and not at all otherwise.
        """
        groups: dict[tuple, list[float]] = defaultdict(list)
        for obs in self.sliced(spec, observations):
            for binding in self._bindings(spec, obs):
                if spec.admits(binding):
                    key = tuple(binding.get(v) for v in spec.group)
                    groups[key].append(binding[spec.measure_var])
        answer = {}
        for key, numbers in groups.items():
            answer[key] = {
                alias: _aggregate(func, numbers) for alias, (func, _var) in spec.aggregates.items()
            }
        return answer

    def _bindings(self, spec: "QuerySpec", obs: str) -> list[dict]:
        """The observation's members at every level the query navigates.

        Levels are walked as a tree from the observation (a level under
        another shares its members' path), so an M-to-N step yields one
        binding per member reached.  Slices are checked on the way.
        """
        bindings = [{"obs": obs}]
        for subject, predicate, obj, constant in spec.patterns:
            extended = []
            for binding in bindings:
                node = binding[subject]
                if predicate in spec.measure_predicates:
                    number = self.numbers.get(node, {}).get(predicate)
                    if number is not None:
                        extended.append({**binding, obj: number})
                    continue
                for target in self.links.get(node, {}).get(predicate, ()):
                    if constant:
                        if target == obj:
                            extended.append(binding)
                    else:
                        extended.append({**binding, obj: target})
            bindings = extended
            if not bindings:
                break
        return bindings


def _aggregate(func: str, numbers: list[float]) -> float:
    if func == "SUM":
        return math.fsum(numbers)
    if func == "MIN":
        return min(numbers)
    if func == "MAX":
        return max(numbers)
    if func == "AVG":
        return math.fsum(numbers) / len(numbers)
    if func == "COUNT":
        return float(len(numbers))
    raise ValueError(f"unsupported aggregate {func}")


# -- reading the program's query text ---------------------------------------

_PATTERN = re.compile(r"^\s*\?(\w+) <([^>]+)> (?:\?(\w+)|<([^>]+)>) \.\s*$")
_AGGREGATE = re.compile(r"\((SUM|MIN|MAX|AVG|COUNT)\(\?(\w+)\) AS \?(\w+)\)")
_GROUP = re.compile(r"GROUP BY((?: \?\w+)+)")
_VALUES = re.compile(r"VALUES \(([^)]*)\) \{(.*?)\}\s*$")
_VALUES_ROW = re.compile(r"\(([^()]*)\)")


class QueryFault(ValueError):
    """The query text does not describe a group-by over level paths.

    Raised for a shape the reference has no meaning for, such as a member
    restriction on a level the query does not navigate; the program
    emitted it, so the answer it returns for it counts as wrong.
    """


class QuerySpec:
    """A generated group-by query, read as level paths and restrictions.

    The text is read for its parts only: the level paths navigated from
    ``?obs`` (a tree of triple patterns), slices (a path ending in a fixed
    member), member restrictions (``VALUES``: the allowed combinations of
    members at some navigated levels), the measure, the aggregates and
    the grouped levels.  :meth:`Cube.group_by` gives them their meaning.
    """

    def __init__(self, text: str, measure_predicates: set[str]):
        self.text = text
        self.measure_predicates = measure_predicates
        self.patterns: list[tuple[str, str, str, bool]] = []
        values: list[tuple[list[str], list[list[str]]]] = []
        self.measure_var = None
        #: Variable -> the predicates leading to it from ``?obs``.
        self.paths: dict[str, tuple[str, ...]] = {"obs": ()}
        navigated = {"obs"}
        for line in text.splitlines():
            found = _VALUES.search(line)
            if found:
                variables = [v.strip()[1:] for v in found.group(1).split()]
                rows = [
                    [cell.strip()[1:-1] for cell in row.split()]
                    for row in _VALUES_ROW.findall(found.group(2))
                ]
                values.append((variables, rows))
                continue
            pattern = _PATTERN.match(line)
            if pattern is None:
                continue
            subject, predicate, var, iri = pattern.groups()
            if predicate == RDF_TYPE:
                continue
            if subject not in navigated or var in navigated:
                raise QueryFault(f"?{subject} <{predicate}> is not a step of a level path")
            if var is not None:
                navigated.add(var)
                self.paths[var] = self.paths[subject] + (predicate,)
            if predicate in measure_predicates:
                self.measure_var = var
            self.patterns.append((subject, predicate, var or iri, var is None))
        self.aggregates = {alias: (func, var) for func, var, alias in _AGGREGATE.findall(text)}
        group = _GROUP.search(text)
        self.group = [v[1:] for v in group.group(1).split()] if group else []
        if self.measure_var is None or not self.aggregates or not self.group:
            raise QueryFault("not a group-by query over one measure")
        # A slice on the observation itself is tested first: it drops most
        # observations before their levels are navigated.
        self.patterns.sort(key=lambda p: not (p[3] and p[0] == "obs"))
        #: (variables, allowed member combinations) per VALUES clause.
        self.restrictions: list[tuple[tuple[str, ...], set[tuple[str, ...]]]] = []
        for variables, rows in values:
            stray = [v for v in variables if v not in navigated]
            if stray:
                raise QueryFault(
                    f"VALUES restricts ?{', ?'.join(stray)}, a level the query does not navigate")
            self.restrictions.append((tuple(variables), {tuple(row) for row in rows}))
        #: Constant members the query slices on.
        self.slice_members = {obj for _s, _p, obj, constant in self.patterns if constant}
        self.filtered = ("HAVING" in text or "FILTER" in text or "LIMIT" in text
                         or bool(self.restrictions))

    def admits(self, binding: dict) -> bool:
        """Do a navigation's members satisfy every member restriction?"""
        return all(tuple(binding[v] for v in variables) in allowed
                   for variables, allowed in self.restrictions)

    def unsliced(self, cube: "Cube", example: tuple[str, ...]) -> tuple[str, ...]:
        """The example values a result row must carry: a sliced-away value
        is held by the slice member itself (see :meth:`Cube.held_by`)."""
        return tuple(v for v in example if not self.slice_members & cube.held_by(v))


def check_result(cube: Cube, spec: QuerySpec, rows: list[dict], observations: list[str]) -> list[str]:
    """Compare one executed result with the reference; returns problems.

    Every returned row must be a reference group with equal aggregates.
    Rows can only be dropped by HAVING, FILTER, VALUES or LIMIT, so a
    query without them must return every reference group.
    """
    expected = cube.group_by(spec, observations)
    problems = []
    seen = set()
    for row in rows:
        key = tuple(row.get(v) for v in spec.group)
        seen.add(key)
        reference = expected.get(key)
        if reference is None:
            problems.append(f"row {key} is not a group of the reference")
            continue
        for alias, value in reference.items():
            got = row.get(alias)
            if got is None or not math.isclose(float(got), value, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"row {key}: {alias} = {got}, reference {value}")
    if len(seen) != len(rows):
        problems.append("duplicate group rows")
    if not spec.filtered and len(seen) != len(expected):
        problems.append(f"{len(seen)} groups returned, reference has {len(expected)}")
    return problems


def row_matches_example(cube: Cube, spec: QuerySpec, row: dict, example: tuple[str, ...]) -> bool:
    """Does one result row carry every example value on distinct columns?

    A column carries a value when its member has that label, or when a
    member with that label rolls up to it (the example after a roll-up).
    """
    members = [row.get(v) for v in spec.group]
    for columns in itertools.permutations(range(len(members)), len(example)):
        if all(members[c] in cube.held_by(value) for c, value in zip(columns, example)):
            return True
    return False


def holds_example(cube: Cube, spec: QuerySpec, example: tuple[str, ...], observations: list[str]) -> bool:
    """Does the reference answer of a query hold a row matching the example?

    Stops at the first observation whose navigation forms a matching row.
    """
    remaining = spec.unsliced(cube, example)
    holders = [cube.held_by(value) for value in remaining]
    paths = [spec.paths[v] for v in spec.group if v in spec.paths]
    for obs in cube.sliced(spec, observations):
        # A row holds a value only if a grouped level reaches its holder.
        if not all(any(not held.isdisjoint(cube.reach(obs, path)) for path in paths)
                   for held in holders):
            continue
        for binding in cube._bindings(spec, obs):
            members = {binding.get(v) for v in spec.group}
            if all(members & held for held in holders) and spec.admits(binding) \
                    and row_matches_example(cube, spec, binding, remaining):
                return True
    return False
