"""Planted-error self-test of the answer checker.

Usage: ``python3 perfbench/selftest.py`` (standard library only).

Builds a six-observation cube by hand, checks a correct group-by answer
(it must pass), then the same answer with one corrupted aggregate and
with a dropped group (both must be rejected).  It checks that the
containment test rejects a same-level example, the shape of the REOLAP
fault the benchmark counts, and holds an example after a roll-up; and
that a member restriction on a sliced-away level is refused rather than
read with SPARQL's cross-product join.
Exits 0 when the checker behaves, 1 when it lets a planted error through.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import (  # noqa: E402
    Cube, QueryFault, QuerySpec, check_result, holds_example, row_matches_example)

EX = "http://example.org/t/"
INT = "http://www.w3.org/2001/XMLSchema#integer"
TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
OBS = "http://purl.org/linked-data/cube#Observation"

# (country, year, value): Germany is in Europe, Chile in America.
OBSERVATIONS = [("de", "y1", 10), ("de", "y1", 5), ("de", "y2", 7),
                ("cl", "y1", 3), ("cl", "y2", 8), ("cl", "y2", 1)]
QUERY = f"""SELECT ?continent ?year (SUM(?m_v) AS ?sum_v) (MIN(?m_v) AS ?min_v) (MAX(?m_v) AS ?max_v) (AVG(?m_v) AS ?avg_v)
WHERE {{
  ?obs <{TYPE}> <{OBS}> .
  ?obs <{EX}country> ?country .
  ?country <{EX}in_continent> ?continent .
  ?obs <{EX}year> ?year .
  ?obs <{EX}v> ?m_v .
}}
GROUP BY ?continent ?year"""
BY_YEAR = f"""SELECT ?year (SUM(?m_v) AS ?sum_v)
WHERE {{
  ?obs <{TYPE}> <{OBS}> .
  ?obs <{EX}year> ?year .
  ?obs <{EX}v> ?m_v .
}}
GROUP BY ?year"""
# A slice on Germany that kept a VALUES restriction on ?country, which the
# query no longer navigates: SPARQL would join every row with every
# observation and count 2014 twice.
SLICED_WITH_VALUES = f"""SELECT ?year (SUM(?m_v) AS ?sum_v)
WHERE {{
  ?obs <{TYPE}> <{OBS}> .
  ?obs <{EX}country> <{EX}de> .
  ?obs <{EX}year> ?year .
  ?obs <{EX}v> ?m_v .
  VALUES (?country ?year) {{ (<{EX}de> <{EX}y1>) (<{EX}cl> <{EX}y1>) }}
}}
GROUP BY ?year"""


def cube_text() -> str:
    lines = [
        f'<{EX}de> <{LABEL}> "Germany" .', f'<{EX}cl> <{LABEL}> "Chile" .',
        f'<{EX}eu> <{LABEL}> "Europe" .', f'<{EX}am> <{LABEL}> "America" .',
        f'<{EX}y1> <{LABEL}> "2014" .', f'<{EX}y2> <{LABEL}> "2015" .',
        f"<{EX}de> <{EX}in_continent> <{EX}eu> .", f"<{EX}cl> <{EX}in_continent> <{EX}am> .",
    ]
    for index, (country, year, value) in enumerate(OBSERVATIONS):
        obs = f"<{EX}obs/{index}>"
        lines += [f"{obs} <{TYPE}> <{OBS}> .", f"{obs} <{EX}country> <{EX}{country}> .",
                  f"{obs} <{EX}year> <{EX}{year}> .", f'{obs} <{EX}v> "{value}"^^<{INT}> .']
    return "\n".join(lines) + "\n"


def answer() -> list[dict]:
    """The correct answer, worked out by hand."""
    rows = [("eu", "y1", 15, 5, 10, 7.5), ("eu", "y2", 7, 7, 7, 7.0),
            ("am", "y1", 3, 3, 3, 3.0), ("am", "y2", 9, 1, 8, 4.5)]
    return [{"continent": EX + c, "year": EX + y, "sum_v": str(s), "min_v": str(lo),
             "max_v": str(hi), "avg_v": str(avg)} for c, y, s, lo, hi, avg in rows]


def main() -> int:
    paths = [[EX + "country"], [EX + "country", EX + "in_continent"], [EX + "year"]]
    cube = Cube(paths)
    cube.load(cube_text())
    spec = QuerySpec(QUERY, {EX + "v"})
    ok = True
    clean = check_result(cube, spec, answer(), cube.observations)
    print(f"correct answer: {len(clean)} problems {clean}")
    ok &= not clean
    corrupted = answer()
    corrupted[3]["sum_v"] = "10"
    planted = check_result(cube, spec, corrupted, cube.observations)
    print(f"corrupted SUM: {len(planted)} problems {planted}")
    ok &= len(planted) == 1
    missing = check_result(cube, spec, answer()[:3], cube.observations)
    print(f"dropped group: {len(missing)} problems {missing}")
    ok &= len(missing) == 1
    by_year = QuerySpec(BY_YEAR, {EX + "v"})
    same_level = holds_example(cube, by_year, ("2014", "2015"), cube.observations)
    print(f"same-level example ('2014', '2015') held: {same_level}")
    ok &= not same_level
    together = holds_example(cube, spec, ("Europe", "2015"), cube.observations)
    print(f"example ('Europe', '2015') held: {together}")
    ok &= together
    try:
        QuerySpec(SLICED_WITH_VALUES, {EX + "v"})
        stray = "accepted"
    except QueryFault as fault:
        stray = f"rejected ({fault})"
    print(f"VALUES on a sliced-away level: {stray}")
    ok &= stray.startswith("rejected")
    by_continent = QuerySpec(QUERY.replace("?continent ?year", "?continent"), {EX + "v"})
    rolled = row_matches_example(cube, by_continent, {"continent": EX + "eu"}, ("Germany",))
    print(f"example ('Germany',) held by the Europe row after a roll-up: {rolled}")
    ok &= rolled
    print("self-test", "passed: the checker rejects the planted errors" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
