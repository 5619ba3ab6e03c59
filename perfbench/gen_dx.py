#!/usr/bin/env python3
"""Seeded generator for the benchmark's `.dx` workload families.

A file is a function of (family, seed, index) alone. Its structure (the
graph's edges, fact counts, value repetitions, null counts, query shapes)
comes from a random stream seeded by (family, index) only; the seed picks
the names, values and fact order laid over that structure. Runs on
different seeds therefore parse, chase and enumerate the same amount of
work, and the same seed always gives byte-identical files.

  ingest     parse-bound: bulk Log* facts no rule reads, a small graph
  exchange   chase/render-bound: a large source graph, positive queries
  enumerate  enumeration-bound: all-closed and #op = 1 mappings over 4-5
             source facts, non-positive queries, membership, composition

Each family also has a `small` variant, sized for the literal
active-domain engine (`ocdx --engine=generic`), which the benchmark uses
as an independent oracle for the family's shapes.

Usage:  python3 perfbench/gen_dx.py FAMILY SEED OUT_DIR [--small]
"""

import os
import random
import sys

# Fixed sizes. run.py's timing budget depends on them; change them only
# in a change that redefines the benchmark.
INGEST_FILES = 6
INGEST_LOG_FACTS = 5000  # per Log relation, 4 relations per file
EXCHANGE_FILES = 8
EXCHANGE_NODES = 600
EXCHANGE_OUT_DEGREE = 4
ENUMERATE_SMALL_FILES = 12  # 4 source facts
ENUMERATE_LARGE_FILES = 4  # 5 source facts

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _streams(family, seed, index):
    """(structure, naming) random streams. Seeding from a string is stable
    across processes (no hash randomization)."""
    return (random.Random(f"{family}:structure:{index}"),
            random.Random(f"{family}:{seed}:{index}"))


def _names(rng, count, n):
    """`count` distinct lowercase words of length `n`."""
    seen = set()
    while len(seen) < count:
        seen.add("".join(rng.choice(_LETTERS) for _ in range(n)))
    out = sorted(seen)
    rng.shuffle(out)
    return out


def _probe(names):
    """A tiny all-closed sigma/delta pair with a membership candidate, an
    annotated RepA table, a composition target and one forall-query, so
    that every engine layer does a little work in every family."""
    a, b, c, d, e = _names(names, 5, 4)
    return f"""
schema pa {{ Pa(x, y); }}
schema pb {{ Pb(x, y); }}
schema pc {{ Pc(x); }}

mapping Psig from pa to pb [default cl] {{
  Pb(x^cl, z^cl) :- Pa(x, y);
}}

mapping Pdel from pb to pc [default cl] {{
  Pc(x^cl) :- exists z. Pb(x, z);
}}

instance Ps over pa {{
  Pa('{a}', '{b}');
  Pa('{c}', '{d}');
}}

instance Pt over pb {{
  Pb('{a}', '{e}');
  Pb('{c}', '{e}');
}}

instance Pr over pb {{
  Pb('{a}'^cl, _u1^op);
}}

instance Pw over pc {{
  Pc('{a}');
  Pc('{c}');
}}

query p_functional() 'every x has at most one y' {{
  forall x y1 y2. (Pb(x, y1) & Pb(x, y2)) -> y1 = y2
}}
"""


def _edges(structure, n, count):
    edges = set()
    while len(edges) < count:
        edges.add((structure.randrange(n), structure.randrange(n)))
    return sorted(edges)


def ingest(seed, index, small=False):
    structure, names = _streams("ingest", seed, index)
    n = 12 if small else 60
    log_facts = 6 if small else INGEST_LOG_FACTS
    edges = _edges(structure, n, 16 if small else 120)
    node = [f"n{w}" for w in _names(names, n, 5)]
    payload = _names(names, 4 if small else 400, 8)
    k_shift, ts_shift = names.randrange(9000), names.randrange(900000)
    out = [f"scenario 'ingest_{index}';", "", "schema src {", "  E(a, b);"]
    out += [f"  Log{r}(k, ts, payload);" for r in range(4)]
    out += ["}", "", "schema tgt {", "  TE(a, b, tag);", "  Hop(a, c);",
            "  Sink(a);", "}", "",
            "mapping Mcl from src to tgt {",
            "  TE(x^cl, y^cl, z^op) :- E(x, y);",
            "  Hop(x^cl, w^cl) :- E(x, y) & E(y, w);", "}", "",
            "mapping Mop from src to tgt [default op] {",
            "  TE(x, y, z) :- E(x, y);",
            "  Hop(x, w) :- E(x, y) & E(y, w);", "}", "",
            "mapping Mgd from src to tgt {",
            "  Sink(x^cl) :- E(y, x) & !exists z. E(x, z);", "}", "",
            "instance S over src {"]
    names.shuffle(edges)
    out += [f"  E('{node[a]}', '{node[b]}');" for a, b in edges]
    for r in range(4):
        row = []
        for _ in range(log_facts):
            k = 1000 + (structure.randrange(9000) + k_shift) % 9000
            ts = 100000 + (structure.randrange(900000) + ts_shift) % 900000
            p = payload[structure.randrange(len(payload))]
            row.append(f"Log{r}({k}, {ts}, '{p}');")
            if len(row) == 4:
                out.append("  " + " ".join(row))
                row = []
        if row:
            out.append("  " + " ".join(row))
    out += ["}", "",
            "query hops(x, y) 'certain two-step reachability' {",
            "  Hop(x, y)", "}", "",
            "query sinks(x) 'nodes reached but never left' {", "  Sink(x)",
            "}"]
    return "\n".join(out) + "\n" + _probe(names)


def exchange(seed, index, small=False):
    structure, names = _streams("exchange", seed, index)
    n = 12 if small else EXCHANGE_NODES
    degree = 2 if small else EXCHANGE_OUT_DEGREE
    sinks = set(structure.sample(range(n), n // 10))
    edges = [(x, y) for x in range(n) if x not in sinks
             for y in structure.sample(range(n), degree)]
    colour_of = [structure.randrange(4) for _ in range(n)]
    node = [f"v{w}" for w in _names(names, n, 5)]
    colours = _names(names, 4, 5)
    names.shuffle(edges)
    labelled = list(range(n))
    names.shuffle(labelled)
    first, second = colours[0], colours[1]
    out = [f"scenario 'exchange_{index}';", "",
           "schema src { E(a, b); Label(n, l); }", "",
           "schema tgt { T(a, b, z); Hop(a, c); Lab(n, l); Sink(n); }", "",
           "mapping M from src to tgt {",
           "  T(x^cl, y^cl, z^op) :- E(x, y);",
           "  Hop(x^cl, w^cl) :- E(x, y) & E(y, w);",
           "  Lab(n^cl, l^cl) :- Label(n, l);",
           "  Sink(n^cl) :- Label(n, l) & !exists y. E(n, y);", "}", "",
           "instance S over src {"]
    out += [f"  E('{node[a]}', '{node[b]}');" for a, b in edges]
    out += [f"  Label('{node[v]}', '{colours[colour_of[v]]}');"
            for v in labelled]
    out += ["}", "",
            f"query hop_to_{first}(x, w) 'two-step hops into one colour' {{",
            f"  Hop(x, w) & Lab(w, '{first}')", "}", "",
            "query same_colour_hop(x) 'a hop between equal labels' {",
            "  exists w l. Hop(x, w) & Lab(w, l) & Lab(x, l)", "}", "",
            f"query edge_into_{second}(x, y) 'copied edges into a colour' {{",
            f"  exists z. T(x, y, z) & Lab(y, '{second}')", "}", "",
            "query feeds_sink(x) 'an edge into a sink' {",
            "  exists y z. T(x, y, z) & Sink(y)", "}"]
    return "\n".join(out) + "\n" + _probe(names)


def enumerate_(seed, index, small=False):
    _, names = _streams("enumerate", seed, index)
    facts = 3 if small else (4 if index < ENUMERATE_SMALL_FILES else 5)
    people = _names(names, facts + 1, 4)
    depts = _names(names, 3, 3)
    office = _names(names, 1, 3)[0]
    staff, stranger = people[:facts], people[facts]
    out = [f"scenario 'enumerate_{index}';", "",
           "schema src { Emp(name, dept); }",
           "schema tgt { Assign(name, office); }",
           "schema out { Listed(name); }", "",
           "mapping Mcl from src to tgt [default cl] {",
           "  Assign(x^cl, o^cl) :- Emp(x, d);", "}", "",
           "mapping Mop1 from src to tgt [default cl] {",
           "  Assign(x^cl, o^op) :- Emp(x, d);", "}", "",
           "mapping Del from tgt to out [default cl] {",
           "  Listed(x^cl) :- exists o. Assign(x, o);", "}", "",
           "instance S over src {"]
    out += [f"  Emp('{p}', '{depts[i % 3]}');" for i, p in enumerate(staff)]
    out += ["}", "", "instance Tone over tgt {"]
    out += [f"  Assign('{p}', '{office}');" for p in staff]
    out += ["}", "", "instance Textra over tgt {"]
    out += [f"  Assign('{p}', '{office}');" for p in staff + [stranger]]
    out += ["}", "",
            "instance Ahalf over tgt {",
            f"  Assign('{staff[0]}'^cl, _u1^op);",
            f"  Assign(_u2^cl, '{office}'^cl);", "}", "",
            "instance W over out {"]
    out += [f"  Listed('{p}');" for p in staff]
    out += ["}", "",
            "query someone_assigned() 'somebody certainly has an office' {",
            "  exists x o. Assign(x, o)", "}", "",
            "query unique_office() 'every employee has at most one office' {",
            "  forall x o1 o2. (Assign(x, o1) & Assign(x, o2)) -> o1 = o2",
            "}", "",
            "query shared_office() 'two employees share an office' {",
            "  exists x y o. Assign(x, o) & Assign(y, o) & x != y", "}", "",
            "query lonely_office() 'someone has an office of their own' {",
            "  exists x o. Assign(x, o) & !(exists y. Assign(y, o) & !(y = x))",
            "}"]
    return "\n".join(out) + "\n"


FAMILIES = {
    "ingest": (ingest, INGEST_FILES),
    "exchange": (exchange, EXCHANGE_FILES),
    "enumerate": (enumerate_, ENUMERATE_SMALL_FILES + ENUMERATE_LARGE_FILES),
}


def generate(family, seed, small=False):
    """Returns [(file name, text)] for one family, in a fixed order."""
    make, count = FAMILIES[family]
    if small:
        return [(f"{family}_small.dx", make(seed, 0, small=True))]
    return [(f"{family}_{i:02d}.dx", make(seed, i)) for i in range(count)]


def main(argv):
    if len(argv) not in (4, 5) or argv[1] not in FAMILIES or (
            len(argv) == 5 and argv[4] != "--small"):
        sys.stderr.write(__doc__)
        return 2
    os.makedirs(argv[3], exist_ok=True)
    for name, text in generate(argv[1], int(argv[2]), len(argv) == 5):
        with open(os.path.join(argv[3], name), "w") as f:
            f.write(text)
        print(os.path.join(argv[3], name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
