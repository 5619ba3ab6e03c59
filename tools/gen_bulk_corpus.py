#!/usr/bin/env python3
"""Regenerates tests/corpus/bulk_import.dx (deterministic).

The bulk_import scenario is the corpus's parse-bound workload: a small
chase (one existential copy rule and one 2-atom join over E) riding on
top of ~24k bulk facts in Log* relations that no rule touches, so a run
pays the full text parse, tokenizing every bulk fact. bench_parse and
the warm-request rows of bench_fanout_setup time it. The file's header
comment (emitted below) still names the snapshot benchmark it was
written for; the benchmark pins the file's bytes, so the comment stays
until the pin moves. The chase itself is deliberately tiny,
so the indexed engine runs the file in tens of milliseconds. The generic
active-domain engine (--engine=generic) enumerates the domain of every
bulk fact and takes about a minute here, so the corpus-wide generic test
and CI legs skip this file; its golden pins it under the indexed engine.

Run from the repo root:  python3 tools/gen_bulk_corpus.py
"""

import random


def main():
    rng = random.Random(20080607)  # fixed seed: the corpus file is pinned

    lines = []
    emit = lines.append
    emit("# GENERATED by tools/gen_bulk_corpus.py -- do not hand-edit.")
    emit("#")
    emit("# Import-heavy snapshot workload: the Log* relations hold ~24k")
    emit("# facts no rule reads, so cold runs are parse-bound while warm")
    emit("# snapshot loads stream the same rows from the binary instances")
    emit("# section (see bench/bench_snapshot_load.cc).")
    emit("scenario 'bulk_import';")
    emit("")
    emit("schema src {")
    emit("  E(a, b);")
    for r in range(4):
        emit(f"  Log{r}(k, ts, payload);")
    emit("}")
    emit("")
    emit("schema tgt {")
    emit("  TE(a, b, tag);")
    emit("  Hop(a, c);")
    emit("}")
    emit("")
    emit("mapping M from src to tgt {")
    emit("  TE(x^cl, y^cl, z^op) :- E(x, y);")
    emit("  Hop(x^cl, w^cl)      :- E(x, y) & E(y, w);")
    emit("}")
    emit("")
    emit("instance S over src {")

    nodes = [f"n{i}" for i in range(60)]
    edges = set()
    while len(edges) < 120:
        edges.add((rng.choice(nodes), rng.choice(nodes)))
    for a, b in sorted(edges):
        emit(f"  E('{a}', '{b}');")

    # Bulk facts are all-integer and packed several per line: integers
    # lex without quote characters and fewer lines keep the line index
    # cheap, while the parse still tokenizes and interns every argument.
    # Bounded value ranges keep the constant table small, so the parse
    # cost lives in the facts.
    for r in range(4):
        row = []
        for i in range(6000):
            k = rng.randrange(800)
            ts = rng.randrange(1000)
            p = rng.randrange(40)
            row.append(f"Log{r}({k}, {ts}, {p});")
            if len(row) == 6:
                emit("  " + " ".join(row))
                row = []
        if row:
            emit("  " + " ".join(row))
    emit("}")
    emit("")
    emit("query hops(x, y) 'certain two-step reachability' {")
    emit("  Hop(x, y)")
    emit("}")
    emit("")
    emit("query tagged(x) 'sources with a tagged copy' {")
    emit("  exists y z. TE(x, y, z)")
    emit("}")
    emit("")

    with open("tests/corpus/bulk_import.dx", "w") as f:
        f.write("\n".join(lines))
    print(f"wrote tests/corpus/bulk_import.dx ({len(lines)} lines)")


if __name__ == "__main__":
    main()
