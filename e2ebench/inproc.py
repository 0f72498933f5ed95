"""The in-process workloads: ``connect()`` -> ``prepare`` -> ``AnswerSet``.

Both build their inputs and their whole operation script from the
seed before any clock starts, and the program sees only those inputs.
A script is a list of rounds; every round holds the same operations in
the same order, only their arguments come from the seed.
"""

from __future__ import annotations

import gc
import math
import random
import time
from bisect import bisect
from functools import partial
from itertools import combinations, permutations
from typing import Dict, List

from common import Ops, check, end_to_end, peak_rss_mb, rss_mb
from reference import Query, Reference

#: Cold starts per run; the run reports the median set-up and
#: first-answer times.
REPEATS = 3
PAGE = 20
FIRST_K = 10


def zipf_weights(n: int, s: float) -> List[float]:
    """Cumulative weights of a Zipf(s) law over ``n`` ranks."""
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += rank ** -s
        out.append(total)
    return out


def checkpoints(rounds: int) -> set:
    """Rounds after which every count is checked: the middle and the end."""
    return {rounds // 2, rounds - 1}


def check_page(ref: Reference, query: Query, order, rows, offset: int,
               count=None) -> None:
    """Rows are answers, strictly increasing in ``order``; with the
    reference ``count`` known, the page has ``min(PAGE, count - offset)`` rows."""
    positions = [query.head.index(v) for v in order]
    keys = [tuple(row[p] for p in positions) for row in rows]
    check(all(a < b for a, b in zip(keys, keys[1:])),
          f"page of {query.text()} at {offset} is not strictly increasing")
    for row in rows:
        check(ref.satisfies(query, row), f"{tuple(row)} is no answer of {query.text()}")
    if count is not None:
        want = max(0, min(PAGE, count - offset))
        check(len(rows) == want, f"page of {query.text()} at {offset}: {len(rows)} rows, want {want}")


def check_min_plus(ref: Reference, query: Query, value) -> None:
    want = 0 if ref.nonempty(query) else math.inf
    check(value == want, f"min-plus aggregate of {query.text()} is {value}, want {want}")


def settle(ref: Reference, queries) -> float:
    """Build the reference's indexes, then move every object made so far
    (inputs, script, reference) out of the collector's reach, so the
    program's collections do not scan the benchmark's own objects.

    Returns the resident memory then: ``peak_rss_mb`` is the peak above
    it, the memory of the program's work and not of the benchmark's."""
    for query in queries:
        ref.nonempty(query)
        ref.satisfies(query, [-1] * len(query.head))
    gc.collect()
    gc.freeze()
    return rss_mb()


def cold_start(connect, data, first_answers=None):
    """``connect(data)``, timed; then, if given, ``first_answers`` on the
    new session, timed too.  Returns the two times, the session and
    what ``first_answers`` returned."""
    gc.collect()
    start = time.perf_counter()
    session = connect(data)
    setup = time.perf_counter() - start
    if first_answers is None:
        return setup, None, session, None
    start = time.perf_counter()
    answered = first_answers(session)
    return setup, time.perf_counter() - start, session, answered


def sample_cold_start(connect, data, first_answers=None):
    """One more cold start, closed at once: its two times and what
    ``first_answers`` returned (plain values, holding no session)."""
    setup, first, session, answered = cold_start(connect, data, first_answers)
    session.close()
    return setup, first, answered


def cold_starts(connect, data, first_answers):
    """Set up and answer every query once, cold, REPEATS times.

    All but the last session are closed.  Returns the set-up times, the
    first-answer times, the last session and what its
    ``first_answers`` returned.  The scripts add one more cold start
    per round, off their clock, so the reported medians sample the
    whole run and not only its first seconds.
    """
    setups, firsts, session = [], [], None
    for _ in range(REPEATS):
        if session is not None:
            # The answer sets keep the structures alive; drop them too,
            # so only one session's memory is ever held.
            session.close()
            session = answered = None
        setup, first, session, answered = cold_start(connect, data, first_answers)
        setups.append(setup)
        firsts.append(first)
    return setups, firsts, session, answered


# ====================================================================== acyclic
CLICK_COUNT = Query(["u", "i", "c"], [("Click", ["u", "i"]), ("Item", ["i", "c"])])
CLICK_PAGE = Query(["c", "i", "u"], [("Item", ["i", "c"]), ("Click", ["u", "i"])])
CLICK_MIN = Query(["u", "i", "c", "d"],
                  [("Click", ["u", "i"]), ("Item", ["i", "c"]), ("Cat", ["c", "d"])])
STAR_FIRST = Query(["r", "u", "i"], [("Profile", ["u", "r"]), ("Click", ["u", "i"])])
REGION_DEPT = Query(["r", "d"], [("Profile", ["u", "r"]), ("Click", ["u", "i"]),
                                 ("Item", ["i", "c"]), ("Cat", ["c", "d"])])

ACYCLIC_SIZES = {
    "full": dict(users=20000, items=8000, cats=400, depts=20, regions=50, clicks=200000),
    "smoke": dict(users=300, items=120, cats=12, depts=4, regions=5, clicks=1500),
}
#: Rounds per second of ``--seconds``: 120 reads at 12 s.  A round
#: takes about 0.8 s on a 2-core host, so the script runs about 16 s.
ACYCLIC_ROUNDS_PER_S = 1.6
#: Read groups per round; each is preceded by one update burst.
ACYCLIC_GROUPS = 4
BURST = 20  # single-tuple updates per burst: 12 adds, 8 discards


def click_inputs(seed: int, size: Dict[str, int], rounds: int, burst: int):
    """A click/catalog chain, with a profile star when ``size`` has
    regions; Zipf-skewed items.  Returns the base data, ``rounds``
    bursts of ``burst`` click updates (``(op, row)``, two discards in
    five) and the generator, for the caller's own draws."""
    rng = random.Random(seed)
    items = list(range(size["items"]))
    rng.shuffle(items)  # item popularity rank -> item id
    cum = zipf_weights(size["items"], 1.1)

    def click():
        return (rng.randrange(size["users"]), items[bisect(cum, rng.random() * cum[-1])])

    clicks = set()
    while len(clicks) < size["clicks"]:
        clicks.add(click())
    data = {
        "Click": sorted(clicks),
        "Item": [(i, rng.randrange(size["cats"])) for i in range(size["items"])],
        "Cat": [(c, rng.randrange(size["depts"])) for c in range(size["cats"])],
    }
    if "regions" in size:
        data["Profile"] = [(u, rng.randrange(size["regions"])) for u in range(size["users"])]
    live = list(data["Click"])
    present = set(live)
    bursts = []
    for _ in range(rounds):
        ops = []
        for j in range(burst):
            if j % 5 in (1, 3):
                k = rng.randrange(len(live))
                row = live[k]
                live[k] = live[-1]
                live.pop()
                present.discard(row)
                ops.append(("discard", row))
            else:
                row = click()
                if row not in present:
                    present.add(row)
                    live.append(row)
                ops.append(("add", row))
        bursts.append(ops)
    return data, bursts, rng


def acyclic_inputs(seed: int, mode: str, rounds: int):
    size = ACYCLIC_SIZES[mode]
    data, bursts, rng = click_inputs(seed, size, rounds * ACYCLIC_GROUPS, BURST)
    script = [{
        "bursts": bursts[r * ACYCLIC_GROUPS:(r + 1) * ACYCLIC_GROUPS],
        "offsets": (rng.randrange(size["clicks"] * 9 // 10),
                    rng.randrange(size["clicks"] * 9 // 10)),
        "proj_offset": rng.randrange(size["regions"] * size["depts"] * 9 // 10),
    } for r in range(rounds)]
    return data, script


def run_acyclic(repro, seed: int, seconds: int, mode: str) -> Dict:
    from repro.semiring.semirings import MIN_PLUS

    rounds = max(2, math.ceil(seconds * ACYCLIC_ROUNDS_PER_S)) if mode == "full" else 3
    data, script = acyclic_inputs(seed, mode, rounds)
    ref = Reference(data)
    baseline = settle(ref, (CLICK_COUNT, CLICK_PAGE, CLICK_MIN, STAR_FIRST, REGION_DEPT))
    def first_answers(session):
        count_set = session.prepare(CLICK_COUNT.text()).run()
        page_set = session.prepare(CLICK_PAGE.text()).run()
        min_set = session.prepare(CLICK_MIN.text()).run()
        star_set = session.prepare(STAR_FIRST.text()).run()
        proj_set = session.prepare(REGION_DEPT.text()).run()
        firsts = (len(count_set), page_set.page(0, PAGE), min_set.aggregate(MIN_PLUS),
                  star_set.first(FIRST_K), proj_set.page(0, PAGE))
        return (count_set, page_set, min_set, star_set, proj_set), firsts

    setups, first_times, session, answered = cold_starts(repro.connect, data, first_answers)
    (count_set, page_set, min_set, star_set, proj_set), firsts = answered
    first_count, first_page, first_min, first_star, first_proj = firsts
    ops = Ops()

    total = ref.count(CLICK_COUNT)
    check(first_count == total, f"count {first_count}, want {total}")
    check_page(ref, CLICK_PAGE, page_set.plan.order, first_page, 0, total)
    check_min_plus(ref, CLICK_MIN, first_min)
    check(len(first_star) == ref.at_least(STAR_FIRST, FIRST_K), "first(k) is short")
    for row in first_star:
        check(ref.satisfies(STAR_FIRST, row), f"{row} is no answer of {STAR_FIRST.text()}")
    check_page(ref, REGION_DEPT, proj_set.plan.order, first_proj, 0)

    def update(burst_ops):
        def burst():
            for op, row in burst_ops:
                if op == "add":
                    session.add("Click", row)
                else:
                    session.discard("Click", row)
        ops.run("update", "write", burst)
        with ops.paused():
            for op, row in burst_ops:
                (ref.add if op == "add" else ref.discard)("Click", row)

    full_checks = checkpoints(rounds)
    script_start = time.perf_counter()
    for r, step in enumerate(script):
        # One burst before each read group, as in cyclic-adhoc: the
        # write samples spread over the whole round.
        bursts = iter(step["bursts"])
        full = r in full_checks

        update(next(bursts))
        with ops.paused():
            total = ref.count(CLICK_COUNT) if full else None
        n = ops.run("count", "read", lambda: len(count_set))
        with ops.paused():
            if full:
                check(n == total, f"round {r}: count {n}, want {total}")
        for offset in step["offsets"]:
            rows = ops.run("page", "read", lambda: page_set.page(offset, PAGE))
            with ops.paused():
                check_page(ref, CLICK_PAGE, page_set.plan.order, rows, offset, total)
        update(next(bursts))
        value = ops.run("aggregate", "read", lambda: min_set.aggregate(MIN_PLUS))
        with ops.paused():
            check_min_plus(ref, CLICK_MIN, value)
        update(next(bursts))
        rows = ops.run("first", "read", lambda: star_set.first(FIRST_K))
        with ops.paused():
            want = ref.at_least(STAR_FIRST, FIRST_K)
            check(len(rows) == want, f"round {r}: first({FIRST_K}) gave {len(rows)} rows, want {want}")
            for row in rows:
                check(ref.satisfies(STAR_FIRST, row), f"{row} is no answer of {STAR_FIRST.text()}")
        update(next(bursts))
        offset = step["proj_offset"]
        rows = ops.run("materialize", "read", lambda: proj_set.page(offset, PAGE))
        with ops.paused():
            check_page(ref, REGION_DEPT, proj_set.plan.order, rows, offset,
                       ref.count(REGION_DEPT) if r == rounds - 1 else None)
            # One more set-up, without first answers: here those take a
            # second each, and their structures would add to the peak.
            setups.append(sample_cold_start(repro.connect, data)[0])
    script_seconds = time.perf_counter() - script_start - ops.paused_seconds
    metrics = end_to_end(setups, first_times, ops, script_seconds, peak_rss_mb() - baseline)
    session.close()
    return {"metrics": metrics, "ops": ops, "rounds": rounds,
            "inputs": {k: len(v) for k, v in data.items()}}


# ======================================================================= cyclic
TRIANGLE = Query(["x", "y", "z"], [("E", ["x", "y"]), ("E", ["y", "z"]), ("E", ["z", "x"])])
TRIANGLE_VERTEX = Query(["x"], TRIANGLE.atoms)
FOUR_CYCLE = Query(["a", "b", "c", "d"], [("E", ["a", "b"]), ("E", ["b", "c"]),
                                          ("E", ["c", "d"]), ("E", ["d", "a"])])
FOUR_CLIQUE = Query(["a", "b", "c", "d"], [("E", ["a", "b"]), ("E", ["a", "c"]), ("E", ["a", "d"]),
                                           ("E", ["b", "c"]), ("E", ["b", "d"]), ("E", ["c", "d"])])

CYCLIC_SIZES = {
    "full": dict(vertices=8000, edges=12000, cliques=20),
    "smoke": dict(vertices=60, edges=90, cliques=2),
}
CYCLIC_ROUNDS_PER_S = 1.8
#: Query groups per round; each is preceded by one update burst.
CYCLIC_GROUPS = 4
EDGE_BURST = 10  # undirected edges added and as many discarded per burst


def cyclic_inputs(seed: int, mode: str, rounds: int):
    """An undirected random graph stored both ways, with planted 5-cliques."""
    size = CYCLIC_SIZES[mode]
    rng = random.Random(seed)
    n = size["vertices"]
    edges = set()

    def new_edge():
        while True:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and (min(a, b), max(a, b)) not in edges:
                return (min(a, b), max(a, b))

    while len(edges) < size["edges"]:
        edges.add(new_edge())
    cliques = [tuple(sorted(rng.sample(range(n), 5))) for _ in range(size["cliques"])]
    for clique in cliques:
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                edges.add((a, b))
    data = {"E": sorted(edges) + sorted((b, a) for a, b in edges)}
    # Planted edges are never discarded, so every planted 5-clique
    # stays for the 4-clique checks however long the run.
    planted = {(a, b) for clique in cliques for a, b in combinations(clique, 2)}
    live = sorted(edges - planted)

    def burst():
        ops = []
        for _ in range(EDGE_BURST):
            edge = new_edge()
            edges.add(edge)
            live.append(edge)
            ops.append(("add", edge))
        for _ in range(EDGE_BURST):
            k = rng.randrange(len(live))
            edge = live[k]
            live[k] = live[-1]
            live.pop()
            edges.discard(edge)
            ops.append(("discard", edge))
        return ops

    script = []
    for r in range(rounds):
        script.append({
            "bursts": [burst() for _ in range(CYCLIC_GROUPS)],
            # Odd rounds rename every variable, so their prepares miss
            # the plan cache; even rounds reuse the first names.
            "suffix": f"_{r}" if r % 2 else "",
            "tri_offsets": tuple(rng.randrange(20 * 60) for _ in range(3)),
            "vertex_offset": rng.randrange(size["cliques"] * 5),
            "clique_offset": rng.randrange(size["cliques"] * 5 * 24),
        })
    return data, cliques, script


def run_cyclic(repro, seed: int, seconds: int, mode: str) -> Dict:
    rounds = max(2, math.ceil(seconds * CYCLIC_ROUNDS_PER_S)) if mode == "full" else 4
    data, cliques, script = cyclic_inputs(seed, mode, rounds)
    ref = Reference(data)
    baseline = settle(ref, (TRIANGLE, FOUR_CYCLE, FOUR_CLIQUE))

    def first_answers(session):
        return [len(session.prepare(query.text()).run())
                for query in (TRIANGLE, TRIANGLE_VERTEX, FOUR_CYCLE, FOUR_CLIQUE)]

    # The graph is stored columnar: on the default python store every
    # single-tuple update also goes to a columnar mirror through the
    # shard executor's thread pool, and the thread wake-ups made the
    # write median swing 4-10 ms from run to run on a 2-core VM.
    connect = partial(repro.connect, backend="columnar")
    setups, first_times, session, firsts = cold_starts(connect, data, first_answers)
    check(firsts[0] == ref.triangles("E"), "first triangle count is wrong")
    check(firsts[1] == len(ref.triangle_vertices("E")), "first triangle projection is wrong")
    check(firsts[2] == ref.four_cycles("E"), "first 4-cycle count is wrong")
    check(firsts[3] == ref.four_cliques("E"), "first 4-clique count is wrong")
    ops = Ops()

    def prepare(query: Query, suffix: str):
        q = query.renamed(suffix) if suffix else query
        return q, session.prepare(q.text()).run()

    def update(ops_list):
        def burst():
            for op, (a, b) in ops_list:
                if op == "add":
                    session.add("E", (a, b))
                    session.add("E", (b, a))
                else:
                    session.discard("E", (a, b))
                    session.discard("E", (b, a))
        ops.run("update", "write", burst)
        with ops.paused():
            for op, (a, b) in ops_list:
                apply = ref.add if op == "add" else ref.discard
                apply("E", (a, b))
                apply("E", (b, a))

    full_checks = checkpoints(rounds)
    script_start = time.perf_counter()
    for r, step in enumerate(script):
        # One burst before each query group: the write samples spread
        # over the whole round, so their median does not hang on the
        # host's speed at one instant of it.
        bursts = iter(step["bursts"])
        full = r in full_checks
        suffix = step["suffix"]

        update(next(bursts))
        with ops.paused():
            triangles = ref.triangles("E") if full else None
        tri, tri_set = ops.run("prepare", None, lambda: prepare(TRIANGLE, suffix))
        n = ops.run("count", "read", lambda: len(tri_set))
        with ops.paused():
            if full:
                check(n == triangles, f"round {r}: {n} triangles, want {triangles}")
        # Later pages are served from the materialization the first
        # one built.  With seven reads a round (two of them such pages)
        # the read median falls inside the count/first-page class; with
        # six, exactly half the reads would be that class or cheaper and
        # the median would sit on the gap to the projection reads.
        for offset in step["tri_offsets"]:
            rows = ops.run("page", "read", lambda: tri_set.page(offset, PAGE))
            with ops.paused():
                check_page(ref, tri, tri_set.plan.order, rows, offset, triangles)

        update(next(bursts))
        vtx, vtx_set = ops.run("prepare", None, lambda: prepare(TRIANGLE_VERTEX, suffix))
        offset = step["vertex_offset"]
        rows = ops.run("materialize", "read", lambda: vtx_set.page(offset, PAGE))
        with ops.paused():
            check_page(ref, vtx, vtx_set.plan.order, rows, offset,
                       len(ref.triangle_vertices("E")) if full else None)

        update(next(bursts))
        _, cyc_set = ops.run("prepare", None, lambda: prepare(FOUR_CYCLE, suffix))
        n = ops.run("count", "read", lambda: len(cyc_set))
        with ops.paused():
            if full:
                want = ref.four_cycles("E")
                check(n == want, f"round {r}: {n} 4-cycles, want {want}")

        update(next(bursts))
        k4, k4_set = ops.run("prepare", None, lambda: prepare(FOUR_CLIQUE, suffix))
        offset = step["clique_offset"]
        rows = ops.run("page", "read", lambda: k4_set.page(offset, PAGE))
        with ops.paused():
            for row in rows:
                check(len(set(row)) == 4 and ref.is_clique("E", row), f"{row} is no 4-clique")
            if full:
                check_clique_answers(ref, k4, k4_set, rows, offset, cliques)
            setup, first, answered = sample_cold_start(connect, data, first_answers)
            check(answered == firsts, f"round {r}: a cold start on the base data answered {answered}")
            setups.append(setup)
            first_times.append(first)
    script_seconds = time.perf_counter() - script_start - ops.paused_seconds
    metrics = end_to_end(setups, first_times, ops, script_seconds, peak_rss_mb() - baseline)
    session.close()
    return {"metrics": metrics, "ops": ops, "rounds": rounds,
            "inputs": {"E": len(data["E"]), "planted_5_cliques": len(cliques)}}


def check_clique_answers(ref: Reference, query: Query, answers, rows, offset, cliques) -> None:
    """Off the clock: the count, the page length, and every ordered
    4-subset of each planted 5-clique whose edges are all present."""
    want = ref.four_cliques("E")
    n = len(answers)
    check(n == want, f"{n} 4-clique answers, want {want}")
    check_page(ref, query, answers.plan.order, rows, offset, want)
    everything = set(map(tuple, answers.page(0, n)))
    for clique in cliques:
        if not ref.is_clique("E", clique):
            continue
        for subset in combinations(clique, 4):
            for ordered in permutations(subset):
                check(ordered in everything, f"4-clique {ordered} of a planted 5-clique is missing")
