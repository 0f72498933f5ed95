"""An independent reference for the front-door benchmark's checks.

It shares no code with ``src/``: relations are Python sets, joins are
dictionary-indexed backtracking searches, and triangle, 4-cycle and
4-clique figures come from neighbour sets.  The reference tracks every
tuple the benchmark sends, so at any point of a script it describes
the data the program should hold.

A query is a :class:`Query`: a head (a tuple of variable names) and a
body of ``(relation, variables)`` atoms.  ``Query.text()`` renders the
datalog form the program parses.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Row = Tuple[int, ...]


class Query:
    """A conjunctive query as plain data: a head and a body of atoms."""

    def __init__(self, head: Sequence[str], atoms: Sequence[Tuple[str, Sequence[str]]]):
        self.head = tuple(head)
        self.atoms = tuple((rel, tuple(vs)) for rel, vs in atoms)

    def text(self) -> str:
        body = ", ".join(f"{rel}({', '.join(vs)})" for rel, vs in self.atoms)
        return f"q({', '.join(self.head)}) :- {body}"

    def renamed(self, suffix: str) -> "Query":
        """The same query with every variable renamed ``v`` -> ``v+suffix``."""
        return Query(
            [v + suffix for v in self.head],
            [(rel, [v + suffix for v in vs]) for rel, vs in self.atoms],
        )

    def variables(self) -> List[str]:
        seen: List[str] = []
        for _, vs in self.atoms:
            for v in vs:
                if v not in seen:
                    seen.append(v)
        return seen


class Reference:
    """Relations as sets, with hash indexes kept up to date."""

    def __init__(self, data: Dict[str, Iterable[Row]]):
        self.rels: Dict[str, Set[Row]] = {
            name: set(map(tuple, rows)) for name, rows in data.items()
        }
        # (relation, bound positions) -> key -> set of rows
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Dict[Row, Set[Row]]] = {}

    # -------------------------------------------------------------- updates
    def add(self, name: str, row: Sequence[int]) -> None:
        row = tuple(row)
        rows = self.rels.setdefault(name, set())
        if row in rows:
            return
        rows.add(row)
        for (rel, pos), index in self._indexes.items():
            if rel == name:
                index.setdefault(tuple(row[p] for p in pos), set()).add(row)

    def discard(self, name: str, row: Sequence[int]) -> None:
        row = tuple(row)
        rows = self.rels.get(name)
        if rows is None or row not in rows:
            return
        rows.remove(row)
        for (rel, pos), index in self._indexes.items():
            if rel == name:
                key = tuple(row[p] for p in pos)
                bucket = index[key]
                bucket.discard(row)
                if not bucket:
                    del index[key]

    def __contains__(self, item: Tuple[str, Row]) -> bool:
        name, row = item
        return tuple(row) in self.rels.get(name, ())

    # -------------------------------------------------------------- joins
    def _index(self, name: str, pos: Tuple[int, ...]) -> Dict[Row, Set[Row]]:
        key = (name, pos)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for row in self.rels.get(name, ()):
                index.setdefault(tuple(row[p] for p in pos), set()).add(row)
            self._indexes[key] = index
        return index

    def _plan(self, atoms, bound: Set[str]):
        """A static atom order: most-bound atom first, ties to the
        smaller relation; per step, the bound positions to look up."""
        atoms, bound, steps = list(atoms), set(bound), []
        while atoms:
            best = min(atoms, key=lambda a: (-sum(v in bound for v in a[1]),
                                             len(self.rels.get(a[0], ()))))
            atoms.remove(best)
            rel, vs = best
            pos = tuple(sorted({vs.index(v) for v in vs if v in bound}))
            steps.append((rel, vs, pos))
            bound.update(vs)
        return steps

    def _search(self, atoms, binding: Dict[str, int], keep=None):
        """Yield every extension of ``binding`` satisfying ``atoms``.

        With ``keep`` (the variables whose values the caller reads),
        an extension is dropped when one with the same values of every
        variable still needed was already explored, so projections
        cost the distinct partial results, not all assignments.
        """
        steps = self._plan(atoms, binding)
        needed = seen = None
        if keep is not None:
            needed = [
                tuple(sorted({v for _, vs, _ in steps[k:] for v in vs} | set(keep)))
                for k in range(len(steps))
            ]
            seen = [set() for _ in steps]
        binding = dict(binding)

        def extend(k):
            if k == len(steps):
                yield binding
                return
            if seen is not None:
                key = tuple(binding.get(v) for v in needed[k])
                if key in seen[k]:
                    return
                seen[k].add(key)
            rel, vs, pos = steps[k]
            if pos:
                candidates = self._index(rel, pos).get(
                    tuple(binding[vs[p]] for p in pos), ())
            else:
                candidates = self.rels.get(rel, ())
            for row in candidates:
                fresh = []
                ok = True
                for v, value in zip(vs, row):
                    seen_value = binding.get(v)
                    if seen_value is None:
                        binding[v] = value
                        fresh.append(v)
                    elif seen_value != value:
                        ok = False
                        break
                if ok:
                    yield from extend(k + 1)
                for v in fresh:
                    del binding[v]

        yield from extend(0)

    def answers(self, query: Query) -> Set[Row]:
        """Every answer (set semantics) of ``query`` on the current data."""
        return {
            tuple(b[v] for v in query.head)
            for b in self._search(query.atoms, {}, keep=query.head)
        }

    def count(self, query: Query) -> int:
        if set(query.head) == set(query.variables()):
            # A join query: distinct assignments are distinct answers.
            return sum(1 for _ in self._search(query.atoms, {}))
        return len(self.answers(query))

    def at_least(self, query: Query, k: int) -> int:
        """``min(k, count)``, stopping at the k-th distinct answer."""
        found = set()
        for b in self._search(query.atoms, {}, keep=query.head):
            found.add(tuple(b[v] for v in query.head))
            if len(found) == k:
                break
        return len(found)

    def nonempty(self, query: Query) -> bool:
        return next(self._search(query.atoms, {}), None) is not None

    def satisfies(self, query: Query, row: Sequence[int]) -> bool:
        """True when ``row`` is an answer: some assignment of the
        remaining variables satisfies every atom."""
        if len(row) != len(query.head):
            return False
        binding: Dict[str, int] = {}
        for v, value in zip(query.head, row):
            if binding.setdefault(v, value) != value:
                return False
        return next(self._search(query.atoms, binding, keep=()), None) is not None

    # -------------------------------------------------------------- graphs
    def _adjacency(self, name: str):
        out: Dict[int, Set[int]] = defaultdict(set)
        inc: Dict[int, Set[int]] = defaultdict(set)
        for a, b in self.rels.get(name, ()):
            out[a].add(b)
            inc[b].add(a)
        return out, inc

    def triangles(self, name: str) -> int:
        """Ordered triangles ``E(x,y), E(y,z), E(z,x)``, by neighbour sets."""
        out, inc = self._adjacency(name)
        return sum(len(out[y] & inc[x]) for x, y in self.rels.get(name, ()))

    def triangle_vertices(self, name: str) -> Set[int]:
        """Vertices ``x`` that start some triangle."""
        out, inc = self._adjacency(name)
        return {x for x, y in self.rels.get(name, ()) if out[y] & inc[x]}

    def four_cycles(self, name: str) -> int:
        """Answers of ``E(a,b), E(b,c), E(c,d), E(d,a)`` (set semantics).

        The answers are the tuples (a,b,c,d); for a fixed pair (a, c)
        b ranges over the 2-paths a->b->c and d over the 2-paths
        c->d->a independently, so the count is
        sum over (a, c) of paths(a, c) * paths(c, a).
        """
        out, _ = self._adjacency(name)
        paths: Dict[int, Counter] = {}
        for a, mids in out.items():
            counter: Counter = Counter()
            for b in mids:
                counter.update(out[b])
            paths[a] = counter
        return sum(
            n * paths.get(c, Counter()).get(a, 0)
            for a, counter in paths.items()
            for c, n in counter.items()
        )

    def four_cliques(self, name: str) -> int:
        """Answers of the 4-clique query: ordered 4-tuples of distinct,
        pairwise adjacent vertices, by neighbour-set intersection."""
        out, inc = self._adjacency(name)
        total = 0
        for a, b in self.rels.get(name, ()):
            common = out[a] & out[b]
            for c in common:
                total += len(common & out[c])
        return total

    def is_clique(self, name: str, vertices: Sequence[int]) -> bool:
        rows = self.rels.get(name, ())
        return all(
            (a, b) in rows
            for a in vertices
            for b in vertices
            if a != b
        )
