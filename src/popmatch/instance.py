"""Bipartite preference instances and matchings.

An instance is a bipartite graph whose two sides are called *men* and
*women*; every vertex ranks its neighbors strictly.  Instances and
matchings are immutable after construction and safe to share.

File format (PREF v1):

    # comment lines and blank lines are ignored
    men: a1 a2
    women: b1 b2
    a1: b1 b2
    a2: b1
    b1: a1 a2
    b2: a1

The first two content lines declare the sides; every further line gives
one vertex's neighbors in decreasing order of preference.  Vertex ids
are opaque tokens without whitespace or ':'.  A matching file has one
``<man> <woman>`` pair per line.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

import numpy as np


class InstanceError(ValueError):
    """A structurally invalid instance or matching."""


class ParseError(InstanceError):
    """A malformed PREF v1 or matching file."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_token(tok: str) -> None:
    if not tok or ":" in tok or any(c.isspace() for c in tok):
        raise InstanceError(f"invalid vertex id {tok!r}")


class Instance:
    """A bipartite graph with strict two-sided preference lists.

    Attributes:
        men, women: vertex ids in declared order.
        pref: vertex id -> neighbors in decreasing preference.
        rank: vertex id -> {neighbor: position}; lower is better.
    """

    __slots__ = ("men", "women", "pref", "rank", "_edges", "_men_set", "_women_set")

    def __init__(
        self,
        men: Iterable[str],
        women: Iterable[str],
        pref: Mapping[str, Iterable[str]],
        *,
        check: bool = True,
    ):
        self.men = tuple(men)
        self.women = tuple(women)
        self._men_set = frozenset(self.men)
        self._women_set = frozenset(self.women)
        vertices = self.men + self.women
        self.pref = {v: tuple(pref.get(v, ())) for v in vertices}
        if check:
            self._validate(pref)
        self.rank = {v: {x: i for i, x in enumerate(lst)} for v, lst in self.pref.items()}
        self._edges: Optional[frozenset] = None

    def _validate(self, raw_pref: Mapping[str, Iterable[str]]) -> None:
        vertices = self.men + self.women
        if len(set(vertices)) != len(vertices):
            seen = set()
            for v in vertices:
                if v in seen:
                    raise InstanceError(f"duplicate vertex id {v!r}")
                seen.add(v)
        for v in vertices:
            _check_token(v)
        for v in raw_pref:
            if v not in self._men_set and v not in self._women_set:
                raise InstanceError(f"preference list for unknown vertex {v!r}")
        nbr = {}
        for v, lst in self.pref.items():
            if len(set(lst)) != len(lst):
                raise InstanceError(f"duplicate entry in preference list of {v!r}")
            own_side = self._men_set if v in self._men_set else self._women_set
            other_side = self._women_set if v in self._men_set else self._men_set
            for x in lst:
                if x in own_side:
                    raise InstanceError(f"{v!r} lists {x!r} on its own side")
                if x not in other_side:
                    raise InstanceError(f"unknown neighbor {x!r} in list of {v!r}")
            nbr[v] = set(lst)
        for m in self.men:
            for w in self.pref[m]:
                if m not in nbr[w]:
                    raise InstanceError(
                        f"asymmetric adjacency: edge ({m},{w}) — "
                        f"{m!r} lists {w!r} but {w!r} does not list {m!r}"
                    )
        for w in self.women:
            for m in self.pref[w]:
                if w not in nbr[m]:
                    raise InstanceError(
                        f"asymmetric adjacency: edge ({m},{w}) — "
                        f"{w!r} lists {m!r} but {m!r} does not list {w!r}"
                    )

    @property
    def edges(self) -> frozenset:
        """All edges as (man, woman) pairs."""
        if self._edges is None:
            self._edges = frozenset((m, w) for m in self.men for w in self.pref[m])
        return self._edges

    def is_man(self, v: str) -> bool:
        return v in self._men_set

    def is_woman(self, v: str) -> bool:
        return v in self._women_set

    def vertices(self) -> tuple:
        return self.men + self.women

    def prefers(self, u: str, x: str, y: str) -> bool:
        """True if u ranks neighbor x strictly above neighbor y."""
        r = self.rank[u]
        return r[x] < r[y]

    def induced(self, keep: Iterable[str]) -> "Instance":
        """The subgraph induced on the given vertex set."""
        keep = frozenset(keep)
        men = tuple(m for m in self.men if m in keep)
        women = tuple(w for w in self.women if w in keep)
        pref = {
            v: tuple(x for x in self.pref[v] if x in keep) for v in men + women
        }
        return Instance(men, women, pref, check=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.men == other.men
            and self.women == other.women
            and self.pref == other.pref
        )

    def __hash__(self) -> int:
        return hash((self.men, self.women, tuple(sorted(self.pref.items()))))

    def __repr__(self) -> str:
        return f"Instance(men={len(self.men)}, women={len(self.women)}, edges={len(self.edges)})"


class Matching:
    """A set of disjoint (man, woman) edges with partner lookup."""

    __slots__ = ("pairs", "_partner", "_hash")

    def __init__(self, pairs: Iterable[tuple] = ()):
        self.pairs = frozenset((m, w) for m, w in pairs)
        partner = {}
        for m, w in sorted(self.pairs):
            if m in partner:
                raise InstanceError(f"vertex {m!r} matched twice")
            if w in partner:
                raise InstanceError(f"vertex {w!r} matched twice")
            partner[m] = w
            partner[w] = m
        self._partner = partner
        self._hash = hash(self.pairs)

    @classmethod
    def of(cls, inst: Instance, pairs: Iterable[tuple]) -> "Matching":
        """Build a matching and check every pair is an edge of inst."""
        matching = cls(pairs)
        for m, w in matching.pairs:
            if (m, w) not in inst.edges:
                raise InstanceError(f"pair ({m},{w}) is not an edge of the instance")
        return matching

    def partner_of(self, u: str) -> Optional[str]:
        return self._partner.get(u)

    def is_matched(self, u: str) -> bool:
        return u in self._partner

    def sorted_pairs(self) -> tuple:
        return tuple(sorted(self.pairs))

    def __contains__(self, pair: tuple) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.sorted_pairs())

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"({m},{w})" for m, w in self.sorted_pairs())
        return f"Matching({{{inner}}})"


def parse_instance(text: str) -> Instance:
    """Parse the PREF v1 format into a validated Instance."""
    men: Optional[list] = None
    women: Optional[list] = None
    pref: dict = {}
    known: set = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("malformed line (missing ':')", lineno)
        head = head.strip()
        items = tail.split()
        if men is None:
            if head != "men":
                raise ParseError("expected 'men:' declaration", lineno)
            if len(set(items)) != len(items):
                raise ParseError("duplicate vertex id on men: line", lineno)
            men = items
            known.update(items)
            continue
        if women is None:
            if head != "women":
                raise ParseError("expected 'women:' declaration", lineno)
            for w in items:
                if w in known:
                    raise ParseError(f"duplicate vertex id {w!r}", lineno)
                known.add(w)
            if len(set(items)) != len(items):
                raise ParseError("duplicate vertex id on women: line", lineno)
            women = items
            continue
        if head not in known:
            raise ParseError(f"unknown vertex id {head!r}", lineno)
        if head in pref:
            raise ParseError(f"duplicate preference line for {head!r}", lineno)
        seen_items = set()
        for x in items:
            if x not in known:
                raise ParseError(f"unknown neighbor id {x!r}", lineno)
            if x in seen_items:
                raise ParseError(f"duplicate entry {x!r} in list of {head!r}", lineno)
            seen_items.add(x)
        pref[head] = items
    if men is None or women is None:
        raise ParseError("missing men:/women: declarations")
    return Instance(men, women, pref)


def serialize_instance(inst: Instance) -> str:
    """Inverse of parse_instance; vertex lines in declared order."""
    lines = [
        "men: " + " ".join(inst.men),
        "women: " + " ".join(inst.women),
    ]
    for v in inst.men + inst.women:
        lines.append(f"{v}: " + " ".join(inst.pref[v]) if inst.pref[v] else f"{v}:")
    return "\n".join(lines) + "\n"


def parse_matching(text: str, inst: Instance) -> Matching:
    """Parse one '<man> <woman>' pair per line into a Matching of inst."""
    pairs = []
    used: set = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected '<man> <woman>'", lineno)
        m, w = parts
        if (m, w) not in inst.edges:
            raise ParseError(f"pair ({m},{w}) is not an edge of the instance", lineno)
        if m in used:
            raise ParseError(f"vertex {m!r} matched twice", lineno)
        if w in used:
            raise ParseError(f"vertex {w!r} matched twice", lineno)
        used.update((m, w))
        pairs.append((m, w))
    return Matching(pairs)


def serialize_matching(matching: Matching) -> str:
    """One pair per line, lexicographic order; empty matching -> empty body."""
    return "".join(f"{m} {w}\n" for m, w in matching.sorted_pairs())


def generate_random(n_men: int, n_women: int, density: float, seed: int) -> Instance:
    """A random instance: each pair is an edge with the given probability,
    every preference list a uniform permutation of the neighbors.  Fully
    determined by the seed."""
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if n_men < 0 or n_women < 0:
        raise ValueError("the numbers of men and women must not be negative")
    rng = np.random.default_rng(seed)
    men = tuple(f"a{i + 1}" for i in range(n_men))
    women = tuple(f"b{j + 1}" for j in range(n_women))
    woman_nbrs: list = [[] for _ in range(n_women)]
    pref: dict = {}
    for i, m in enumerate(men):
        hits = np.flatnonzero(rng.random(n_women) < density)
        nbrs = [women[j] for j in hits]
        order = rng.permutation(len(nbrs))
        pref[m] = tuple(nbrs[k] for k in order)
        for j in hits:
            woman_nbrs[j].append(m)
    for j, w in enumerate(women):
        nbrs = woman_nbrs[j]
        order = rng.permutation(len(nbrs))
        pref[w] = tuple(nbrs[k] for k in order)
    return Instance(men, women, pref, check=False)
