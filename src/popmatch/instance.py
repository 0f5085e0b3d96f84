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
``<man> <woman>`` pair per line.  An error in a file is a ParseError
that names its line.
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


def _error(message: str, line: Optional[int]) -> InstanceError:
    """What the instance checks below raise: a ParseError naming the file
    line, or a plain InstanceError when line is None."""
    return InstanceError(message) if line is None else ParseError(message, line)


def _check_ids(ids: Iterable[str], known: set, line: Optional[int] = None) -> None:
    """Add declared ids to known, rejecting repeated and malformed ones."""
    for v in ids:
        if v in known:
            raise _error(f"duplicate vertex id {v!r}", line)
        if ":" in v or v.split() != [v]:  # or empty, or holding whitespace
            raise _error(f"invalid vertex id {v!r}", line)
        known.add(v)


def _check_lists(inst: "Instance", lines: Mapping[str, Optional[int]]) -> None:
    """Check the lists of the vertices in `lines`, in that order: each
    vertex is declared and names distinct vertices of the other side.
    Then adjacency is symmetric: every man is on the lists of the women
    on his, and both sides list as many entries in total.  The women's
    lists are scanned only when the totals differ, to name the edge."""
    men, women = inst._men_set, inst._women_set
    pref, rank = inst.pref, inst.rank
    for v, line in lines.items():
        if v not in pref:
            raise _error(f"preference list for unknown vertex {v!r}", line)
        lst = pref[v]
        own, other = (men, women) if v in men else (women, men)
        if len(rank[v]) == len(lst) and other.issuperset(lst):
            continue
        seen = set()
        for x in lst:
            if x in own:
                raise _error(f"{v!r} lists {x!r} on its own side", line)
            if x not in other:
                raise _error(f"unknown neighbor {x!r} in list of {v!r}", line)
            if x in seen:
                raise _error(f"duplicate entry {x!r} in list of {v!r}", line)
            seen.add(x)
    listers = inst.men
    if sum(len(pref[m]) for m in inst.men) != sum(len(pref[w]) for w in inst.women):
        listers += inst.women
    for v in listers:
        for x in pref[v]:
            if v not in rank[x]:
                m, w = (v, x) if v in men else (x, v)
                raise _error(
                    f"asymmetric adjacency: edge ({m},{w}) — "
                    f"{v!r} lists {x!r} but {x!r} does not list {v!r}",
                    lines.get(v),
                )


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
        vertices = self.men + self.women
        if check:
            _check_ids(vertices, set())
        self._men_set = frozenset(self.men)
        self._women_set = frozenset(self.women)
        self.pref = {v: tuple(pref.get(v, ())) for v in vertices}
        self.rank = {v: {x: i for i, x in enumerate(lst)} for v, lst in self.pref.items()}
        self._edges: Optional[frozenset] = None
        if check:
            _check_lists(self, dict.fromkeys((*vertices, *pref)))

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
    sides: list = []
    pref: dict = {}
    known: set = set()
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("malformed line (missing ':')", lineno)
        head = head.strip()
        items = tail.split()
        if len(sides) < 2:
            side = ("men", "women")[len(sides)]
            if head != side:
                raise ParseError(f"expected '{side}:' declaration", lineno)
            _check_ids(items, known, lineno)
            sides.append(items)
            continue
        if head in pref:
            raise ParseError(f"duplicate preference line for {head!r}", lineno)
        pref[head] = items
        lines[head] = lineno
    if len(sides) < 2:
        raise ParseError("missing men:/women: declarations")
    inst = Instance(*sides, pref, check=False)
    _check_lists(inst, lines)
    return inst


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
