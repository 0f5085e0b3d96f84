"""Bipartite preference instances and matchings.

An instance is a bipartite graph whose two sides are called *men* and
*women*; every vertex ranks its neighbors strictly.  Instances and
matchings are immutable after construction and safe to share: an
instance's write-once caches (cached properties, `popular_edge`'s route
table, the engine's unforced state per level) never change once built,
and queries propose on from that state through private write overlays.

An Instance holds each list once, as vertex numbers, and parsing, the
constructor and the generator build it through the same checks.  A
Matching is a set of (man, woman) id pairs, the way a caller gives one;
every matching the package returns, `parse_matching`'s too, is a
LevelledMatching, held in the numbers of the instance it is bound to.
`Instance.mates` reads either into the numbers the checks work on.

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

from array import array
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter, lt
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union


class InstanceError(ValueError):
    """A structurally invalid instance or matching."""


class EnumerationGuardError(RuntimeError):
    """An exhaustive listing would exceed its guard: edges for the
    oracles, or matchings listed (`MAX_LISTED` for the CLI's)."""


# The longest women's list `Instance._build` scans to find a man's rank;
# a longer one gets a rank dict, which a scan past this length would not
# match in speed.
_SCANNED = 32


class _Ranks(dict):
    """A long list's rank dict, read as the list is: `index` gives the
    rank of an entry and raises on a miss."""

    index = dict.__getitem__


# The most matchings a listing holds: the closed sets of a rotation
# poset, or the matchings `enumerate --what matchings|popular` lists.
MAX_LISTED = 100_000


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


def _numbering(men: Sequence[str], women: Sequence[str]) -> Dict[str, int]:
    """Each vertex's number, the men first, then the women, each side in
    id order: every tie-break compares numbers, so outputs are functions
    of the ids, whatever order a file declares them in."""
    return {v: i for i, v in enumerate(chain(sorted(men), sorted(women)))}


def _check_ids(ids: Sequence[str], known: set, line: Optional[int] = None) -> None:
    """Add declared ids to known, rejecting repeated and malformed ones."""
    for v in ids:
        if v in known:
            raise _error(f"duplicate vertex id {v!r}", line)
        if ":" in v or v.split() != [v]:  # or empty, or holding whitespace
            raise _error(f"invalid vertex id {v!r}", line)
        known.add(v)


class Instance:
    """A bipartite graph with strict two-sided preference lists.

    Vertex v is numbered men first, then women, each side in id order;
    `names[v]` is its id and `index` the inverse, so every tie-break is a
    comparison of numbers.  Declared order belongs to the input alone:
    `men` and `women` keep it, and so do `serialize_instance` and the
    order faults are reported in.  `adj[v]` lists v's neighbours'
    numbers in decreasing preference, and `back[first[m] + k]` is the
    rank of man m on the list of his k-th woman (`first[n]` is the number
    of edges, for n men).  `pref`, `rank` and `edges` are views by id,
    built on first access: id -> neighbour ids, id -> {neighbour id:
    position} (lower is better), and the set of (man, woman) edges.
    Construction checks the instance and raises InstanceError on the
    first fault.

    `back` is one `array`, man by man, of the narrowest unsigned ints
    that hold the ranks of the longest women's list: one byte a rank up
    to 256 entries ('B'), else two ('H'), else four.  It is found by
    looking each man up on his women's lists: a scan of a list of at
    most 32 entries, a rank dict for a longer one, which lives only
    while `back` is built.  A parse writes each list straight into `adj`
    by number and its line into one array of ints; only an undeclared
    owner's list, which no valid file has, goes to a side map.  At its
    peak a parse holds the numbered lists, `back` and the lines of its
    input not yet read, which the CLI hands `parse_instance` one block
    of the file at a time: about 1.04 times what the instance keeps when
    no list is long (1.03 to 1.12 when the whole text is given).
    """

    def __init__(
        self, men: Iterable[str], women: Iterable[str], pref: Mapping[str, Iterable[str]]
    ):
        men, women = tuple(men), tuple(women)
        _check_ids(men + women, set())
        index = _numbering(men, women)
        adj: list = [()] * len(index)
        stray = {}  # the lists of undeclared owners, after the declared ones
        for v, lst in pref.items():
            lst = tuple([index.get(x, str(x)) for x in lst])  # undeclared: the id
            if v in index:
                adj[index[v]] = lst
            else:
                stray[v] = lst, 0
        self._build(men, women, index, adj, None, stray)

    @classmethod
    def _from_lists(cls, men, women, index, adj, lines=None, stray=None) -> "Instance":
        inst = cls.__new__(cls)
        inst._build(men, women, index, adj, lines, stray or {})
        return inst

    def _build(self, men, women, index, adj, lines, stray) -> None:
        """Set the lists from `adj`, each vertex's entries by number: a
        vertex number or, if undeclared, its id.  `lines[v]` is the file
        line of v's list, 0 if none, and `stray` maps an undeclared owner
        to its list and line.  A valid instance passes in bulk: owners
        declared, each man found on his women's lists, no repeats, equal
        totals.  Else the first fault in line order is raised; without
        `lines`, in declared order, the undeclared owners last."""
        self.men, self.women, self.index = men, women, index
        self.names = names = tuple(index)
        n = len(men)
        back = None
        if not stray:
            # where a man's rank is found: a short woman's list itself, a
            # rank dict for a long one, and a miss on a man's
            find = [()] * n + [
                lst if len(lst) <= _SCANNED else _Ranks(zip(lst, range(len(lst))))
                for lst in islice(adj, n, None)
            ]
            # the narrowest unsigned ints that hold every rank
            longest = max(map(len, islice(adj, n, None)), default=0)
            back = array(next(c for c in "BHIL" if 256 ** array(c).itemsize >= longest))
            try:  # an own-side or undeclared entry of a man is not found either
                back.extend(find[w].index(m) for m in range(n) for w in adj[m])
            except (KeyError, ValueError, TypeError):
                back = None
            del find  # before the totals check, so the two never peak together
            # men's entries found back land on distinct slots of women's
            # lists, so equal totals leave no slot over for a repeat or a
            # stray entry of a woman's
            sides = (islice(adj, n), map(set, islice(adj, n)), islice(adj, n, None))
            if len({sum(map(len, side)) for side in sides}) > 1:
                back = None
        if back is None:
            line = lines.__getitem__ if lines else lambda v: 0
            declared = list(map(index.__getitem__, men + women))
            owned = [(line(v), names[v], adj[v]) for v in declared]
            owned += [(at, head, lst) for head, (lst, at) in stray.items()]
            owned.sort(key=itemgetter(0))  # stable: strays keep their order
            for at, head, lst in owned:
                fault = self._list_fault(head, lst, at or None)
                if fault:
                    raise fault
            # the first entry, men's lists first, that is not listed back
            listed = [set(lst) for lst in adj]
            v, x = next((v, x) for v in declared for x in adj[v] if v not in listed[x])
            m, w = (v, x) if v < n else (x, v)
            raise _error(
                f"asymmetric adjacency: edge ({names[m]},{names[w]}) — "
                f"{names[v]!r} lists {names[x]!r} but {names[x]!r} does not list {names[v]!r}",
                line(v) or None,
            )
        first = array("q", accumulate(map(len, islice(adj, n)), initial=0))
        self.adj, self.back, self.first = adj, back, first

    def _list_fault(self, head: str, ids: tuple, line) -> Optional[InstanceError]:
        """The first fault of one list: an undeclared owner, or an entry
        undeclared, of the owner's side or repeated."""
        v = self.index.get(head)
        if v is None:
            return _error(f"preference list for unknown vertex {head!r}", line)
        names, n = self.names, len(self.men)
        seen = set()
        for x in ids:
            if isinstance(x, str):
                return _error(f"unknown neighbor {x!r} in list of {head!r}", line)
            if (x < n) == (v < n):
                return _error(f"{head!r} lists {names[x]!r} on its own side", line)
            if x in seen:
                return _error(f"duplicate entry {names[x]!r} in list of {head!r}", line)
            seen.add(x)
        return None

    @cached_property
    def pref(self) -> Dict[str, Tuple[str, ...]]:
        names = self.names
        return {v: tuple(map(names.__getitem__, lst)) for v, lst in zip(names, self.adj)}

    @cached_property
    def rank(self) -> Dict[str, Dict[str, int]]:
        return {v: {x: i for i, x in enumerate(lst)} for v, lst in self.pref.items()}

    @cached_property
    def edges(self) -> frozenset:
        names = self.names
        return frozenset(
            (names[m], names[w]) for m in range(len(self.men)) for w in self.adj[m]
        )

    def slot(self, m: str, w: str) -> Optional[Tuple[int, int, int]]:
        """(m's number, w's number, w's position on m's list) when (m, w)
        is an edge with m a man, else None."""
        i, j = self.index.get(m), self.index.get(w)
        if i is None or j is None or i >= len(self.men):
            return None
        try:
            return i, j, self.adj[i].index(j)
        except ValueError:
            return None

    def mates(self, matching: "Matching") -> Tuple[List[int], List[int]]:
        """Per vertex number: its partner's number, or -1, and its rank of
        the partner, or its list length (below every neighbour) if it has
        none.  A matching numbered on this very instance is read off its
        numbers; any other Matching, one numbered on another instance
        too, by its ids, and an InstanceError names the least pair that
        is not an edge."""
        if not isinstance(matching, Matching):
            raise InstanceError(f"not a Matching: {type(matching).__name__}")
        if isinstance(matching, LevelledMatching) and matching.inst is self:
            men = matching.pos
        else:
            men = self._read(zip(repeat(None), sorted(matching.pairs)))
        adj, back, first = self.adj, self.back, self.first
        mate = [-1] * len(self.names)
        pos = list(map(len, adj))
        for m, k in enumerate(men):
            if k < pos[m]:
                w = adj[m][k]
                mate[m], mate[w] = w, m
                pos[m], pos[w] = k, back[first[m] + k]
        return mate, pos

    def _read(self, records: Iterable[Tuple[Optional[int], Sequence[str]]]) -> List[int]:
        """The men's positions (`LevelledMatching.pos`) of the pairs of the
        (line, (man, woman)) records given, each read with two lookups
        of an id and one search of the man's list.  A record with a line
        number is a split line of a matching file: a blank or '#' line
        is skipped, and any other but a pair is a ParseError.  The first
        pair that is not an edge, or repeats a vertex, raises the error
        `_error` gives for its line."""
        get, adj, n = self.index.get, self.adj, len(self.men)
        mate = [-1] * len(adj)
        pos = list(map(len, adj[:n]))
        for line, parts in records:
            if line and (len(parts) != 2 or parts[0][0] == "#"):
                if not parts or parts[0][0] == "#":  # as `_records` skips it
                    continue
                raise ParseError("expected '<man> <woman>'", line)
            m, w = parts
            i, j = get(m, n), get(w)
            try:
                k = adj[i].index(j) if i < n else -1
            except ValueError:
                k = -1
            if k < 0:
                raise _error(f"pair ({m},{w}) is not an edge of the instance", line)
            if mate[i] >= 0 or mate[j] >= 0:
                twice = m if mate[i] >= 0 else w
                raise _error(f"vertex {twice!r} matched twice", line)
            mate[i], mate[j], pos[i] = j, i, k
        return pos

    def has_edge(self, m: str, w: str) -> bool:
        """True if (m, w) is an edge with m a man."""
        return self.slot(m, w) is not None

    def is_man(self, v: str) -> bool:
        return self.index.get(v, len(self.men)) < len(self.men)

    def vertices(self) -> tuple:
        return self.names

    def prefers(self, u: str, x: str, y: str) -> bool:
        """True if u ranks neighbor x strictly above neighbor y; an
        InstanceError names an unknown u or a non-neighbour."""
        i = self.index.get(u)
        if i is None:
            raise InstanceError(f"unknown vertex {u!r}")
        lst = self.adj[i]
        for v in (x, y):
            if self.index.get(v) not in lst:
                raise InstanceError(f"{v!r} is not adjacent to {u!r}")
        return lst.index(self.index[x]) < lst.index(self.index[y])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.men, self.women, self.adj) == (other.men, other.women, other.adj)

    def __hash__(self) -> int:
        return hash((self.men, self.women, tuple(self.adj)))

    def __repr__(self) -> str:
        edges = self.first[len(self.men)]
        return f"Instance(men={len(self.men)}, women={len(self.women)}, edges={edges})"


class Matching:
    """A set of disjoint (man, woman) edges with partner lookup."""

    __slots__ = ("pairs", "_partner", "_hash")

    def __init__(self, pairs: Iterable[tuple] = ()):
        self.pairs = frozenset((m, w) for m, w in pairs)
        partner = {}
        for m, w in self.pairs:
            partner[m] = w
            partner[w] = m
        if len(partner) != 2 * len(self.pairs):
            # a vertex repeats: rescan in order to name the first one
            partner = {}
            for m, w in sorted(self.pairs):
                for v in (m, w):
                    if v in partner:
                        raise InstanceError(f"vertex {v!r} matched twice")
                partner[m] = w
                partner[w] = m
        self._partner = partner
        self._hash = hash(self.pairs)

    @classmethod
    def of(cls, inst: Instance, pairs: Iterable[tuple]) -> "Matching":
        """Build a matching and check every pair is an edge of inst."""
        matching = cls(pairs)
        inst.mates(matching)
        return matching

    def partner_of(self, u: str) -> Optional[str]:
        return self._partner.get(u)

    def is_matched(self, u: str) -> bool:
        return u in self._partner

    def sorted_pairs(self) -> tuple:
        # not tuple(self), which asks `len`: a second pass over a LevelledMatching
        return tuple(iter(self))

    def __contains__(self, pair: tuple) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple]:
        return iter(sorted(self.pairs))

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


class LevelledMatching(Matching):
    """A matching in the numbers of the instance `inst` it is bound to:
    pos[m] is the position of man m's partner on his list, or its length
    if he has none, and lvl[m] the level he ended on, 0 in a matching of
    the instance itself (with two levels it stands for a matching of G',
    see `gale_shapley`).  `pos` and `lvl` are lists, or the overlays a
    floored run wrote over the kept lists (`gale_shapley._floored`):
    then the lists are built on first read, and until then the matching
    holds only the entries the run changed.  Iterating it, and so
    `sorted_pairs`, and `len` read the numbers; the views by id, `pairs`,
    `partner_of` and `level` (man -> level, the men in declared order),
    are built on first read.
    It equals, and hashes as, the Matching of its pairs, whatever its
    levels, and the hash is read off the numbers.  Two matchings bound
    to the same instance compare their positions, which builds no view
    either: every producer leaves an unmatched man at his list's length."""

    __slots__ = ("inst", "pos", "lvl", "level", "_runs")

    def __init__(self, inst: Instance, pos: List[int], lvl: List[int]):
        self.inst = inst
        if isinstance(pos, dict):
            self._runs = pos, lvl  # until `pos` or `lvl` is read
        else:
            self.pos, self.lvl, self._runs = pos, lvl, None

    def __getattr__(self, name: str):
        # called only when lookup fails: for a view, while its slot is unset
        if name == "level":
            lvl, index = self.lvl, self.inst.index
            self.level = {m: lvl[index[m]] for m in self.inst.men}
        elif name == "_hash":
            self._hash = hash(frozenset(self.sorted_pairs()))
        elif name in ("pos", "lvl"):
            self.pos, self.lvl = map(_merged, self._runs)
            self._runs = None
        elif name in Matching.__slots__:
            Matching.__init__(self, self.sorted_pairs())
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def _pos(self) -> List[int]:
        """`pos`, without keeping it if it is not built yet."""
        return self.pos if self._runs is None else _merged(self._runs[0])

    def __reduce__(self):
        # copy and pickle the numbers alone: reading every slot would build
        # every view
        return LevelledMatching, (self.inst, *(self._runs or (self.pos, self.lvl)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LevelledMatching) and other.inst is self.inst:
            a, b = self._runs, other._runs
            if a and b and a[0].kept is b[0].kept:
                # two overlays of one list: only their entries can differ
                a, b = a[0], b[0]
                return all(a[m] == b[m] for m in a.keys() | b.keys())
            return self._pos() == other._pos()
        return Matching.__eq__(self, other)

    __hash__ = Matching.__hash__

    def __len__(self) -> int:
        """The number of pairs, counted off the positions: no view built."""
        return sum(map(lt, self._pos(), map(len, self.inst.adj)))

    def __iter__(self) -> Iterator[tuple]:
        """The pairs, the men in number order, which is id order."""
        names, adj = self.inst.names, self.inst.adj
        pos = enumerate(self._pos())
        return ((names[m], names[adj[m][k]]) for m, k in pos if k < len(adj[m]))


def _merged(overlay: dict) -> List[int]:
    """The list an overlay stands for: its kept list under its entries."""
    got = overlay.kept.copy()
    for i, x in overlay.items():
        got[i] = x
    return got


def _lines(source: Union[str, Iterable[str]]) -> Iterable[str]:
    """The lines of source, the text or its lines as `str.splitlines`
    gives them; a text's lines are let go as read."""
    if isinstance(source, str):
        lines = source.splitlines()[::-1]
        return (lines.pop() for _ in range(len(lines)))
    return source


def _records(source: Union[str, Iterable[str]]) -> Iterator[Tuple[int, str]]:
    """(line number, stripped line) for each line of source (`_lines`)
    that is neither blank nor a '#' comment: the record loop of the
    instance and cost formats, which `parse_matching` reads as it does."""
    for lineno, raw in enumerate(_lines(source), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_instance(source: Union[str, Iterable[str]]) -> Instance:
    """Parse the PREF v1 format into a validated Instance; the source is
    the text, or its lines as `str.splitlines` gives them."""
    sides: list = []
    stray: dict = {}  # undeclared owner -> (its list, its line)
    known: set = set()
    for lineno, line in _records(source):
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
            sides.append(tuple(items))
            if len(sides) == 2:
                known.clear()  # index holds the ids from here on
                index = _numbering(*sides)
                number = index.__getitem__
                adj: list = [()] * len(index)
                lines = array("i", [0]) * len(index)  # each list's line, 0 if none
            continue
        v = index.get(head)
        if lines[v] if v is not None else head in stray:
            raise ParseError(f"duplicate preference line for {head!r}", lineno)
        try:
            lst = tuple(map(number, items))
        except KeyError:
            lst = tuple([index.get(x, x) for x in items])  # undeclared: the id
        if v is None:
            stray[head] = lst, lineno
        else:
            adj[v], lines[v] = lst, lineno
    if len(sides) < 2:
        raise ParseError("missing men:/women: declarations")
    return Instance._from_lists(*sides, index, adj, lines, stray)


def serialize_instance(inst: Instance) -> str:
    """Inverse of parse_instance; vertex lines in declared order."""
    names, adj, index = inst.names, inst.adj, inst.index
    lines = ["men: " + " ".join(inst.men), "women: " + " ".join(inst.women)]
    for v in inst.men + inst.women:
        lst = adj[index[v]]
        # one itemgetter call reads two or more ids; of one it gives the id
        ids = itemgetter(*lst)(names) if len(lst) > 1 else [names[x] for x in lst]
        lines.append(f"{v}: " + " ".join(ids) if lst else f"{v}:")
    return "\n".join(lines) + "\n"


def parse_matching(source: Union[str, Iterable[str]], inst: Instance) -> LevelledMatching:
    """Parse one '<man> <woman>' pair per line, the text or its lines as
    `str.splitlines` gives them, straight into a matching numbered on
    inst, at level 0, through the reader of `Instance.mates`.  A
    ParseError names the first faulty line."""
    pos = inst._read(enumerate(map(str.split, _lines(source)), 1))
    return LevelledMatching(inst, pos, [0] * len(pos))


def serialize_matching(matching: Matching) -> str:
    """One pair per line, lexicographic order; empty matching -> empty body."""
    return "".join(_blocks(matching))


_BLOCK = 1 << 12  # the most pairs `_blocks` writes in one block


def _blocks(matching: Matching) -> Iterator[str]:
    """`serialize_matching`'s text in blocks, which the CLI writes as made."""
    pairs = iter(matching)
    while block := "".join([f"{m} {w}\n" for m, w in islice(pairs, _BLOCK)]):
        yield block


def generate_random(n_men: int, n_women: int, density: float, seed: int) -> Instance:
    """A random instance: each pair is an edge with the given probability,
    every preference list a uniform permutation of the neighbors.  Fully
    determined by the seed."""
    import numpy as np

    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if n_men < 0 or n_women < 0:
        raise ValueError("the numbers of men and women must not be negative")
    rng = np.random.default_rng(seed)
    men = tuple(f"a{i + 1}" for i in range(n_men))
    women = tuple(f"b{j + 1}" for j in range(n_women))
    index = _numbering(men, women)
    # by declared position, each vertex's number; the lists share these ints
    number = list(map(index.__getitem__, men + women))
    adj: list = [()] * len(number)
    woman_nbrs: list = [[] for _ in range(n_women)]
    for i in range(n_men):
        hits = np.flatnonzero(rng.random(n_women) < density)
        nbrs = (n_men + hits[rng.permutation(len(hits))]).tolist()
        adj[number[i]] = tuple(map(number.__getitem__, nbrs))
        for j in hits.tolist():
            woman_nbrs[j].append(number[i])
    for j, nbrs in enumerate(woman_nbrs):
        order = rng.permutation(len(nbrs))
        adj[number[n_men + j]] = tuple(map(nbrs.__getitem__, order.tolist()))
    return Instance._from_lists(men, women, index, adj)
