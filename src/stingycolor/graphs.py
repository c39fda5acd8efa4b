"""Small simple graphs with bitset adjacency rows.

Vertices are dense integers 0..n-1. Adjacency is stored as one int bitmask
per vertex, which keeps the exact kernels (clique, coloring, matching search)
fast enough for desk-scale exhaustive work. Graphs are immutable; each one
keeps what is computed on it (``per_graph``), such as its complement, graph6
name and invariants, built when first asked and dropped with the graph.

I/O is graph6 only: the bit-packed upper triangle of the adjacency matrix,
column major, six bits per printable character offset by 63.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterator

G6_MAX_SHORT = 62
G6_MAX = 258047

# all_graphs marks one byte per adjacency bitmask, 2^(n(n-1)/2) of them, and
# walks each orbit by two table lookups per generator image: about 10 ms for
# every n <= 6 together, about 1 s for n = 7 (2 MB, 1044 classes).
EXHAUSTIVE_MAX_N = 6
# canonical_mask walks one orbit over the same byte per mask: 2 MB at n = 7,
# 256 MB at n = 8.
ORBIT_MAX_N = 7


class GraphFormatError(ValueError):
    """Malformed graph6 text; ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def per_graph(fn):
    """Keep ``fn(g, *args)`` in ``g.__dict__``: computed once per graph (or
    other object) and dropped with it. Callers check guards before the read.
    A value without arguments is keyed by the function's name alone."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def memo(g, *args):
        key = (name, *args) if args else name
        value = g.__dict__.get(key, memo)  # memo itself is never a kept value
        if value is memo:
            value = g.__dict__[key] = fn(g, *args)
        return value

    return memo


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbor bitsets."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("vertex count must be a nonnegative int")
        if not isinstance(self.adj, tuple):
            raise ValueError("adjacency must be a tuple of int rows")
        if len(self.adj) != self.n:
            raise ValueError("adjacency rows do not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if not isinstance(row, int):
                raise ValueError(f"row {v} is not an int")
            if row & ~full:
                raise ValueError(f"row {v} mentions vertices outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph whose rows are valid by construction (derived from a valid
        graph, or set pairwise for i < j < n); skips the checks of
        ``__post_init__``."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, adj=adj)
        return g

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if u > v:
                    yield (v, u)

    @per_graph
    def complement(self) -> "Graph":
        """The complement, kept: alpha and nu of the complement read it."""
        full = (1 << self.n) - 1
        return Graph._unchecked(
            self.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(self.adj)))

    def induced(self, keep) -> "Graph":
        """Induced subgraph on ``keep``, relabeled to 0..k-1 in sorted order."""
        return self._induced_mask(self._vertex_mask(keep))

    def _vertex_mask(self, vertices) -> int:
        mask = 0
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex outside 0..{self.n - 1}")
            mask |= 1 << v
        return mask

    def _induced_mask(self, keep: int) -> "Graph":
        """Induced subgraph on the vertex bitmask ``keep``: its i-th lowest
        vertex becomes vertex i."""
        label = [0] * self.n  # the new bit of each kept vertex
        kept = []
        for v in range(self.n):
            if keep >> v & 1:
                label[v] = 1 << len(kept)
                kept.append(v)
        rows = []
        for v in kept:
            row, rest = 0, self.adj[v] & keep
            while rest:
                low = rest & -rest
                row |= label[low.bit_length() - 1]
                rest ^= low
            rows.append(row)
        return Graph._unchecked(len(kept), tuple(rows))


# ---------------------------------------------------------------------------
# Edge-bit layout shared by graph6 and the bitmask enumeration.
# Bit t of a graph mask is the pair _pair_order(n)[t]: columns j = 1..n-1,
# rows i = 0..j-1, exactly the graph6 packing order.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pair_order(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for j in range(1, n) for i in range(j))


def _check_mask(n: int, mask: int) -> None:
    if n < 0:
        raise ValueError("negative size")
    if mask < 0 or mask.bit_length() > n * (n - 1) // 2:
        raise ValueError(f"mask {mask} outside 0..2^{n * (n - 1) // 2}-1 for n = {n}")


def graph_from_mask(n: int, mask: int) -> Graph:
    _check_mask(n, mask)
    rows = [0] * n
    for t in bits(mask):
        i, j = _pair_order(n)[t]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph._unchecked(n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line.

    Accepts the optional ``>>graph6<<`` header. Reported offsets are byte
    positions in the input line, header included.
    """
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(">>graph6<<"):
        base = 10
        line = line[10:]
    if not line:
        raise GraphFormatError("empty graph6 string", base)
    vals = []
    for i, ch in enumerate(line):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise GraphFormatError(
                f"character {ch!r} outside printable range 63..126", base + i
            )
        vals.append(code - 63)

    if vals[0] <= 62:
        n = vals[0]
        body_at = 1
    elif len(vals) >= 2 and vals[1] == 63:
        # 8-byte form; supported only up to the same cap as emit.
        if len(vals) < 8:
            raise GraphFormatError("truncated extended length header", base + len(line))
        n = 0
        for v in vals[2:8]:
            n = n << 6 | v
        body_at = 8
    else:
        if len(vals) < 4:
            raise GraphFormatError("truncated long length header", base + len(line))
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body_at = 4
    if n > G6_MAX:
        raise GraphFormatError(f"vertex count {n} exceeds supported range", base)

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(vals) - body_at
    if have < need:
        raise GraphFormatError(
            f"truncated body: expected {need} data bytes, got {have}",
            base + len(line),
        )
    if have > need:
        raise GraphFormatError("unexpected trailing data", base + body_at + need)

    rows = [0] * n
    pairs = _pair_order(n)
    for t in range(nbits):
        if vals[body_at + t // 6] >> (5 - t % 6) & 1:
            i, j = pairs[t]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    pad = need * 6 - nbits
    if pad and vals[body_at + need - 1] & ((1 << pad) - 1):
        raise GraphFormatError(
            "nonzero padding bits in final byte", base + body_at + need - 1
        )
    return Graph._unchecked(n, tuple(rows))


@per_graph
def emit_graph6(g: Graph) -> str:
    """Encode ``g`` in graph6 under its given vertex order (no canonicalization).
    Kept per graph: every report on a graph names it by this string, so each
    graph is encoded once."""
    n = g.n
    if n > G6_MAX:
        raise ValueError(f"size {n} exceeds supported encoding range (max {G6_MAX})")
    if n <= G6_MAX_SHORT:
        head = chr(n + 63)
    else:
        head = chr(126) + chr((n >> 12) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    out = [head]
    acc = 0
    filled = 0
    for i, j in _pair_order(n):
        acc = acc << 1 | (g.adj[i] >> j & 1)
        filled += 1
        if filled == 6:
            out.append(chr(acc + 63))
            acc = 0
            filled = 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("negative size")
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("negative size")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path(n: int) -> Graph:
    if n < 0:
        raise ValueError("negative size")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 0:
        raise ValueError("negative size")
    if n == 0:
        return empty(0)
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return Graph.from_edges(10, edges)


def er_random(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p).

    Deterministic: one Mersenne Twister draw per vertex pair, pairs visited
    in graph6 bit order (columns j = 1..n-1, rows i < j).
    """
    if n < 0:
        raise ValueError("negative size")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if seed is None or seed < 0:
        # random.Random seeds by the absolute value: -1 would draw seed 1's graph
        raise ValueError("er_random requires an explicit nonnegative seed")
    rng = random.Random(seed)
    rows = [0] * n
    for i, j in _pair_order(n):
        if rng.random() < p:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph._unchecked(n, tuple(rows))


# ---------------------------------------------------------------------------
# Exact invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphInvariants:
    """Exact structural numbers: clique, independence, degrees, matching."""

    omega: int
    alpha: int
    max_deg: int
    min_deg: int
    nu: int


@per_graph
def max_clique_mask(g: Graph) -> int:
    """A maximum clique of ``g`` as a vertex bitmask (deterministic witness).

    Branch and bound over candidate bitsets with a popcount bound.
    """
    adj = g.adj
    best_mask = 0
    best = 0

    def extend(clique: int, size: int, cand: int):
        nonlocal best, best_mask
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if size + 1 > best:
                best = size + 1
                best_mask = clique | low
            rest = cand & adj[v]
            if rest and size + 1 + rest.bit_count() > best:
                extend(clique | low, size + 1, rest)

    extend(0, 0, (1 << g.n) - 1)
    del extend  # the closure refers to itself: a cycle only the collector frees
    return best_mask


def clique_number(g: Graph) -> int:
    return max_clique_mask(g).bit_count()


def max_independent_set_mask(g: Graph) -> int:
    """A maximum clique of the complement, which keeps it like ``g`` does."""
    return max_clique_mask(g.complement())


def independence_number(g: Graph) -> int:
    return max_independent_set_mask(g).bit_count()


@per_graph
def matching_number(g: Graph) -> int:
    """Exact maximum matching size by memoized branching on the partner of the
    lowest non-isolated vertex."""
    adj = g.adj
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            if adj[v] & avail:
                break
            avail ^= low  # isolated within avail: removing it is forced
        else:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        low = avail & -avail
        v = low.bit_length() - 1
        rest = avail ^ low
        # v has a neighbour, so some maximum matching covers v: if one misses
        # v, its edge at a neighbour u can be traded for uv. Only the matched
        # branches are searched, and they stop at the counting ceiling.
        ceiling = avail.bit_count() // 2
        best = 0
        for u in bits(adj[v] & rest):
            got = 1 + rec(rest ^ (1 << u))
            if got > best:
                best = got
                if best == ceiling:
                    break
        memo[avail] = best
        return best

    best = rec((1 << g.n) - 1)
    del rec  # the closure refers to itself: a cycle only the collector frees
    return best


@per_graph
def invariants(g: Graph) -> GraphInvariants:
    """All five invariants, exact. The n = 0 graph gets all zeros by convention."""
    if g.n == 0:
        return GraphInvariants(0, 0, 0, 0, 0)
    degrees = [row.bit_count() for row in g.adj]
    return GraphInvariants(
        omega=clique_number(g),
        alpha=independence_number(g),
        max_deg=max(degrees),
        min_deg=min(degrees),
        nu=matching_number(g),
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration up to isomorphism
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _generator_tables(n: int):
    """Mask images under the transposition (0 1) and the cycle (0 1 ... n-1),
    which generate S_n. The m edge bits split into a low half of
    s = ceil(m/2) bits and a high half; per generator there is one table per
    half, indexed by that half's bits, so the image of x is
    ``lo[x & low] | hi[x >> s]``. Returns (s, low, ((lo, hi), (lo, hi)))."""
    pairs = _pair_order(n)
    index = {pair: t for t, pair in enumerate(pairs)}
    s = (len(pairs) + 1) // 2
    gens = []
    for perm in ((1, 0, *range(2, n)), (*range(1, n), 0)):
        image = [1 << index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        halves = []
        for part in (image[:s], image[s:]):
            table = [0]  # entry v is the OR of image[b] over the set bits b of v
            for bit in part:
                table += [y | bit for y in table]
            halves.append(table)
        gens.append(tuple(halves))
    return s, (1 << s) - 1, tuple(gens)


def _mark_orbit(n: int, mask: int, seen) -> None:
    """Set ``seen[y] = 1`` for every y in the S_n orbit of ``mask``, by a
    depth-first walk under the two generators that marks each member as it
    is pushed. ``seen`` holds one byte per mask."""
    s, low, ((lo_t, hi_t), (lo_c, hi_c)) = _generator_tables(n)
    seen[mask] = 1
    stack = [mask]
    pop, push = stack.pop, stack.append
    while stack:
        x = pop()
        a, b = x & low, x >> s
        y = lo_t[a] | hi_t[b]
        if not seen[y]:
            seen[y] = 1
            push(y)
        y = lo_c[a] | hi_c[b]
        if not seen[y]:
            seen[y] = 1
            push(y)


def canonical_mask(n: int, mask: int) -> int:
    """Minimum adjacency bitmask over all vertex permutations of ``mask``:
    the lowest byte its orbit walk marks. Supported for n <= ORBIT_MAX_N."""
    _check_mask(n, mask)
    if n > ORBIT_MAX_N:
        raise ValueError(f"canonical_mask supports n <= {ORBIT_MAX_N} (asked for {n})")
    orbit = bytearray(1 << n * (n - 1) // 2)
    _mark_orbit(n, mask, orbit)
    return orbit.find(1)


@functools.lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on exactly ``n`` vertices, canonical reps in mask order.

    Sweeps the masks upward, marking each orbit as it is met. The first
    unmarked mask is the minimum of a new orbit, hence its canonical
    representative; the sweep visits every mask once. Capped at
    EXHAUSTIVE_MAX_N.
    """
    if n < 0:
        raise ValueError("negative size")
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(
            f"exhaustive enumeration supports n <= {EXHAUSTIVE_MAX_N} (asked for {n})"
        )
    seen = bytearray(1 << (n * (n - 1) // 2))
    reps = []
    mask = seen.find(0)
    while mask >= 0:
        reps.append(graph_from_mask(n, mask))
        _mark_orbit(n, mask, seen)
        mask = seen.find(0, mask + 1)
    return tuple(reps)
