"""Independent brute-force oracles used to pin expected values.

Everything here avoids the package's search kernels on purpose: cliques and
independent sets come from plain subset enumeration, matchings from edge
combinations, and colorings from restricted-growth-string partition
enumeration. Slow and obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from stingycolor import Graph
from stingycolor.lonely import check_max_len


def subsets(items):
    for k in range(len(items) + 1):
        yield from combinations(items, k)


def clique_number_oracle(g: Graph) -> int:
    best = 0
    for sub in subsets(range(g.n)):
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            best = max(best, len(sub))
    return best


def independence_number_oracle(g: Graph) -> int:
    best = 0
    for sub in subsets(range(g.n)):
        if not any(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            best = max(best, len(sub))
    return best


def matching_number_oracle(g: Graph) -> int:
    edges = list(g.edges())
    for size in range(g.n // 2, 0, -1):
        for combo in combinations(edges, size):
            used = [v for e in combo for v in e]
            if len(set(used)) == 2 * size:
                return size
    return 0


def partitions_up_to_k(n: int, k: int):
    """All partitions of 0..n-1 into at most k blocks (restricted growth)."""
    if n == 0:
        yield []
        return
    assignment = [0] * n

    def rec(i: int, used: int):
        if i == n:
            blocks = [[] for _ in range(used)]
            for v, b in enumerate(assignment):
                blocks[b].append(v)
            yield blocks
            return
        for b in range(min(used + 1, k)):
            assignment[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(1, 1)


def is_proper_blocks(g: Graph, blocks) -> bool:
    return not any(
        g.has_edge(u, v) for block in blocks for u, v in combinations(block, 2)
    )


def chromatic_number_oracle(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for blocks in partitions_up_to_k(g.n, k):
            if is_proper_blocks(g, blocks):
                return k
    raise AssertionError("discrete partition is always proper")


def optimal_colorings_oracle(g: Graph, cap: int | None = None) -> set:
    """Canonical forms (frozenset of frozensets) of all optimal colorings,
    optionally restricted to class sizes at most cap."""
    if g.n == 0:
        return {frozenset()}
    chi = None
    found: set = set()
    for k in range(1, g.n + 1):
        for blocks in partitions_up_to_k(g.n, k):
            if len(blocks) != k:
                continue
            if cap is not None and any(len(b) > cap for b in blocks):
                continue
            if is_proper_blocks(g, blocks):
                found.add(frozenset(frozenset(b) for b in blocks))
        if found:
            chi = k
            break
    assert chi is not None
    return found


def iota_oracle(g: Graph, cap: int | None = None) -> int:
    best = 0
    for coloring in optimal_colorings_oracle(g, cap):
        best = max(best, sum(1 for cls in coloring if len(cls) == 1))
    return best


def bounded_oracle(g: Graph, r: int) -> tuple[int, int, int]:
    """(chi_r, M_r, iota_r) from full enumeration of optimal r-bounded colorings."""
    colorings = optimal_colorings_oracle(g, cap=r)
    chi_r = len(next(iter(colorings))) if g.n else 0
    m_r = max((sum(1 for cls in c if len(cls) == r) for c in colorings), default=0)
    iota_r = max((sum(1 for cls in c if len(cls) == 1) for c in colorings), default=0)
    return chi_r, m_r, iota_r


def are_isomorphic(g: Graph, h: Graph) -> bool:
    from itertools import permutations

    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    for perm in permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in g.edges()):
            return True
    return g.edge_count() == 0


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    """Bit t of an adjacency mask is the pair (i, j), i < j, in graph6 order:
    columns j = 1..n-1, rows i = 0..j-1."""
    return [(i, j) for j in range(1, n) for i in range(j)]


@lru_cache(maxsize=None)
def _perm_bit_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For every permutation of 0..n-1: the bit each mask bit is sent to."""
    pairs = _edge_pairs(n)
    index = {pair: t for t, pair in enumerate(pairs)}
    return tuple(
        tuple(index[(min(p[i], p[j]), max(p[i], p[j]))] for i, j in pairs)
        for p in permutations(range(n))
    )


def _permuted_mask(mask: int, table: tuple[int, ...]) -> int:
    return sum(1 << table[t] for t in range(len(table)) if mask >> t & 1)


def canonical_mask_oracle(n: int, mask: int) -> int:
    """Minimum of ``mask`` over all n! vertex permutations."""
    return min(_permuted_mask(mask, table) for table in _perm_bit_tables(n))


def all_graphs_oracle(n: int) -> tuple[Graph, ...]:
    """One graph per isomorphism class on n vertices: every mask that no
    permutation makes smaller, in increasing mask order."""
    pairs = _edge_pairs(n)
    tables = _perm_bit_tables(n)[1:]
    reps = []
    for mask in range(1 << len(pairs)):
        if all(_permuted_mask(mask, table) >= mask for table in tables):
            edges = [pair for t, pair in enumerate(pairs) if mask >> t & 1]
            reps.append(Graph.from_edges(n, edges))
    return tuple(reps)


def enum_partitions_oracle(adj: tuple[int, ...], n: int, k: int | None,
                           cap: int | None):
    """Reference order for ``coloring._enum_partitions``: the recursive
    generator it replaced. Proper partitions as class masks, each class
    opened by its least vertex; vertex v tries the open classes in order,
    then a new class. Exactly ``k`` classes if k is given."""
    if n == 0:
        if k in (None, 0):
            yield []
        return
    if k == 0:
        return
    if k is not None and cap is not None and k * cap < n:
        return
    masks: list[int] = []
    sizes: list[int] = []

    def rec(v: int):
        if v == n:
            if k is None or len(masks) == k:
                yield list(masks)
            return
        if k is not None and len(masks) + (n - v) < k:
            return
        bit = 1 << v
        av = adj[v]
        for j in range(len(masks)):
            if masks[j] & av:
                continue
            if cap is not None and sizes[j] >= cap:
                continue
            masks[j] |= bit
            sizes[j] += 1
            yield from rec(v + 1)
            masks[j] ^= bit
            sizes[j] -= 1
        if k is None or len(masks) < k:
            masks.append(bit)
            sizes.append(1)
            yield from rec(v + 1)
            masks.pop()
            sizes.pop()

    yield from rec(0)


@dataclass(frozen=True)
class LonelyPathPair:
    """Two vertex-disjoint directed lonely paths rooted at distinct singleton
    classes, each visiting at most one vertex per color class."""

    pa: tuple[int, ...]
    pb: tuple[int, ...]


def class_of(blocks) -> dict[int, int]:
    """Each vertex's class index under the coloring ``blocks``."""
    return {v: i for i, block in enumerate(blocks) for v in block}


def lonely_arcs_oracle(g: Graph, blocks) -> list[list[int]]:
    """Per vertex v, the heads w of the lonely arcs v -> w under the coloring
    ``blocks`` (lists of vertices), in increasing order: v and w lie in
    different classes and w is v's only neighbour in w's class."""
    home = class_of(blocks)
    return [[w for w in range(g.n) if home[v] != home[w]
             and [u for u in blocks[home[w]] if g.has_edge(v, u)] == [w]]
            for v in range(g.n)]


def lonely_paths_oracle(arcs, home, start: int, max_len: int,
                        forbidden=frozenset()) -> list[tuple[int, ...]]:
    """Directed paths from ``start`` along ``arcs`` (``lonely_arcs_oracle``)
    with at most max_len vertices, at most one vertex per class (``home``
    maps a vertex to its class) and none in ``forbidden``, in lex order: a
    depth-first walk over the arcs in increasing head order that prunes at
    every forbidden, repeated vertex or repeated class."""
    found = []

    def walk(path):
        found.append(tuple(path))
        if len(path) == max_len:
            return
        for w in arcs[path[-1]]:
            if w in forbidden or w in path or home[w] in {home[u] for u in path}:
                continue
            walk(path + [w])

    if start not in forbidden:
        walk([start])
    return found


def enumerate_lonely_path_pairs(g: Graph, c, max_len: int = 3,
                                view=None) -> list[LonelyPathPair]:
    """Every path pair the join lemma speaks of, in ``join_failures``'s
    order: for singleton roots a < b, each lonely path pa from a, then each
    lonely path pb from b that avoids pa's vertices. The coloring is ``c``,
    or the class masks of ``view`` if given (``c`` is then not read)."""
    check_max_len(max_len)
    if view is not None:
        blocks = [[v for v in range(g.n) if m >> v & 1] for m in view.masks]
    else:
        blocks = [list(cls) for cls in c.classes]
    singles = sorted(block[0] for block in blocks if len(block) == 1)
    arcs, home = lonely_arcs_oracle(g, blocks), class_of(blocks)
    pairs = []
    for ia, a in enumerate(singles):
        for b in singles[ia + 1:]:
            for pa in lonely_paths_oracle(arcs, home, a, max_len):
                for pb in lonely_paths_oracle(arcs, home, b, max_len, frozenset(pa)):
                    pairs.append(LonelyPathPair(pa, pb))
    return pairs
