"""Conflict graphs, timetabling instances, partitions and combinatorial bounds.

Vertex ids are dense 0-based integers throughout; parsers renumber on ingest.
All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ConflictGraph",
    "TimetablingInstance",
    "Partition",
    "ValidationReport",
    "gen_gnp",
    "gen_kneser",
    "gen_forbidden_intersection",
    "complete_graph",
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "connected_components",
    "counting_bound",
    "check_precolouring",
    "validate_partition",
    "class_violations",
    "ClassCounts",
]


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected graph whose edges join events that must not share a period.

    edges, the pairs (u, v) with 0 <= u < v < n, is the graph's value, equality
    and hash.  Construction decides its array form once: ends, the edges as a
    read-only (E, 2) int64 array in lexicographic order, which consumers read
    instead of ordering edges themselves, and the adjacency bitsets.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    _adjacency: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        flat = np.fromiter(itertools.chain.from_iterable(self.edges), np.int64,
                           2 * len(self.edges))
        u, v = flat[0::2], flat[1::2]
        bad = (u >= v) | (u < 0) | (v >= n)
        if bad.any():  # name the first faulty edge in lexicographic order
            a, b = min(zip(u[bad].tolist(), v[bad].tolist()))
            if a >= b:
                raise ValueError(f"edge ({a},{b}) is not a pair u < v")
            raise ValueError(f"edge ({a},{b}) has an endpoint outside 0..n-1 (n={n})")
        # u * n + v orders the pairs lexicographically, as 0 <= u, v < n
        ends = np.stack(np.divmod(np.sort(u * n + v), max(n, 1)), axis=1)
        ends.flags.writeable = False
        dense = np.zeros((n, n), dtype=bool)
        dense[u, v] = dense[v, u] = True
        packed = np.packbits(dense, axis=1, bitorder="little")
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "_adjacency", tuple(
            int.from_bytes(row.tobytes(), "little") for row in packed))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "ConflictGraph":
        """The graph of edges given in either order; a self-loop is refused."""
        return ConflictGraph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._adjacency[v].bit_count()

    def is_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def non_edges(self) -> np.ndarray:
        """The complement's edges as an (E', 2) int64 array, in lexicographic
        order."""
        upper = np.triu(np.ones((self.n, self.n), dtype=bool), 1)
        upper[self.ends[:, 0], self.ends[:, 1]] = False
        return np.argwhere(upper)

    def adjacency_bitsets(self) -> tuple[int, ...]:
        """The graph's one adjacency, built once: bit w of [v] is set iff vw is
        an edge."""
        return self._adjacency

    def subgraph(self, vertices: Iterable[int]) -> tuple["ConflictGraph", tuple[int, ...]]:
        """Induced subgraph; returns (graph, old-id-per-new-id) with ids renumbered."""
        kept = tuple(sorted(set(vertices)))
        index = {old: new for new, old in enumerate(kept)}
        edges = frozenset(
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        )
        return ConflictGraph(len(kept), edges), kept


def gen_gnp(n: int, p: float, seed: int) -> ConflictGraph:
    """Erdos-Renyi G(n, p) under numpy's PCG64 stream.

    Pairs are scanned in lexicographic (u, v) order, u < v, and pair k is kept
    when the k-th uniform draw is < p, so instances reproduce across machines
    for a fixed (n, p, seed).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    u, v = np.triu_indices(n, 1)  # the pairs in that order
    keep = np.random.default_rng(seed).random(u.size) < p
    return ConflictGraph(n, frozenset(zip(u[keep].tolist(), v[keep].tolist())))


def gen_kneser(n: int, k: int) -> ConflictGraph:
    """Kneser graph K(n, k): k-subsets of {1..n}, adjacent iff disjoint."""
    if k < 1 or k >= n:
        raise ValueError(f"require n > k >= 1, got n={n}, k={k}")
    subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    return ConflictGraph(len(subsets), frozenset(
        (i, j) for i, j in itertools.combinations(range(len(subsets)), 2)
        if not subsets[i] & subsets[j]))


def gen_forbidden_intersection(m: int, gamma: float) -> ConflictGraph:
    """Bit strings of length m, adjacent iff Hamming distance equals (1-gamma)*m.

    The distance must be an integer >= 1; evenness is not required, so rows
    like gamma = 5/6 (distance 1) are accepted.
    """
    if m < 1:
        raise ValueError("bit length must be >= 1")
    d_real = (1.0 - gamma) * m
    d = round(d_real)
    if abs(d_real - d) > 1e-9:
        raise ValueError(f"(1-gamma)*m = {d_real} is not an integer")
    if d < 1:
        raise ValueError(f"(1-gamma)*m = {d} must be >= 1")
    size = 1 << m
    return ConflictGraph(size, frozenset(
        (u, v) for u, v in itertools.combinations(range(size), 2)
        if (u ^ v).bit_count() == d))


def complete_graph(n: int) -> ConflictGraph:
    return ConflictGraph(n, frozenset(itertools.combinations(range(n), 2)))


def empty_graph(n: int) -> ConflictGraph:
    return ConflictGraph(n, frozenset())


def path_graph(n: int) -> ConflictGraph:
    return ConflictGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> ConflictGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return ConflictGraph(n, frozenset(edges))


def connected_components(g: ConflictGraph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, sorted by size then smallest member."""
    adj = g.adjacency_bitsets()
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        members = []
        while frontier:  # each vertex joins the frontier once, when first reached
            low = frontier & -frontier
            frontier ^= low
            members.append(low.bit_length() - 1)
            new = adj[members[-1]] & ~comp
            comp |= new
            frontier |= new
        unseen &= ~comp
        comps.append(frozenset(members))
    return sorted(comps, key=lambda c: (len(c), min(c)))


def counting_bound(n: int, m: int) -> int:
    """ceil(n / m): the trivial lower bound from class-size limits."""
    if m < 1:
        raise ValueError("bound m must be >= 1")
    return -(-n // m)


def check_precolouring(n: int, m: int, classes: Iterable[frozenset[int]]) -> set[int]:
    """The pre-coloured vertices; a class larger than m, overlapping another
    or holding a vertex outside 0..n-1 is rejected."""
    seen: set[int] = set()
    for cls in classes:
        if len(cls) > m:
            raise ValueError("pre-colouring class larger than m")
        if seen & cls:
            raise ValueError("pre-colouring classes must be disjoint")
        if any(not 0 <= v < n for v in cls):
            raise ValueError("pre-colouring vertex out of range")
        seen |= cls
    return seen


@dataclass(frozen=True)
class TimetablingInstance:
    """Conflict graph plus room bound, sizes, capacities, features, pre-colouring.

    Defaults make a bare colouring instance: unit event sizes, m unit-capacity
    rooms, no features, no pre-colouring, no weights.
    """

    graph: ConflictGraph
    m: int
    event_sizes: tuple[int, ...] = ()
    room_capacities: tuple[int, ...] = ()
    feature_count: int = 0
    event_features: frozenset[tuple[int, int]] = frozenset()
    room_features: frozenset[tuple[int, int]] = frozenset()
    precolouring: tuple[frozenset[int], ...] = ()
    weights: tuple[int, ...] | None = None
    lectures: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n = self.graph.n
        if self.m < 1:
            raise ValueError("room count m must be >= 1")
        if not self.event_sizes:
            object.__setattr__(self, "event_sizes", (1,) * n)
        if not self.room_capacities:
            cap = max(self.event_sizes, default=1)
            object.__setattr__(self, "room_capacities", (cap,) * self.m)
        if len(self.event_sizes) != n:
            raise ValueError("event_sizes length must equal vertex count")
        if len(self.room_capacities) != self.m:
            raise ValueError("room_capacities length must equal m")
        if any(s < 1 for s in self.event_sizes):
            raise ValueError("event sizes must be >= 1")
        if any(c < 1 for c in self.room_capacities):
            raise ValueError("room capacities must be >= 1")
        for v, f in self.event_features:
            if not (0 <= v < n and 0 <= f < self.feature_count):
                raise ValueError(f"event feature ({v},{f}) out of range")
        for r, f in self.room_features:
            if not (0 <= r < self.m and 0 <= f < self.feature_count):
                raise ValueError(f"room feature ({r},{f}) out of range")
        check_precolouring(n, self.m, self.precolouring)
        if self.weights is not None:
            if len(self.weights) != n:
                raise ValueError("weights length must equal vertex count")
            if any(w < 1 for w in self.weights):
                raise ValueError("weights must be >= 1")

    @staticmethod
    def colouring(graph: ConflictGraph, m: int) -> "TimetablingInstance":
        return TimetablingInstance(graph=graph, m=m)

    def vertex_weight(self, v: int) -> int:
        return 1 if self.weights is None else self.weights[v]

    def features_of(self, v: int) -> frozenset[int]:
        return frozenset(f for (u, f) in self.event_features if u == v)

    def rooms_with_feature(self, f: int) -> frozenset[int]:
        return frozenset(r for (r, g) in self.room_features if g == f)

    def compatible_rooms(self, v: int) -> list[int]:
        """Rooms whose capacity and features admit event v."""
        need = self.features_of(v)
        out = []
        for r in range(self.m):
            if self.room_capacities[r] < self.event_sizes[v]:
                continue
            have = frozenset(f for (rr, f) in self.room_features if rr == r)
            if need <= have:
                out.append(r)
        return out


@dataclass(frozen=True)
class Partition:
    """Ordered colour classes, optionally with a per-vertex room assignment."""

    classes: tuple[frozenset[int], ...]
    room_of: Mapping[int, int] | None = None

    @staticmethod
    def from_lists(classes: Iterable[Iterable[int]],
                   room_of: Mapping[int, int] | None = None) -> "Partition":
        return Partition(tuple(frozenset(c) for c in classes if c), room_of)

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def class_violations(inst: TimetablingInstance, members: Iterable[int]) -> list[str]:
    """Violations of one colour class against edges, size, capacities, features.

    The capacity rule counts, for each distinct capacity c, events needing
    more than c against rooms offering more than c; exact on laminar instances.
    """
    mem = sorted(set(members))
    out = []
    adj = inst.graph.adjacency_bitsets()
    mask = sum(1 << v for v in mem)
    for v in mem:
        above = adj[v] & mask & -(2 << v)  # v's neighbours in the class above v
        if above:
            out += [f"edge conflict ({v},{w}) within a class" for w in mem if above >> w & 1]
    weight = sum(inst.vertex_weight(v) for v in mem)
    if weight > inst.m:
        out.append(f"class weight {weight} exceeds m={inst.m}")
    for c in sorted(set(inst.room_capacities)):
        big = [v for v in mem if inst.event_sizes[v] > c]
        rooms = sum(1 for r in inst.room_capacities if r > c)
        if len(big) > rooms:
            out.append(
                f"{len(big)} events larger than capacity {c} but only "
                f"{rooms} larger rooms"
            )
    for f in range(inst.feature_count):
        need = [v for v in mem if (v, f) in inst.event_features]
        have = sum(1 for r in range(inst.m) if (r, f) in inst.room_features)
        if len(need) > have:
            out.append(
                f"{len(need)} events need feature {f} available in {have} rooms"
            )
    return out


class ClassCounts:
    """The counts class_violations bounds, packed into one int per event group.

    For each group (a set of events that always share a class, such as a
    pre-colouring class) the counts are its weight, its count of events larger
    than each distinct room capacity and its count of events needing each
    feature; their limits are m, the rooms larger than each capacity and the
    rooms offering each feature.  A class with no conflict edge inside keeps every
    rule of class_violations iff the sum of its groups' counts is <= limits
    entry-wise.  group_counts[a] and limits hold them unpacked, for a caller
    that weighs by how much a class exceeds each limit.

    Encoding: count i is a field of w_i bits, w_i the bit length of the larger
    of limit i and the count's total over all groups, with one guard bit
    above it; profile[a] is group a's counts packed so (pack).  A class's
    running total is then the plain int sum of its groups' profiles (the
    empty class is 0), and adding slack_i = 2^w_i - 1 - limit_i to
    field i carries into its guard bit iff the field exceeds its limit.  So
    fits(t) is `not (t + slack) & guard`, and admits(t, a) is one add of the
    precomputed profile[a] + slack and one AND.  This is exact for every
    total of distinct groups: such a field is at most the count's total over
    all groups, below 2^w_i, so no field reaches its guard bit by addition,
    and field plus slack stays below 2^(w_i + 1), so no carry crosses into
    the next field.
    """

    def __init__(self, limits: Sequence[int], profiles: Sequence[Sequence[int]]):
        self.limits = tuple(limits)
        self.group_counts = tuple(tuple(p) for p in profiles)
        self.weight = [p[0] for p in profiles]  # the first count is the weight
        self._shifts = []
        shift = slack = guard = 0
        for i, limit in enumerate(limits):
            total = sum(p[i] for p in profiles)
            width = max(limit, total).bit_length()
            self._shifts.append(shift)
            slack |= ((1 << width) - 1 - limit) << shift
            guard |= 1 << (shift + width)
            shift += width + 1
        self._slack, self._guard = slack, guard
        self.profile = [self.pack(p) for p in profiles]
        self._slacked = [p + slack for p in self.profile]

    @classmethod
    def of_groups(cls, inst: TimetablingInstance,
                  groups: Sequence[Sequence[int]]) -> "ClassCounts":
        """The counts of each group of inst's events, against inst's rooms."""
        caps = sorted(set(inst.room_capacities))
        feats = range(inst.feature_count)
        limits = (
            inst.m,
            *(sum(1 for r in inst.room_capacities if r > c) for c in caps),
            *(sum(1 for r in range(inst.m) if (r, f) in inst.room_features)
              for f in feats),
        )
        return cls(limits, [(
            sum(inst.vertex_weight(v) for v in mem),
            *(sum(1 for v in mem if inst.event_sizes[v] > c) for c in caps),
            *(sum(1 for v in mem if (v, f) in inst.event_features) for f in feats),
        ) for mem in groups])

    def pack(self, counts: Sequence[int]) -> int:
        """The int that holds these counts, one per limit, in their fields."""
        return sum(c << s for c, s in zip(counts, self._shifts))

    def fits(self, total: int) -> bool:
        """Whether a class with this profile total keeps every count rule."""
        return not (total + self._slack) & self._guard

    def admits(self, total: int, a: int) -> bool:
        """Whether a class with this total still fits after adding group a."""
        return not (total + self._slacked[a]) & self._guard


def validate_partition(inst: TimetablingInstance, part: Partition) -> ValidationReport:
    """Check every condition of the timetabling problem; violations are data."""
    violations: list[str] = []
    n = inst.graph.n
    covered: dict[int, int] = {}
    for i, cls in enumerate(part.classes):
        for v in cls:
            if v in covered:
                violations.append(f"vertex {v} in classes {covered[v]} and {i}")
            covered[v] = i
    missing = [v for v in range(n) if v not in covered]
    if missing:
        violations.append(f"vertices not covered: {missing}")
    extra = [v for v in covered if not 0 <= v < n]
    if extra:
        violations.append(f"unknown vertices: {sorted(extra)}")
    for i, cls in enumerate(part.classes):
        # unknown vertices are reported above and have no adjacency to check
        for msg in class_violations(inst, [v for v in cls if 0 <= v < n]):
            violations.append(f"class {i}: {msg}")
    for pre in inst.precolouring:
        hit = {covered.get(v) for v in pre}
        if len(hit) > 1:
            violations.append(f"pre-colouring class {sorted(pre)} split across {sorted(hit, key=str)}")
    if part.room_of is not None:
        for i, cls in enumerate(part.classes):
            used: dict[int, int] = {}
            for v in sorted(cls):
                r = part.room_of.get(v)
                if r is None:
                    violations.append(f"class {i}: vertex {v} has no room")
                    continue
                if not 0 <= r < inst.m:
                    violations.append(f"class {i}: room {r} out of range")
                    continue
                if r in used:
                    violations.append(
                        f"class {i}: room {r} used by both {used[r]} and {v}"
                    )
                used[r] = v
                if inst.room_capacities[r] < inst.event_sizes[v]:
                    violations.append(
                        f"class {i}: event {v} of size {inst.event_sizes[v]} "
                        f"in room {r} of capacity {inst.room_capacities[r]}"
                    )
                for f in inst.features_of(v):
                    if (r, f) not in inst.room_features:
                        violations.append(
                            f"class {i}: event {v} needs feature {f} missing in room {r}"
                        )
    return ValidationReport(ok=not violations, violations=tuple(violations))
