"""Words over a mixed binary/ternary alphabet, codes of size at most three,
orbit canonicalization under the isometry group, and an exact small-instance
maximum-code oracle.

A word has ``n2`` binary coordinates followed by ``n3`` ternary coordinates.
The isometry group permutes coordinates within each block and permutes
letters independently in every coordinate.  Group elements are never
materialized for canonicalization: the orbit of a code is identified by
counting, per coordinate block, the equality pattern of a padded ordered
triple of its words, minimized over the six reorderings of the triple.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

# Column patterns: which of three stacked words agree in one coordinate.
# A binary column can never make all three words pairwise distinct.
PAT_ALL_EQUAL = 0  # {123}
PAT_12 = 1         # {12|3}
PAT_13 = 2         # {13|2}
PAT_23 = 3         # {1|23}
PAT_DISTINCT = 4   # {1|2|3}

N_BIN_PATTERNS = 4
N_TER_PATTERNS = 5

PATTERN_NAMES = ("123", "12|3", "13|2", "1|23", "1|2|3")


def _pattern_of(a, b, c) -> int:
    if a == b == c:
        return PAT_ALL_EQUAL
    if a == b:
        return PAT_12
    if a == c:
        return PAT_13
    if b == c:
        return PAT_23
    return PAT_DISTINCT


def _build_pattern_perms() -> tuple[tuple[int, ...], ...]:
    """Index maps induced on patterns by the six reorderings of a triple."""
    reps = {_pattern_of(*t): t for t in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 2)]}
    maps = []
    for g in permutations(range(3)):
        maps.append(tuple(
            _pattern_of(*(reps[p][g[i]] for i in range(3)))
            for p in range(N_TER_PATTERNS)
        ))
    return tuple(maps)


PATTERN_PERMS = _build_pattern_perms()


class ShapeError(ValueError):
    """Operands do not conform to the same problem dimensions."""


class SizeError(ValueError):
    """A code exceeds the supported cardinality."""


class ResourceError(RuntimeError):
    """An exact computation exceeds its configured cap."""


@dataclass(frozen=True)
class ProblemSpec:
    """Problem dimensions: n2 binary coordinates, n3 ternary ones, minimum
    distance d, and the hierarchy level k (3 for the SDP, 2 for the LP)."""

    n2: int
    n3: int
    d: int
    k: int = 3

    def __post_init__(self):
        if self.n2 < 1 or self.n3 < 1:
            raise ValueError(f"need n2 >= 1 and n3 >= 1, got ({self.n2}, {self.n3})")
        if not 1 <= self.d <= self.n2 + self.n3:
            raise ValueError(f"need 1 <= d <= n2+n3, got d={self.d}")
        if self.k not in (2, 3):
            raise ValueError(f"hierarchy level must be 2 or 3, got {self.k}")

    @property
    def length(self) -> int:
        return self.n2 + self.n3

    @property
    def num_words(self) -> int:
        return 2 ** self.n2 * 3 ** self.n3


@dataclass(frozen=True, order=True)
class Word:
    """A word: bits in {0,1}, trits in {0,1,2}."""

    bits: tuple[int, ...]
    trits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"binary symbols out of range: {self.bits}")
        if any(t not in (0, 1, 2) for t in self.trits):
            raise ValueError(f"ternary symbols out of range: {self.trits}")

    def conforms(self, spec: ProblemSpec) -> bool:
        return len(self.bits) == spec.n2 and len(self.trits) == spec.n3

    def __str__(self) -> str:
        return "".join(map(str, self.bits)) + "|" + "".join(map(str, self.trits))


def word(bits, trits) -> Word:
    return Word(tuple(bits), tuple(trits))


def zero_word(spec: ProblemSpec) -> Word:
    return Word((0,) * spec.n2, (0,) * spec.n3)


def all_words(spec: ProblemSpec):
    """Yield every word of the space, in lexicographic order."""
    for bits in product((0, 1), repeat=spec.n2):
        for trits in product((0, 1, 2), repeat=spec.n3):
            yield Word(bits, trits)


@dataclass(frozen=True)
class Code:
    """A set of distinct words, stored strictly sorted: a code of at most
    three words that an orbit describes, or a maximum code from
    ``optimal_code``."""

    words: tuple[Word, ...]

    def __post_init__(self):
        if any(self.words[i] >= self.words[i + 1] for i in range(len(self.words) - 1)):
            raise ValueError("words must be strictly sorted")

    def __len__(self) -> int:
        return len(self.words)

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.words)) + "}"


def code(*words: Word) -> Code:
    return Code(tuple(sorted(set(words))))


def hamming_distance(v: Word, w: Word) -> int:
    """Number of coordinates where two words differ."""
    if len(v.bits) != len(w.bits) or len(v.trits) != len(w.trits):
        raise ShapeError(f"length mismatch: {v} vs {w}")
    return sum(a != b for a, b in zip(v.bits, w.bits)) + sum(
        a != b for a, b in zip(v.trits, w.trits)
    )


def min_distance(c: Code) -> int | None:
    """Minimum pairwise distance; None for codes of size at most one."""
    if len(c) <= 1:
        return None
    return min(hamming_distance(v, w) for v, w in combinations(c.words, 2))


@dataclass(frozen=True, order=True)
class OrbitId:
    """Canonical invariant of a code orbit under the isometry group.

    ``bin_counts``/``ter_counts`` count column patterns of the padded ordered
    triple, lexicographically minimal over the six row reorderings (binary
    counts compared before ternary).  ``size`` is the code cardinality; it is
    stored explicitly so the empty code gets a distinct identifier.
    """

    size: int
    bin_counts: tuple[int, int, int, int]
    ter_counts: tuple[int, int, int, int, int]

    def describe(self) -> str:
        parts = [f"size={self.size}"]
        for counts, tag in ((self.bin_counts, "bin"), (self.ter_counts, "ter")):
            inner = " ".join(
                f"{PATTERN_NAMES[i]}:{c}" for i, c in enumerate(counts) if c
            )
            parts.append(f"{tag}[{inner}]")
        return " ".join(parts)


def _apply_pattern_perm(counts, perm_map, npat):
    out = [0] * npat
    for p, c in enumerate(counts):
        out[perm_map[p]] += c
    return tuple(out)


def _canonical_counts(bin_counts, ter_counts):
    best = None
    for pm in PATTERN_PERMS:
        cand = (
            _apply_pattern_perm(bin_counts, pm, N_BIN_PATTERNS),
            _apply_pattern_perm(ter_counts, pm, N_TER_PATTERNS),
        )
        if best is None or cand < best:
            best = cand
    return best


def _pair_separations(counts) -> tuple[int, int, int]:
    """Columns separating rows (1,2), (1,3), (2,3) for one block's counts."""
    d12 = counts[PAT_13] + counts[PAT_23]
    d13 = counts[PAT_12] + counts[PAT_23]
    d23 = counts[PAT_12] + counts[PAT_13]
    if len(counts) == N_TER_PATTERNS:
        d12 += counts[PAT_DISTINCT]
        d13 += counts[PAT_DISTINCT]
        d23 += counts[PAT_DISTINCT]
    return d12, d13, d23


def _size_from_counts(bin_counts, ter_counts) -> int:
    b = _pair_separations(bin_counts)
    t = _pair_separations(ter_counts)
    dists = tuple(x + y for x, y in zip(b, t))
    zeros = sum(1 for x in dists if x == 0)
    if zeros == 3:
        return 1
    if zeros == 1:
        return 2
    return 3


def orbit_from_counts(bin_counts, ter_counts) -> OrbitId:
    """OrbitId of any ordered triple with the given column-pattern counts."""
    cb, ct = _canonical_counts(tuple(bin_counts), tuple(ter_counts))
    return OrbitId(_size_from_counts(cb, ct), cb, ct)


def empty_orbit(spec: ProblemSpec) -> OrbitId:
    return OrbitId(0, (spec.n2, 0, 0, 0), (spec.n3, 0, 0, 0, 0))


def singleton_orbit(spec: ProblemSpec) -> OrbitId:
    return OrbitId(1, (spec.n2, 0, 0, 0), (spec.n3, 0, 0, 0, 0))


def pair_orbit(spec: ProblemSpec, d2: int, d3: int) -> OrbitId:
    """Canonical orbit of a pair of words differing in d2 binary and d3
    ternary coordinates."""
    if not (0 <= d2 <= spec.n2 and 0 <= d3 <= spec.n3 and d2 + d3 >= 1):
        raise ValueError(f"invalid pair profile ({d2}, {d3})")
    return OrbitId(
        2,
        (spec.n2 - d2, 0, 0, d2),
        (spec.n3 - d3, 0, 0, d3, 0),
    )


def canonical_orbit(spec: ProblemSpec, c: Code) -> OrbitId:
    """Canonical orbit invariant of a code of size at most three.

    The code is padded to an ordered triple (size 1 -> (v,v,v); size 2 ->
    (x,y,y) duplicating the lexicographically larger word), per-column
    patterns are counted, and the counts are minimized over the six row
    reorderings.  Two codes get equal OrbitIds exactly when some isometry
    maps one onto the other.
    """
    if len(c) > 3:
        raise SizeError(f"codes have at most 3 words, got {len(c)}")
    for w in c.words:
        if not w.conforms(spec):
            raise ShapeError(f"word {w} does not conform to ({spec.n2}, {spec.n3})")
    if len(c) == 0:
        return empty_orbit(spec)
    if len(c) == 1:
        triple = (c.words[0],) * 3
    elif len(c) == 2:
        triple = (c.words[0], c.words[1], c.words[1])
    else:
        triple = c.words
    bin_counts = [0] * N_BIN_PATTERNS
    for i in range(spec.n2):
        bin_counts[_pattern_of(*(w.bits[i] for w in triple))] += 1
    ter_counts = [0] * N_TER_PATTERNS
    for i in range(spec.n3):
        ter_counts[_pattern_of(*(w.trits[i] for w in triple))] += 1
    return orbit_from_counts(bin_counts, ter_counts)


def orbit_pair_distances(w: OrbitId) -> tuple[int, int, int]:
    """Pairwise distances d(1,2), d(1,3), d(2,3) of the canonical triple."""
    if w.size < 2:
        raise ValueError(f"pair distances undefined for size {w.size}")
    b = _pair_separations(w.bin_counts)
    t = _pair_separations(w.ter_counts)
    return tuple(x + y for x, y in zip(b, t))


def orbit_min_distance(w: OrbitId) -> int | None:
    """Minimum distance of any representative code, None for size <= 1."""
    if w.size <= 1:
        return None
    genuine = [x for x in orbit_pair_distances(w) if x > 0]
    return min(genuine)


def orbit_is_feasible(w: OrbitId, d: int) -> bool:
    if w.size <= 1:
        return True
    return orbit_min_distance(w) >= d


def _compositions(total: int, nparts: int):
    if nparts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, nparts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class OrbitTable:
    """All orbits of codes of size 0..3 for one spec, with stable indices.

    Index 0 is the empty code's orbit.  ``feasible[i]`` is True when every
    genuine pair of words in a representative is at distance >= d (sizes 0
    and 1 are always feasible).
    """

    spec: ProblemSpec
    orbits: tuple[OrbitId, ...]
    feasible: tuple[bool, ...]
    _index: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index.update({w: i for i, w in enumerate(self.orbits)})

    def __len__(self) -> int:
        return len(self.orbits)

    def index_of(self, w: OrbitId) -> int:
        return self._index[w]

    def feasible_indices(self) -> list[int]:
        return [i for i, ok in enumerate(self.feasible) if ok]


def enumerate_orbits(spec: ProblemSpec) -> OrbitTable:
    """Every orbit of codes of size 0..3, generated directly from pattern
    count vectors (never by scanning codes)."""
    seen = set()
    for bc in _compositions(spec.n2, N_BIN_PATTERNS):
        for tc in _compositions(spec.n3, N_TER_PATTERNS):
            seen.add(orbit_from_counts(bc, tc))
    ordered = [empty_orbit(spec)] + sorted(seen)
    flags = tuple(orbit_is_feasible(w, spec.d) for w in ordered)
    return OrbitTable(spec, tuple(ordered), flags)


# ---------------------------------------------------------------------------
# Exact oracle: maximum code size via branch-and-bound maximum clique on the
# graph whose vertices are words and whose edges join words at distance >= d.

DEFAULT_WORD_CAP = 1000


def _letter_masks(w: Word) -> tuple[int, int, int]:
    """Bit masks of a word's binary ones, ternary ones and ternary twos."""
    return (
        sum(x << i for i, x in enumerate(w.bits)),
        sum(1 << i for i, x in enumerate(w.trits) if x == 1),
        sum(1 << i for i, x in enumerate(w.trits) if x == 2),
    )


def _profile_graphs(
    spec: ProblemSpec, enc: list[tuple[int, int, int]]
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The feasible pair profiles (binary distance, ternary distance) in
    branching order, and for the profile of rank r the neighbour masks of the
    graph whose edges have a profile of rank >= r, over words given by their
    letter masks.  Rank 0 is the whole compatibility graph.

    Any fixed order is exact.  Of the orders tried, total distance, then
    ternary distance, ascending, gave the fewest search nodes on (5,2,3),
    the hardest sandwich instance of the acceptance suite."""
    profiles = sorted(
        ((b, t) for b in range(spec.n2 + 1) for t in range(spec.n3 + 1)
         if b + t >= spec.d),
        key=lambda p: (p[0] + p[1], p[1]),
    )
    rank = {p: r for r, p in enumerate(profiles)}
    n = len(enc)
    graphs = [[0] * n for _ in profiles]
    for i, (bi, oi, ti) in enumerate(enc):
        for j in range(i + 1, n):
            bj, oj, tj = enc[j]
            r = rank.get(((bi ^ bj).bit_count(), ((oi ^ oj) | (ti ^ tj)).bit_count()))
            if r is not None:
                graphs[r][i] |= 1 << j
                graphs[r][j] |= 1 << i
    for r in range(len(profiles) - 2, -1, -1):
        graphs[r] = [a | b for a, b in zip(graphs[r], graphs[r + 1])]
    return profiles, graphs


def _greedy_clique(adj: list[int], order: list[int]) -> int:
    mask = 0
    for v in order:
        if adj[v] & mask == mask:
            mask |= 1 << v
    return mask


class _BudgetExceeded(Exception):
    pass


def _max_clique_masked(
    adj: list[int],
    cand0: int,
    lower: int = 0,
    counter: list | None = None,
    limit: int | None = None,
) -> int:
    """Best clique within a candidate set, branch-and-bound with greedy
    coloring bounds.  Returns 0 unless a clique larger than ``lower`` is
    found (the caller's incumbent prunes the search).  ``counter``
    accumulates search nodes across calls; when it passes ``limit`` the
    search raises _BudgetExceeded instead of completing."""
    members = []
    m = cand0
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        members.append(v)
    if not members:
        return 0
    order = sorted(members, key=lambda v: (adj[v] & cand0).bit_count(), reverse=True)
    pos = {v: i for i, v in enumerate(order)}
    nn = len(order)
    full = (1 << nn) - 1
    radj = [0] * nn
    for v in members:
        m = adj[v] & cand0
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            radj[pos[v]] |= 1 << pos[u]
    # colour classes grow by intersecting with the non-neighbours
    nonadj = [full & ~(a | 1 << v) for v, a in enumerate(radj)]

    best_size = lower
    best_mask = 0
    # the incumbent is one greedy clique in degree order
    g = _greedy_clique(radj, range(nn))
    if g.bit_count() > best_size:
        best_size = g.bit_count()
        best_mask = g

    nodes = counter if counter is not None else [0]

    def expand(r_mask: int, r_size: int, cand: int):
        nonlocal best_mask, best_size
        nodes[0] += 1
        if limit is not None and nodes[0] > limit:
            raise _BudgetExceeded
        # greedy sequential colouring, lowest vertex first; a vertex of
        # colour k bounds its branch by r_size + k, so only the classes of
        # colour above best_size - r_size can ever be branched on
        bound = best_size if best_size > r_size else r_size
        skip = bound - r_size
        classes = []
        uncolored = cand
        while uncolored:
            cls = 0
            avail = uncolored
            while avail:
                low = avail & -avail
                cls |= low
                avail &= nonadj[low.bit_length() - 1]
            uncolored ^= cls
            if skip:
                skip -= 1
            else:
                classes.append(cls)
        bound += len(classes)
        for cls in reversed(classes):
            while cls:
                if bound <= best_size:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                new_cand = cand & radj[v]
                if new_cand:
                    expand(r_mask | bit, r_size + 1, new_cand)
                elif r_size + 1 > best_size:
                    best_size = r_size + 1
                    best_mask = r_mask | bit
                cand ^= bit
            bound -= 1

    expand(0, 0, full)
    out = 0
    m = best_mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        out |= 1 << order[v]
    return out


def _max_clique_words(
    spec: ProblemSpec,
    words: list[Word],
    node_budget: int | None = None,
) -> int:
    """Bitmask of one maximum code, by a two-phase exact search.

    Phase 1 runs the branch-and-bound on the whole graph under a small node
    cap; the dense graphs of small d, such as (5,2,2), close there within a
    few hundred nodes.  Otherwise phase 2 branches on the isometry group.

    Minimum-profile branching.  The profile of a pair of words, (binary
    distance, ternary distance), is kept by every isometry, and the feasible
    profiles have a fixed total order (``_profile_graphs``).  A code of two
    or more words has a pair whose profile p is lowest among its pairs.  The
    group is transitive on words, and the stabilizer of the zero word is
    transitive on the words of each profile, so an isometry maps that pair
    to (zero, rep_p), where rep_p has its ones in the leading coordinates of
    each block.  The image is a clique of G_p, the graph of the edges whose
    profile ranks at or above p.  So branch p searches G_p only, within the
    common neighbourhood of zero and rep_p, and the later a profile comes,
    the fewer edges its branch sees.

    Stabilizer-orbit exclusion.  The pointwise stabilizer H of (zero, rep_p)
    permutes the binary coordinates inside the support of rep_p and outside
    it, the ternary ones likewise, and swaps the letters 1 and 2 in the
    ternary coordinates outside the support.  The orbit of a word under H is
    therefore given by its ones inside and outside the binary support, its
    ones and its twos inside the ternary support, and its nonzeros outside
    it.  H keeps G_p and the candidates, so the third word runs over one
    representative per orbit.  Take a code through zero and rep_p, and let O
    be the first of its words' orbits in branch order: an element of H maps
    its word in O to O's representative and keeps every orbit, so the image
    lies in O's branch and uses no word of an earlier orbit.  Each orbit is
    therefore removed from the candidates of the later branches once its own
    branch has been searched or pruned by the incumbent.

    ``node_budget`` caps the total search nodes over both phases; on
    exhaustion the search stops with _BudgetExceeded (exactness preserved:
    no partial answer is returned).
    """
    enc = [_letter_masks(w) for w in words]
    profiles, graphs = _profile_graphs(spec, enc)
    adj = graphs[0]
    n = len(words)
    full = (1 << n) - 1

    counter = [0]
    phase1_limit = 1_000 if node_budget is None else min(1_000, node_budget)
    try:
        return _max_clique_masked(adj, full, counter=counter, limit=phase1_limit)
    except _BudgetExceeded:
        pass

    # incumbent for the profile phase; a greedy clique is maximal, and every
    # word has a neighbour, so it holds at least two words
    degree_order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    best = _greedy_clique(adj, degree_order)
    best_size = best.bit_count()

    zero_idx = enc.index((0, 0, 0))
    for (w2, w3), g in zip(profiles, graphs):
        sup2 = (1 << w2) - 1
        sup3 = (1 << w3) - 1
        rep_idx = enc.index((sup2, sup3, 0))
        pair_mask = (1 << zero_idx) | (1 << rep_idx)
        cand = g[zero_idx] & g[rep_idx]
        orbits = {}
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            b, o, t = enc[v]
            key = (
                (b & sup2).bit_count(), (b & ~sup2).bit_count(),
                (o & sup3).bit_count(), (t & sup3).bit_count(),
                ((o | t) & ~sup3).bit_count(),
            )
            orbits[key] = orbits.get(key, 0) | 1 << v
        # largest orbits first, as each one leaves every later branch; among
        # equal sizes, the narrower branch first
        branches = []
        for orbit in orbits.values():
            third = (orbit & -orbit).bit_length() - 1
            branches.append(
                (-orbit.bit_count(), (cand & g[third]).bit_count(), third, orbit)
            )
        for _, _, third, orbit in sorted(branches):
            triple_cand = cand & g[third]
            if triple_cand.bit_count() + 3 > best_size:
                sub = _max_clique_masked(
                    g, triple_cand, lower=best_size - 3,
                    counter=counter, limit=node_budget,
                )
                size = sub.bit_count() + 3 if sub else 3
                if size > best_size:
                    best = sub | pair_mask | 1 << third
                    best_size = size
            cand &= ~orbit
    return best


def optimal_code(
    spec: ProblemSpec,
    cap: int = DEFAULT_WORD_CAP,
    node_budget: int | None = None,
) -> Code:
    """A maximum code with minimum distance >= d, by exact clique search.

    ``node_budget``, when given, caps the branch-and-bound search nodes;
    exceeding it raises ResourceError (deterministically for a given spec).
    """
    if spec.num_words > cap:
        raise ResourceError(
            f"word space {spec.num_words} exceeds oracle cap {cap}"
        )
    words = list(all_words(spec))
    # the clique search recurses; the raised limit holds only while it runs
    saved_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved_limit, spec.num_words + 2000))
    try:
        mask = _max_clique_words(spec, words, node_budget)
    except _BudgetExceeded:
        raise ResourceError(
            f"oracle node budget {node_budget} exceeded for "
            f"({spec.n2},{spec.n3},{spec.d})"
        ) from None
    finally:
        sys.setrecursionlimit(saved_limit)
    picked = [words[i] for i in range(len(words)) if mask >> i & 1]
    return code(*picked)


def exact_n(
    spec: ProblemSpec,
    cap: int = DEFAULT_WORD_CAP,
    node_budget: int | None = None,
) -> int:
    """Exact maximum cardinality of a code with minimum distance >= d."""
    return len(optimal_code(spec, cap, node_budget))
