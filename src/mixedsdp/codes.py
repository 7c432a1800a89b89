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

import random
import sys
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from math import factorial

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

# Number of column fillings realizing each pattern (choices of letters).
_BIN_FILLINGS = (2, 2, 2, 2)
_TER_FILLINGS = (3, 6, 6, 6, 6)


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
    """A set of at most three distinct words, stored strictly sorted."""

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

    def pair_profile(self) -> tuple[int, int]:
        """(binary, ternary) distance split of a size-2 orbit."""
        if self.size != 2:
            raise ValueError(f"pair profile undefined for size {self.size}")
        return self.bin_counts[PAT_23], self.ter_counts[PAT_23]

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
    _index: dict = field(default_factory=dict, repr=False, compare=False)

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


def _multinomial(counts) -> int:
    n = sum(counts)
    out = factorial(n)
    for c in counts:
        out //= factorial(c)
    return out


def orbit_size(spec: ProblemSpec, w: OrbitId) -> int:
    """Number of codes in the orbit.

    Ordered triples with a fixed pattern count vector number
    multinomial(columns) * (letter fillings per column); a set of size >= 2
    corresponds to exactly 6 ordered triples ranging over the distinct
    relabelings of the canonical counts, a singleton to one.
    """
    if w.size == 0:
        return 1
    variants = {
        (
            _apply_pattern_perm(w.bin_counts, pm, N_BIN_PATTERNS),
            _apply_pattern_perm(w.ter_counts, pm, N_TER_PATTERNS),
        )
        for pm in PATTERN_PERMS
    }
    total = 0
    for bc, tc in variants:
        fill = 1
        for c, f in zip(bc, _BIN_FILLINGS):
            fill *= f ** c
        for c, f in zip(tc, _TER_FILLINGS):
            fill *= f ** c
        total += _multinomial(bc) * _multinomial(tc) * fill
    return total // (6 if w.size >= 2 else 1)


# ---------------------------------------------------------------------------
# Isometries (used by tests and the reduction verifier; the engine itself
# only ever works with canonical forms).

@dataclass(frozen=True)
class Isometry:
    """One distance-preserving bijection: coordinate permutations within each
    block plus a letter permutation per coordinate."""

    bin_perm: tuple[int, ...]
    bin_letter: tuple[tuple[int, ...], ...]
    ter_perm: tuple[int, ...]
    ter_letter: tuple[tuple[int, ...], ...]

    def apply_word(self, w: Word) -> Word:
        bits = tuple(
            self.bin_letter[i][w.bits[self.bin_perm[i]]] for i in range(len(w.bits))
        )
        trits = tuple(
            self.ter_letter[i][w.trits[self.ter_perm[i]]] for i in range(len(w.trits))
        )
        return Word(bits, trits)

    def apply_code(self, c: Code) -> Code:
        return code(*(self.apply_word(w) for w in c.words))


def random_isometry(spec: ProblemSpec, rng: random.Random) -> Isometry:
    bp = list(range(spec.n2))
    rng.shuffle(bp)
    tp = list(range(spec.n3))
    rng.shuffle(tp)
    bl = tuple(tuple(rng.sample(range(2), 2)) for _ in range(spec.n2))
    tl = tuple(tuple(rng.sample(range(3), 3)) for _ in range(spec.n3))
    return Isometry(tuple(bp), bl, tuple(tp), tl)


def all_isometries(spec: ProblemSpec):
    """Every group element; exponential, for tiny separation tests only."""
    bin_letters = list(permutations(range(2)))
    ter_letters = list(permutations(range(3)))
    for bp in permutations(range(spec.n2)):
        for tp in permutations(range(spec.n3)):
            for bl in product(bin_letters, repeat=spec.n2):
                for tl in product(ter_letters, repeat=spec.n3):
                    yield Isometry(bp, bl, tp, tl)


# ---------------------------------------------------------------------------
# Exact oracle: maximum code size via branch-and-bound maximum clique on the
# graph whose vertices are words and whose edges join words at distance >= d.

DEFAULT_WORD_CAP = 1000


def _compatibility_masks(spec: ProblemSpec, words: list[Word]) -> list[int]:
    n = len(words)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if hamming_distance(words[i], words[j]) >= spec.d:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _greedy_clique(adj: list[int], order: list[int]) -> int:
    mask = 0
    for v in order:
        if adj[v] & mask == mask:
            mask |= 1 << v
    return mask


def _improve_clique(adj: list[int], clique: int, universe: int, rounds: int = 20) -> int:
    """Drop-one-extend local search around a clique (incumbent sharpening)."""
    n = len(adj)
    best = clique
    for _ in range(rounds):
        improved = False
        m = best
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            reduced = best & ~(1 << v)
            cand = universe & ~(1 << v)
            r = reduced
            while r:
                u = (r & -r).bit_length() - 1
                r &= r - 1
                cand &= adj[u]
            grown = reduced
            c = cand
            while c:
                u = (c & -c).bit_length() - 1
                c &= c - 1
                if adj[u] & grown == grown:
                    grown |= 1 << u
            if grown.bit_count() > best.bit_count():
                best = grown
                improved = True
                break
        if not improved:
            break
    return best


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
    radj = [0] * nn
    for v in members:
        m = adj[v] & cand0
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            radj[pos[v]] |= 1 << pos[u]

    best_size = lower
    best_mask = 0
    # deterministic and seeded-random greedy passes sharpen the incumbent;
    # a tight incumbent is what lets the coloring bound close the tree
    passes = [list(range(start, nn)) + list(range(start))
              for start in range(0, nn, max(1, nn // 8))]
    rng = random.Random(0xC0DE)
    base = list(range(nn))
    for _ in range(32):
        rng.shuffle(base)
        passes.append(list(base))
    for order_pass in passes:
        g = _greedy_clique(radj, order_pass)
        if g.bit_count() > best_size:
            best_size = g.bit_count()
            best_mask = g

    nodes = counter if counter is not None else [0]

    def expand(r_mask: int, r_size: int, cand: int):
        nonlocal best_mask, best_size
        nodes[0] += 1
        if limit is not None and nodes[0] > limit:
            raise _BudgetExceeded
        verts = []
        bounds = []
        color = 0
        uncolored = cand
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(radj[v] | (1 << v))
                uncolored ^= 1 << v
                verts.append(v)
                bounds.append(color)
        for i in range(len(verts) - 1, -1, -1):
            if r_size + bounds[i] <= best_size:
                return
            v = verts[i]
            new_cand = cand & radj[v]
            if new_cand:
                expand(r_mask | (1 << v), r_size + 1, new_cand)
            elif r_size + 1 > best_size:
                best_size = r_size + 1
                best_mask = r_mask | (1 << v)
            cand &= ~(1 << v)

    expand(0, 0, (1 << nn) - 1)
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
    adj: list[int],
    node_budget: int | None = None,
) -> int:
    """Bitmask of one maximum code, by a two-phase exact search.

    Phase 1 runs a softly budgeted branch-and-bound on the whole graph; the
    regular small-distance graphs close almost immediately there.  If that
    budget runs out, phase 2 exploits symmetry: the isometry group is
    transitive on words, so some maximum code contains the all-zero word;
    the stabilizer of that word is transitive on each weight profile, so
    the second word is normalized to one representative per profile; and
    the pointwise stabilizer of the normalized pair reduces the third word
    to one representative per region-count class.  Each branch is then an
    ordinary branch-and-bound on the common neighborhood.

    ``node_budget`` caps the total search nodes over both phases; on
    exhaustion the search stops with _BudgetExceeded (exactness preserved:
    no partial answer is returned).
    """
    index = {w: i for i, w in enumerate(words)}
    zero_idx = index[zero_word(spec)]
    n = len(words)

    counter = [0]
    phase1_limit = 50_000 if node_budget is None else min(50_000, node_budget)
    try:
        return _max_clique_masked(
            adj, (1 << n) - 1, counter=counter, limit=phase1_limit
        )
    except _BudgetExceeded:
        pass

    # incumbent for the profile phase
    full = (1 << n) - 1
    degree_order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    best = _greedy_clique(adj, degree_order)
    best_size = best.bit_count()
    rng = random.Random(0xC0DE)
    base = list(range(n))
    for _ in range(32):
        rng.shuffle(base)
        g = _improve_clique(adj, _greedy_clique(adj, base), full)
        if g.bit_count() > best_size:
            best, best_size = g, g.bit_count()
    if best_size < 1:
        best = 1 << zero_idx
        best_size = 1

    # branches: third word normalized per orbit of the pointwise stabilizer
    # of (zero, rep): binary positions permute within the support of rep and
    # within its complement, ternary likewise, and only the off-support
    # ternary positions admit a nonzero-letter swap
    branches = []
    for w2 in range(spec.n2 + 1):
        for w3 in range(spec.n3 + 1):
            if not spec.d <= w2 + w3:
                continue
            rep = Word(
                tuple(1 if i < w2 else 0 for i in range(spec.n2)),
                tuple(1 if i < w3 else 0 for i in range(spec.n3)),
            )
            rep_idx = index[rep]
            cand = adj[zero_idx] & adj[rep_idx]
            pair_mask = (1 << zero_idx) | (1 << rep_idx)
            if best_size < 2:
                best = pair_mask
                best_size = 2
            for a1 in range(w2 + 1):
                for b1 in range(spec.n2 - w2 + 1):
                    for c1 in range(w3 + 1):
                        for c2 in range(w3 - c1 + 1):
                            for d1 in range(spec.n3 - w3 + 1):
                                bits = tuple(
                                    (1 if i < a1 else 0) if i < w2
                                    else (1 if i - w2 < b1 else 0)
                                    for i in range(spec.n2)
                                )
                                trits = tuple(
                                    (1 if i < c1 else (2 if i < c1 + c2 else 0))
                                    if i < w3
                                    else (1 if i - w3 < d1 else 0)
                                    for i in range(spec.n3)
                                )
                                third_idx = index[Word(bits, trits)]
                                if not (cand >> third_idx) & 1:
                                    continue
                                triple_cand = cand & adj[third_idx]
                                branches.append((
                                    triple_cand.bit_count(),
                                    triple_cand,
                                    pair_mask | (1 << third_idx),
                                ))

    for width, triple_cand, seed_mask in branches:
        if width + 3 <= best_size:
            continue
        sub = _max_clique_masked(
            adj, triple_cand, lower=best_size - 3,
            counter=counter, limit=node_budget,
        )
        size = sub.bit_count() + 3 if sub else 3
        if size > best_size:
            best = sub | seed_mask
            best_size = size
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
        mask = _max_clique_words(
            spec, words, _compatibility_masks(spec, words), node_budget
        )
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
