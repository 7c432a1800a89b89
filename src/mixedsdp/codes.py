"""Words over a mixed binary/ternary alphabet, codes of size at most three,
orbit canonicalization under the isometry group, and an exact small-instance
maximum-code oracle.

A word has ``n2`` binary coordinates followed by ``n3`` ternary coordinates.
The isometry group permutes coordinates within each block and permutes
letters independently in every coordinate.  Group elements are never
materialized for canonicalization: the orbit of a code is identified by
counting, per coordinate block, the equality pattern of a padded ordered
triple of its words, minimized over the six reorderings of the triple.
An orbit is that row of nine canonical counts, and a variable is one such
row of ``enumerate_orbits``.  The level-3 orbit enumeration canonicalises
on integer arrays of packed keys; level 2 lists the distance profiles of
pairs.

A word is a row of ``letters(spec)``: its letters, as ``int8``.  The oracle builds
each of its graphs from one ``int8`` matrix that ranks the distance profile
of every pair of words, and returns the rows of the code it finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

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


def _build_count_orders() -> tuple[tuple[int, ...], ...]:
    """For each reordering of the triple, the order in which to read the
    nine pattern counts, binary then ternary, to reorder them.  Reading the
    counts through a reordering's pattern map applies the inverse
    reordering; the six reorderings form a group, so the maps cover all
    six."""
    # a reordering fixes PAT_DISTINCT, so it maps binary patterns to binary
    # patterns
    return tuple(
        (*pm[:N_BIN_PATTERNS], *(N_BIN_PATTERNS + p for p in pm))
        for pm in PATTERN_PERMS
    )


_COUNT_ORDERS = _build_count_orders()


# A packed key holds the nine pattern counts, binary then ternary, as 5-bit
# digits with the first count most significant: the integer order of keys is
# the tuple order of their counts, and adding keys adds their counts while no
# count passes 31.  Only level 3 packs keys, for specs that
# ``check_key_digits`` admits.
KEY_DIGIT = 5
KEY_COUNT_MAX = (1 << KEY_DIGIT) - 1
N_COUNTS = N_BIN_PATTERNS + N_TER_PATTERNS
_KEY_SHIFTS = KEY_DIGIT * np.arange(N_COUNTS - 1, -1, -1, dtype=np.int64)
KEY_WEIGHTS = 1 << _KEY_SHIFTS
# the weight that each reordering (a column) gives each count (a row): the
# weight of the place the count moves to
_REORDER_WEIGHTS = np.stack([KEY_WEIGHTS[np.argsort(order)] for order in _COUNT_ORDERS], axis=1)


def check_key_digits(spec: ProblemSpec) -> None:
    """Refuse a spec whose pattern counts can pass a 5-bit key digit."""
    if max(spec.n2, spec.n3) > KEY_COUNT_MAX:
        raise ValueError(
            f"({spec.n2}, {spec.n3}): level 3 packs pattern counts as 5-bit key "
            f"digits, so it takes at most {KEY_COUNT_MAX} coordinates per alphabet"
        )


def pack_counts(counts) -> np.ndarray:
    """The packed keys of rows of nine pattern counts; a count above
    ``KEY_COUNT_MAX`` raises ``ValueError``."""
    counts = np.asarray(counts, dtype=np.int64).reshape(-1, N_COUNTS)
    if counts.size and counts.max() > KEY_COUNT_MAX:
        raise ValueError(f"a pattern count of {counts.max()} does not fit a 5-bit key digit")
    return counts @ KEY_WEIGHTS


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """The nine pattern counts of each packed key, one row per key; digits
    above the nine are ignored."""
    return keys[:, None] >> _KEY_SHIFTS & KEY_COUNT_MAX


def reordered_keys(keys: np.ndarray) -> np.ndarray:
    """The packed keys of the six reorderings of each key's counts, one row
    per key.  A reordering is linear in the counts, so the reorderings of a
    sum of keys whose counts stay at most ``KEY_COUNT_MAX`` are the sums of
    their reorderings.  Keys order as their count tuples, binary counts
    first, so the least of a key's six is the canonical counts of its
    orbit: every canonicalisation in the library takes that least key."""
    return unpack_keys(keys) @ _REORDER_WEIGHTS


def _pair_distances(counts):
    """Distances d(1,2), d(1,3), d(2,3) between the rows of an ordered
    triple with these nine column-pattern counts, binary then ternary, for
    one row of counts or for an array of rows: the columns separating
    them."""
    counts = np.asarray(counts)
    c12, c13, c23 = (counts[..., p] + counts[..., N_BIN_PATTERNS + p] for p in (PAT_12, PAT_13, PAT_23))
    distinct = counts[..., N_BIN_PATTERNS + PAT_DISTINCT]
    return c13 + c23 + distinct, c12 + c23 + distinct, c12 + c13 + distinct


def _size_from_counts(counts):
    """Code size of a padded triple with these counts, for one row or for an
    array of rows: three zero pair distances make a singleton, one a pair,
    none three words."""
    zeros = sum(x == 0 for x in _pair_distances(counts))
    return 3 - (zeros == 1) - 2 * (zeros == 3)


def _distances_allowed(counts, d: int):
    """Whether codes with these counts, one row or an array of rows, have
    minimum distance at least d; a zero pair distance is a repeated word of
    the padded triple, so a singleton is always allowed."""
    ok = [(x == 0) | (x >= d) for x in _pair_distances(counts)]
    return ok[0] & ok[1] & ok[2]


def describe_orbit(counts) -> str:
    """The orbit of a row of canonical counts as text: its size, then the
    nonzero binary and ternary pattern counts."""
    parts = [f"size={_size_from_counts(counts)}"]
    for tag, part in (("bin", counts[:N_BIN_PATTERNS]), ("ter", counts[N_BIN_PATTERNS:])):
        inner = " ".join(f"{PATTERN_NAMES[i]}:{c}" for i, c in enumerate(part) if c)
        parts.append(f"{tag}[{inner}]")
    return " ".join(parts)


def _compositions(total: int, nparts: int):
    if nparts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, nparts - 1):
            yield (head,) + rest


def enumerate_orbits(spec: ProblemSpec) -> np.ndarray:
    """The variables: every orbit of nonempty codes of at most spec.k words
    at pairwise distance >= d, as one ``int64`` row of its nine canonical
    pattern counts, binary then ternary.  A row's index is its variable's
    index.  The rows sort by (code size, counts), so the singleton, the only
    orbit of size 1, is variable 0 at every level and every d, and the
    level-2 rows are the first level-3 rows.

    Level 2 lists the singleton and then, sorted, the pair of every distance
    profile (a, b) with a + b >= d: the canonical counts of a pair are those
    of (x, y, y), and its profile is the binary and ternary counts of
    pattern {1|23}, which ``build_blocks_empty`` reads.  Level 3 generates
    its orbits from pattern count vectors (never by scanning codes), after
    ``check_key_digits``: every count vector is one sum of a binary and a
    ternary packed key; its canonical key is the least of the six sums of
    their reorderings, and the distinct canonical keys are the orbits, in
    the order of their counts.
    """
    if spec.k == 2:
        # the profiles, (n2 - a, n3 - b) ascending
        rows = [(spec.n2, 0, 0, 0, spec.n3, 0, 0, 0, 0)] + [
            (spec.n2 - a, 0, 0, a, spec.n3 - b, 0, 0, b, 0)
            for a in range(spec.n2, -1, -1) for b in range(spec.n3, -1, -1) if a + b >= spec.d
        ]
        return np.array(rows, dtype=np.int64)
    check_key_digits(spec)
    rb = reordered_keys(pack_counts(
        [c + (0,) * N_TER_PATTERNS for c in _compositions(spec.n2, N_BIN_PATTERNS)]
    ))
    rt = reordered_keys(pack_counts(
        [(0,) * N_BIN_PATTERNS + c for c in _compositions(spec.n3, N_TER_PATTERNS)]
    ))
    canon = rb[:, 0, None] + rt[:, 0]
    for g in range(1, len(_COUNT_ORDERS)):
        np.minimum(canon, rb[:, g, None] + rt[:, g], out=canon)
    keys = np.sort(canon, axis=None)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    counts = unpack_keys(keys)
    counts = counts[_distances_allowed(counts, spec.d)]
    # the keys are sorted, so a stable sort by size sorts by (size, counts)
    return counts[np.argsort(_size_from_counts(counts), kind="stable")]


# ---------------------------------------------------------------------------
# Exact oracle: maximum code size via branch-and-bound maximum clique on the
# graph whose vertices are words and whose edges join words at distance >= d.

DEFAULT_WORD_CAP = 1000


def letters(spec: ProblemSpec) -> np.ndarray:
    """The letters of every word, one ``int8`` row per word in lexicographic
    order, binary coordinates first."""
    radix = (2,) * spec.n2 + (3,) * spec.n3
    return np.indices(radix, dtype=np.int8).reshape(spec.length, -1).T


def _profile_ranks(
    spec: ProblemSpec, letters: np.ndarray
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The feasible pair profiles (binary distance, ternary distance) in
    branching order, and the ``int8`` matrix of the rank of each pair's
    profile among them, -1 for a pair closer than d.  The graph of the
    edges whose profile ranks at or above r is ``ranks >= r``; rank 0 is
    the whole compatibility graph.  The distances are summed coordinate by
    coordinate, so every temporary holds one byte per pair.

    Any fixed order is exact.  Of the orders tried, ternary distance, then
    binary distance, ascending, gives the fewest search nodes on (5,2,3),
    the hardest sandwich instance of the acceptance suite.  With the
    branching of ``_max_clique_words``, (5,2,3), (6,1,3) and (3,3,3) take
    26,699 nodes together in this order, 27,223 with total then ternary
    distance, 42,201 with total then binary distance and 41,196 with total
    distance descending, then ternary distance ascending.  Moving any one of
    the other 11 profiles of (5,2,3) to the front costs more: 30,056 nodes
    with (4,1) first, against 25,687 with (3,0), and up to 124,673."""
    profiles = sorted(
        ((b, t) for b in range(spec.n2 + 1) for t in range(spec.n3 + 1)
         if b + t >= spec.d),
        key=lambda p: (p[1], p[0]),
    )
    n = len(letters)
    binary, ternary = dist = np.zeros((2, n, n), dtype=np.int8)
    for i, col in enumerate(letters.T):
        dist[int(i >= spec.n2)] += col[:, None] != col
    # ternary distance, then binary distance, as one key in ternary's place;
    # the oracle's word cap keeps it below 2**7
    key = ternary
    key *= spec.n2 + 1
    key += binary
    ranks = binary
    ranks.fill(-1)
    for r, (b, t) in enumerate(profiles):
        ranks[key == t * (spec.n2 + 1) + b] = r
    return profiles, ranks


def _bitsets(matrix: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as ints, column j as bit j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _greedy_clique(adj: list[int], order: list[int]) -> int:
    mask = 0
    for v in order:
        if adj[v] & mask == mask:
            mask |= 1 << v
    return mask


class _BudgetExceeded(Exception):
    pass


def _vertices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _degeneracy_order(matrix: np.ndarray) -> list[int]:
    """The rows of a symmetric boolean matrix with a false diagonal, built
    from the back: a row of least degree among those not yet placed, the
    lowest on ties, is removed and put last.  One ``np.argmin`` per row is
    the plain peel; a bit-sliced peel that made no numpy call per row saved
    only 1 to 2 ms of a pass of about 1 s over the oracle's sandwich specs."""
    deg = matrix.sum(axis=1, dtype=float)
    out = []
    for _ in range(len(deg)):
        v = int(np.argmin(deg))
        out.append(v)
        deg -= matrix[v]
        deg[v] = np.inf
    out.reverse()
    return out


def _relabel(matrix: np.ndarray) -> tuple[list[int], list[int]]:
    """The graph of a symmetric boolean matrix with a false diagonal, row i
    as vertex i: ``radj`` holds the neighbour masks and ``nonadj`` the
    non-neighbours of each vertex but itself, with which the colour classes
    grow."""
    non = ~matrix
    np.fill_diagonal(non, False)
    return _bitsets(matrix), _bitsets(non)


def _search(
    radj: list[int],
    nonadj: list[int],
    cand: int,
    lower: int,
    nodes: list,
    limit: int | None,
) -> int:
    """Best clique within the mask ``cand`` of a relabelled graph
    (``_relabel``), or 0 unless one larger than ``lower`` is found (the
    caller's incumbent prunes the search).  One greedy clique in vertex
    order is the first incumbent; when the incumbent holds as many vertices
    as ``cand``, no search node is needed.  ``nodes[0]`` counts the nodes,
    across calls that share the list; past ``limit`` the search raises
    _BudgetExceeded instead of completing.

    Branch-and-bound with greedy colouring bounds: each node colours its
    candidates greedily in vertex order and recolours them as Tomita et
    al.'s Re-NUMBER does ("A simple and faster branch-and-bound algorithm
    for finding a maximum clique", WALCOM 2010).  The search keeps its open
    nodes on an explicit stack, so it never recurses."""
    best_size = lower
    best_mask = 0
    g = _greedy_clique(radj, _vertices(cand))
    if g.bit_count() > best_size:
        best_size = g.bit_count()
        best_mask = g
    if best_size >= cand.bit_count():
        return best_mask

    def branches(r_size: int, cand: int) -> list[tuple[int, int]]:
        """Count a node and list its branches, the last to be taken first,
        each as (colour bound, vertex)."""
        nodes[0] += 1
        if limit is not None and nodes[0] > limit:
            raise _BudgetExceeded
        # greedy sequential colouring, lowest vertex first; a vertex of
        # class k bounds its branch by r_size + k + 1, so only the classes
        # from kmin = best_size - r_size on are branched on
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
            classes.append(cls)
        kmin = best_size - r_size
        out = []
        for k in range(max(kmin, 0), len(classes)):
            m = classes[k]
            while m:
                bit = m & -m
                m ^= bit
                v = bit.bit_length() - 1
                nb_v = radj[v]
                # Re-NUMBER: v takes the place of its one neighbour w in a
                # class k1 below kmin, if w fits a class k2 between k1 and
                # kmin, and v's branch is gone
                for k1 in range(kmin - 1):
                    w = nb_v & classes[k1]
                    if w and not w & (w - 1):
                        nb_w = radj[w.bit_length() - 1]
                        for k2 in range(k1 + 1, kmin):
                            if not nb_w & classes[k2]:
                                classes[k2] |= w
                                classes[k1] ^= w | bit
                                break
                        else:
                            continue
                        break
                else:
                    out.append((r_size + k + 1, v))
        return out

    # each open node: [r_mask, r_size, cand, branches]
    stack = [[0, 0, cand, branches(0, cand)]]
    while stack:
        top = stack[-1]
        r_mask, r_size, cand, todo = top
        if not todo:
            stack.pop()
            continue
        bound, v = todo.pop()
        if bound <= best_size:
            stack.pop()
            continue
        bit = 1 << v
        top[2] = cand ^ bit
        new_cand = cand & radj[v]
        if new_cand:
            stack.append([r_mask | bit, r_size + 1, new_cand, branches(r_size + 1, new_cand)])
        elif r_size + 1 > best_size:
            best_size = r_size + 1
            best_mask = r_mask | bit
    return best_mask


def _orbit_cells(
    spec: ProblemSpec, letters: np.ndarray, fixed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cell of each letter of ``letters`` (rows, as ``letters(spec)``
    gives them) under the pointwise stabilizer of the zero word and the
    words of ``fixed``, and the radix of each cell.

    An element of the stabilizer keeps the letter 0 in every coordinate, so
    it keeps every binary letter, and in a ternary coordinate it can only
    swap 1 and 2.  Call a coordinate's column the letters of the fixed words
    there.  When in every ternary coordinate the first nonzero letter of the
    column, if any, is 1, no swap maps a nonzero column to another column,
    so the stabilizer is every permutation of the coordinates within each
    group of equal columns, with any swaps of 1 and 2 in the ternary group
    whose column is all 0.  Group g's cells are 3g, 3g + 1 and 3g + 2, one
    per letter, 2 read as 1 in the all-zero ternary group; each has the
    group's size + 1 as its radix.  Under that condition, words share the
    count of each cell exactly when they share an orbit.  Each column is
    keyed by one integer, the coordinate's block and then the column's
    letters in base 3."""
    ternary = np.arange(spec.length) >= spec.n2
    column = ternary + 2 * (3 ** np.arange(len(fixed), dtype=np.int64)) @ fixed
    _, group, size = np.unique(column, return_inverse=True, return_counts=True)
    free = ternary & ~fixed.any(axis=0)
    cell = 3 * group + np.where(free, letters != 0, letters)
    return cell, np.repeat(size + 1, 3)


def _orbit_labels(spec: ProblemSpec, letters: np.ndarray, fixed: np.ndarray) -> list[int]:
    """Labels of the orbits of the words of ``letters`` under the pointwise
    stabilizer of the zero word and the words of ``fixed``, under the
    condition of ``_orbit_cells``: two words share a label exactly when they
    share an orbit.

    A word's key is one ``int64``, its count of each cell as the digits of a
    mixed-radix number with the cells' radices: a count is at most its
    group's size, so the key is the count row without loss.  It is below
    the product of the radices, at most 8**length as size + 1 <= 2**size;
    the oracle's word cap keeps the length at most 9."""
    cell, radix = _orbit_cells(spec, letters, fixed)
    place = np.cumprod(np.concatenate(([1], radix[:-1])))
    key = place[cell].sum(axis=1)
    return np.unique(key, return_inverse=True)[1].tolist()


def _swap_merged(
    spec: ProblemSpec, letters: np.ndarray, rep: np.ndarray, labels: list[int]
) -> list[int]:
    """``labels``, one per row of ``letters`` (every word, as
    ``letters(spec)`` gives them), with each class merged with its image
    under the swap x -> rep - x, letters taken mod 2 or mod 3; each merged
    class takes the smaller of the two labels.  The swap is an involution,
    and on the orbit labels of the pointwise stabilizer of (zero, rep) it
    maps each orbit onto one orbit (``_max_clique_words``)."""
    radix = np.array((2,) * spec.n2 + (3,) * spec.n3)
    place = np.append(np.cumprod(radix[:0:-1])[::-1], 1)
    image = ((rep - letters) % radix) @ place
    labels = np.asarray(labels)
    return np.minimum(labels, labels[image]).tolist()


def _orbit_branches(adj: list[int], cand: int, keys: list):
    """Split ``cand`` into the classes of equal ``keys[v]`` and yield, for
    each class, its lowest vertex and that vertex's branch: its neighbours
    in ``cand`` less every class yielded before.  The largest classes come
    first, as each one leaves every later branch; among equal sizes, the
    narrower branch first."""
    classes: dict = {}
    for v in _vertices(cand):
        classes[keys[v]] = classes.get(keys[v], 0) | 1 << v
    ranked = []
    for cls in classes.values():
        rep = (cls & -cls).bit_length() - 1
        ranked.append((-cls.bit_count(), (cand & adj[rep]).bit_count(), rep, cls))
    for _, _, rep, cls in sorted(ranked):
        yield rep, cand & adj[rep]
        cand &= ~cls


def _max_clique_words(
    spec: ProblemSpec,
    letters: np.ndarray,
    node_budget: int | None = None,
) -> int:
    """Bitmask of one maximum code, over the rows of ``letters``
    (``letters(spec)``), by one exact search chosen by d.

    For d <= 2 the graph is dense: ``_search`` runs on the whole of it,
    relabelled in degree order, highest first (``_relabel``), and (5,2,2)
    closes in 96 nodes.  In degeneracy order it misses (5,2,2), which then
    runs for minutes, and the branching below takes 474,130 nodes on it.
    For d >= 3 the search starts from the greedy clique in the same order
    and branches on the isometry group down to the fourth word.  Each third
    word's candidates are relabelled once in degeneracy order
    (``_degeneracy_order``), and every fourth-word ``_search`` runs on a
    mask of that relabelled graph.

    Minimum-profile branching.  The profile of a pair of words, (binary
    distance, ternary distance), is kept by every isometry, and the feasible
    profiles have a fixed total order (``_profile_ranks``).  A code of two
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
    ternary coordinates outside the support; ``_orbit_labels`` gives the
    orbit of a word under it.  The swap s(x) = rep_p - x, letters taken mod
    2 or mod 3, swaps zero and rep_p, and it is an isometry: each coordinate
    gets a letter permutation.  It normalises H, as s h s maps zero to
    s h(rep_p) = zero and rep_p to s h(zero) = rep_p; so K = <H, s>, the
    setwise stabilizer of {zero, rep_p}, has as its orbits the unions of an
    H-orbit with its image under s (``_swap_merged``).  K keeps G_p, which
    every isometry keeps, and the common neighbourhood of zero and rep_p,
    the candidates; so the third word runs over one representative per
    K-orbit.  Take a code through zero and rep_p, and let O be the first of
    its words' K-orbits in branch order: an element of K maps its word in O
    to O's representative, keeps {zero, rep_p} and every K-orbit, so the
    image is a code through zero and rep_p in O's branch that uses no word
    of an earlier K-orbit.  Each K-orbit is therefore removed from the
    candidates of the later branches once its own branch has been searched
    or pruned by the incumbent.

    The same holds one level down.  The third word is the lowest word of its
    K-orbit, the lower of the lowest words of the two H-orbits in it, so it
    is also the lowest word of its H-orbit.  It has no 2 outside the support
    of rep_p, and in every ternary coordinate the first nonzero letter of
    rep_p and the third word is 1, as ``_orbit_labels`` needs.  The
    pointwise stabilizer H' of (zero, rep_p, third) lies in H, so it keeps
    the orbits of H and the K-orbits, their unions, hence the candidates
    left when the third word's branch opens, and it keeps that branch's
    candidates, the neighbours of the third word among them.  A code in that
    branch is mapped by an element of H' onto one through the representative
    of the first H'-orbit it meets, and using no word of an earlier one; so
    the fourth word runs over one representative per H'-orbit, and each
    H'-orbit leaves the later fourth-word branches.  A branch records its
    pair, its triple, or its quadruple, when no larger code is known, so the
    search needs no greedy incumbent to find codes of two, three or four
    words.

    ``node_budget`` caps the search nodes; on exhaustion the search stops
    with _BudgetExceeded (exactness preserved: no partial answer is
    returned).
    """
    profiles, ranks = _profile_ranks(spec, letters)
    compatible = ranks >= 0
    adj = _bitsets(compatible)
    n = len(letters)
    order = np.argsort(-compatible.sum(axis=1), kind="stable").tolist()
    counter = [0]
    if spec.d <= 2:
        radj, nonadj = _relabel(compatible[np.ix_(order, order)])
        best = _search(radj, nonadj, (1 << n) - 1, 0, counter, node_budget)
        return sum(1 << order[v] for v in _vertices(best))

    # a head start for the branching, which records its own pairs: a greedy
    # clique is maximal, and every word has a neighbour, so it holds at least
    # two words
    best = _greedy_clique(adj, order)
    best_size = best.bit_count()

    for r, (w2, w3) in enumerate(profiles):
        rep = np.zeros(spec.length, dtype=np.int8)
        rep[:w2] = rep[spec.n2:spec.n2 + w3] = 1
        rep_idx = int((letters == rep).all(axis=1).argmax())
        pair = 1 | 1 << rep_idx  # the zero word is row 0
        if best_size < 2:
            best, best_size = pair, 2
        graph = ranks >= r
        g = _bitsets(graph)
        third_keys = _swap_merged(spec, letters, rep, _orbit_labels(spec, letters, rep[None]))
        for third, triple_cand in _orbit_branches(g, g[0] & g[rep_idx], third_keys):
            if triple_cand.bit_count() + 3 <= best_size:
                continue
            triple = pair | 1 << third
            if best_size < 3:
                best, best_size = triple, 3
            cand = _vertices(triple_cand)
            within = graph[np.ix_(cand, cand)]
            pos = _degeneracy_order(within)
            order = [cand[p] for p in pos]
            radj, nonadj = _relabel(within[np.ix_(pos, pos)])
            fourth_keys = _orbit_labels(spec, letters[order], letters[[rep_idx, third]])
            relabelled = (1 << len(order)) - 1
            for fourth, quad_cand in _orbit_branches(radj, relabelled, fourth_keys):
                if quad_cand.bit_count() + 4 <= best_size:
                    continue
                quad = triple | 1 << order[fourth]
                if best_size < 4:
                    best, best_size = quad, 4
                sub = _search(radj, nonadj, quad_cand, best_size - 4, counter, node_budget)
                if sub:
                    best = quad | sum(1 << order[v] for v in _vertices(sub))
                    best_size = sub.bit_count() + 4
    return best


def optimal_code(spec: ProblemSpec, node_budget: int | None = None) -> np.ndarray:
    """A maximum code with minimum distance >= d, as its rows of
    ``letters(spec)`` in that order, by one exact clique search chosen by d
    (``_max_clique_words``), over at most ``DEFAULT_WORD_CAP`` words; a
    larger word space raises ResourceError.

    ``node_budget``, when given, caps that search's nodes; exceeding it
    raises ResourceError (deterministically for a given spec), and a
    negative one raises ValueError.  At d = 1 every word is in the code, and
    no search runs.  The search keeps its own stack, so it leaves the
    interpreter's recursion limit alone.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    if spec.num_words > DEFAULT_WORD_CAP:
        raise ResourceError(
            f"word space {spec.num_words} exceeds oracle cap {DEFAULT_WORD_CAP}"
        )
    if spec.d == 1:
        return letters(spec)
    rows = letters(spec)
    try:
        mask = _max_clique_words(spec, rows, node_budget)
    except _BudgetExceeded:
        raise ResourceError(
            f"oracle node budget {node_budget} exceeded for "
            f"({spec.n2},{spec.n3},{spec.d})"
        ) from None
    return rows[_vertices(mask)]


def exact_n(spec: ProblemSpec, node_budget: int | None = None) -> int:
    """Exact maximum cardinality of a code with minimum distance >= d."""
    return len(optimal_code(spec, node_budget))
