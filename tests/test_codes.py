"""Words, distances, orbit canonicalization, enumeration, and the oracle."""

import random
import sys
import tracemalloc
from dataclasses import dataclass
from itertools import combinations, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedsdp.codes import (
    KEY_COUNT_MAX,
    N_BIN_PATTERNS,
    N_COUNTS,
    N_TER_PATTERNS,
    PAT_23,
    ProblemSpec,
    ResourceError,
    _BudgetExceeded,
    _compositions,
    _degeneracy_order,
    _distances_allowed,
    _orbit_cells,
    _orbit_labels,
    _pair_distances,
    _profile_ranks,
    _relabel,
    _search,
    _size_from_counts,
    _swap_merged,
    _vertices,
    describe_orbit,
    enumerate_orbits,
    exact_n,
    letters,
    optimal_code,
    pack_counts,
    reordered_keys,
    unpack_keys,
)
from orbit_reference import (
    canonical_orbit,
    hamming_distance,
    min_distance,
    orbit_from_counts,
    orbit_order,
    orbit_size,
    reference_orbit,
    tuple_orbits,
)


@dataclass(frozen=True)
class Isometry:
    """One distance-preserving bijection: coordinate permutations within each
    block plus a letter permutation per coordinate."""

    bin_perm: tuple[int, ...]
    bin_letter: tuple[tuple[int, ...], ...]
    ter_perm: tuple[int, ...]
    ter_letter: tuple[tuple[int, ...], ...]

    def apply_word(self, w: tuple[int, ...]) -> tuple[int, ...]:
        n2 = len(self.bin_perm)
        bits = tuple(self.bin_letter[i][w[p]] for i, p in enumerate(self.bin_perm))
        trits = tuple(self.ter_letter[i][w[n2 + p]] for i, p in enumerate(self.ter_perm))
        return bits + trits

    def apply_code(self, c) -> tuple[tuple[int, ...], ...]:
        """The image of a code, its rows sorted."""
        return tuple(sorted(self.apply_word(w) for w in c))


def word_rows(spec: ProblemSpec) -> list[tuple[int, ...]]:
    """The rows of ``letters(spec)`` as tuples, to hash and to sample."""
    return list(map(tuple, letters(spec).tolist()))


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


def brute_force_orbits(spec):
    """Oracle: canonicalize every nonempty code of size <= 3 by direct scan;
    each orbit maps to the minimum distance of its codes."""
    words = word_rows(spec)
    found = {}
    for size in (1, 2, 3):
        for c in combinations(words, size):
            w = canonical_orbit(spec, c)
            if w not in found:
                found[w] = min_distance(c)
    return found


def brute_force_max_code(spec):
    """Oracle: exhaustive search without bounds, tiny word spaces only."""
    words = word_rows(spec)

    def extend(chosen, rest):
        best = list(chosen)
        for i, w in enumerate(rest):
            if all(hamming_distance(w, c) >= spec.d for c in chosen):
                cand = extend(chosen + [w], rest[i + 1:])
                if len(cand) > len(best):
                    best = cand
        return best

    return len(extend([], words))


class TestProblemSpec:
    def test_rejects_pure_alphabets(self):
        with pytest.raises(ValueError):
            ProblemSpec(0, 3, 1)
        with pytest.raises(ValueError):
            ProblemSpec(3, 0, 1)

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            ProblemSpec(2, 2, 0)
        with pytest.raises(ValueError):
            ProblemSpec(2, 2, 5)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            ProblemSpec(2, 2, 2, k=4)


class TestHamming:
    def test_identity(self):
        v = (0, 1, 0, 1, 2)
        assert hamming_distance(v, v) == 0

    def test_direct_count(self):
        v = (0, 1, 0, 1, 2)
        w = (0, 0, 0, 2, 2)
        # differs in the second bit and the second trit
        assert hamming_distance(v, w) == 2

    def test_maximum(self):
        v = (0, 1, 0, 1, 2)
        w = (1, 0, 1, 2, 0)
        assert hamming_distance(v, w) == 5

    def test_symmetry_and_triangle(self):
        rng = random.Random(7)
        spec = ProblemSpec(3, 2, 1)
        words = word_rows(spec)
        for _ in range(200):
            u, v, w = rng.sample(words, 3)
            assert hamming_distance(u, v) == hamming_distance(v, u)
            assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)


class TestMinDistance:
    def test_empty_and_singleton(self):
        assert min_distance(()) is None
        assert min_distance(((0, 0, 0),)) is None

    def test_single_pair(self):
        assert min_distance(((0, 0, 0), (0, 1, 1))) == 2


class TestCanonicalOrbit:
    def test_singleton_all_equal_columns(self):
        spec = ProblemSpec(2, 3, 1)
        w = canonical_orbit(spec, ((0, 1, 2, 1, 0),))
        assert w == (2, 0, 0, 0, 3, 0, 0, 0, 0)

    def test_pair_single_columns(self):
        spec = ProblemSpec(1, 1, 1)
        w = canonical_orbit(spec, ((0, 0), (1, 1)))
        # one {1|23} column per alphabet: the pair of profile (1, 1)
        assert w == (0, 0, 0, 1, 0, 0, 0, 1, 0)
        assert _size_from_counts(w) == 2

    def test_triple_column_readoff(self):
        w = canonical_orbit(ProblemSpec(1, 3, 1), ((0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2)))
        assert _size_from_counts(w) == 3
        assert w[:N_BIN_PATTERNS] == (1, 0, 0, 0)
        # one all-equal ternary column, two all-distinct ones
        assert w[N_BIN_PATTERNS] == 1 and w[N_BIN_PATTERNS + 4] == 2

    def test_invariance_under_random_isometries(self):
        rng = random.Random(2024)
        for spec in (ProblemSpec(3, 2, 1), ProblemSpec(2, 3, 1), ProblemSpec(4, 1, 1)):
            words = word_rows(spec)
            for _ in range(150):
                c = rng.sample(words, rng.randint(1, 3))
                g = random_isometry(spec, rng)
                assert canonical_orbit(spec, c) == canonical_orbit(spec, g.apply_code(c))

    @pytest.mark.parametrize("n2,n3", [(1, 1), (2, 1), (1, 2)])
    def test_separation_against_full_group(self, n2, n3):
        # codes with equal orbit ids must be connected by an actual isometry
        spec = ProblemSpec(n2, n3, 1)
        words = word_rows(spec)
        group = list(all_isometries(spec))
        by_orbit = {}
        for size in (1, 2, 3):
            # combinations of the sorted rows are sorted, as images are
            for c in combinations(words, size):
                by_orbit.setdefault(canonical_orbit(spec, c), []).append(c)
        for orbit, members in by_orbit.items():
            rep = members[0]
            images = {g.apply_code(rep) for g in group}
            for other in members:
                assert other in images, (
                    f"orbit {describe_orbit(orbit)} merges inequivalent codes"
                )


class TestOrbitPairDistances:
    def test_pair_padding(self):
        # the pair of profile (1, 1) at (1, 1)
        w = (0, 0, 0, 1, 0, 0, 0, 1, 0)
        assert _pair_distances(w) == (2, 2, 0)
        assert min(x for x in _pair_distances(w) if x) == 2

    def test_degenerate_triple_is_pair(self):
        w = canonical_orbit(ProblemSpec(1, 1, 1), ((0, 0), (1, 0)))
        assert _size_from_counts(w) == 2
        assert _pair_distances(w) == (1, 1, 0)

    def test_genuine_triple(self):
        c = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2))
        assert _pair_distances(canonical_orbit(ProblemSpec(1, 3, 1), c)) == (2, 2, 2)

    def test_min_distance_matches_representatives(self):
        rng = random.Random(5)
        spec = ProblemSpec(2, 2, 1)
        words = word_rows(spec)
        for _ in range(200):
            c = rng.sample(words, rng.randint(2, 3))
            w = canonical_orbit(spec, c)
            # a zero distance is the padded triple's repeated word
            assert min(x for x in _pair_distances(w) if x) == min_distance(c)


class TestEnumerateOrbits:
    def test_111_has_eight_orbits(self):
        # the empty code's orbit is the constant 1, the other seven are the
        # variables
        variables = enumerate_orbits(ProblemSpec(1, 1, 1))
        assert _size_from_counts(variables).tolist() == [1, 2, 2, 2, 3, 3, 3]

    # every word space of at most VERIFY_WORD_CAP = 108 words
    @pytest.mark.parametrize("n2,n3", [
        (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (4, 1), (5, 1), (3, 2), (2, 3),
    ])
    def test_matches_brute_force(self, n2, n3):
        # at both levels and every d: the orbits at distance >= d, sorted by
        # (size, counts), a row's index its variable's
        found = brute_force_orbits(ProblemSpec(n2, n3, 1))
        for d in range(1, n2 + n3 + 1):
            for k in (2, 3):
                want = sorted((
                    w for w, md in found.items()
                    if _size_from_counts(w) <= k and (md is None or md >= d)
                ), key=orbit_order)
                got = enumerate_orbits(ProblemSpec(n2, n3, d, k))
                assert got.tolist() == [list(w) for w in want], (d, k)

    def test_orbit_sizes_partition_code_count(self):
        # orbit cardinalities over sizes 1..3 must add up to the number of
        # nonempty codes
        spec = ProblemSpec(2, 2, 1)
        total = sum(orbit_size(spec, w) for w in enumerate_orbits(spec).tolist())
        n = spec.num_words
        expected = n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
        assert total == expected

    def test_orbit_size_matches_brute_count(self):
        spec = ProblemSpec(2, 1, 1)
        words = word_rows(spec)
        counts = dict.fromkeys(map(tuple, enumerate_orbits(spec).tolist()), 0)
        for size in (1, 2, 3):
            for c in combinations(words, size):
                counts[canonical_orbit(spec, c)] += 1
        for w, count in counts.items():
            assert count == orbit_size(spec, w), describe_orbit(w)

    # level 2 lists distance profiles and packs no keys, so its counts may
    # pass the 31 of a 5-bit key digit
    @pytest.mark.parametrize("n2,n3,d", [(1, 32, 3), (33, 2, 4), (40, 63, 20), (70, 5, 5), (1, 200, 3)])
    def test_level_two_counts_above_five_bits(self, n2, n3, d):
        spec = ProblemSpec(n2, n3, d, k=2)
        assert enumerate_orbits(spec).tolist() == [list(w) for w in tuple_orbits(spec)]

    def test_level_two_is_the_start_of_level_three(self):
        # the two levels share no enumeration code: level 2's map is the
        # start of level 3's, index for index, and level 3 adds only triples
        specs = [
            (n2, length - n2, d)
            for length in range(2, 11) for n2 in range(1, length) for d in range(1, length + 1)
        ]
        assert len(specs) == 330
        for n2, n3, d in specs:
            two = enumerate_orbits(ProblemSpec(n2, n3, d, k=2))
            three = enumerate_orbits(ProblemSpec(n2, n3, d, k=3))
            assert three[:len(two)].tolist() == two.tolist(), (n2, n3, d)
            assert (_size_from_counts(three[len(two):]) == 3).all(), (n2, n3, d)

    def test_singleton_and_pair_rows(self):
        # what the library reads without a lookup: row 0 is the singleton at
        # every level and d, each size-2 row is the pair (zero, x) of its
        # profile (a, b), its counts of pattern {1|23}, one row per profile
        # with a + b >= d, and the level-2 rows are the first level-3 rows
        specs = [
            (n2, length - n2, d)
            for length in range(2, 10) for n2 in range(1, length) for d in range(1, length + 1)
        ]
        assert len(specs) == 240
        for n2, n3, d in specs:
            rows = {k: enumerate_orbits(ProblemSpec(n2, n3, d, k)) for k in (2, 3)}
            spec = ProblemSpec(n2, n3, 1)
            zero = (0,) * (n2 + n3)
            assert rows[3][:len(rows[2])].tolist() == rows[2].tolist(), (n2, n3, d)
            for k, variables in rows.items():
                assert tuple(variables[0].tolist()) == canonical_orbit(spec, (zero,)), (n2, n3, d, k)
                pairs = variables[_size_from_counts(variables) == 2].tolist()
                profiles = [(r[PAT_23], r[N_BIN_PATTERNS + PAT_23]) for r in pairs]
                assert sorted(profiles) == [
                    (a, b) for a in range(n2 + 1) for b in range(n3 + 1) if a + b >= d
                ], (n2, n3, d, k)
                for (a, b), r in zip(profiles, pairs):
                    x = (1,) * a + (0,) * (n2 - a) + (1,) * b + (0,) * (n3 - b)
                    assert tuple(r) == canonical_orbit(spec, (zero, x)), (n2, n3, d, k, a, b)

    def test_level_three_count_above_five_bits_refused(self):
        # level 3 packs the block build's 5-bit digits; the refusal comes
        # before the binary x ternary product is formed
        for n2, n3 in ((32, 1), (1, 32)):
            with pytest.raises(ValueError, match="5-bit"):
                enumerate_orbits(ProblemSpec(n2, n3, 1, k=3))


def test_pack_counts_refuses_a_count_past_its_digit():
    with pytest.raises(ValueError, match="5-bit"):
        pack_counts([[0] * (N_COUNTS - 1) + [KEY_COUNT_MAX + 1]])
    # orbit_from_counts packs its counts, binary and ternary alike
    with pytest.raises(ValueError, match="5-bit"):
        orbit_from_counts((KEY_COUNT_MAX + 1, 0, 0, 0, 1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="5-bit"):
        orbit_from_counts((1, 0, 0, 0, 0, 0, 0, 0, KEY_COUNT_MAX + 1))


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.integers(min_value=0, max_value=6)] * N_BIN_PATTERNS),
    st.tuples(*[st.integers(min_value=0, max_value=6)] * N_TER_PATTERNS),
)
def test_orbit_from_counts_matches_reorderings(bin_counts, ter_counts):
    assert orbit_from_counts(bin_counts + ter_counts) == reference_orbit(bin_counts + ter_counts)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=KEY_COUNT_MAX)] * N_COUNTS),
    min_size=1, max_size=20,
))
def test_packed_canonical_key_matches_canonical_counts(rows):
    # keys order as their count tuples; the least of a key's six reorderings
    # packs the counts of the reference canonical form, which reorders the
    # patterns directly; and sorting by (size, canonical key) sorts the
    # canonical rows by (size, counts), which is the order of the variables
    keys = pack_counts(rows)
    assert unpack_keys(keys).tolist() == [list(r) for r in rows]
    assert sorted(keys.tolist()) == pack_counts(sorted(rows)).tolist()
    # a reordering of a sum of keys is the sum of their reorderings
    half = pack_counts([[c // 2 for c in r] for r in rows])
    assert (reordered_keys(half) + reordered_keys(keys - half) == reordered_keys(keys)).all()
    canon = reordered_keys(keys).min(axis=1)
    references = [reference_orbit(r) for r in rows]
    assert unpack_keys(canon).tolist() == [list(w) for w in references]
    orbits = [orbit_from_counts(r) for r in rows]
    by_key = sorted(zip(orbits, canon.tolist()), key=lambda t: (_size_from_counts(t[0]), t[1]))
    assert [w for w, _ in by_key] == sorted(orbits, key=orbit_order)


@pytest.mark.parametrize("n2,n3,d", [(4, 8, 5), (2, 5, 3)])
def test_enumerate_orbits_matches_reference(n2, n3, d):
    # every count vector of the spec's columns, canonicalised by reordering
    # the patterns directly
    spec = ProblemSpec(n2, n3, d)
    seen = {
        reference_orbit(bc + tc)
        for bc in _compositions(n2, N_BIN_PATTERNS)
        for tc in _compositions(n3, N_TER_PATTERNS)
    }
    orbits = sorted((w for w in seen if _distances_allowed(w, d)), key=orbit_order)
    assert enumerate_orbits(spec).tolist() == [list(w) for w in orbits]


@st.composite
def small_spec_and_code(draw):
    n2 = draw(st.integers(min_value=1, max_value=3))
    n3 = draw(st.integers(min_value=1, max_value=2))
    spec = ProblemSpec(n2, n3, 1)
    words = letters(spec)
    idxs = draw(st.sets(st.integers(min_value=0, max_value=len(words) - 1),
                        min_size=1, max_size=3))
    return spec, tuple(words[sorted(idxs)])


@settings(max_examples=60, deadline=None)
@given(small_spec_and_code())
def test_orbit_feasibility_matches_min_distance(data):
    spec, c = data
    w = canonical_orbit(spec, c)
    for d in range(1, spec.length + 1):
        md = min_distance(c)
        assert _distances_allowed(w, d) == (md is None or md >= d)


class TestExactOracle:
    def test_d1_is_word_count(self):
        assert exact_n(ProblemSpec(2, 1, 1)) == 12
        assert exact_n(ProblemSpec(1, 2, 1)) == 18

    def test_d1_runs_no_search(self):
        with mock.patch("mixedsdp.codes._profile_ranks", side_effect=AssertionError):
            assert exact_n(ProblemSpec(2, 5, 1)) == 972

    def test_binary_pigeonhole(self):
        assert exact_n(ProblemSpec(1, 1, 2)) == 2

    def test_224_brute_force(self):
        spec = ProblemSpec(2, 2, 4)
        assert exact_n(spec) == brute_force_max_code(spec)

    @pytest.mark.parametrize("n2,n3,d", [
        (1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 1, 3), (1, 2, 2), (1, 2, 3), (2, 2, 3),
    ])
    def test_matches_unpruned_search(self, n2, n3, d):
        spec = ProblemSpec(n2, n3, d)
        assert exact_n(spec) == brute_force_max_code(spec)

    def test_optimal_code_is_valid_witness(self):
        # d <= 2 searches the whole graph, d >= 3 branches on the group
        for spec in (ProblemSpec(2, 2, 2), ProblemSpec(3, 3, 3), ProblemSpec(2, 2, 4)):
            c = optimal_code(spec)
            assert c.dtype == np.int8
            assert c.shape == (exact_n(spec), spec.length)
            position = {w: i for i, w in enumerate(word_rows(spec))}
            picked = [position.get(w) for w in map(tuple, c.tolist())]
            assert None not in picked
            # distinct, in the order of letters
            assert picked == sorted(set(picked))
            assert min_distance(c) >= spec.d

    def test_d1_returns_every_word(self):
        spec = ProblemSpec(2, 1, 1)
        c = optimal_code(spec)
        assert c.dtype == np.int8
        assert c.tolist() == letters(spec).tolist()

    def test_cap(self):
        with pytest.raises(ResourceError):
            exact_n(ProblemSpec(4, 4, 2))  # 1,296 words, refused before any search

    def test_node_budget(self):
        with pytest.raises(ResourceError) as info:
            exact_n(ProblemSpec(5, 2, 3), node_budget=1_000)
        assert str(info.value) == "oracle node budget 1000 exceeded for (5,2,3)"

    def test_search_never_changes_recursion_limit(self):
        saved = sys.getrecursionlimit()
        # (3,3,3) runs the branching search, (5,2,2) the whole-graph search
        with mock.patch("sys.setrecursionlimit", side_effect=AssertionError):
            assert exact_n(ProblemSpec(3, 3, 3)) == 18
            assert exact_n(ProblemSpec(5, 2, 2)) == 96
        assert sys.getrecursionlimit() == saved

    def test_deep_search_under_small_recursion_limit(self):
        # without an incumbent the search descends through all 1,500
        # vertices of a complete graph, far deeper than the limit allows a
        # recursive search to go
        n = 1500
        full = (1 << n) - 1
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            with mock.patch("mixedsdp.codes._greedy_clique", lambda adj, order: 0):
                radj, nonadj = _relabel(~np.eye(n, dtype=bool))
                assert _search(radj, nonadj, full, 0, [0], None) == full
        finally:
            sys.setrecursionlimit(saved)

    def test_monotone_in_d(self):
        values = [exact_n(ProblemSpec(2, 2, d)) for d in range(1, 5)]
        assert values == sorted(values, reverse=True)

    def test_doubling_inequality(self):
        for d in (1, 2, 3):
            assert exact_n(ProblemSpec(3, 1, d)) <= 2 * exact_n(ProblemSpec(2, 1, d))
            assert exact_n(ProblemSpec(2, 2, d)) <= 2 * exact_n(ProblemSpec(1, 2, d))

    def test_closes_under_small_budgets(self):
        # each search takes exactly its pinned node count: it closes at that
        # budget and raises one node short of it
        pinned = {
            # the six sandwich specs of the exact-oracle benchmark workload
            (5, 2, 3): (25_687, 22), (6, 1, 3): (532, 16), (3, 3, 3): (480, 18),
            (4, 2, 3): (131, 12), (1, 4, 3): (158, 12), (5, 2, 4): (47, 8),
            # d <= 2: the whole-graph search
            (5, 2, 2): (96, 96),
        }
        for (n2, n3, d), (nodes, value) in pinned.items():
            spec = ProblemSpec(n2, n3, d)
            assert exact_n(spec, node_budget=nodes) == value
            with pytest.raises(ResourceError, match=f"budget {nodes - 1} exceeded"):
                exact_n(spec, node_budget=nodes - 1)

    def test_rejects_negative_budget(self):
        for spec in (ProblemSpec(1, 1, 1), ProblemSpec(3, 3, 3)):
            with pytest.raises(ValueError, match="-1"):
                exact_n(spec, node_budget=-1)
        # (1,1,1) closes on its greedy incumbent, without a search node
        assert exact_n(ProblemSpec(1, 1, 1), node_budget=0) == 6


@pytest.mark.parametrize("n2,n3", [(2, 2), (3, 2), (2, 3)])
def test_orbit_key_classes_are_stabilizer_orbits(n2, n3):
    # the search branches on one word per key class, so each class must be
    # exactly one orbit: of the setwise stabilizer of {zero word, rep_p} for
    # the third word (the pointwise stabilizer's classes merged under the
    # swap x -> rep_p - x), and of the pointwise stabilizer of the fixed
    # words for the fourth, with each third word the search can meet, the
    # lowest word of an orbit of the pointwise stabilizer of the first two
    spec = ProblemSpec(n2, n3, 1)
    words = word_rows(spec)
    index = {w: i for i, w in enumerate(words)}
    rows = letters(spec)
    zero = 0
    reps = [
        index[(1,) * b + (0,) * (n2 - b) + (1,) * t + (0,) * (n3 - t)]
        for b, t in product(range(n2 + 1), range(n3 + 1)) if b + t
    ]
    # every element that maps the zero word to itself or to a rep_p, as a
    # permutation of indices
    perms = [
        tuple(index[g.apply_word(w)] for w in words)
        for g in all_isometries(spec)
        if index[g.apply_word(words[zero])] in {zero, *reps}
    ]
    fix_zero = [g for g in perms if g[zero] == zero]

    def orbits(group):
        orbit_of = {}
        for v in range(len(words)):
            if v not in orbit_of:
                orbit = frozenset(g[v] for g in group)
                orbit_of.update(dict.fromkeys(orbit, orbit))
        return orbit_of

    def assert_classes_are_orbits(labels, orbit_of):
        classes = {}
        for v, label in enumerate(labels):
            classes.setdefault(label, set()).add(v)
        for cls in classes.values():
            assert len({orbit_of[v] for v in cls}) == 1, "a class merges orbits"
        for orbit in orbit_of.values():
            assert len({labels[v] for v in orbit}) == 1, "an orbit is split"

    def orbits_match_keys(fixed):
        orbit_of = orbits([g for g in fix_zero if all(g[v] == v for v in fixed)])
        labels = _orbit_labels(spec, rows, rows[[v for v in fixed if v != zero]])
        assert_classes_are_orbits(labels, orbit_of)
        return set(orbit_of.values())

    for rep in reps:
        setwise = orbits([g for g in perms if {g[zero], g[rep]} == {zero, rep}])
        labels = _orbit_labels(spec, rows, rows[[rep]])
        assert_classes_are_orbits(_swap_merged(spec, rows, rows[rep], labels), setwise)
        for orbit in orbits_match_keys([zero, rep]):
            if not orbit & {zero, rep}:
                orbits_match_keys([zero, rep, min(orbit)])


@pytest.mark.parametrize("n2,n3", [(2, 2), (5, 2), (8, 1), (3, 3)])
def test_orbit_key_partition_is_count_rows(n2, n3):
    # one int64 per column and one per word stand for a coordinate's block
    # and column and for a word's row of cell counts: two coordinates share
    # a group, and two words a key, exactly when they share those, for any
    # fixed words, up to the all-distinct columns of the longest words under
    # the word cap
    spec = ProblemSpec(n2, n3, 1)
    words = letters(spec)
    rng = np.random.default_rng(n2 * 10 + n3)
    for nfixed in (1, 2, 3):
        for _ in range(4):
            fixed = words[rng.choice(len(words), nfixed, replace=False)]
            cell, radix = _orbit_cells(spec, words, fixed)
            columns = [(c >= n2, *fixed[:, c]) for c in range(spec.length)]
            groups = (cell[0] // 3).tolist()
            assert len(set(zip(groups, columns))) == len(set(groups)) == len(set(columns))
            counts = (cell[:, :, None] == np.arange(len(radix))).sum(axis=1)
            assert (counts < radix).all()
            rows = np.unique(counts, axis=0, return_inverse=True)[1].ravel().tolist()
            labels = _orbit_labels(spec, words, fixed)
            assert len(set(zip(labels, rows))) == len(set(labels)) == len(set(rows))


# exact_n for every (n2, n3) of the acceptance suite's oracle sandwich, at
# d = 1, 2, ..., n2 + n3
SANDWICH_VALUES = {
    (1, 1): (6, 2),
    (2, 1): (12, 4, 2),
    (3, 1): (24, 8, 3, 2),
    (4, 1): (48, 16, 6, 2, 2),
    (5, 1): (96, 32, 8, 4, 2, 2),
    (6, 1): (192, 64, 16, 8, 3, 2, 2),
    (1, 2): (18, 6, 2),
    (2, 2): (36, 12, 4, 2),
    (3, 2): (72, 24, 6, 3, 2),
    (4, 2): (144, 48, 12, 6, 2, 2),
    (5, 2): (288, 96, 22, 8, 4, 2, 2),
    (1, 3): (54, 18, 6, 2),
    (2, 3): (108, 36, 9, 3, 2),
    (3, 3): (216, 72, 18, 6, 3, 2),
    (1, 4): (162, 54, 12, 4, 2),
}


@pytest.mark.parametrize("n2,n3", list(SANDWICH_VALUES))
def test_sandwich_values_pinned(n2, n3):
    got = tuple(exact_n(ProblemSpec(n2, n3, d)) for d in range(1, n2 + n3 + 1))
    assert got == SANDWICH_VALUES[(n2, n3)]


def test_sandwich_values_without_greedy_incumbents():
    # with no greedy clique to start from, the symmetry branching and the
    # branch-and-bound alone must find every maximum code
    with mock.patch("mixedsdp.codes._greedy_clique", lambda adj, order: 0):
        for (n2, n3), values in SANDWICH_VALUES.items():
            for d, want in enumerate(values, 1):
                assert exact_n(ProblemSpec(n2, n3, d)) == want, (n2, n3, d)


def brute_force_clique_number(adj, cand):
    """Oracle: size of the largest clique inside ``cand``, by listing every
    clique once in increasing vertex order."""
    best = 0

    def extend(size, rest):
        nonlocal best
        best = max(best, size)
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            extend(size + 1, rest & adj[v])

    extend(0, cand)
    return best


@st.composite
def graph_candidates_lower(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    density = draw(st.sampled_from((0.2, 0.5, 0.8, 0.95)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    cand = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    lower = draw(st.integers(min_value=-1, max_value=n))
    return adj, cand, lower


def matrix_within(adj, cand):
    """The vertices of ``cand``, ascending, and the boolean adjacency matrix
    of the subgraph of ``adj`` that they span, row i for vertex i."""
    vs = _vertices(cand)
    rows = [[adj[u] >> v & 1 for v in vs] for u in vs]
    return vs, np.array(rows, dtype=bool).reshape(len(vs), len(vs))


def degree_order(matrix):
    """The rows of ``matrix`` by degree, highest first, as the oracle orders
    the words for d <= 2."""
    return sorted(range(len(matrix)), key=lambda v: int(matrix[v].sum()), reverse=True)


def search_in_order(adj, cand, lower, order_of, nodes, limit=None):
    """What ``_search`` finds in ``cand``, relabelled in the order that
    ``order_of`` gives, mapped back to the vertices of ``adj``."""
    vs, matrix = matrix_within(adj, cand)
    order = order_of(matrix)
    radj, nonadj = _relabel(matrix[np.ix_(order, order)])
    best = _search(radj, nonadj, (1 << len(order)) - 1, lower, nodes, limit)
    return sum(1 << vs[order[v]] for v in _vertices(best))


def check_search(adj, cand, lower, order_of):
    omega = brute_force_clique_number(adj, cand)
    counter = [0]
    got = search_in_order(adj, cand, lower, order_of, counter)
    if omega > lower:
        assert got.bit_count() == omega
        assert got & ~cand == 0
        for v in range(len(adj)):
            if got >> v & 1:
                assert got & ~adj[v] == 1 << v, "not a clique"
    else:
        assert got == 0
    # the same search under a node limit: it completes at its own node count
    # and raises one node short of it
    nodes = counter[0]
    assert search_in_order(adj, cand, lower, order_of, [0], nodes) == got
    if nodes:
        with pytest.raises(_BudgetExceeded):
            search_in_order(adj, cand, lower, order_of, [0], nodes - 1)


@settings(max_examples=300, deadline=None)
@given(graph_candidates_lower())
# a graph whose maximum clique lies outside the top colour class, so a bound
# that falls too fast from one class to the next misses it
@example((
    [4094, 4013, 3051, 3767, 4073, 4063, 949, 3967, 3319, 1279, 3003, 1471],
    3967,
    5,
))
def test_search_matches_exhaustive_search(data):
    for order_of in (degree_order, _degeneracy_order):
        check_search(*data, order_of)
        # on graphs this small the greedy incumbent is nearly always maximum,
        # which would hide a search that prunes too much; without it the
        # branch-and-bound alone must find the clique
        with mock.patch("mixedsdp.codes._greedy_clique", lambda adj, order: 0):
            check_search(*data, order_of)


def reference_degeneracy_order(adj, cand):
    """Oracle: repeatedly take out a vertex of least degree among those left,
    the lowest on ties, and read the removals from the back."""
    rest = set(_vertices(cand))
    removed = []
    while rest:
        v = min(rest, key=lambda u: (sum(adj[u] >> w & 1 for w in rest), u))
        rest.remove(v)
        removed.append(v)
    return removed[::-1]


@settings(max_examples=300, deadline=None)
@given(graph_candidates_lower())
def test_degeneracy_order_matches_reference(data):
    adj, cand, _ = data
    vs, matrix = matrix_within(adj, cand)
    got = [vs[v] for v in _degeneracy_order(matrix)]
    assert sorted(got) == vs
    assert got == reference_degeneracy_order(adj, cand)


@pytest.mark.parametrize("n2,n3", [
    (n2, n3) for n2 in range(1, 7) for n3 in range(1, 5) if 2 ** n2 * 3 ** n3 <= 108
])
def test_profile_ranks_match_hamming_distances(n2, n3):
    rows = letters(ProblemSpec(n2, n3, 1))
    assert rows.dtype == np.int8
    # every word once, in lexicographic order
    words = rows.tolist()
    assert words == [list(w) for w in product(*[range(2)] * n2, *[range(3)] * n3)]
    for d in range(1, n2 + n3 + 1):
        spec = ProblemSpec(n2, n3, d)
        profiles, ranks = _profile_ranks(spec, rows)
        assert profiles == sorted(
            ((b, t) for b in range(n2 + 1) for t in range(n3 + 1) if b + t >= d),
            key=lambda p: (p[1], p[0]),
        )
        rank = {p: r for r, p in enumerate(profiles)}
        want = [
            [rank.get((hamming_distance(v[:n2], w[:n2]), hamming_distance(v[n2:], w[n2:])), -1)
             for w in words]
            for v in words
        ]
        assert ranks.tolist() == want


def test_profile_ranks_memory():
    # 972 words: one byte per pair is 0.94 MB, and a temporary of one int
    # per pair and coordinate would be 21 MB
    spec = ProblemSpec(2, 5, 3)
    rows = letters(spec)
    tracemalloc.start()
    try:
        _profile_ranks(spec, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
