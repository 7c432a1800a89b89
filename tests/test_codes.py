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
    Code,
    ProblemSpec,
    ResourceError,
    ShapeError,
    SizeError,
    Word,
    _BudgetExceeded,
    _canonical_counts,
    _compositions,
    _degeneracy_order,
    _letters,
    _orbit_cells,
    _orbit_labels,
    _profile_ranks,
    _relabel,
    _search,
    _swap_merged,
    _vertices,
    all_words,
    canonical_orbit,
    code,
    enumerate_orbits,
    exact_n,
    hamming_distance,
    min_distance,
    optimal_code,
    orbit_from_counts,
    orbit_is_feasible,
    orbit_pair_distances,
    pack_counts,
    pair_orbit,
    reordered_keys,
    singleton_orbit,
    unpack_keys,
    word,
)
from orbit_reference import orbit_size, reference_orbit, tuple_orbits


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


def brute_force_orbits(spec):
    """Oracle: canonicalize every nonempty code of size <= 3 by direct scan;
    each orbit maps to the minimum distance of its codes."""
    words = list(all_words(spec))
    found = {}
    for size in (1, 2, 3):
        for combo in combinations(words, size):
            c = code(*combo)
            w = canonical_orbit(spec, c)
            if w not in found:
                found[w] = min_distance(c)
    return found


def brute_force_max_code(spec):
    """Oracle: exhaustive search without bounds, tiny word spaces only."""
    words = list(all_words(spec))

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
        v = word((0, 1), (0, 1, 2))
        assert hamming_distance(v, v) == 0

    def test_direct_count(self):
        v = word((0, 1), (0, 1, 2))
        w = word((0, 0), (0, 2, 2))
        # differs in the second bit and the second trit
        assert hamming_distance(v, w) == 2

    def test_maximum(self):
        v = word((0, 1), (0, 1, 2))
        w = word((1, 0), (1, 2, 0))
        assert hamming_distance(v, w) == 5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hamming_distance(word((0,), (0,)), word((0, 1), (0,)))

    def test_symmetry_and_triangle(self):
        rng = random.Random(7)
        spec = ProblemSpec(3, 2, 1)
        words = list(all_words(spec))
        for _ in range(200):
            u, v, w = rng.sample(words, 3)
            assert hamming_distance(u, v) == hamming_distance(v, u)
            assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)


class TestWordsAndCodes:
    @pytest.mark.parametrize("bits, trits, message", [
        ((0, 2), (0,), r"binary symbols out of range: \(0, 2\)"),
        ((0,), (1, 3), r"ternary symbols out of range: \(1, 3\)"),
        ((0,), (-1,), r"ternary symbols out of range: \(-1,\)"),
    ])
    def test_letter_out_of_range(self, bits, trits, message):
        with pytest.raises(ValueError, match=message):
            Word(bits, trits)

    def test_unsorted_code(self):
        v, w = word((0,), (1,)), word((1,), (0,))
        for words in ((w, v), (v, v)):
            with pytest.raises(ValueError, match="words must be strictly sorted"):
                Code(words)
        assert Code((v, w)) == code(w, v)

    def test_code_prints_its_words(self):
        assert str(code(word((1, 0), (2,)), word((0, 1), (0,)))) == "{01|0, 10|2}"
        assert str(code()) == "{}"


class TestMinDistance:
    def test_empty_and_singleton(self):
        assert min_distance(code()) is None
        assert min_distance(code(word((0, 0), (0,)))) is None

    def test_single_pair(self):
        c = code(word((0, 0), (0,)), word((0, 1), (1,)))
        assert min_distance(c) == 2


class TestCanonicalOrbit:
    def test_singleton_all_equal_columns(self):
        spec = ProblemSpec(2, 3, 1)
        w = canonical_orbit(spec, code(word((0, 1), (2, 1, 0))))
        assert w == singleton_orbit(spec)

    def test_pair_single_columns(self):
        spec = ProblemSpec(1, 1, 1)
        w = canonical_orbit(spec, code(word((0,), (0,)), word((1,), (1,))))
        assert w == pair_orbit(spec, 1, 1)
        assert w.size == 2

    def test_triple_column_readoff(self):
        spec = ProblemSpec(1, 3, 1)
        c = code(
            word((0,), (0, 0, 0)),
            word((0,), (0, 1, 1)),
            word((0,), (0, 2, 2)),
        )
        w = canonical_orbit(spec, c)
        assert w.size == 3
        assert w.bin_counts == (1, 0, 0, 0)
        # one all-equal ternary column, two all-distinct ones
        assert w.ter_counts[0] == 1 and w.ter_counts[4] == 2

    def test_empty_code(self):
        spec = ProblemSpec(2, 3, 1)
        w = canonical_orbit(spec, code())
        assert w.size == 0
        assert w != singleton_orbit(spec)

    @pytest.mark.parametrize("bits, trits", [((0,), (0, 1, 2)), ((0, 1), (0, 1)), ((0, 1, 1), (0, 0, 0))])
    def test_nonconforming_word(self, bits, trits):
        spec = ProblemSpec(2, 3, 1)
        other = word(bits, trits)
        with pytest.raises(ShapeError, match=f"word {other} does not conform to \\(2, 3\\)"):
            canonical_orbit(spec, code(other))

    def test_oversized_code(self):
        spec = ProblemSpec(1, 1, 1)
        words = list(all_words(spec))[:4]
        with pytest.raises(SizeError):
            canonical_orbit(spec, Code(tuple(sorted(words))))

    def test_invariance_under_random_isometries(self):
        rng = random.Random(2024)
        for spec in (ProblemSpec(3, 2, 1), ProblemSpec(2, 3, 1), ProblemSpec(4, 1, 1)):
            words = list(all_words(spec))
            for _ in range(150):
                c = code(*rng.sample(words, rng.randint(1, 3)))
                g = random_isometry(spec, rng)
                assert canonical_orbit(spec, c) == canonical_orbit(spec, g.apply_code(c))

    @pytest.mark.parametrize("n2,n3", [(1, 1), (2, 1), (1, 2)])
    def test_separation_against_full_group(self, n2, n3):
        # codes with equal orbit ids must be connected by an actual isometry
        spec = ProblemSpec(n2, n3, 1)
        words = list(all_words(spec))
        group = list(all_isometries(spec))
        by_orbit = {}
        for size in (1, 2, 3):
            for combo in combinations(words, size):
                c = code(*combo)
                by_orbit.setdefault(canonical_orbit(spec, c), []).append(c)
        for orbit, members in by_orbit.items():
            rep = members[0]
            images = {g.apply_code(rep).words for g in group}
            for other in members:
                assert other.words in images, (
                    f"orbit {orbit.describe()} merges inequivalent codes"
                )


class TestOrbitPairDistances:
    def test_pair_padding(self):
        spec = ProblemSpec(1, 1, 1)
        w = pair_orbit(spec, 1, 1)
        assert orbit_pair_distances(w) == (2, 2, 0)
        assert min(x for x in orbit_pair_distances(w) if x) == 2

    def test_degenerate_triple_is_pair(self):
        spec = ProblemSpec(1, 1, 1)
        w = canonical_orbit(spec, code(word((0,), (0,)), word((1,), (0,))))
        assert w.size == 2
        assert orbit_pair_distances(w) == (1, 1, 0)

    def test_genuine_triple(self):
        spec = ProblemSpec(1, 3, 1)
        c = code(
            word((0,), (0, 0, 0)),
            word((0,), (0, 1, 1)),
            word((0,), (0, 2, 2)),
        )
        assert orbit_pair_distances(canonical_orbit(spec, c)) == (2, 2, 2)

    def test_size_error(self):
        spec = ProblemSpec(1, 1, 1)
        with pytest.raises(ValueError):
            orbit_pair_distances(singleton_orbit(spec))

    def test_min_distance_matches_representatives(self):
        rng = random.Random(5)
        spec = ProblemSpec(2, 2, 1)
        words = list(all_words(spec))
        for _ in range(200):
            c = code(*rng.sample(words, rng.randint(2, 3)))
            w = canonical_orbit(spec, c)
            # a zero distance is the padded triple's repeated word
            assert min(x for x in orbit_pair_distances(w) if x) == min_distance(c)


class TestEnumerateOrbits:
    def test_111_has_eight_orbits(self):
        # the empty code's orbit is the constant 1, the other seven are the
        # variables
        variables = enumerate_orbits(ProblemSpec(1, 1, 1))
        assert sorted(w.size for w in variables) == [1, 2, 2, 2, 3, 3, 3]

    # every word space of at most VERIFY_WORD_CAP = 108 words
    @pytest.mark.parametrize("n2,n3", [
        (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (4, 1), (5, 1), (3, 2), (2, 3),
    ])
    def test_matches_brute_force(self, n2, n3):
        # at both levels and every d: the orbits at distance >= d, sorted and
        # numbered from 0
        found = brute_force_orbits(ProblemSpec(n2, n3, 1))
        for d in range(1, n2 + n3 + 1):
            for k in (2, 3):
                want = sorted(
                    w for w, md in found.items() if w.size <= k and (md is None or md >= d)
                )
                got = enumerate_orbits(ProblemSpec(n2, n3, d, k))
                assert list(got.items()) == [(w, i) for i, w in enumerate(want)], (d, k)

    def test_orbit_sizes_partition_code_count(self):
        # orbit cardinalities over sizes 1..3 must add up to the number of
        # nonempty codes
        spec = ProblemSpec(2, 2, 1)
        total = sum(orbit_size(spec, w) for w in enumerate_orbits(spec))
        n = spec.num_words
        expected = n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
        assert total == expected

    def test_orbit_size_matches_brute_count(self):
        spec = ProblemSpec(2, 1, 1)
        words = list(all_words(spec))
        counts = dict.fromkeys(enumerate_orbits(spec), 0)
        for size in (1, 2, 3):
            for combo in combinations(words, size):
                counts[canonical_orbit(spec, code(*combo))] += 1
        for w, count in counts.items():
            assert count == orbit_size(spec, w), w.describe()

    # level 2 lists distance profiles and packs no keys, so its counts may
    # pass the 31 of a 5-bit key digit
    @pytest.mark.parametrize("n2,n3,d", [(1, 32, 3), (33, 2, 4), (40, 63, 20), (70, 5, 5), (1, 200, 3)])
    def test_level_two_counts_above_five_bits(self, n2, n3, d):
        spec = ProblemSpec(n2, n3, d, k=2)
        assert list(enumerate_orbits(spec).items()) == list(tuple_orbits(spec).items())

    def test_level_two_is_the_start_of_level_three(self):
        # the two levels share no enumeration code: level 2's map is the
        # start of level 3's, index for index, and level 3 adds only triples
        specs = [
            (n2, length - n2, d)
            for length in range(2, 11) for n2 in range(1, length) for d in range(1, length + 1)
        ]
        assert len(specs) == 330
        for n2, n3, d in specs:
            two = list(enumerate_orbits(ProblemSpec(n2, n3, d, k=2)).items())
            three = list(enumerate_orbits(ProblemSpec(n2, n3, d, k=3)).items())
            assert three[:len(two)] == two, (n2, n3, d)
            assert all(w.size == 3 for w, _ in three[len(two):]), (n2, n3, d)

    def test_level_three_count_above_five_bits_refused(self):
        # level 3 packs the block build's 5-bit digits; the refusal comes
        # before the binary x ternary product is formed
        for n2, n3 in ((32, 1), (1, 32)):
            with pytest.raises(ValueError, match="5-bit"):
                enumerate_orbits(ProblemSpec(n2, n3, 1, k=3))


def test_pack_counts_refuses_a_count_past_its_digit():
    with pytest.raises(ValueError, match="5-bit"):
        pack_counts([[0] * (N_COUNTS - 1) + [KEY_COUNT_MAX + 1]])


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.integers(min_value=0, max_value=6)] * N_BIN_PATTERNS),
    st.tuples(*[st.integers(min_value=0, max_value=6)] * N_TER_PATTERNS),
)
def test_orbit_from_counts_matches_reorderings(bin_counts, ter_counts):
    assert orbit_from_counts(bin_counts, ter_counts) == reference_orbit(
        bin_counts, ter_counts
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=KEY_COUNT_MAX)] * N_COUNTS),
    min_size=1, max_size=20,
))
def test_packed_canonical_key_matches_canonical_counts(rows):
    # keys order as their count tuples; the least of a key's six reorderings
    # packs _canonical_counts; and sorting by (size, canonical key) sorts
    # the OrbitIds, which is the order of the variables
    keys = pack_counts(rows)
    assert unpack_keys(keys).tolist() == [list(r) for r in rows]
    assert sorted(keys.tolist()) == pack_counts(sorted(rows)).tolist()
    # a reordering of a sum of keys is the sum of their reorderings
    half = pack_counts([[c // 2 for c in r] for r in rows])
    assert (reordered_keys(half) + reordered_keys(keys - half) == reordered_keys(keys)).all()
    canon = reordered_keys(keys).min(axis=1)
    assert unpack_keys(canon).tolist() == [list(_canonical_counts(r)) for r in rows]
    orbits = [orbit_from_counts(r[:N_BIN_PATTERNS], r[N_BIN_PATTERNS:]) for r in rows]
    by_key = sorted(zip(orbits, canon.tolist()), key=lambda t: (t[0].size, t[1]))
    assert [w for w, _ in by_key] == sorted(orbits)


@pytest.mark.parametrize("n2,n3,d", [(4, 8, 5), (2, 5, 3)])
def test_enumerate_orbits_matches_reference(n2, n3, d):
    # every count vector of the spec's columns, canonicalised by reordering
    # the patterns directly
    spec = ProblemSpec(n2, n3, d)
    seen = {
        reference_orbit(bc, tc)
        for bc in _compositions(n2, N_BIN_PATTERNS)
        for tc in _compositions(n3, N_TER_PATTERNS)
    }
    orbits = sorted(w for w in seen if orbit_is_feasible(w, d))
    assert list(enumerate_orbits(spec).items()) == [(w, i) for i, w in enumerate(orbits)]


@st.composite
def small_spec_and_code(draw):
    n2 = draw(st.integers(min_value=1, max_value=3))
    n3 = draw(st.integers(min_value=1, max_value=2))
    spec = ProblemSpec(n2, n3, 1)
    words = list(all_words(spec))
    idxs = draw(st.sets(st.integers(min_value=0, max_value=len(words) - 1),
                        min_size=1, max_size=3))
    return spec, code(*(words[i] for i in idxs))


@settings(max_examples=60, deadline=None)
@given(small_spec_and_code())
def test_orbit_feasibility_matches_min_distance(data):
    spec, c = data
    w = canonical_orbit(spec, c)
    for d in range(1, spec.length + 1):
        md = min_distance(c)
        assert orbit_is_feasible(w, d) == (md is None or md >= d)


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
        spec = ProblemSpec(2, 2, 2)
        c = optimal_code(spec)
        assert len(c) == exact_n(spec)
        assert min_distance(c) >= spec.d

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
        # each budget is about 1.2 times the search's node count
        assert exact_n(ProblemSpec(6, 1, 3), node_budget=640) == 16
        assert exact_n(ProblemSpec(3, 3, 3), node_budget=580) == 18
        assert exact_n(ProblemSpec(4, 2, 3), node_budget=160) == 12
        assert exact_n(ProblemSpec(5, 2, 3), node_budget=31_000) == 22
        # d <= 2: the whole-graph search
        assert exact_n(ProblemSpec(5, 2, 2), node_budget=96) == 96

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
    words = list(all_words(spec))
    index = {w: i for i, w in enumerate(words)}
    letters = _letters(spec)
    zero = 0
    reps = [
        index[word([1] * b + [0] * (n2 - b), [1] * t + [0] * (n3 - t))]
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
        labels = _orbit_labels(spec, letters, letters[[v for v in fixed if v != zero]])
        assert_classes_are_orbits(labels, orbit_of)
        return set(orbit_of.values())

    for rep in reps:
        setwise = orbits([g for g in perms if {g[zero], g[rep]} == {zero, rep}])
        labels = _orbit_labels(spec, letters, letters[[rep]])
        assert_classes_are_orbits(_swap_merged(spec, letters, letters[rep], labels), setwise)
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
    letters = _letters(spec)
    rng = np.random.default_rng(n2 * 10 + n3)
    for nfixed in (1, 2, 3):
        for _ in range(4):
            fixed = letters[rng.choice(len(letters), nfixed, replace=False)]
            cell, radix = _orbit_cells(spec, letters, fixed)
            columns = [(c >= n2, *fixed[:, c]) for c in range(spec.length)]
            groups = (cell[0] // 3).tolist()
            assert len(set(zip(groups, columns))) == len(set(groups)) == len(set(columns))
            counts = (cell[:, :, None] == np.arange(len(radix))).sum(axis=1)
            assert (counts < radix).all()
            rows = np.unique(counts, axis=0, return_inverse=True)[1].ravel().tolist()
            labels = _orbit_labels(spec, letters, fixed)
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
    words = list(all_words(ProblemSpec(n2, n3, 1)))
    letters = _letters(ProblemSpec(n2, n3, 1))
    assert letters.dtype == np.int8
    assert [word(row[:n2], row[n2:]) for row in letters.tolist()] == words
    for d in range(1, n2 + n3 + 1):
        spec = ProblemSpec(n2, n3, d)
        profiles, ranks = _profile_ranks(spec, letters)
        assert profiles == sorted(
            ((b, t) for b in range(n2 + 1) for t in range(n3 + 1) if b + t >= d),
            key=lambda p: (p[1], p[0]),
        )
        rank = {p: r for r, p in enumerate(profiles)}
        want = [
            [rank.get((hamming_distance(word(v.bits, ()), word(w.bits, ())),
                       hamming_distance(word((), v.trits), word((), w.trits))), -1)
             for w in words]
            for v in words
        ]
        assert ranks.tolist() == want


def test_profile_ranks_memory():
    # 972 words: one byte per pair is 0.94 MB, and a temporary of one int
    # per pair and coordinate would be 21 MB
    spec = ProblemSpec(2, 5, 3)
    letters = _letters(spec)
    tracemalloc.start()
    try:
        _profile_ranks(spec, letters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
