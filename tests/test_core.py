"""Tests for deck construction, dealing, the RNG contract and state types."""

import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warlab.core import (
    Card,
    GameState,
    RngStream,
    build_deck,
    deal_uniform,
    validate_state,
)

# chi-square critical values at alpha = 0.001
CHI2_CRIT = {5: 20.515, 99: 148.230}


class TestBuildDeck:
    """Deck construction from specs and explicit rank lists."""

    def test_distinct_52(self):
        """(52, 1) gives 52 cards of distinct ranks 1..52."""
        deck = build_deck((52, 1))
        assert deck.size == 52
        assert sorted(c.rank for c in deck.cards) == list(range(1, 53))
        assert not deck.has_repeated_ranks

    def test_standard_52(self):
        """(13, 4) is the standard four-suit deck: 4 copies of 13 ranks."""
        deck = build_deck((13, 4))
        assert deck.size == 52
        assert Counter(c.rank for c in deck.cards) == {
            r: 4 for r in range(1, 14)
        }

    def test_smallest_repeated(self):
        """(1, 2) is the two-card equal-rank deck."""
        deck = build_deck((1, 2))
        assert [c.rank for c in deck.cards] == [1, 1]
        assert deck.has_repeated_ranks

    def test_ids_are_dense(self):
        deck = build_deck((5, 3))
        assert [c.id for c in deck.cards] == list(range(15))

    def test_explicit_ranks(self):
        deck = build_deck([4, 4, 9])
        assert deck.ranks == (4, 4, 9)

    @pytest.mark.parametrize("spec", [(0, 1), (4, 0), (-2, 3), []])
    def test_rejects_empty_or_nonpositive(self, spec):
        with pytest.raises(ValueError):
            build_deck(spec)

    def test_rejects_nonpositive_ranks(self):
        with pytest.raises(ValueError):
            build_deck([1, 0, 2])

    @given(n_ranks=st.integers(1, 8), copies=st.integers(1, 4))
    @settings(max_examples=40)
    def test_spec_invariants(self, n_ranks, copies):
        """Ids are 0..size-1 exactly once; each rank appears `copies` times."""
        deck = build_deck((n_ranks, copies))
        assert sorted(c.id for c in deck.cards) == list(range(deck.size))
        assert Counter(c.rank for c in deck.cards) == {
            r: copies for r in range(1, n_ranks + 1)
        }


class TestRngStream:
    """The (seed, stream_id) -> draw-sequence contract."""

    def test_same_stream_same_draws(self):
        a = [RngStream(42, 7).random() for _ in range(50)]
        b = [RngStream(42, 7).random() for _ in range(50)]
        assert a == b

    def test_distinct_streams_differ(self):
        draws = {
            tuple(RngStream(42, sid).random() for _ in range(4))
            for sid in range(32)
        }
        assert len(draws) == 32

    def test_distinct_seeds_differ(self):
        assert RngStream(1, 0).random() != RngStream(2, 0).random()

    def test_algorithm_named(self):
        assert "mt19937" in RngStream(0).algorithm

    def test_pooled_uniformity(self):
        """First draws across streams are uniform (chi-square, alpha=0.001)."""
        n_bins, n = 100, 20000
        counts = [0] * n_bins
        for sid in range(n):
            counts[int(RngStream(5, sid).random() * n_bins)] += 1
        expected = n / n_bins
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < CHI2_CRIT[99], f"chi2={chi2:.1f}"


def _cpython_stream(seed, stream_id):
    """The stdlib generator the contract names, seeded independently of
    RngStream."""
    material = hashlib.sha256(f"{seed}:{stream_id}".encode()).digest()
    return random.Random(int.from_bytes(material, "big"))


def _setsize(k):
    """CPython 3.11's pool/set threshold in ``Random.sample``."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


class TestOwnShuffleAndSample:
    """RngStream.shuffle/sample are warlab's own code over getrandbits,
    yet return exactly what CPython's Random.shuffle/sample return from the
    same state and consume the same 32-bit words (the next random() then
    agrees too)."""

    N_STREAMS = 200

    @staticmethod
    def _size(sid):
        # Quadratic in the stream id: many small lists, up to 1000.
        return sid * sid * 1000 // 199**2

    def test_shuffle_matches_cpython(self):
        for sid in range(self.N_STREAMS):
            ours, ref = RngStream(11, sid), _cpython_stream(11, sid)
            n = self._size(sid)
            for _ in range(2):
                x, y = list(range(n)), list(range(n))
                ours.shuffle(x)
                ref.shuffle(y)
                assert x == y, (sid, n)
            assert ours.random() == ref.random(), sid

    def test_sample_matches_cpython(self):
        branches = Counter()
        for sid in range(self.N_STREAMS):
            ours, ref = RngStream(12, sid), _cpython_stream(12, sid)
            n = self._size(sid)
            population = range(n) if sid % 2 else tuple(range(100, 100 + n))
            for k in sorted({0, min(1, n), min(3, n), n // 7, n // 2, n}):
                branches["set" if n > _setsize(k) else "pool"] += 1
                assert ours.sample(population, k) == ref.sample(
                    population, k), (sid, n, k)
            assert ours.random() == ref.random(), sid
        assert branches["set"] >= 100 and branches["pool"] >= 100, branches

    def test_sample_rejects_bad_k(self):
        rng = RngStream(0)
        with pytest.raises(ValueError):
            rng.sample(range(3), 4)
        with pytest.raises(ValueError):
            rng.sample(range(3), -1)


class TestDealUniform:
    def test_two_card_hands_uniform(self):
        """On a 4-card deck, all 6 two-card hands are equally likely
        (chi-square over >= 60000 seeded deals, alpha = 0.001)."""
        deck = build_deck((4, 1))
        counts = Counter()
        n = 60000
        for i in range(n):
            state = deal_uniform(deck, 2, RngStream(9, i))
            counts[state.hand_a] += 1
        assert len(counts) == 6
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_CRIT[5], f"chi2={chi2:.2f}"

    def test_empty_hand_is_absorbing(self):
        deck = build_deck((4, 1))
        state = deal_uniform(deck, 0, RngStream(0))
        assert state.hand_a == frozenset()
        assert state.is_absorbing

    def test_ordered_split_halves(self):
        """Ordered full-deck deal partitions into two 26-card sequences
        with per-card membership frequency 1/2 within 3 sigma."""
        deck = build_deck((13, 4))
        n = 4000
        in_a = Counter()
        for i in range(n):
            state = deal_uniform(deck, 26, RngStream(17, i), ordered=True)
            assert isinstance(state.hand_a, tuple)
            assert len(state.hand_a) == 26
            validate_state(state, deck)
            in_a.update(state.hand_a)
        sigma = math.sqrt(0.25 / n)
        for card_id in range(52):
            freq = in_a[card_id] / n
            assert abs(freq - 0.5) <= 4 * sigma, (
                f"card {card_id} landed in hand A with frequency {freq}"
            )

    def test_marginal_frequency_matches_size(self):
        """Each card lands in hand A with frequency size_a/deck_size."""
        deck = build_deck((6, 1))
        n = 30000
        size_a = 2
        in_a = Counter()
        for i in range(n):
            in_a.update(deal_uniform(deck, size_a, RngStream(3, i)).hand_a)
        p = size_a / deck.size
        sigma = math.sqrt(p * (1 - p) / n)
        for card_id in range(deck.size):
            assert abs(in_a[card_id] / n - p) <= 4 * sigma

    @pytest.mark.parametrize("size_a", [-1, 5])
    def test_rejects_out_of_range_size(self, size_a):
        with pytest.raises(ValueError):
            deal_uniform(build_deck((4, 1)), size_a, RngStream(0))

    def test_deterministic_given_stream(self):
        deck = build_deck((13, 4))
        s1 = deal_uniform(deck, 26, RngStream(8, 5), ordered=True)
        s2 = deal_uniform(deck, 26, RngStream(8, 5), ordered=True)
        assert s1 == s2


class TestGameState:
    def test_absorbing_iff_empty(self):
        assert GameState(frozenset(), frozenset({0, 1})).is_absorbing
        assert not GameState(frozenset({0}), frozenset({1})).is_absorbing

    def test_validate_rejects_overlap(self):
        deck = build_deck((4, 1))
        with pytest.raises(ValueError):
            validate_state(
                GameState(frozenset({0, 1}), frozenset({1, 2, 3})), deck
            )

    def test_validate_rejects_missing_cards(self):
        deck = build_deck((4, 1))
        with pytest.raises(ValueError):
            validate_state(GameState(frozenset({0}), frozenset({1})), deck)

    def test_validate_rejects_mixed_flavors(self):
        deck = build_deck((2, 1))
        with pytest.raises(ValueError):
            validate_state(GameState(frozenset({0}), (1,)), deck)

    def test_validate_rejects_duplicate_in_sequence(self):
        deck = build_deck((3, 1))
        with pytest.raises(ValueError):
            validate_state(GameState((0, 0), (1, 2)), deck)

    def test_card_identity(self):
        card = Card(id=3, rank=7)
        assert (card.id, card.rank) == (3, 7)
