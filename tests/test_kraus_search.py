import numpy as np
import pytest
from fractions import Fraction

from oqctrl import kraussearch
from oqctrl.kraussearch import (
    ChannelAlphabet,
    RationalComplexMatrix,
    SearchMemoryError,
    Sqrt2Rational,
    apply_channel_exact,
    bounded_reachability,
    brute_force_min_length,
    canonical_state_key,
    brute_force_min_length as brute_force,
)


def exact(rows):
    return RationalComplexMatrix.from_literals(rows)


PAULI_X_EXACT = exact([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
HADAMARD_EXACT = RationalComplexMatrix.from_literals(
    [
        [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "1/2"}, 0]],
        [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "-1/2"}, 0]],
    ]
)
GROUND = exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
EXCITED = exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
MIXED = exact([[["1/2", 0], [0, 0]], [[0, 0], ["1/2", 0]]])


class TestExactScalars:
    def test_sqrt2_squares_to_two(self):
        r = Sqrt2Rational(0, 1)
        assert r * r == Sqrt2Rational(2, 0)

    def test_parse_fraction_string(self):
        assert Sqrt2Rational.parse("3/4") == Sqrt2Rational(Fraction(3, 4))

    def test_division(self):
        x = Sqrt2Rational(1, 1)  # 1 + sqrt2
        assert x / x == Sqrt2Rational(1, 0)
        inv = Sqrt2Rational(1, 0) / x
        assert inv * x == Sqrt2Rational(1, 0)

    def test_float_value(self):
        assert float(Sqrt2Rational(0, Fraction(1, 2))) == pytest.approx(np.sqrt(2) / 2)

    def test_canonical_reduction_in_keys(self):
        a = exact([[["1/2", 0], [0, 0]], [[0, 0], ["1/2", 0]]])
        b = exact([[["2/4", 0], [0, 0]], [[0, 0], ["3/6", 0]]])
        assert a.key() == b.key()
        assert a == b


class TestExactChannels:
    def test_hadamard_is_exactly_unitary(self):
        h = HADAMARD_EXACT
        assert h.dagger() @ h == RationalComplexMatrix.identity(2)

    def test_bit_flip_application(self):
        out = apply_channel_exact([PAULI_X_EXACT], GROUND)
        assert out == EXCITED

    def test_dephasing_kills_off_diagonals(self):
        p0 = exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
        p1 = exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
        plus = exact([[["1/2", 0], ["1/2", 0]], [["1/2", 0], ["1/2", 0]]])
        out = apply_channel_exact([p0, p1], plus)
        assert out == MIXED

    def test_trace_exactly_one(self):
        rho = exact([[["1/3", 0], ["1/7", "1/9"]], [["1/7", "-1/9"], ["2/3", 0]]])
        out = apply_channel_exact([HADAMARD_EXACT], rho)
        assert out.trace().re == Sqrt2Rational(1)
        assert not out.trace().im

    def test_composition_matches_composed_channel(self):
        rng = np.random.default_rng(0)
        ha = [HADAMARD_EXACT]
        flip = [PAULI_X_EXACT]
        for _ in range(5):
            num = rng.integers(0, 5, 3)
            rho = exact(
                [
                    [[Fraction(int(num[0]), 5), 0], [Fraction(int(num[1]), 10), 0]],
                    [[Fraction(int(num[1]), 10), 0], [Fraction(5 - int(num[0]), 5), 0]],
                ]
            )
            via_steps = apply_channel_exact(flip, apply_channel_exact(ha, rho))
            composed = [PAULI_X_EXACT @ HADAMARD_EXACT]
            assert via_steps == apply_channel_exact(composed, rho)

    def test_not_trace_preserving_rejected(self):
        half = exact([[["1/2", 0], [0, 0]], [[0, 0], ["1/2", 0]]])
        with pytest.raises(ValueError, match="trace preserving"):
            apply_channel_exact([half], GROUND)

    def test_unchecked_operator_list_still_checked_on_direct_call(self):
        # the skip is opt-in: a direct call with a non-trace-preserving
        # two-operator list (sum K^dag K = diag(1, 1/2)) must still raise
        p0 = exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
        half_p1 = exact([[[0, 0], [0, 0]], [[0, 0], [{"sqrt2": "1/2"}, 0]]])
        with pytest.raises(ValueError, match="trace preserving"):
            apply_channel_exact([p0, half_p1], MIXED)

    def test_alphabet_flags(self):
        alphabet = ChannelAlphabet.from_kraus_lists([[HADAMARD_EXACT], [PAULI_X_EXACT]])
        assert alphabet.unitary == (True, True)
        p0 = exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
        p1 = exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
        alphabet = ChannelAlphabet.from_kraus_lists([[p0, p1]])
        assert alphabet.unitary == (False,)


class TestCanonicalKeys:
    def test_grid_rounding_merges_close_states(self):
        a = np.array([[0.5, 0.0], [0.0, 0.5]])
        b = a + 1e-15
        assert canonical_state_key(a, "float", 1e-9) == canonical_state_key(b, "float", 1e-9)

    def test_distinct_pure_states_distinct_keys(self):
        assert canonical_state_key(GROUND) != canonical_state_key(EXCITED)
        ga, ea = GROUND.to_numpy(), EXCITED.to_numpy()
        assert canonical_state_key(ga, "float") != canonical_state_key(ea, "float")

    @pytest.mark.parametrize("mode", ["Exact", "floaty", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode must be"):
            canonical_state_key(GROUND, mode)
        with pytest.raises(ValueError, match="mode must be"):
            canonical_state_key(GROUND.to_numpy(), mode)


class TestBoundedReachability:
    def test_single_flip(self):
        alphabet = ChannelAlphabet.from_kraus_lists([[PAULI_X_EXACT]])
        outcome = bounded_reachability(alphabet, GROUND, EXCITED, max_depth=3)
        assert outcome.found
        assert outcome.sequence == (0,)
        assert outcome.replay_verified

    def test_trivial_empty_sequence(self):
        alphabet = ChannelAlphabet.from_kraus_lists([[PAULI_X_EXACT]])
        outcome = bounded_reachability(alphabet, GROUND, GROUND, max_depth=3)
        assert outcome.found
        assert outcome.sequence == ()

    def test_hadamard_orbit_is_period_two(self):
        # H rho H cycles between the ground state and the +x state, so the
        # excited state is never reached and only two states are visited
        alphabet = ChannelAlphabet.from_kraus_lists([[HADAMARD_EXACT]])
        outcome = bounded_reachability(alphabet, GROUND, EXCITED, max_depth=6)
        assert not outcome.found
        assert outcome.states_explored == 2
        assert outcome.depth_limit == 6

    def test_shortest_certificate_lexicographic(self):
        # both (0,) after (1,)-prefixes and (1, 0) reach the target; BFS
        # must return the shortest and, among equals, the lexicographic one
        alphabet = ChannelAlphabet.from_kraus_lists([[HADAMARD_EXACT], [PAULI_X_EXACT]])
        outcome = bounded_reachability(alphabet, GROUND, EXCITED, max_depth=4)
        assert outcome.found
        assert outcome.sequence == (1,)

    def test_float_mode_matches_exact(self):
        alphabet = ChannelAlphabet.from_kraus_lists([[HADAMARD_EXACT], [PAULI_X_EXACT]])
        for target in (EXCITED, MIXED):
            exact_out = bounded_reachability(alphabet, GROUND, target, max_depth=4)
            float_out = bounded_reachability(alphabet, GROUND, target, max_depth=4, mode="float")
            assert exact_out.found == float_out.found
            if exact_out.found:
                assert exact_out.sequence == float_out.sequence

    def test_minimality_against_brute_force(self):
        rng = np.random.default_rng(1)
        p0 = exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
        p1 = exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
        pools = [
            [[PAULI_X_EXACT]],
            [[HADAMARD_EXACT], [PAULI_X_EXACT]],
            [[p0, p1], [HADAMARD_EXACT]],
            [[p0, p1], [PAULI_X_EXACT], [HADAMARD_EXACT]],
        ]
        targets = [GROUND, EXCITED, MIXED]
        for pool in pools:
            alphabet = ChannelAlphabet.from_kraus_lists(pool)
            for target in targets:
                outcome = bounded_reachability(alphabet, GROUND, target, max_depth=5)
                oracle = brute_force(alphabet, GROUND, target, max_depth=5)
                if oracle is None:
                    assert not outcome.found
                else:
                    assert outcome.found
                    assert len(outcome.sequence) == oracle

    def test_skipping_the_recheck_leaves_answers_unchanged(self, monkeypatch):
        # oracle: the same searches with every successor's channel re-checked
        p0 = exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
        p1 = exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
        pools = [
            [[HADAMARD_EXACT], [PAULI_X_EXACT]],
            [[p0, p1], [PAULI_X_EXACT], [HADAMARD_EXACT]],
        ]
        cases = [
            (ChannelAlphabet.from_kraus_lists(pool), target)
            for pool in pools
            for target in (GROUND, EXCITED, MIXED)
        ]
        fast = [bounded_reachability(a, EXCITED, t, max_depth=6) for a, t in cases]
        real = kraussearch.apply_channel_exact
        monkeypatch.setattr(
            kraussearch, "apply_channel_exact", lambda kraus, rho, checked=False: real(kraus, rho)
        )
        slow = [bounded_reachability(a, EXCITED, t, max_depth=6) for a, t in cases]
        for f, s in zip(fast, slow):
            assert (f.found, f.sequence, f.states_explored) == (s.found, s.sequence, s.states_explored)
        assert any(f.found for f in fast) and not all(f.found for f in fast)

    def test_monotone_in_depth(self):
        alphabet = ChannelAlphabet.from_kraus_lists([[HADAMARD_EXACT]])
        for depth in range(7):
            outcome = bounded_reachability(alphabet, GROUND, EXCITED, max_depth=depth)
            assert not outcome.found

    def test_memory_budget(self):
        # I/2 is unreachable from a pure state by unitaries, so the search
        # keeps exploring the orbit until the state budget trips
        alphabet = ChannelAlphabet.from_kraus_lists([[HADAMARD_EXACT], [PAULI_X_EXACT]])
        with pytest.raises(SearchMemoryError) as err:
            bounded_reachability(alphabet, GROUND, MIXED, max_depth=10, max_states=2)
        assert err.value.states_explored > 2

    @pytest.mark.parametrize("search", [bounded_reachability, brute_force_min_length])
    @pytest.mark.parametrize("mode", ["Exact", "floaty"])
    def test_unknown_mode_rejected(self, search, mode):
        alphabet = ChannelAlphabet.from_kraus_lists([[PAULI_X_EXACT]])
        with pytest.raises(ValueError, match="mode must be"):
            search(alphabet, GROUND, EXCITED, max_depth=2, mode=mode)

    def test_brute_force_float_mode_matches_exact(self):
        p0 = exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
        p1 = exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
        alphabet = ChannelAlphabet.from_kraus_lists([[p0, p1], [HADAMARD_EXACT], [PAULI_X_EXACT]])
        lengths = [
            (brute_force(alphabet, GROUND, t, 4), brute_force(alphabet, GROUND, t, 4, mode="float"))
            for t in (GROUND, EXCITED, MIXED)
        ]
        assert [e for e, _ in lengths] == [f for _, f in lengths] == [0, 1, 2]

    def test_negative_depth_rejected(self):
        alphabet = ChannelAlphabet.from_kraus_lists([[PAULI_X_EXACT]])
        with pytest.raises(ValueError):
            bounded_reachability(alphabet, GROUND, EXCITED, max_depth=-1)
