import math

import numpy as np
import pytest
from fractions import Fraction
from functools import reduce

from oqctrl import kraussearch
from oqctrl.core import hermitian_basis, vec
from oqctrl.kraussearch import (
    ChannelAlphabet,
    RationalComplexMatrix,
    SearchMemoryError,
    apply_channel_exact,
    bounded_reachability,
    canonical_state_key,
)
from kraus_oracles import bounded_reachability_fifo, brute_force_min_length, exact_key
from kraus_oracles import fraction_product
from kraus_oracles import brute_force_min_length as brute_force


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
    # scalars are 1x1 matrices
    def test_sqrt2_squares_to_two(self):
        r = exact([[[{"sqrt2": 1}, 0]]])
        assert r @ r == exact([[[2, 0]]])

    def test_parse_fraction_string(self):
        assert exact([[["3/4", 0]]]) == exact([[[Fraction(3, 4), 0]]])

    def test_float_value(self):
        assert exact([[[{"sqrt2": "1/2"}, 0]]]).to_numpy()[0, 0] == pytest.approx(np.sqrt(2) / 2)

    def test_canonical_reduction_in_keys(self):
        a = exact([[["1/2", 0], [0, 0]], [[0, 0], ["1/2", 0]]])
        b = exact([[["2/4", 0], [0, 0]], [[0, 0], ["3/6", 0]]])
        assert exact_key(a) == exact_key(b)
        assert a == b


def _random_matrix(d, rng):
    """A d x d exact matrix with random signed Q(sqrt2) parts."""
    draws = [[_random_q(rng) + _random_q(rng) for _ in range(d)] for _ in range(d)]
    return RationalComplexMatrix(np.array(draws, dtype=object).transpose(2, 0, 1))


# the per-entry reference: an entry is ((x, y), (z, w)), meaning
# x + y sqrt2 + i (z + w sqrt2), read off the parts one entry at a time
def _entries(m):
    return [[((m.parts[0, j, k], m.parts[1, j, k]), (m.parts[2, j, k], m.parts[3, j, k]))
             for k in range(m.dim)] for j in range(m.dim)]


def _q_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _q_mul(a, b):
    return (a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _q_neg(a):
    return (-a[0], -a[1])


def _c_add(a, b):
    return (_q_add(a[0], b[0]), _q_add(a[1], b[1]))


def _c_mul(a, b):
    return (_q_add(_q_mul(a[0], b[0]), _q_neg(_q_mul(a[1], b[1]))),
            _q_add(_q_mul(a[0], b[1]), _q_mul(a[1], b[0])))


class TestExactArithmetic:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_operations_match_the_entrywise_reference(self, d):
        rng = np.random.default_rng(d)
        for _ in range(3):
            a, b = _random_matrix(d, rng), _random_matrix(d, rng)
            ea, eb = _entries(a), _entries(b)
            assert _entries(a @ b) == [
                [reduce(_c_add, (_c_mul(ea[j][m], eb[m][k]) for m in range(d))) for k in range(d)]
                for j in range(d)
            ]
            assert _entries(a + b) == [[_c_add(ea[j][k], eb[j][k]) for k in range(d)]
                                       for j in range(d)]
            assert _entries(a.dagger()) == [[(ea[k][j][0], _q_neg(ea[k][j][1])) for k in range(d)]
                                            for j in range(d)]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equality_is_entrywise(self, d):
        rng = np.random.default_rng(10 + d)
        a = _random_matrix(d, rng)
        assert a == RationalComplexMatrix(a.parts.copy())
        assert a == a.dagger().dagger()
        assert a != a + RationalComplexMatrix.identity(d)
        assert a != _random_matrix(d + 1, rng)
        assert a != a.to_numpy()
        for part in range(4):
            changed = a.parts.copy()
            changed[part, d - 1, 0] += Fraction(1, 7)
            assert a != RationalComplexMatrix(changed)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_to_numpy_is_the_entrywise_float_formula(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            m = _random_matrix(d, rng)
            root2 = kraussearch._SQRT2
            expected = np.array([
                [complex(float(x) + float(y) * root2, float(z) + float(w) * root2)
                 for (x, y), (z, w) in row]
                for row in _entries(m)
            ])
            assert m.to_numpy().dtype == np.complex128
            assert m.to_numpy().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_product_equals_the_fraction_oracle(self, d):
        rng = np.random.default_rng(30 + d)
        beyond_int64 = 2**64 + 13

        def draw():
            num = [int(v) for v in rng.integers(-10**6, 10**6, size=4 * d * d)]
            den = [int(v) for v in rng.integers(1, 10**6 + 1, size=4 * d * d)]
            parts = np.array([Fraction(n, m) for n, m in zip(num, den)], dtype=object)
            parts = parts.reshape(4, d, d)
            parts[rng.random((4, d, d)) < 0.25] = Fraction(0)
            parts[int(rng.integers(4)), 0, d - 1] = Fraction(-beyond_int64, 7)
            parts[int(rng.integers(4)), d - 1, 0] = Fraction(3, beyond_int64)
            return RationalComplexMatrix(parts)

        for _ in range(5):
            a, b = draw(), draw()
            product = a @ b
            assert np.array_equal(product.parts, fraction_product(a, b).parts)
            for entry in product.parts.flat:
                assert type(entry) is Fraction
                assert entry.denominator > 0
                assert math.gcd(entry.numerator, entry.denominator) == 1

    @pytest.mark.parametrize("operand", [3, Fraction(1, 2), 2.5, None, np.eye(2)])
    def test_a_non_matrix_operand_raises_type_error(self, operand):
        m = RationalComplexMatrix.identity(2)
        for operation in (lambda: m @ operand, lambda: operand @ m,
                          lambda: m + operand, lambda: operand + m):
            with pytest.raises(TypeError):
                operation()

    @pytest.mark.parametrize("rows, error, message", [
        ([[[1, 0], [0, 0]], [[0, 0]]], ValueError, "square"),
        ([[[1, 0], [0, 0]]], ValueError, "square"),
        ([], ValueError, "nonempty"),
        ([[[1]]], ValueError, r"entry \(0, 0\) must be a \[re, im\] pair"),
        ([[[0.5, 0]]], TypeError, "cannot parse exact scalar from 0.5"),
        ([[[0, {"sqrt2": "1/2"}], [0, 0.25]], [[0, 0], [1, 0]]], TypeError, "from 0.25"),
        # JSON booleans are Python ints, but never a literal
        ([[[True, 0]]], TypeError, "from True"),
        ([[[1, {"sqrt2": False}]]], TypeError, "from {'sqrt2': False}"),
        ([[[{"rational": True, "sqrt2": 0}, 0]]], TypeError, "from {'rational': True"),
        # a float inside an object is read no more than a bare one
        ([[[{"rational": 0.1}, 0]]], TypeError, "from {'rational': 0.1}"),
        ([[[1, {"rational": "1/2", "sqrt2": 0.5}]]], TypeError, "'sqrt2': 0.5}"),
    ], ids=["ragged", "non-square", "empty", "one-element-pair", "float-entry", "float-imag",
            "bool-entry", "bool-sqrt2-part", "bool-rational-part", "float-rational-part",
            "float-sqrt2-part"])
    def test_malformed_literals_name_the_problem(self, rows, error, message):
        with pytest.raises(error, match=message):
            RationalComplexMatrix.from_literals(rows)


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
        x, y, z, w = np.trace(out.parts, axis1=1, axis2=2)
        assert (x, y) == (1, 0)
        assert not (z or w)

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
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tol_must_be_positive(self, mode, tol):
        # a zero-width grid keys every state alike, and a negative tol hits nothing
        alphabet = ChannelAlphabet.from_kraus_lists([[HADAMARD_EXACT], [PAULI_X_EXACT]])
        with pytest.raises(ValueError, match="tol must be > 0"):
            bounded_reachability(alphabet, GROUND, PLUS, max_depth=5, mode=mode, tol=tol)
        with pytest.raises(ValueError, match="tol must be > 0"):
            canonical_state_key(GROUND, mode, tol)

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

    @pytest.mark.parametrize("max_states", [0, -3])
    def test_state_budget_below_one_rejected(self, max_states):
        # rejected before the search starts, though X hits the target at depth 1
        alphabet = ChannelAlphabet.from_kraus_lists([[PAULI_X_EXACT]])
        with pytest.raises(ValueError, match="max_states must be >= 1"):
            bounded_reachability(alphabet, GROUND, EXCITED, max_depth=2, max_states=max_states)


S_EXACT = exact([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
T_EXACT = exact([[[1, 0], [0, 0]], [[0, 0], [{"sqrt2": "1/2"}, {"sqrt2": "1/2"}]]])
P0_EXACT = exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
P1_EXACT = exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
RESET_EXACT = [P0_EXACT, exact([[[0, 0], [1, 0]], [[0, 0], [0, 0]]])]
MIX_EXACT = [exact([[[0, 0], ["3/5", 0]], [["3/5", 0], [0, 0]]]),
             exact([[["4/5", 0], [0, 0]], [[0, 0], ["4/5", 0]]])]
QUBIT_POOL = [
    [PAULI_X_EXACT], [exact([[[1, 0], [0, 0]], [[0, 0], [-1, 0]]])], [S_EXACT], [T_EXACT],
    [HADAMARD_EXACT], [P0_EXACT, P1_EXACT], RESET_EXACT, MIX_EXACT,
]
PLUS = exact([[["1/2", 0], ["1/2", 0]], [["1/2", 0], ["1/2", 0]]])
SKEW = exact([[["3/4", 0], ["1/4", 0]], [["1/4", 0], ["1/4", 0]]])
QUBIT_STATES = [GROUND, EXCITED, MIXED, PLUS, SKEW]


def _unit(d, cells):
    return exact([[cells.get((i, j), [0, 0]) for j in range(d)] for i in range(d)])


# a qutrit alphabet: a cyclic shift, a complex 3/5-4/5 rotation on levels 0 and
# 1 (a rational unitary), reset to level 0, and a Hadamard on levels 1 and 2
QUTRIT_ALPHABET = [
    [_unit(3, {(1, 0): [1, 0], (2, 1): [1, 0], (0, 2): [1, 0]})],
    [_unit(3, {(0, 0): ["3/5", 0], (0, 1): [0, "4/5"], (1, 0): [0, "4/5"],
               (1, 1): ["3/5", 0], (2, 2): [1, 0]})],
    [_unit(3, {(0, j): [1, 0]}) for j in range(3)],
    [_unit(3, {(0, 0): [1, 0], (1, 1): [{"sqrt2": "1/2"}, 0], (1, 2): [{"sqrt2": "1/2"}, 0],
               (2, 1): [{"sqrt2": "1/2"}, 0], (2, 2): [{"sqrt2": "-1/2"}, 0]})],
]


def _random_q(rng):
    """(a, b) of a random a + b sqrt2 with small signed rational a, b."""
    return (Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))),
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))))


def _zero_parts(d):
    return np.full((4, d, d), Fraction(0), dtype=object)


def _random_hermitian(d, rng):
    """An exact Hermitian matrix with random Q(sqrt2) parts (not a state)."""
    parts = _zero_parts(d)
    for i in range(d):
        parts[:2, i, i] = _random_q(rng)
        for j in range(i + 1, d):
            x, y, z, w = _random_q(rng) + _random_q(rng)
            parts[:, i, j], parts[:, j, i] = (x, y, z, w), (x, y, -z, -w)
    return RationalComplexMatrix(parts)


def _decode(row, d):
    """The Hermitian matrix of a lattice row (A, B, den): coordinates
    (A + B sqrt2)/den, ordered as the diagonal, then the real parts of the
    upper triangle, then the imaginary parts of the lower triangle."""
    n = d * d
    *ab, den = row
    coords = [(Fraction(ab[c], den), Fraction(ab[n + c], den)) for c in range(n)]
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    parts = _zero_parts(d)
    for k in range(d):
        parts[:2, k, k] = coords[k]
    for m, (i, j) in enumerate(upper):
        (x, y), (z, w) = coords[d + m], coords[d + len(upper) + m]
        parts[:, i, j], parts[:, j, i] = (x, y, -z, -w), (x, y, z, w)
    return RationalComplexMatrix(parts)


class TestLevelKernels:
    @pytest.mark.parametrize("pool, d", [
        ([[HADAMARD_EXACT], [T_EXACT], [S_EXACT], MIX_EXACT, RESET_EXACT], 2),
        (QUTRIT_ALPHABET, 3),
    ], ids=["qubit", "qutrit"])
    def test_lattice_step_decodes_to_apply_channel_exact(self, pool, d):
        alphabet = ChannelAlphabet.from_kraus_lists(pool)
        rng = np.random.default_rng(5)
        for _ in range(4):
            states = [_random_hermitian(d, rng) for _ in range(3)]
            lattice = kraussearch._ExactLattice(alphabet, states[0], states[0], 0.0)
            children = lattice.children(lattice.encode(states))
            assert children.shape == (len(states) * alphabet.size, 2 * d * d + 1)
            for c, row in enumerate(children.tolist()):
                rho, ops = states[c // alphabet.size], alphabet.channels[c % alphabet.size]
                expected = apply_channel_exact(ops, rho)
                assert _decode(row, d) == expected
                assert tuple(row) == canonical_state_key(expected)
                assert row[-1] > 0 and np.gcd.reduce(row) == 1

    def test_exact_key_is_the_lowest_terms_row(self):
        assert canonical_state_key(MIXED) == (1, 1, 0, 0, 0, 0, 0, 0, 2)
        assert canonical_state_key(PLUS) == (1, 1, 1, 0, 0, 0, 0, 0, 2)

    def test_float_level_step_is_the_per_state_step(self):
        alphabet = ChannelAlphabet.from_kraus_lists(QUBIT_POOL)
        rng = np.random.default_rng(6)
        states = [_random_hermitian(2, rng) for _ in range(6)]
        stack = kraussearch._FloatStack(alphabet, states[0], states[0], 1e-9)
        children = stack.children(stack.encode(states))
        for c, child in enumerate(children):
            st = states[c // alphabet.size].to_numpy()
            ops = [k.to_numpy() for k in alphabet.channels[c % alphabet.size]]
            assert np.array_equal(child, sum(k @ st @ k.conj().T for k in ops))

    def test_float_keys_are_the_grid_rows(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        keys = kraussearch._FloatStack.keys(stack, 1e-9)
        for st, key in zip(stack, keys):
            grid = np.round(np.concatenate([st.real.ravel(), st.imag.ravel()]) / 1e-10)
            assert key == grid.astype(np.int64).tobytes()
            assert key == canonical_state_key(st, "float", 1e-9)


def _random_instance(rng):
    """A criterion-8-style instance: 1-3 qubit channels, a start state, and a
    target that is either reachable by construction or drawn from the pool."""
    picks = rng.choice(len(QUBIT_POOL), size=int(rng.integers(1, 4)), replace=False)
    alphabet = ChannelAlphabet.from_kraus_lists([QUBIT_POOL[i] for i in picks])
    rho_i = QUBIT_STATES[int(rng.integers(len(QUBIT_STATES)))]
    rho_f = QUBIT_STATES[int(rng.integers(len(QUBIT_STATES)))]
    if rng.random() < 0.5:
        rho_f = rho_i
        for _ in range(int(rng.integers(1, 5))):
            rho_f = apply_channel_exact(alphabet.channels[int(rng.integers(alphabet.size))], rho_f)
    return alphabet, rho_i, rho_f, int(rng.integers(2, 7))


class TestAgainstFifoOracle:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_same_answers_as_fifo_search(self, mode):
        rng = np.random.default_rng(2024)
        found = 0
        for _ in range(120):
            alphabet, rho_i, rho_f, depth = _random_instance(rng)
            new = bounded_reachability(alphabet, rho_i, rho_f, depth, mode=mode)
            old = bounded_reachability_fifo(alphabet, rho_i, rho_f, depth, mode=mode)
            assert (new.found, new.sequence, new.states_explored, new.replay_verified) == (
                old.found, old.sequence, old.states_explored, old.replay_verified)
            found += new.found
        assert 20 < found < 100

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_same_budget_failure_as_fifo_search(self, mode):
        rng = np.random.default_rng(99)
        raised = []
        for _ in range(30):
            alphabet, rho_i, rho_f, depth = _random_instance(rng)
            for max_states in (1, 2, 4, 8):
                outcomes = []
                for search in (bounded_reachability, bounded_reachability_fifo):
                    try:
                        out = search(alphabet, rho_i, rho_f, depth, mode=mode, max_states=max_states)
                        outcomes.append((out.found, out.sequence, out.states_explored))
                    except SearchMemoryError as err:
                        outcomes.append((str(err), err.states_explored, err.frontier_size, err.depth))
                assert outcomes[0] == outcomes[1]
                if len(outcomes[0]) == 4:
                    raised.append(outcomes[0])
        assert len(raised) > 20
        assert len({frontier for _, _, frontier, _ in raised}) > 2

    def test_no_exact_matrix_product_per_state(self, monkeypatch):
        # the kraus-maps alphabet (H, T and a 3/5-4/5 bit-flip mix) from |0><0|
        # never reaches the skewed state; RationalComplexMatrix products happen
        # in setup only, so the count does not grow with the depth
        alphabet = ChannelAlphabet.from_kraus_lists([[HADAMARD_EXACT], [T_EXACT], MIX_EXACT])
        real = RationalComplexMatrix.__matmul__
        calls = []

        def counted(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(RationalComplexMatrix, "__matmul__", counted)
        counts = {}
        for depth in (3, 9):
            calls.clear()
            outcome = bounded_reachability(alphabet, GROUND, SKEW, max_depth=depth)
            assert not outcome.found
            counts[depth] = (len(calls), outcome.states_explored)
        assert counts[3][0] == counts[9][0]
        assert counts[9][1] == 1072 > counts[3][1]


NON_HERMITIAN = exact([[["1/2", 0], ["1/2", 0]], [[0, 0], ["1/2", 0]]])


class TestHermitianStates:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("which", ["initial", "target"])
    def test_non_hermitian_state_rejected(self, mode, which):
        alphabet = ChannelAlphabet.from_kraus_lists([[PAULI_X_EXACT]])
        states = {"initial": GROUND, "target": EXCITED, which: NON_HERMITIAN}
        with pytest.raises(ValueError, match=f"{which} state is not exactly Hermitian"):
            bounded_reachability(alphabet, states["initial"], states["target"], 2, mode=mode)

    def test_imaginary_diagonal_is_not_hermitian(self):
        with pytest.raises(ValueError, match="not exactly Hermitian"):
            canonical_state_key(exact([[[1, 1], [0, 0]], [[0, 0], [0, 0]]]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_lattice_coordinates_share_the_float_basis_layout(self, d):
        # core.hermitian_basis orders its coordinates as _coordinates does:
        # the diagonal, sqrt(2) Re of the upper triangle, then sqrt(2) Im of
        # the lower triangle
        m = _random_hermitian(d, np.random.default_rng(70 + d))
        (a, b) = kraussearch._coordinates(m)
        exact_coords = np.array([float(x) + float(y) * kraussearch._SQRT2 for x, y in zip(a, b)])
        scale = np.concatenate([np.ones(d), np.full(d * (d - 1) // 2, np.sqrt(2)),
                                np.full(d * (d - 1) // 2, np.sqrt(2))])
        float_coords = hermitian_basis(d) @ vec(m.to_numpy())
        np.testing.assert_allclose(float_coords, scale * exact_coords, rtol=0, atol=1e-13)
