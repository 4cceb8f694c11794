"""Block convolution algebra, kernel algebra, and the reindexing between them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorenv.action import ZPartialAction
from cantorenv.algebra import (
    ZERO_BLOCKS,
    ZERO_KERNEL,
    GroupoidFunction,
    KernelElement,
    adjoint,
    col_part,
    convolve,
    fiber_product,
    from_kernel,
    kernel_adjoint,
    kernel_multiply,
    norm_squared,
    row_part,
    to_kernel,
    validate_blocks,
    validate_entries,
)
from cantorenv.cantor import ClopenSet
from cantorenv.errors import ParseError, SupportViolation
from cantorenv.functions import ONE, PiecewiseConstant, Scalar, indicator
from cantorenv.prefix_map import ODOMETER, PrefixMap
from cantorenv.sampling import Sampler

from oracles import antichain, cells_covered
from strategies import rule_lists, short_words

FLIP = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
ODO1 = ZPartialAction(ODOMETER).stage(1)

ONE_0 = indicator(ClopenSet.parse("{0}"))
ONE_1 = indicator(ClopenSet.parse("{1}"))


def blocks(*items):
    return GroupoidFunction(tuple(items))


def kernel(*items):
    return KernelElement(tuple(items))


def reparsed(table):
    """The table rebuilt through the public constructors from its slots and
    the real and imaginary parts of every scalar."""
    return type(table)(tuple(
        (key, PiecewiseConstant(tuple((w, Scalar(c.re, c.im)) for w, c in f.pieces)))
        for key, f in table.table
    ))


class TestContainers:
    def test_zero_blocks_dropped(self):
        f = blocks(((0, 0), PiecewiseConstant(())))
        assert f.is_zero() and f == ZERO_BLOCKS

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ParseError):
            blocks(((0, 1), ONE_1), ((0, 1), ONE_1))

    def test_linear_structure(self):
        f = blocks(((1, 0), ONE_0))
        g = blocks(((1, 0), ONE_0.scale(Scalar(2))))
        assert f + f == g
        assert (f - f).is_zero()
        assert f.scale(Scalar(2)) == g
        assert -f + f == ZERO_BLOCKS

    def test_json_roundtrip(self):
        f = blocks(
            ((0, 1), indicator(ClopenSet.parse("{1}"), Scalar(Fraction(1, 2), 1))),
            ((2, 2), ONE_0),
        )
        assert reparsed(f) == f
        k = to_kernel(f)
        assert reparsed(k) == k

    def test_slots_must_be_ints(self):
        for slot in ((0.7, 1.9), ("2", True), (True, 0), (0, 1.0)):
            for cls in (GroupoidFunction, KernelElement):
                with pytest.raises(ParseError, match="slot"):
                    cls(((slot, ONE_0),))
        with pytest.raises(ParseError, match="slot"):
            blocks(((0, 1.0), ONE_1))
        # the trusted paths move slots without the constructor's check
        f = blocks(((0, 1), ONE_1))
        for bad in (lambda: f.shift(1.0), lambda: f.corner(0, 1.0),
                    lambda: f.corner(True, 1)):
            with pytest.raises(ParseError, match="slot"):
                bad()

    def test_json_scalars_are_strings(self):
        f = blocks(((0, 1), indicator(ClopenSet.parse("{1}"), Scalar(0, -1))))
        [(idx, func)] = f.table
        assert idx == (0, 1)
        assert {w: str(c) for w, c in func.pieces} == {"1": "0-1i"}

    def test_validate_blocks(self):
        # block (0, 1) must live inside X_1 = [1]
        validate_blocks(blocks(((0, 1), ONE_1)), FLIP)
        with pytest.raises(SupportViolation):
            validate_blocks(blocks(((0, 1), ONE_0)), FLIP)

    def test_validate_entries(self):
        # entry (0, 1) must live inside X_{-1} = [0]
        validate_entries(kernel(((0, 1), ONE_0)), FLIP)
        with pytest.raises(SupportViolation):
            validate_entries(kernel(((0, 1), ONE_1)), FLIP)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_piece_words_decide_containment(self, data):
        # accepted exactly when every depth-d cell of the support lies in X_t;
        # the halves of a word of X_t carry different values, so they stay
        # unmerged siblings below that merged word
        a = ZPartialAction(PrefixMap(tuple(data.draw(rule_lists()))))
        t = data.draw(st.integers(-2, 2))
        x = a.domain(t).words
        split = data.draw(st.lists(st.sampled_from(x), unique=True)) if x else []
        ws = antichain(
            [w + b for w in split for b in "01"] + data.draw(short_words)
        )
        f = PiecewiseConstant(tuple((w, Scalar(i + 1)) for i, w in enumerate(ws)))
        d = max(map(len, ws + list(x)), default=0)
        inside = cells_covered(ws, d) <= cells_covered(x, d)
        for validate, table in (
            (validate_blocks, blocks(((0, t), f))),
            (validate_entries, kernel(((t, 0), f))),
        ):
            try:
                validate(table, a)
            except SupportViolation:
                assert not inside
            else:
                assert inside


class TestConvolve:
    def test_unit_shift_composition(self):
        f = blocks(((1, 0), ONE_0))
        g = blocks(((0, 1), ONE_1))
        out = convolve(f, g, FLIP)
        assert out == blocks(((1, 1), ONE_0))

    def test_diagonal_units_are_neutral(self):
        full = indicator(ClopenSet.parse("{ε}"))
        e = blocks(*(((t, t), full) for t in (-1, 0, 1)))
        f = blocks(((1, 0), ONE_0), ((0, 1), ONE_1))
        assert convolve(e, f, FLIP) == f
        assert convolve(f, e, FLIP) == f

    def test_adjoint_swaps_and_transports(self):
        f = blocks(((1, 0), ONE_0))
        assert adjoint(f, FLIP) == blocks(((0, 1), ONE_1))

    def test_support_check_survives_an_earlier_verdict(self):
        # {1} is accepted for block (0, 1) in X_1 and must still be refused
        # for block (1, 0) in X_-1 = {0}, on every call
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        good = blocks(((0, 1), ONE_1))
        bad = blocks(((1, 0), ONE_1))
        assert convolve(good, good, a).is_zero()
        for f, g in ((bad, good), (good, bad), (bad, good)):
            with pytest.raises(SupportViolation) as exc:
                convolve(f, g, a)
            assert str(exc.value) == (
                "block (1,0) supported on {1}, outside X_-1 = {0}"
            )
        with pytest.raises(SupportViolation):
            adjoint(bad, a)

    def test_support_verdict_is_keyed_by_the_action(self):
        # {1} is X_1 of [0 -> 1] but lies outside X_1 = {0} of [1 -> 0]: a
        # block (0, 1) and an entry (1, 0) on {1} that passed for the first
        # action must be refused by the second, on every call
        first = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        second = ZPartialAction(PrefixMap.parse("[1 -> 0]"))
        f, k = blocks(((0, 1), ONE_1)), kernel(((1, 0), ONE_1))
        fresh = [blocks(((0, 1), ONE_1)), kernel(((1, 0), ONE_1))]
        assert convolve(f, f, first).is_zero()
        assert kernel_multiply(k, k, first).is_zero()
        for _ in range(2):
            with pytest.raises(SupportViolation) as exc:
                convolve(f, f, second)
            assert str(exc.value) == (
                "block (0,1) supported on {1}, outside X_1 = {0}"
            )
            with pytest.raises(SupportViolation) as exc:
                kernel_multiply(k, k, second)
            assert str(exc.value) == (
                "entry (1,0) supported on {1}, outside X_1 = {0}"
            )
        validate_blocks(f, first)
        validate_entries(k, first)
        # the recorded verdict is no part of the value
        for table, twin in zip((f, k), fresh):
            assert table == twin and hash(table) == hash(twin)
            assert str(table) == str(twin) and repr(table) == repr(twin)

    def test_adjoint_is_involutive(self):
        s = Sampler(3)
        for _ in range(10):
            f = s.groupoid_function(ODO1, max_index=2, depth=4)
            assert adjoint(adjoint(f, ODO1), ODO1) == f

    def test_product_adjoint_reverses(self):
        s = Sampler(4)
        for _ in range(10):
            f = s.groupoid_function(ODO1, max_index=2, depth=4)
            g = s.groupoid_function(ODO1, max_index=2, depth=4)
            lhs = adjoint(convolve(f, g, ODO1), ODO1)
            rhs = convolve(adjoint(g, ODO1), adjoint(f, ODO1), ODO1)
            assert lhs == rhs

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        s = Sampler(seed)
        f, g, h = (s.groupoid_function(ODO1, max_index=2, depth=4)
                   for _ in range(3))
        assert convolve(convolve(f, g, ODO1), h, ODO1) == convolve(
            f, convolve(g, h, ODO1), ODO1
        )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_bilinearity(self, seed):
        s = Sampler(seed)
        f, g, h = (s.groupoid_function(FLIP, max_index=2, depth=4)
                   for _ in range(3))
        assert convolve(f + g, h, FLIP) == convolve(f, h, FLIP) + convolve(
            g, h, FLIP
        )
        assert convolve(h, f + g, FLIP) == convolve(h, f, FLIP) + convolve(
            h, g, FLIP
        )


class TestFiberProduct:
    def test_tagged_product(self):
        # f carries tag 1, so it lives on X_1 = [1]; the product keeps the tag
        f = indicator(ClopenSet.parse("{1}"), Scalar(2))
        g = indicator(ClopenSet.parse("{0}"), Scalar(3))
        out = fiber_product(f, 1, g, 0, FLIP)
        assert out == indicator(ClopenSet.parse("{1}"), Scalar(6))

    def test_zero_translate_is_pointwise(self):
        f = indicator(ClopenSet.parse("{0}"), Scalar(2))
        out = fiber_product(f, 0, f, 0, FLIP)
        assert out == indicator(ClopenSet.parse("{0}"), Scalar(4))


class TestKernelAlgebra:
    def test_unit_tags_compose(self):
        k1 = kernel(((0, -1), ONE_1))
        k2 = kernel(((-1, 0), ONE_0))
        out = kernel_multiply(k1, k2, FLIP)
        assert out == kernel(((0, 0), ONE_1))

    def test_entry_check_survives_an_earlier_verdict(self):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        good = kernel(((1, 0), ONE_1))
        bad = kernel(((0, 1), ONE_1))
        assert kernel_multiply(good, good, a).is_zero()
        for _ in range(2):
            with pytest.raises(SupportViolation) as exc:
                kernel_multiply(bad, good, a)
            assert str(exc.value) == (
                "entry (0,1) supported on {1}, outside X_-1 = {0}"
            )
            with pytest.raises(SupportViolation):
                kernel_adjoint(bad, a)

    def test_kernel_adjoint_is_involutive(self):
        s = Sampler(5)
        for _ in range(10):
            k = to_kernel(s.groupoid_function(ODO1, max_index=2, depth=4))
            assert kernel_adjoint(kernel_adjoint(k, ODO1), ODO1) == k

    def test_shift_group_law(self):
        k = kernel(((0, 1), ONE_0))
        assert k.shift(1).shift(2) == k.shift(3)
        assert k.shift(0) == k
        assert k.shift(1).indices == ((-1, 0),)

    def test_corner_row_col(self):
        k = kernel(((0, 1), ONE_0), ((1, 1), ONE_0), ((0, 0), ONE_1))
        assert k.corner(0, 1) == kernel(((0, 1), ONE_0))
        assert k.corner(2, 2) == ZERO_KERNEL
        assert row_part(k, 0).indices == ((0, 0), (0, 1))
        assert col_part(k, 1).indices == ((0, 1), (1, 1))
        assert k.corner(0, 1) == col_part(row_part(k, 0), 1)

    def test_corners_sum_back(self):
        s = Sampler(6)
        k = to_kernel(s.groupoid_function(ODO1, max_index=2, depth=4))
        total = ZERO_KERNEL
        for r, sx in k.indices:
            total = total + k.corner(r, sx)
        assert total == k

    def test_norm_squared_exact(self):
        k = kernel(
            ((0, 1), indicator(ClopenSet.parse("{0}"), Scalar(Fraction(1, 3)))),
            ((1, 0), indicator(ClopenSet.parse("{1}"), Scalar(0, 2))),
        )
        assert norm_squared(k) == Fraction(1, 9) + 4
        assert norm_squared(k.shift(2)) == norm_squared(k)
        assert norm_squared(ZERO_KERNEL) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.lists(st.tuples(st.integers(-99, 99), st.integers(-99, 99),
                           st.integers(1, 60)), min_size=1, max_size=4),
    ), max_size=5, unique_by=lambda entry: entry[0]))
    def test_norm_squared_matches_a_fraction_sum(self, entries):
        # each entry's values (re + im*i)/den sit on the depth-2 cells, in order
        k = kernel(*(
            (key, PiecewiseConstant(tuple(
                (w, Scalar(Fraction(re, den), Fraction(im, den)))
                for w, (re, im, den) in zip(("00", "01", "10", "11"), values)
                if re or im
            )))
            for key, values in entries
        ))
        got = norm_squared(k)
        assert type(got) is Fraction
        # the oracle reads the parts alone, sharing no code with the engine
        assert got == sum(
            (max(c.re**2 + c.im**2 for _, c in func.pieces) for _, func in k.table),
            Fraction(0),
        )


class TestReindexing:
    def test_documented_entry_move(self):
        f = blocks(((0, 1), ONE_1))
        assert to_kernel(f).indices == ((0, -1),)
        assert from_kernel(to_kernel(f)) == f

    def test_bijection_on_samples(self):
        s = Sampler(7)
        for _ in range(20):
            f = s.groupoid_function(ODO1, max_index=3, depth=5)
            assert from_kernel(to_kernel(f)) == f
            k = to_kernel(f)
            assert to_kernel(from_kernel(k)) == k

    def test_multiplicativity_on_samples(self):
        s = Sampler(8)
        for _ in range(15):
            f = s.groupoid_function(ODO1, max_index=2, depth=4)
            g = s.groupoid_function(ODO1, max_index=2, depth=4)
            assert to_kernel(convolve(f, g, ODO1)) == kernel_multiply(
                to_kernel(f), to_kernel(g), ODO1
            )

    def test_star_preservation_on_samples(self):
        s = Sampler(9)
        for _ in range(15):
            f = s.groupoid_function(ODO1, max_index=2, depth=4)
            assert to_kernel(adjoint(f, ODO1)) == kernel_adjoint(
                to_kernel(f), ODO1
            )

    def test_shift_equivariance_sign(self):
        # moving the action index by t moves kernel entries by -t
        s = Sampler(10)
        for _ in range(10):
            f = s.groupoid_function(ODO1, max_index=2, depth=4)
            for t in (-2, -1, 1, 2):
                assert to_kernel(f.shift(t)) == to_kernel(f).shift(-t)


def assert_canonical(table):
    """No zero slot, and equal to the public constructor on the same items."""
    assert all(not func.is_zero() for _, func in table.table), table
    assert table == type(table)(table.table)


class TestTrustedTables:
    """Every operation hands `_canonical` nonzero slots, or filters them."""

    @given(
        seed=st.integers(0, 10**6),
        slot=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        t=st.integers(-3, 3),
        c=st.sampled_from([Scalar(0), Scalar(1), Scalar(-1), Scalar(0, 1)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_operation_returns_canonical_tables(self, seed, slot, t, c):
        s = Sampler(seed)
        a = (ODO1, FLIP)[seed % 2]
        f, g = (s.groupoid_function(a, max_index=2, depth=4) for _ in range(2))
        k1, k2 = to_kernel(f), to_kernel(g)
        for out in (
            f.corner(*slot), k1.corner(*slot), f + g, f - f, k1 - k1,
            f.scale(c), k1.scale(c), convolve(f, g, a), adjoint(f, a),
            kernel_multiply(k1, k2, a), kernel_adjoint(k1, a), f.shift(t),
            -f, to_kernel(f), from_kernel(k1), row_part(k1, t), col_part(k1, t),
        ):
            assert_canonical(out)

    def test_cancelling_products_drop_their_slot(self):
        # on [0 -> 1]: 1_{1} 1_{1} at slot (0, 0) and -1_{1} (1_{0} o h_{-1})
        # through the middle slot 1 cancel, so the product is zero
        f = blocks(((0, 0), ONE_1), ((0, 1), -ONE_1))
        g = blocks(((0, 0), ONE_1), ((1, 0), ONE_0))
        product = convolve(f, g, FLIP)
        assert product == ZERO_BLOCKS
        assert_canonical(product)
        kernels = kernel_multiply(to_kernel(f), to_kernel(g), FLIP)
        assert kernels == ZERO_KERNEL
        assert_canonical(kernels)
