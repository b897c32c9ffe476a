import math

import numpy as np
import pytest

from nsl.expr import BinOp, Call, ExprError, Neg, Num, Var, parse_field_expr


def random_tree(rng, depth=0):
    """Random expression tree over x, y for evaluator tests."""
    choices = ["num", "var"]
    if depth < 4:
        choices += ["bin", "bin", "neg", "call"]
    kind = rng.choice(choices)
    if kind == "num":
        return Num(float(np.round(rng.uniform(0.1, 5.0), 3)))
    if kind == "var":
        return Var(str(rng.choice(["x", "y"])))
    if kind == "neg":
        return Neg(random_tree(rng, depth + 1))
    if kind == "call":
        fn = str(rng.choice(["sin", "cos", "abs", "min", "max"]))
        if fn in ("min", "max"):
            return Call(fn, (random_tree(rng, depth + 1), random_tree(rng, depth + 1)))
        return Call(fn, (random_tree(rng, depth + 1),))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    left = random_tree(rng, depth + 1)
    right = random_tree(rng, depth + 1)
    if op == "^":
        # keep powers safe: positive base, small constant exponent
        left = Call("abs", (left,))
        right = Num(float(rng.integers(1, 3)))
    return BinOp(op, left, right)


class TestEvaluation:
    def test_coordinate_passthrough(self):
        assert parse_field_expr("x").evaluate(np.array([[0.3]]))[0] == 0.3

    def test_sine_wave(self):
        assert parse_field_expr("sin(2*pi*x)").evaluate(np.array([[0.25]]))[0] == pytest.approx(1.0)

    def test_two_variables(self):
        assert parse_field_expr("x^2+y").evaluate(np.array([[2.0, 3.0]]))[0] == 7.0

    def test_power_right_associative(self):
        assert parse_field_expr("2^3^2").evaluate(np.array([[0.0]]))[0] == 512.0

    def test_unary_minus_below_power(self):
        assert parse_field_expr("-x^2").evaluate(np.array([[3.0]]))[0] == -9.0

    def test_negative_exponent(self):
        assert parse_field_expr("2^-2").evaluate(np.array([[0.0]]))[0] == 0.25

    def test_precedence_mix(self):
        assert parse_field_expr("2*3+4").evaluate(np.array([[0.0]]))[0] == 10.0
        assert parse_field_expr("2+3*4").evaluate(np.array([[0.0]]))[0] == 14.0
        assert parse_field_expr("(2+3)*4").evaluate(np.array([[0.0]]))[0] == 20.0

    def test_left_associative(self):
        assert parse_field_expr("8-4-2").evaluate(np.array([[0.0]]))[0] == 2.0
        assert parse_field_expr("8/4/2").evaluate(np.array([[0.0]]))[0] == 1.0
        assert parse_field_expr("2-3+4").evaluate(np.array([[0.0]]))[0] == 3.0

    def test_unary_minus_in_products(self):
        assert parse_field_expr("2*-x").evaluate(np.array([[3.0]]))[0] == -6.0
        assert parse_field_expr("-x*-x").evaluate(np.array([[3.0]]))[0] == 9.0

    def test_min_max(self):
        assert parse_field_expr("min(x, 0.5)").evaluate(np.array([[0.9]]))[0] == 0.5
        assert parse_field_expr("max(x, 0.5)").evaluate(np.array([[0.9]]))[0] == 0.9

    def test_pi_constant(self):
        assert parse_field_expr("pi").evaluate(np.array([[0.0]]))[0] == math.pi

    def test_vectorized_matches_pointwise(self):
        rng = np.random.default_rng(17)
        coords = rng.uniform(-2, 2, size=(40, 2))
        for _ in range(100):
            tree = random_tree(rng)
            text = None
            from nsl.expr import FieldExpr

            expr = FieldExpr(tree)
            with np.errstate(all="ignore"):
                vec = expr.evaluate(coords)
                pointwise = np.array([expr.evaluate(c[None, :])[0] for c in coords])
            both_finite = np.isfinite(vec) & np.isfinite(pointwise)
            assert np.array_equal(np.isfinite(vec), np.isfinite(pointwise))
            assert vec[both_finite] == pytest.approx(pointwise[both_finite], rel=1e-12)


class TestErrors:
    def test_empty(self):
        with pytest.raises(ExprError, match="empty"):
            parse_field_expr("   ")

    def test_unknown_identifier_with_offset(self):
        with pytest.raises(ExprError, match="offset 4.*unknown identifier"):
            parse_field_expr("1 + foo")

    def test_syntax_error_offset(self):
        with pytest.raises(ExprError, match="offset 4"):
            parse_field_expr("1 + *2")

    def test_unclosed_paren(self):
        with pytest.raises(ExprError, match=r"expected '\)'"):
            parse_field_expr("sin(x")

    def test_trailing_input(self):
        with pytest.raises(ExprError, match="trailing"):
            parse_field_expr("1 2")

    def test_wrong_arity(self):
        with pytest.raises(ExprError, match="argument"):
            parse_field_expr("sin(x, y)")
        with pytest.raises(ExprError, match="argument"):
            parse_field_expr("min(x)")

    def test_bad_character(self):
        with pytest.raises(ExprError, match="unexpected character"):
            parse_field_expr("x ? y")

    def test_malformed_number(self):
        with pytest.raises(ExprError, match="malformed number"):
            parse_field_expr("1.2.3")

    def test_missing_variable_on_1d_space(self):
        expr = parse_field_expr("x + y")
        with pytest.raises(ExprError, match="not available"):
            expr.evaluate(np.array([[0.5], [0.6]]))


class TestDeepNesting:
    @pytest.mark.parametrize(
        "text",
        ["(" * 300 + "x" + ")" * 300, "-" * 3000 + "x", "x" + "+x" * 1000],
        ids=["parentheses", "unary-minus", "flat-sum"],
    )
    def test_too_deep_is_an_expr_error(self, text):
        with pytest.raises(ExprError, match="nested too deeply"):
            parse_field_expr(text).evaluate(np.array([[0.25], [0.5]]))

    @pytest.mark.parametrize(
        "text, factor",
        [("(" * 40 + "x" + ")" * 40, 1.0), ("-" * 101 + "x", -1.0), ("x" + "+x" * 199, 200.0)],
        ids=["parentheses", "unary-minus", "flat-sum"],
    )
    def test_moderate_depth_still_evaluates(self, text, factor):
        x = np.array([[0.25], [0.5]])
        assert parse_field_expr(text).evaluate(x) == pytest.approx(factor * x[:, 0], rel=1e-15)
