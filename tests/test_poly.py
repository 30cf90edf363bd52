import gc
import random
from fractions import Fraction

import pytest

from arrcsm.poly import monomials_of_degree
from oracles import MultiPoly, poly_divmod, reduce_mod_linear


def x(i, n=3):
    return MultiPoly.linear_form([int(j == i) for j in range(n)])


def test_monomials_of_degree_leaves_no_cyclic_garbage():
    # reference counting alone frees the list and its tuples
    gc.disable()
    try:
        gc.collect()
        monomials_of_degree(3, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_monomial_enumeration_order():
    # descending deg-lex: x0^2 > x0*x1 > x0*x2 > x1^2 > x1*x2 > x2^2
    assert monomials_of_degree(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert monomials_of_degree(2, 0) == [(0, 0)]
    assert monomials_of_degree(1, 4) == [(4,)]
    # no variables: only the empty monomial, of degree 0
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 2) == []


def test_product_of_linear_forms():
    # x1 * x2 * (x1 + x2) = x1^2 x2 + x1 x2^2
    p = x(1) * x(2) * (x(1) + x(2))
    assert p == MultiPoly(3, {(0, 2, 1): 1, (0, 1, 2): 1})
    assert p.degree() == 3


def test_add_sub_scale():
    p = x(0) + 2 * x(1)
    q = p - x(0)
    assert q == x(1).scale(2)
    assert (p - p).is_zero()
    assert p.scale(0).is_zero()
    assert (Fraction(1, 2) * p).coefficient((1, 0, 0)) == Fraction(1, 2)


def test_degree_and_parts():
    p = x(0) * x(0) + x(1)
    assert p.degree() == 2
    assert p.leading_term() == ((2, 0, 0), 1)
    assert p.coefficient((0, 1, 0)) == 1
    assert MultiPoly.zero(3).degree() == -1
    with pytest.raises(ValueError):
        MultiPoly.zero(3).leading_term()


def test_reduce_mod_linear_kills_multiples():
    # x1*x2 + x2^2 is divisible by x1 + x2
    p = x(1) * x(2) + x(2) * x(2)
    assert reduce_mod_linear(p, x(1) + x(2)).is_zero()


def test_reduce_mod_linear_substitutes_pivot():
    # modulo x0 - x1 the polynomial x0^2 becomes x1^2
    p = x(0) * x(0)
    r = reduce_mod_linear(p, x(0) - x(1))
    assert r == x(1) * x(1)


def test_reduce_mod_linear_constant_survives():
    c = MultiPoly.const(3, Fraction(5, 2))
    assert reduce_mod_linear(c, x(1)) == c


def test_reduce_mod_linear_rejects_bad_modulus():
    with pytest.raises(ValueError):
        reduce_mod_linear(x(0), MultiPoly.zero(3))
    with pytest.raises(ValueError):
        reduce_mod_linear(x(0), x(0) * x(0))
    with pytest.raises(ValueError):
        reduce_mod_linear(x(0), MultiPoly.const(3, 1))


def test_reduce_affine_modulus():
    # modulo x0 - 1 the polynomial x0^3 becomes 1
    one = MultiPoly.const(3, 1)
    assert reduce_mod_linear(x(0) * x(0) * x(0), x(0) - one) == one


def test_divmod_and_divides():
    f = x(1) + x(2)
    p = x(1) * x(2) * f
    q, r = poly_divmod(p, f)
    assert r.is_zero()
    assert q == x(1) * x(2)
    assert not poly_divmod(p, x(0))[1].is_zero()
    with pytest.raises(ZeroDivisionError):
        poly_divmod(p, MultiPoly.zero(3))


def test_derivative():
    p = x(0) * x(0) * x(1) + 3 * x(2)
    assert p.derivative(0) == 2 * (x(0) * x(1))
    assert p.derivative(1) == x(0) * x(0)
    assert p.derivative(2) == MultiPoly.const(3, 3)


def test_render_deterministic():
    p = x(1) - 2 * (x(0) * x(0)) + MultiPoly.const(3, 1)
    assert p.render() == "-2*x0^2 + x1 + 1"
    assert MultiPoly.zero(3).render() == "0"
    assert (x(0) - x(1)).render() == "x0 - x1"


def test_reduce_is_linear_and_idempotent():
    rng = random.Random(20260816)
    for _ in range(40):
        n = rng.choice([2, 3])
        form = MultiPoly.linear_form([rng.randint(-2, 2) for _ in range(n)])
        if form.is_zero() or form.degree() != 1:
            continue
        terms = {}
        for mono in monomials_of_degree(n, rng.randint(0, 3)):
            if rng.random() < 0.5:
                terms[mono] = Fraction(rng.randint(-3, 3))
        p = MultiPoly(n, terms)
        r = MultiPoly(n, {m: Fraction(rng.randint(-3, 3)) for m in monomials_of_degree(n, 1)})
        # adding a multiple of the form never changes the residue
        assert reduce_mod_linear(p * form + r, form) == reduce_mod_linear(r, form)
        # residues are fixed points
        res = reduce_mod_linear(p, form)
        assert reduce_mod_linear(res, form) == res
