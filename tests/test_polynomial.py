"""Dense polynomial arithmetic: examples, algebra-vs-evaluation, embeddings."""

import numpy as np
import pytest

from mvinterp.monomials import build_order, count_total
from mvinterp.polynomial import (
    MultiPoly,
    add,
    embed_univariate,
    evaluate,
    evaluate_rows,
    lift_linear,
    mul_linear,
)

from conftest import brute_force_eval, brute_force_indices


def random_poly(rng, m, n):
    return MultiPoly(m, n, rng.uniform(-1, 1, size=count_total(m, n)))


def test_evaluate_examples():
    q = MultiPoly(2, 1, [1.0, 2.0, -1.0])  # 1 + 2x1 - x2
    assert evaluate(q, (1.0, 1.0)) == pytest.approx(2.0)
    zero = MultiPoly.zero(3, 2)
    assert evaluate(zero, (4.0, -1.0, 0.5)) == 0.0
    order = build_order(2, 3)
    c = np.zeros(len(order))
    c[order.index((2, 1))] = 1.0  # x1^2 x2
    q2 = MultiPoly(2, 3, c)
    assert evaluate(q2, (2.0, 3.0)) == pytest.approx(12.0)


def test_evaluate_matches_brute_force(rng):
    for m, n in [(1, 4), (2, 3), (3, 3), (5, 2)]:
        q = random_poly(rng, m, n)
        indices = brute_force_indices(m, n)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=m)
            expected = brute_force_eval(q.coeffs, indices, x)
            assert evaluate(q, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_add_examples():
    x1 = MultiPoly(2, 1, [0, 1, 0])
    x2 = MultiPoly(2, 1, [0, 0, 1])
    np.testing.assert_allclose(add(x1, x2).coeffs, [0, 1, 1])
    q = MultiPoly(2, 2, [1, 0, 0, 1, 0, 0])  # 1 + x1^2
    minus = MultiPoly(2, 2, [0, 0, 0, -1, 0, 0])
    total = add(q, minus)
    np.testing.assert_allclose(total.coeffs, [1, 0, 0, 0, 0, 0])
    zero = MultiPoly.zero(2, 2)
    np.testing.assert_allclose(add(q, zero).coeffs, q.coeffs)


def test_add_aligns_mixed_degree_bounds():
    low = MultiPoly(2, 1, [1, 2, 3])
    high = MultiPoly(2, 2, [0, 0, 0, 5, 0, 0])
    out = add(low, high)
    assert out.n == 2
    np.testing.assert_allclose(out.coeffs, [1, 2, 3, 5, 0, 0])


def test_mul_linear_examples():
    x2 = MultiPoly(2, 1, [0, 0, 1])
    l = MultiPoly(2, 1, [1, 1, 0])  # x1 + 1
    out = mul_linear(x2, l)
    order = build_order(2, 2)
    expect = np.zeros(len(order))
    expect[order.index((1, 1))] = 1.0
    expect[order.index((0, 1))] = 1.0
    np.testing.assert_allclose(out.coeffs, expect)

    q = MultiPoly(2, 2, [1, 2, 3, 4, 5, 6])
    one = MultiPoly(2, 1, [1, 0, 0])
    np.testing.assert_allclose(mul_linear(q, one).coeffs[:6], q.coeffs)

    plus = MultiPoly(2, 1, [1, 1, 0])
    minus = MultiPoly(2, 1, [1, -1, 0])
    prod = mul_linear(plus, minus)  # 1 - x1^2
    expect = np.zeros(len(order))
    expect[0] = 1.0
    expect[order.index((2, 0))] = -1.0
    np.testing.assert_allclose(prod.coeffs, expect)


def test_mul_linear_rejects_nonlinear_factor():
    q = MultiPoly(2, 1, [1, 0, 0])
    quad = MultiPoly(2, 2, [0, 0, 0, 1, 0, 0])
    with pytest.raises(ValueError):
        mul_linear(q, quad)


def test_mul_linear_rejects_too_small_bound():
    q = MultiPoly(2, 2, [0, 0, 0, 1, 0, 0])  # x1^2
    l = MultiPoly(2, 1, [0, 1, 0])  # x1
    with pytest.raises(ValueError):
        mul_linear(q, l, n_out=2)


def test_mul_linear_tight_bound_uses_actual_degrees(rng):
    # q is stored at n=3 but has degree 2; the product fits n_out=3 only
    # once the coefficients are scanned, and matches the loose-bound product
    q = MultiPoly(3, 3, np.concatenate([rng.uniform(-1, 1, 10), np.zeros(10)]))
    l = MultiPoly(3, 1, rng.uniform(-1, 1, 4))
    tight = mul_linear(q, l, n_out=3)
    loose = mul_linear(q, l)
    assert tight.n == 3 and loose.n == 4
    np.testing.assert_array_equal(loose.coeffs[:20], tight.coeffs)
    assert not np.any(loose.coeffs[20:])
    # a factor stored at n=2 with degree 1 is still accepted
    l2 = MultiPoly(3, 2, np.concatenate([l.coeffs, np.zeros(6)]))
    np.testing.assert_array_equal(mul_linear(q, l2, n_out=3).coeffs, tight.coeffs)


def test_algebra_commutes_with_evaluation(rng):
    # 100 random instances per operation; pointwise match within 1e-10 relative
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(0, 7))
        q1 = random_poly(rng, m, n)
        q2 = random_poly(rng, m, n)
        l = random_poly(rng, m, 1)
        summed = add(q1, q2)
        prod = mul_linear(q1, l)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=m)
            ref_sum = evaluate(q1, x) + evaluate(q2, x)
            assert evaluate(summed, x) == pytest.approx(ref_sum, rel=1e-10, abs=1e-10)
            ref_prod = evaluate(q1, x) * evaluate(l, x)
            assert evaluate(prod, x) == pytest.approx(ref_prod, rel=1e-10, abs=1e-10)


def test_mul_linear_vanishes_at_factor_roots(rng):
    # at a constructed root of the linear factor the product must vanish
    for _ in range(20):
        m = int(rng.integers(2, 6))
        q = random_poly(rng, m, 3)
        l = random_poly(rng, m, 1)
        prod = mul_linear(q, l)
        x = rng.uniform(-1, 1, size=m)
        # move x along coordinate 0 onto the zero set of l
        w = l.coeffs[1 : 1 + m]
        if abs(w[0]) < 0.1:
            continue
        x[0] = -(l.coeffs[0] + w[1:] @ x[1:]) / w[0]
        assert abs(evaluate(l, x)) < 1e-12
        assert abs(evaluate(prod, x)) <= 1e-10 * (1 + abs(evaluate(q, x)))


def test_embed_univariate_examples():
    # (0,0,1) along e1: x1^2 in two variables
    out = embed_univariate([0.0, 0.0, 1.0], [1.0, 0.0], [0.0, 0.0])
    order = build_order(2, 2)
    expect = np.zeros(len(order))
    expect[order.index((2, 0))] = 1.0
    np.testing.assert_allclose(out.coeffs, expect)

    # (x-1)^2 in one variable: 1 - 2x + x^2
    out1 = embed_univariate([0.0, 0.0, 1.0], [1.0], [1.0])
    np.testing.assert_allclose(out1.coeffs, [1.0, -2.0, 1.0])

    # slope 1 along the diagonal: (x1+x2)/sqrt(2), coefficients derived by hand
    s = 1.0 / np.sqrt(2.0)
    out2 = embed_univariate([0.0, 1.0], [s, s], [0.0, 0.0])
    np.testing.assert_allclose(out2.coeffs, [0.0, s, s], atol=1e-15)


def test_embed_univariate_exact_on_axis(rng):
    # with direction e_j through the origin, the 1-D coefficients land
    # exactly in the x_j^i slots
    chat = rng.uniform(-1, 1, size=5)
    out = embed_univariate(chat, [0.0, 1.0, 0.0], [0.0, 0.0, 0.0])
    order = build_order(3, 4)
    for i in range(5):
        idx = (0, i, 0)
        assert out.coeffs[order.index(idx)] == chat[i]
    nonzero = np.nonzero(out.coeffs)[0]
    allowed = {order.index((0, i, 0)) for i in range(5)}
    assert set(nonzero).issubset(allowed)


def test_embed_univariate_matches_line_values(rng):
    xi = rng.normal(size=4)
    xi /= np.linalg.norm(xi)
    b = rng.uniform(-1, 1, size=4)
    chat = rng.uniform(-1, 1, size=4)
    out = embed_univariate(chat, xi, b)
    for s in rng.uniform(-2, 2, size=6):
        expected = sum(c * s**i for i, c in enumerate(chat))
        assert evaluate(out, s * xi + b) == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_embed_univariate_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        embed_univariate([1.0, 2.0], [1.0, 1.0], [0.0, 0.0])


def test_effective_degree():
    q = MultiPoly(2, 3, [1, 0, 0, 0, 2, 0, 0, 0, 0, 0])
    assert q.effective_degree() == 2
    assert MultiPoly.zero(3, 4).effective_degree() == 0


def one_point_evaluate(q, x):
    """Monomial values of one point in a fresh buffer, then one dot."""
    order = build_order(q.m, q.n)
    vals = np.empty(len(order))
    vals[0] = 1.0
    for k in range(1, q.n + 1):
        blk = order.block(k)
        vals[blk] = x[order.var[blk]] * vals[order.parent[blk]]
    return float(vals @ q.coeffs)


@pytest.mark.parametrize("m,n", [(1, 0), (1, 5), (3, 0), (2, 7), (4, 3), (15, 4)])
def test_evaluate_rows_is_bitwise_pointwise_evaluate(m, n, rng):
    q = random_poly(rng, m, n)
    points = rng.uniform(-3, 3, (9, m))
    got = evaluate_rows(q, points)
    assert got.shape == (9,)
    for x, value in zip(points, got):
        assert value == evaluate(q, x) == one_point_evaluate(q, x)
    assert evaluate_rows(q, points[:0]).shape == (0,)


def test_evaluate_rows_rejects_wrong_width():
    with pytest.raises(ValueError, match="expected \\(count, 2\\)"):
        evaluate_rows(MultiPoly.zero(2, 2), np.zeros((3, 3)))


@pytest.mark.parametrize("m,n", [(1, 4), (2, 0), (3, 3), (6, 2)])
def test_lift_linear_is_bitwise_mul_linear(m, n, rng):
    q = random_poly(rng, m, n)
    rotation = np.linalg.qr(rng.normal(size=(m, m)))[0]
    axis = np.zeros(m)
    axis[m - 1] = 1.0
    # a dense (rotated-frame) normal, an axis normal and a constant factor
    for normal in (rotation[0], axis, np.zeros(m)):
        row = np.concatenate(([rng.uniform(-2, 2)], normal))
        lifted = lift_linear(q.coeffs, row, build_order(m, n + 1))
        product = mul_linear(q, MultiPoly(m, 1, row))
        assert lifted.tobytes() == product.coeffs.tobytes()
        for x in rng.uniform(-1, 1, (4, m)):
            expected = evaluate(q, x) * (row[0] + normal @ x)
            assert evaluate(product, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)
