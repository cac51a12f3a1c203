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
    mul_linear,
)

from conftest import brute_force_eval, brute_force_indices


def random_poly(rng, m, n):
    return MultiPoly(m, n, rng.uniform(-1, 1, size=count_total(m, n)))


def times(q, row):
    """q times the linear row[0] + <row[1:], x>, bounded by degree q.n + 1."""
    row = np.asarray(row, dtype=float)
    return MultiPoly(q.m, q.n + 1, mul_linear(q.coeffs, row, build_order(q.m, q.n + 1)))


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
    out = times(x2, [1, 1, 0])  # times x1 + 1
    order = build_order(2, 2)
    expect = np.zeros(len(order))
    expect[order.index((1, 1))] = 1.0
    expect[order.index((0, 1))] = 1.0
    np.testing.assert_allclose(out.coeffs, expect)

    q = MultiPoly(2, 2, [1, 2, 3, 4, 5, 6])
    np.testing.assert_allclose(times(q, [1, 0, 0]).coeffs[:6], q.coeffs)

    plus = MultiPoly(2, 1, [1, 1, 0])
    prod = times(plus, [1, -1, 0])  # 1 - x1^2
    expect = np.zeros(len(order))
    expect[0] = 1.0
    expect[order.index((2, 0))] = -1.0
    np.testing.assert_allclose(prod.coeffs, expect)


def test_algebra_commutes_with_evaluation(rng):
    # 100 random instances per operation; pointwise match within 1e-10 relative
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(0, 7))
        q1 = random_poly(rng, m, n)
        q2 = random_poly(rng, m, n)
        l = random_poly(rng, m, 1)
        summed = add(q1, q2)
        prod = times(q1, l.coeffs)
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
        prod = times(q, l.coeffs)
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
    square = np.array([0.0, 0.0, 1.0])
    out = embed_univariate(square, 0.0, np.array([1.0, 0.0]))
    order = build_order(2, 2)
    expect = np.zeros(len(order))
    expect[order.index((2, 0))] = 1.0
    np.testing.assert_allclose(out, expect)

    # (x-1)^2 in one variable: 1 - 2x + x^2
    out1 = embed_univariate(square, -1.0, np.array([1.0]))
    np.testing.assert_allclose(out1, [1.0, -2.0, 1.0])

    # slope 1 along the diagonal: (x1+x2)/sqrt(2), coefficients derived by hand
    s = 1.0 / np.sqrt(2.0)
    out2 = embed_univariate(np.array([0.0, 1.0]), 0.0, np.array([s, s]))
    np.testing.assert_allclose(out2, [0.0, s, s], atol=1e-15)


def test_embed_univariate_exact_on_axis(rng):
    # with direction e_j through the origin, the 1-D coefficients land
    # exactly in the x_j^i slots
    chat = rng.uniform(-1, 1, size=5)
    out = embed_univariate(chat, 0.0, np.array([0.0, 1.0, 0.0]))
    order = build_order(3, 4)
    for i in range(5):
        idx = (0, i, 0)
        assert out[order.index(idx)] == chat[i]
    nonzero = np.nonzero(out)[0]
    allowed = {order.index((0, i, 0)) for i in range(5)}
    assert set(nonzero).issubset(allowed)


def test_embed_univariate_matches_line_values(rng):
    xi = rng.normal(size=4)
    xi /= np.linalg.norm(xi)
    b = rng.uniform(-1, 1, size=4)
    chat = rng.uniform(-1, 1, size=4)
    out = MultiPoly(4, 3, embed_univariate(chat, -float(xi @ b), xi))
    for s in rng.uniform(-2, 2, size=6):
        expected = sum(c * s**i for i, c in enumerate(chat))
        assert evaluate(out, s * xi + b) == pytest.approx(expected, rel=1e-11, abs=1e-11)


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
def test_mul_linear_is_the_pointwise_product(m, n, rng):
    q = random_poly(rng, m, n)
    rotation = np.linalg.qr(rng.normal(size=(m, m)))[0]
    axis = np.zeros(m)
    axis[m - 1] = 1.0
    # a dense (rotated-frame) normal, an axis normal and a constant factor
    for normal in (rotation[0], axis, np.zeros(m)):
        row = np.concatenate(([rng.uniform(-2, 2)], normal))
        product = times(q, row)
        for x in rng.uniform(-1, 1, (4, m)):
            expected = evaluate(q, x) * (row[0] + normal @ x)
            assert evaluate(product, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)
