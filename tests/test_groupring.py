import random

import pytest

from dezawl import (
    connection_set,
    family_group,
    multiply,
    simple_quantity,
    verify_square_identity,
)


def _convolve_oracle(g, xs, ys):
    """Brute-force convolution of two subsets, independent of multiply()."""
    out = {}
    for x in xs:
        for y in ys:
            z = g.mul(x, y)
            out[z] = out.get(z, 0) + 1
    return out


def test_whole_group_squares_to_order_times_itself():
    g = family_group(3)
    gbar = simple_quantity(g, g.elements())
    sq = multiply(gbar, gbar)
    assert sq == gbar.scaled(g.order)


def test_empty_set_gives_zero():
    g = family_group(3)
    zero = simple_quantity(g, [])
    assert zero.coeffs == {}
    assert multiply(zero, simple_quantity(g, [g.a])).coeffs == {}


def test_a_subgroup_squares_to_k_times_itself():
    g = family_group(3)
    a_bar = simple_quantity(g, g.standard_subgroups().a.elements)
    assert multiply(a_bar, a_bar) == a_bar.scaled(3)


def test_identity_is_neutral():
    g = family_group(4)
    e = simple_quantity(g, [g.identity])
    xi = simple_quantity(g, [g.a, g.b, g.mul(g.c, g.d)])
    assert multiply(e, xi) == xi
    assert multiply(xi, e) == xi


def test_b_commutes_with_a_subgroup_sum():
    g = family_group(5)
    a_bar = simple_quantity(g, g.standard_subgroups().a.elements)
    b = simple_quantity(g, [g.b])
    assert multiply(b, a_bar) == multiply(a_bar, b)


def test_connection_set_square_has_identity_coefficient_2k_plus_2():
    g = family_group(3)
    s_bar = simple_quantity(g, connection_set(g, 3))
    sq = multiply(s_bar, s_bar)
    assert sq[g.identity] == 8


def test_multiply_matches_brute_force_oracle():
    g = family_group(4)
    rng = random.Random(11)
    for _ in range(10):
        xs = rng.sample(range(g.order), 5)
        ys = rng.sample(range(g.order), 4)
        got = multiply(simple_quantity(g, xs), simple_quantity(g, ys))
        assert got.coeffs == _convolve_oracle(g, xs, ys)


def test_multiply_associative_and_distributive():
    g = family_group(3)
    rng = random.Random(3)
    for _ in range(8):
        xi = simple_quantity(g, rng.sample(range(g.order), 3))
        eta = simple_quantity(g, rng.sample(range(g.order), 3))
        zeta = simple_quantity(g, rng.sample(range(g.order), 3))
        assert multiply(multiply(xi, eta), zeta) == multiply(xi, multiply(eta, zeta))
        assert multiply(xi, eta + zeta) == multiply(xi, eta) + multiply(xi, zeta)


def test_translation_by_singleton():
    g = family_group(4)
    rng = random.Random(5)
    xs = rng.sample(range(g.order), 6)
    t = rng.randrange(g.order)
    shifted = [g.mul(x, t) for x in xs]
    got = multiply(simple_quantity(g, xs), simple_quantity(g, [t]))
    assert got == simple_quantity(g, shifted)


def test_square_fibers_k3():
    g = family_group(3)
    s_bar = simple_quantity(g, connection_set(g, 3))
    coeffs = multiply(s_bar, s_bar).coeffs
    subs = g.standard_subgroups()
    cb = g.mul(g.c, g.b)
    expected_beta_fiber = {x for x in subs.a.elements if x != g.identity}
    expected_beta_fiber |= {g.mul(cb, x) for x in subs.a.elements}
    assert {x for x, c in coeffs.items() if c == 4} == expected_beta_fiber
    assert len(expected_beta_fiber) == 5
    assert {x for x, c in coeffs.items() if c == 8} == {g.identity}


def test_square_fibers_k5_match_oracle():
    g = family_group(5)
    s = connection_set(g, 5)
    oracle = _convolve_oracle(g, s, s)
    s_bar = simple_quantity(g, s)
    coeffs = multiply(s_bar, s_bar).coeffs
    assert coeffs == oracle
    assert sum(c == 2 for c in coeffs.values()) == 30  # 8k - (2k - 1) - 1 at k = 5


@pytest.mark.parametrize("k,size", [(3, 8), (4, 10), (6, 14)])
def test_connection_set_size(k, size):
    g = family_group(k)
    s = connection_set(g, k)
    assert len(s) == size
    assert g.identity not in s


@pytest.mark.parametrize("k", [3, 4, 5, 7])
def test_connection_set_is_inverse_closed(k):
    g = family_group(k)
    s = connection_set(g, k)
    assert {g.inverse(x) for x in s} == set(s)


def test_connection_set_rejects_foreign_group():
    g3 = family_group(3)
    with pytest.raises(ValueError):
        connection_set(g3, 4)
    from conftest import cyclic_group

    with pytest.raises(ValueError):
        connection_set(cyclic_group(24), 3)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_square_identity_holds(k):
    g = family_group(k)
    res = verify_square_identity(g, k)
    assert res.holds
    assert res.discrepancy is None


def test_square_identity_fails_for_perturbed_set():
    g = family_group(3)
    s = sorted(connection_set(g, 3))
    res = verify_square_identity(g, 3, s[:-1])
    assert not res.holds
    name, lhs, rhs = res.discrepancy
    assert lhs != rhs
