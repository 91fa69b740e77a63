"""Named elements and the abstract reflection-group model."""

import pytest
from hypothesis import given, strategies as st

from hecke2d import (
    BasisIndex,
    Coeff,
    ExpPolyTerm,
    HeckeElement,
    IndexPoly,
    ShapeError,
    Strip,
    chi,
    iota,
    mul,
    one_minus_qinv,
    phi,
    preset,
    theta,
    theta_monomial,
    weyl_identity,
    weyl_mul,
    weyl_word,
    zero_element,
)
from hecke2d.coeff import ONE, Q, S
from hecke2d.element import POS_INF
from hecke2d.presets import FIXED_PRESET_NAMES

_ALL_PRESETS = [preset(name) for name in FIXED_PRESET_NAMES]


def test_chi_is_a_single_basis_vector():
    x = chi(2, -3, 1)
    assert x.coefficient_at((2, 1), -3) == ONE
    assert x.levels() == (1,)
    with pytest.raises(ValueError):
        chi(3, 0, 0)
    with pytest.raises(ValueError):
        chi(0, 0, 0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, True, 0), "bound must be an integer or +-inf, got True"),
        ((1, 1.5, 0), "bound must be an integer or +-inf, got 1.5"),
        ((1, float("inf"), 0), "a strip cannot be infinite on both sides"),
        ((1, 0, True), "level must be an integer, got True"),
        ((1, 0, 1.0), "level must be an integer, got 1.0"),
        ((True, 0, 0), "sheet must be 1 or 2, got True"),
        ((1.0, 0, 0), "sheet must be 1 or 2, got 1.0"),
    ],
)
def test_chi_refuses_non_integer_arguments(args, message):
    # True == 1 and 1.0 == 1, but neither is a sheet, an index or a level
    with pytest.raises(ShapeError) as err:
        chi(*args)
    assert str(err.value) == message


def test_iota_is_two_sided_identity():
    assert iota() == chi(1, 0, 0).scale(Q)
    for x in _ALL_PRESETS:
        assert mul(iota(), x) == x
        assert mul(x, iota()) == x


def test_theta_inverse_pair():
    assert mul(theta(1, 0), theta(-1, 0)) == iota()
    assert mul(theta(-1, 0), theta(1, 0)) == iota()


def test_theta_orthogonal_pair_annihilates():
    assert mul(theta(0, 1), theta(0, -1)).is_zero()
    assert mul(theta(0, -1), theta(0, 1)).is_zero()


def test_theta_pairwise_commute():
    gens = [theta(1, 0), theta(-1, 0), theta(0, 1), theta(0, -1)]
    for n, x in enumerate(gens):
        for y in gens[n + 1 :]:
            assert mul(x, y) == mul(y, x)


def test_theta_rejects_non_generator_steps():
    for bad in [(0, 0), (1, 1), (2, 0), (-1, 1)]:
        with pytest.raises(ValueError):
            theta(*bad)


def test_theta_monomial_closed_form():
    for i in range(0, 4):
        for j in range(0, 4):
            want = chi(1, i, j).scale(Coeff.q_power(-(i + j - 1)))
            assert theta_monomial(i, j) == want
    for i in range(-3, 0):
        for j in range(1, 4):
            want = chi(1, i, j).scale(Coeff.q_power(-(i + j - 1)))
            assert theta_monomial(i, j) == want
    assert theta_monomial(-1, 1) == chi(1, -1, 1).scale(Q)


def test_theta_monomial_negative_level_leading_terms():
    # at negative levels only the two leading coefficients have a closed form
    for i in (-2, 0, 2):
        for j in (1, 2):
            x = theta_monomial(-i, -j)
            lead = Coeff.q_power(-(i + j - 1))
            assert x.coefficient_at((1, -j), -i) == lead
            assert x.coefficient_at((2, -j), -i) == -(Q - ONE) * lead
            rest = x - chi(1, -i, -j).scale(lead) - chi(2, -i, -j).scale(-(Q - ONE) * lead)
            for key, series in rest.rows:
                assert key.j == -j
                assert series.support_min > -i


def test_phi_quadratic_relations():
    for k in (0, 1):
        f = phi(k)
        assert mul(f, f) == f.scale(S - S**-1) + iota()


def test_phi2_square_is_the_printed_ray():
    tail = HeckeElement(
        [
            (
                (2, -2),
                (Strip(1, POS_INF, (ExpPolyTerm(2, IndexPoly.constant(one_minus_qinv())),)),),
            )
        ]
    )
    assert mul(phi(2), phi(2)) == tail


def test_phi_word_reproduces_phi2():
    w = phi(0)
    for f in (phi(1), phi(2), phi(0), phi(1)):
        w = mul(w, f)
    assert w == phi(2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: theta(1.0, 0), "theta is defined for (+-1,0) and (0,+-1), got (1.0, 0)"),
        (lambda: theta(True, 0), "theta is defined for (+-1,0) and (0,+-1), got (True, 0)"),
        (lambda: theta(0, -1.0), "theta is defined for (+-1,0) and (0,+-1), got (0, -1.0)"),
        (lambda: theta(0, False), "theta is defined for (+-1,0) and (0,+-1), got (0, False)"),
        (lambda: phi(True), "phi index must be 0, 1 or 2, got True"),
        (lambda: phi(1.0), "phi index must be 0, 1 or 2, got 1.0"),
    ],
    ids=["theta-1.0", "theta-True", "theta-(-1.0)", "theta-False", "phi-True", "phi-1.0"],
)
def test_theta_and_phi_refuse_a_bool_or_float_index(build, message):
    # True and 1.0 equal 1, but chi refuses them too
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError and str(err.value) == message


def test_phi_bad_index():
    with pytest.raises(ValueError):
        phi(3)
    with pytest.raises(ValueError):
        phi(-1)


def test_preset_lookup():
    assert preset("iota") == iota()
    assert preset("phi1") == phi(1)
    assert preset("theta(0,-1)") == theta(0, -1)
    assert preset("chi(2,1,-1)") == chi(2, 1, -1)
    for bad in ("", "zeta", "theta(2,0)", "chi(9,0,0)"):
        with pytest.raises(ValueError):
            preset(bad)


# -- abstract reflection-group model ---------------------------------------

_letters = st.sampled_from(["s0", "s1", "s2"])
_words = st.lists(_letters, min_size=0, max_size=8)


def test_generators_are_involutions():
    e = weyl_identity()
    for letter in ("s0", "s1", "s2"):
        assert weyl_word([letter, letter]) == e


def test_triple_product_relation():
    assert weyl_word(["s0", "s1", "s2"] * 2) == weyl_identity()


@given(_words, _words)
def test_word_concatenation_is_multiplication(u, v):
    assert weyl_word(u + v) == weyl_mul(weyl_word(u), weyl_word(v))


@given(_words)
def test_every_word_has_an_inverse(w):
    assert weyl_word(w + list(reversed(w))) == weyl_identity()


def test_the_identity_and_s0_are_labels():
    # the group's elements are the labels, sheet 2 antidiagonal
    assert weyl_identity() == BasisIndex(1, 0, 0)
    assert weyl_word(["s0"]) == BasisIndex(2, 0, 0)


def test_weyl_word_rejects_unknown_letters():
    with pytest.raises(ValueError):
        weyl_word(["s0", "t1"])


def test_scalar_zero_sum():
    assert chi(1, 1, 1) - chi(1, 1, 1) == zero_element()
