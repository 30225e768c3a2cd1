import pytest

from paramodular.chars import CharacterTag, conductor, kronecker, v_eta_exponent, v_eta_sigma


def test_kronecker_12_table():
    table = {1: 1, 5: -1, 7: -1, 11: 1}
    for n in range(1, 50):
        want = table.get(n % 12, 0)
        assert kronecker(12, n) == want


def test_kronecker_minus4_table():
    for m in range(-20, 21):
        if m % 2 == 0:
            assert kronecker(-4, m) == 0
        elif m % 4 == 1:
            assert kronecker(-4, m) == 1
        else:
            assert kronecker(-4, m) == -1


def test_kronecker_unit_bottom():
    for a in range(-8, 9):
        assert kronecker(a, 1) == 1


def test_kronecker_multiplicative():
    for a in (-4, 12, 6, -3):
        for m in range(1, 30, 2):
            for n in range(1, 30, 2):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_v_eta_exponent_translation():
    assert v_eta_exponent((1, 1, 0, 1), 2) == 2
    assert v_eta_exponent((1, 1, 0, 1), 24) == 0


def test_v_eta_exponent_inversion():
    # eta^2 under the inversion picks up exp(-2 pi i /4)
    assert v_eta_exponent((0, -1, 1, 0), 2) == 18


def test_v_eta_kernel_contains_gamma1_Q():
    # D = 4 has conductor 6; matrices congruent to 1 mod 6 map to exponent 0
    for M in ((7, 6, 36, 31), (1, 6, 6, 37), (1, 0, 6, 1), (7, 36, 6, 31)):
        a, b, c, d = M
        assert a * d - b * c == 1
        assert v_eta_exponent(M, 4) == 0


def test_v_eta_exponent_rejects_non_sl2():
    with pytest.raises(ValueError):
        v_eta_exponent((1, 1, 1, 1), 2)


def test_v_eta_sigma_small_conductors():
    assert v_eta_sigma(5, 4) == 1          # conductor 6
    assert v_eta_sigma(1, 2) == 1
    assert v_eta_sigma(3, 6) == -1         # conductor 4: (-4/3)
    assert v_eta_sigma(5, 2) == 1          # conductor 12: (-4/5)
    assert v_eta_sigma(7, 2) == -1


def test_v_eta_sigma_rejects_noncoprime():
    with pytest.raises(ValueError):
        v_eta_sigma(3, 4)                  # conductor 6, gcd(3, 6) != 1


def test_character_tags_add():
    a = CharacterTag(4, 1)
    b = CharacterTag(22, 1)
    assert (a + b) == CharacterTag(2, 0)
    assert conductor(a.D) == 6
    assert conductor(CharacterTag(2, 0).D) == 12
    assert conductor(CharacterTag(12, 0).D) == 2
