from fusionring.intlinalg import ZEchelon


def test_basic_membership():
    ech = ZEchelon()
    ech.insert({0: 2, 1: 1})
    ech.insert({1: 2})
    assert ech.contains({0: 2, 1: 3})
    assert ech.contains({1: 2})
    assert not ech.contains({1: 1})
    assert not ech.contains({2: 1})


def test_combination_tracking():
    ech = ZEchelon()
    ech.insert({0: 1, 1: 1}, {"a": 1})
    ech.insert({1: 1}, {"b": 1})
    residual, combo = ech.reduce({0: 2, 1: 5}, want_combination=True)
    assert not residual
    # 2*(e0+e1) + 3*e1
    assert combo == {"a": 2, "b": 3}


def test_insert_swaps_to_small_pivots():
    ech = ZEchelon()
    ech.insert({0: 4})
    ech.insert({0: 6})
    # lattice gcd is 2
    assert ech.contains({0: 2})
    assert not ech.contains({0: 1})

