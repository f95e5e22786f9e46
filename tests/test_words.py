import pytest
from hypothesis import given, strategies as st

from relhyp.words import (
    Alphabet, Presentation, abelianization, cyclic_permute,
    free_reduce, relator_forms, word_inverse,
)

AB = Alphabet(["a", "b"])


def rightmost_reduce(word):
    # independent strategy: repeatedly cancel the rightmost adjacent pair
    w = list(word)
    while True:
        for i in range(len(w) - 2, -1, -1):
            if w[i] == (w[i + 1] ^ 1):
                del w[i:i + 2]
                break
        else:
            return tuple(w)


words_st = st.lists(st.integers(0, 3), max_size=20).map(tuple)


def test_parse_roundtrip():
    w = AB.parse("abBA")
    assert w == (0, 2, 3, 1)
    assert AB.to_str(w) == "abBA"
    assert AB.parse("a b\nB") == (0, 2, 3)


def test_free_reduce_examples():
    assert free_reduce(AB.parse("abBA")) == ()
    assert free_reduce(AB.parse("abBa")) == AB.parse("aa")
    assert free_reduce(()) == ()


@given(words_st)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(words_st)
def test_free_reduce_order_independent(w):
    assert free_reduce(w) == rightmost_reduce(w)


@given(words_st)
def test_free_reduce_parity(w):
    assert (len(w) - len(free_reduce(w))) % 2 == 0


@given(words_st)
def test_inverse_involution(w):
    assert word_inverse(word_inverse(w)) == w
    assert free_reduce(w + word_inverse(w)) == ()


def test_cyclic_permute():
    w = AB.parse("abAB")
    assert cyclic_permute(w, 1) == AB.parse("bABa")
    assert cyclic_permute(w, 0) == w
    assert cyclic_permute(w, 4) == w
    assert cyclic_permute((), 3) == ()


@given(words_st, st.integers(0, 40), st.integers(0, 40))
def test_cyclic_permute_composes(w, s, t):
    assert cyclic_permute(cyclic_permute(w, s), t) == cyclic_permute(w, s + t)


def test_presentation_validation():
    Presentation(AB, (AB.parse("abAB"),))
    with pytest.raises(ValueError):
        Presentation(AB, ((),))
    with pytest.raises(ValueError):
        Presentation(AB, (AB.parse("aA"),))


def test_relator_forms():
    forms = relator_forms((AB.parse("abAB"),))
    assert AB.parse("abAB") in forms
    assert AB.parse("bABa") in forms
    assert AB.parse("baBA") in forms  # inverse
    assert len(forms) == 8
    assert len(set(forms)) == len(forms)


def test_abelianization():
    assert abelianization(AB, AB.parse("abAbb")) == (0, 3)
    assert abelianization(AB, ()) == (0, 0)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet([])
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])
    with pytest.raises(ValueError):
        Alphabet(["A"])
