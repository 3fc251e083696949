"""The shared sparse-map accumulate, over every coefficient type that uses
it, and the one integer elimination."""

import random
from fractions import Fraction

import pytest

from corealg.dilation import LatticeSystem, lattice_rep_check
from corealg.exel_path import DepthFunction
from corealg.graph import bouquet
from corealg.ktheory import smith_normal_form
from corealg.scalar import ONE, Radical
from corealg.uhf_cuntz import TensorElement
from corealg.util import accumulate, bareiss


@pytest.mark.parametrize("one", [
    Fraction(1, 3),
    ONE + Radical.sqrt(2),
    DepthFunction.constant(bouquet(2), ONE),
    TensorElement.identity(2, 1),
], ids=["fraction", "radical", "depth_function", "tensor_element"])
def test_accumulate_stores_no_zero(one):
    zero = one * 0
    assert not zero and one
    out = {}
    accumulate(out, ("e1",), zero)
    assert out == {}
    accumulate(out, ("e1",), one)
    accumulate(out, ("e1",), zero)
    assert out[("e1",)] is one  # a zero addend leaves the stored value as it was
    accumulate(out, ("e1",), one)
    assert not out[("e1",)] - one * 2
    accumulate(out, ("e1",), one * -2)
    assert out == {}


def test_bareiss_pinned():
    rows = [[2, 4], [6, 8]]
    assert bareiss(rows, 2) == -8
    rows = [[0, 1, 1, 0], [1, 0, 0, 1]]    # the first pivot needs a row swap
    assert bareiss(rows, 2) == -1
    assert rows == [[-1, 0, 0, -1], [0, -1, -1, 0]]    # [det I | adj]
    rows = [[2, 1, 1, 0], [0, 3, 0, 1]]
    assert bareiss(rows, 2) == 6
    assert [row[2:] for row in rows] == [[3, -1], [0, 2]]
    assert bareiss([[1, 2], [2, 4]], 2) == 0
    assert bareiss([], 0) == 1


def test_integer_layer_constructs_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and made == [(1, 2)]    # the wrapper does count
    made.clear()
    system = LatticeSystem([[2, 1], [0, 3]])
    assert lattice_rep_check(system, 2).passed
    rnd = random.Random(12)
    m = [[rnd.randint(-3, 3) for _ in range(12)] for _ in range(12)]
    _, d, _ = smith_normal_form(m)
    assert d[11][11] == 33825001
    assert made == []
