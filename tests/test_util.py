"""The shared sparse-map accumulate, over every coefficient type that uses it."""

from fractions import Fraction

import pytest

from corealg.exel_path import DepthFunction
from corealg.graph import bouquet
from corealg.scalar import ONE, Radical
from corealg.uhf_cuntz import TensorElement
from corealg.util import accumulate


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
