import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winofi.qtensor import (
    QTensor,
    QuantParams,
    flip_array_with_masks,
    flip_with_mask,
    pow2_scale_for,
    quantize,
)


def test_quantparams_validation():
    QuantParams(8, 0.5)
    QuantParams(16, 2.0)
    with pytest.raises(ValueError):
        QuantParams(12, 0.5)
    with pytest.raises(ValueError):
        QuantParams(8, 0.0)
    with pytest.raises(ValueError):
        QuantParams(8, -1.0)


def test_quantparams_range():
    qp8 = QuantParams(8, 1.0)
    assert (qp8.int_min, qp8.int_max) == (-128, 127)
    qp16 = QuantParams(16, 1.0)
    assert (qp16.int_min, qp16.int_max) == (-32768, 32767)


def test_qtensor_rejects_out_of_range():
    qp = QuantParams(8, 1.0)
    QTensor((2,), [127, -128], qp)
    with pytest.raises(ValueError):
        QTensor((1,), [128], qp)
    with pytest.raises(ValueError):
        QTensor((1,), [-129], qp)


def test_qtensor_shape_checked():
    with pytest.raises(ValueError):
        QTensor((2, 2), [1, 2, 3], QuantParams(8, 1.0))


def test_qtensor_immutable():
    t = QTensor((3,), [1, 2, 3], QuantParams(8, 1.0))
    with pytest.raises(ValueError):
        t.data[0] = 5


def test_quantize_zero_is_exact():
    for qp in (QuantParams(8, 1 / 64), QuantParams(16, 1 / 1024)):
        assert quantize(np.array([0.0]), qp).data[0] == 0


def test_quantize_exact_multiples():
    q = quantize(np.array([-1.0, 1.0]), QuantParams(8, 1 / 64))
    assert q.data.tolist() == [-64, 64]


def test_quantize_saturates():
    q = quantize(np.array([10.0]), QuantParams(8, 1 / 64))
    assert q.data[0] == 127
    q = quantize(np.array([-10.0]), QuantParams(8, 1 / 64))
    assert q.data[0] == -128


def test_quantize_rounds_half_away_from_zero():
    qp = QuantParams(8, 1.0)
    assert quantize(np.array([0.5, -0.5, 1.5, -1.5]), qp).data.tolist() == [1, -1, 2, -2]


@given(st.floats(-4.0, 4.0))
@settings(max_examples=200)
def test_quantize_dequantize_within_half_scale(v):
    qp = QuantParams(8, 1 / 16)
    q = quantize(np.array([v]), qp)
    clamped = min(max(v, qp.int_min * qp.scale), qp.int_max * qp.scale)
    assert abs(q.array[0] * qp.scale - clamped) <= qp.scale / 2 + 1e-12


@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=20))
@settings(max_examples=100)
def test_quantize_monotone(vals):
    qp = QuantParams(8, 1 / 32)
    q = quantize(np.array(sorted(vals)), qp)
    assert all(a <= b for a, b in zip(q.data, q.data[1:]))


def test_pow2_scale_covers_max_abs():
    s = pow2_scale_for(1.0, 8)
    assert s * 127 >= 1.0
    assert s / 2 * 127 < 1.0
    assert pow2_scale_for(0.0, 8) > 0


def test_flip_bits_examples():
    assert flip_with_mask(0, 1 << 7, 8) == -128
    assert flip_with_mask(5, 1 << 1, 8) == 7
    assert flip_with_mask(5, 0, 8) == 5


def test_flip_sign_bit_of_three_int8():
    assert flip_with_mask(3, 1 << 7, 8) == -125


@given(
    st.integers(-128, 127),
    st.integers(0, (1 << 8) - 1),
)
@settings(max_examples=300)
def test_flip_bits_involution_int8(x, mask):
    once = flip_with_mask(x, mask, 8)
    assert flip_with_mask(once, mask, 8) == x


@given(
    st.integers(-32768, 32767),
    st.integers(0, (1 << 16) - 1),
)
@settings(max_examples=300)
def test_flip_bits_involution_int16(x, mask):
    once = flip_with_mask(x, mask, 16)
    assert flip_with_mask(once, mask, 16) == x


@given(st.integers(-128, 127), st.integers(0, (1 << 8) - 1))
@settings(max_examples=200)
def test_flip_result_stays_in_width(x, mask):
    v = flip_with_mask(x, mask, 8)
    assert -128 <= v <= 127


def test_flip_array_matches_scalar():
    rng = np.random.default_rng(7)
    vals = rng.integers(-128, 128, size=50).astype(np.int64)
    idx = np.array([3, 10, 42], dtype=np.int64)
    masks = np.array([0b1, 0b10000000, 0b101], dtype=np.int64)
    out = flip_array_with_masks(vals, idx, masks, 8)
    for i, m in zip(idx, masks):
        assert out[i] == flip_with_mask(int(vals[i]), int(m), 8)
    untouched = np.setdiff1d(np.arange(50), idx)
    assert np.array_equal(out[untouched], vals[untouched])
