import numpy as np
import pytest

from winofi.qtensor import QTensor, QuantParams


def brute_force_conv3x3(x: np.ndarray, w: np.ndarray, bias, padding: int,
                        shift: int, int_min: int, int_max: int) -> np.ndarray:
    """Independent triple-loop integer convolution oracle.

    Deliberately naive: Python ints, explicit loops, its own padding and
    rounding. Kept free of any engine code so it can arbitrate both engines.
    """
    n_, c_, h, w_ = x.shape
    k_ = w.shape[0]
    oh, ow = h + 2 * padding - 2, w_ + 2 * padding - 2
    out = np.zeros((n_, k_, oh, ow), dtype=np.int64)
    for n in range(n_):
        for k in range(k_):
            for oy in range(oh):
                for ox in range(ow):
                    acc = int(bias[k]) if bias is not None else 0
                    for c in range(c_):
                        for ry in range(3):
                            for rx in range(3):
                                iy = oy + ry - padding
                                ix = ox + rx - padding
                                if 0 <= iy < h and 0 <= ix < w_:
                                    acc += int(w[k, c, ry, rx]) * int(x[n, c, iy, ix])
                    if shift > 0:
                        half = 1 << (shift - 1)
                        val = (acc + half) >> shift if acc >= 0 else -((-acc + half) >> shift)
                    elif shift < 0:
                        val = acc << (-shift)
                    else:
                        val = acc
                    out[n, k, oy, ox] = min(max(val, int_min), int_max)
    return out


def random_qtensor(rng: np.random.Generator, shape, bit_width: int, scale: float = 1.0) -> QTensor:
    qp = QuantParams(bit_width, scale)
    data = rng.integers(qp.int_min, qp.int_max + 1, size=shape)
    return QTensor(shape, data, qp)


def conv_q(conv, x: QTensor, spec, hook=None, **kw) -> QTensor:
    """The engine kernel ``conv`` on the QTensor ``x``: its output array,
    range-checked into a QTensor at the layer's output qparams."""
    out = conv(x.array, spec, hook=hook, in_qparams=x.qparams, **kw)
    return QTensor(out.shape, out, spec.out_qparams)


class CountingHook:
    """Counts hook invocations per (layer, stage, type) and checks op_id density."""

    def __init__(self):
        self.counts = {}
        self.op_ids = []

    def __call__(self, op_id, layer_id, op_type, stage, value):
        self.op_ids.append(op_id)
        key = (layer_id, int(stage), int(op_type))
        self.counts[key] = self.counts.get(key, 0) + 1
        return value

    def total(self, layer_id=None, stage=None, op_type=None):
        tot = 0
        for (l, s, t), n in self.counts.items():
            if layer_id is not None and l != layer_id:
                continue
            if stage is not None and s != int(stage):
                continue
            if op_type is not None and t != int(op_type):
                continue
            tot += n
        return tot


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
