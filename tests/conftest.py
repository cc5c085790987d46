import numpy as np
import pytest
from hypothesis import strategies as st

from chanpred import ChannelConfig, ChannelTensor, draw_paths, synthesize
from chanpred.estimation import PilotScheme, estimate_trace
from chanpred.rng import stream


@pytest.fixture(scope="session")
def default_trace():
    """Default-config trace long enough for the shift-16 correlation study."""
    cfg = ChannelConfig()
    return synthesize(cfg, draw_paths(cfg), 2016)


@pytest.fixture(scope="session")
def micro_tensor_pair():
    """Small (true, estimated) pair for dataset/pipeline plumbing tests."""
    cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=3, n_paths=7, seed=5,
                        speed=20.0 / 3.6, doppler_grid_blocks=16)
    truth = synthesize(cfg, draw_paths(cfg), 40)
    scheme = PilotScheme.dft(4, 1, snr_db=10.0)
    est = estimate_trace(truth, scheme, stream(5, "pilot-noise"))
    return truth, est


class ZeroNoise:
    """Stands in for the noise generator of estimate_trace: every draw is zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def random_tensor(seed, n=6, l=3, m=4, provenance="true"):
    rng = stream(seed, "tensor")
    values = rng.standard_normal((n, l, m)) + 1j * rng.standard_normal((n, l, m))
    return ChannelTensor(values, provenance)


LINE_CORRUPTIONS = ("delete", "duplicate", "append token", "not utf-8")


def corrupt_line(data: bytes, corruption: str, index: int) -> bytes:
    """Break line `index` (modulo the line count) of a text file so no reader may accept it."""
    lines = data.split(b"\n")[:-1]
    index %= len(lines)
    if corruption == "delete":
        del lines[index]
    elif corruption == "duplicate":
        lines.insert(index, lines[index])
    elif corruption == "append token":
        lines[index] += b" x"
    else:
        lines[index] = b"\xff\xfe"
    return b"\n".join(lines) + b"\n"


# finite doubles, with signed zeros, subnormals and the largest magnitudes drawn often
FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]))
