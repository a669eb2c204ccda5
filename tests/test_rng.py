"""The rate encoder's splitmix64 stream is pinned to the published sequence:
a scalar reference here reproduces the published vectors, and rate_encode
must agree with it draw for draw."""

import numpy as np
import pytest

from spikemeter.rng import check_seed, splitmix64
from spikemeter.simulate import rate_encode

MASK64 = (1 << 64) - 1


def reference_stream(seed: int):
    """Scalar splitmix64 (Steele, Lea and Flood, 2014): yields uint64 outputs."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def reference_uniforms(seed: int, count: int) -> np.ndarray:
    """The stream's first ``count`` outputs as doubles in [0, 1): top 53 bits."""
    stream = reference_stream(seed)
    return np.array([(next(stream) >> 11) * 2.0**-53 for _ in range(count)])


PUBLISHED = [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]),
]


@pytest.mark.parametrize("seed, expected", PUBLISHED)
def test_reference_matches_published_vectors(seed, expected):
    stream = reference_stream(seed)
    assert [next(stream) for _ in expected] == expected


@pytest.mark.parametrize("seed, expected", PUBLISHED)
def test_package_stream_matches_published_vectors(seed, expected):
    assert splitmix64(seed, len(expected)).tolist() == expected


SEEDS = [0, 42, 2**63 + 5, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_draw_is_bit_exact(seed):
    # With one timestep, neuron i compares draw i against its own rate.  A
    # rate equal to the reference draw never fires and the next double up
    # always does, so the train pins each draw to the last bit.
    draws = reference_uniforms(seed, 2000)
    assert not rate_encode(draws, 1, seed).events.any()
    assert rate_encode(np.nextafter(draws, 2.0), 1, seed).events.all()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("neurons, timesteps", [(1, 1), (3, 64), (300, 500)])
def test_rate_encode_matches_reference(seed, neurons, timesteps):
    rates = np.random.default_rng(7).uniform(0.0, 1.0, size=neurons)
    # draws run timestep-major, neuron-minor
    draws = reference_uniforms(seed, neurons * timesteps).reshape(timesteps, neurons)
    expected = (draws < rates).T.astype(np.float64)
    assert np.array_equal(rate_encode(rates, timesteps, seed).events, expected)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65])
def test_seed_outside_64_bits_is_refused(seed):
    """The stream refuses a seed it would reduce mod 2**64, wherever it is drawn."""
    message = rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"
    for draw in (lambda: check_seed(seed), lambda: splitmix64(seed, 1),
                 lambda: rate_encode([0.5], 4, seed)):
        with pytest.raises(ValueError, match=message):
            draw()
    assert check_seed(2**64 - 1) == 2**64 - 1
