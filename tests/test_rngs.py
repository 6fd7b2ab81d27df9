"""Block draws: the numpy equivalences that let a run draw its randomness in
blocks and still give the values, and the stream state, of one draw per call."""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from etsgd.rngs import BLOCK, sample_draws, uniform_draws

CHUNKS = st.lists(st.integers(0, 300), max_size=8)
SEEDS = st.integers(0, 2**32 - 1)


@given(m=st.integers(2, 2**32 + 5), chunks=CHUNKS, seed=SEEDS)
def test_chunked_integers_equal_single_draws(m, chunks, seed):
    single, chunked = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [int(single.integers(m)) for _ in range(sum(chunks))]
    got = [v for k in chunks for v in chunked.integers(m, size=k).tolist()]
    assert got == expected
    assert chunked.bit_generator.state == single.bit_generator.state


@given(lo=st.floats(0.0, 100.0), width=st.floats(0.0, 100.0), chunks=CHUNKS, seed=SEEDS)
def test_chunked_uniform_equals_scalar_draws(lo, width, chunks, seed):
    hi = lo + width
    single, chunked = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [single.uniform(lo, hi) for _ in range(sum(chunks))]
    got = [v for k in chunks for v in chunked.uniform(lo, hi, size=k).tolist()]
    assert got == expected
    assert chunked.bit_generator.state == single.bit_generator.state


def test_sample_draws_match_single_draws_and_end_state():
    m = 100
    for total in (0, 1, BLOCK, 2 * BLOCK + 7):
        single, blocked = np.random.default_rng(total), np.random.default_rng(total)
        expected = [int(single.integers(m)) for _ in range(total)]
        assert list(sample_draws(blocked, m, total)) == expected
        # the last block is cut, so no draw is taken past the total
        assert blocked.bit_generator.state == single.bit_generator.state


def test_uniform_draws_match_scalar_draws_across_blocks():
    single, blocked = np.random.default_rng(4), np.random.default_rng(4)
    draws = uniform_draws(blocked, 0.1, 1.5)
    for _ in range(BLOCK + 5):
        assert next(draws) == single.uniform(0.1, 1.5)
