import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocycle_lab import rng
from cocycle_lab.algebra import Semigroup
from cocycle_lab.families import builtin_length
from cocycle_lab.matrixalg import battery_matrix
from cocycle_lab.poincare import worst_constant

# seeds of 1, 1, 2, 3, 4 and 5 words; indices of one word and of two
SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 127 - 1, 2 ** 130)
INDICES = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7)


def reference_key(seed, tag, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return ss.generate_state(2, np.uint64)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(SEEDS), st.integers(0, 2 ** 160)),
       st.integers(1, 4),
       st.lists(st.one_of(st.sampled_from(INDICES), st.integers(0, 2 ** 64 - 1)),
                min_size=1, max_size=6))
@example(0, 1, [0, 2 ** 63 + 1])      # numpy reads this list as float64
def test_keys_match_seed_sequence_hypothesis(seed, tag, indices):
    """The vectorized hash gives, row by row and in order, the key SeedSequence derives."""
    got = rng.keys(seed, tag, indices)
    assert got.dtype == np.uint64 and got.shape == (len(indices), 2)
    for row, index in zip(got, indices):
        assert np.array_equal(row, reference_key(seed, tag, index)), (seed, tag, index)


def reference_rows(seed, tag, lo, hi, sd, shape):
    return np.stack([rng.stream(seed, tag, i).normal(0.0, sd, shape) for i in range(lo, hi)])


@pytest.mark.parametrize("seed, tag, lo, hi", [(11, 1, 0, 40), (11, 2, 17, 53),
                                               (2 ** 64 + 3, 1, 9, 10), (0, 2, 0, 1),
                                               (5, 1, 2 ** 32 - 2, 2 ** 32 + 2)])
def test_normal_block_equals_one_stream_per_sample(seed, tag, lo, hi):
    got = rng.normal_block(seed, tag, lo, hi, 0.5, (8, 3))
    want = reference_rows(seed, tag, lo, hi, 0.5, (8, 3))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(SEEDS[:4]), st.integers(0, 2 ** 70)),
       st.sampled_from((rng.TAG_SCENARIO, rng.TAG_SCENARIO_COPY)),
       st.one_of(st.integers(0, 2 ** 16), st.integers(2 ** 32 - 6, 2 ** 32 + 1),
                 st.integers(0, 2 ** 40)),
       st.integers(1, 6), st.sampled_from((0.5, 0.25)),
       st.sampled_from(((3,), (4, 2))))
@example(2 ** 70, rng.TAG_SCENARIO, 2 ** 32 - 3, 6, 0.5, (4, 2))    # a window across 2^32
def test_normal_block_equals_one_stream_per_sample_hypothesis(seed, tag, lo, count, sd, shape):
    """The re-keyed rows, their keys handed to the Philox state as Python ints, are bitwise the
    rows of one stream per sample, for seeds of up to 3 words and windows across index 2^32."""
    got = rng.normal_block(seed, tag, lo, lo + count, sd, shape)
    want = reference_rows(seed, tag, lo, lo + count, sd, shape)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, tag, lo, count)


def test_normal_block_builds_one_seed_sequence(monkeypatch):
    built = []
    real = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda *a, **kw: built.append(kw["spawn_key"]) or real(*a, **kw))
    block = rng.normal_block(7, rng.TAG_SCENARIO_COPY, 100, 612, 1.0, (4, 2))
    assert block.shape == (512, 4, 2)
    assert built == [(rng.TAG_SCENARIO_COPY, 100)]
    assert rng.normal_block(7, rng.TAG_SCENARIO, 3, 3, 1.0, (4, 2)).shape == (0, 4, 2)
    assert len(built) == 1


def test_bad_seed_and_indices_are_named():
    for call in (lambda: rng.stream(-1, 1, 0), lambda: rng.keys(-1, 1, [0]),
                 lambda: rng.normal_block(-1, 1, 0, 4, 1.0, (2,))):
        with pytest.raises(ValueError, match=r"^seed = -1 is not a non-negative integer$"):
            call()
    for indices, shown in ((np.array([2, -3]), "-3 to 2"), ([5, 2 ** 64], f"5 to {2 ** 64}")):
        with pytest.raises(ValueError, match=rf"stream indices must lie in \[0, 2\^64\), got {shown}$"):
            rng.keys(0, 1, indices)


def test_a_seed_that_is_no_integer_is_named():
    """A bool seed once ran as 1, a float died inside numpy's SeedSequence and a string with a
    TypeError; the optimizer starts, the battery and the scenarios share this check."""
    sg = Semigroup(builtin_length("wordlength:4"))
    for seed, shown in ((True, "true"), (1.5, "1.5"), (np.float64(2.0), "2.0"),
                        ("3", '"3"'), (None, "null")):
        for call in (lambda: rng.stream(seed, 3, 0), lambda: rng.keys(seed, 1, [0]),
                     lambda: worst_constant(sg, 4.0, budget=10, seed=seed),
                     lambda: battery_matrix(2, seed, 0)):
            with pytest.raises(ValueError, match=rf"^seed = {re.escape(shown)} "
                                                 r"is not a non-negative integer$"):
                call()
    assert rng.stream(np.int64(3), 3, 0).standard_normal() == rng.stream(3, 3, 0).standard_normal()
