"""One-pass seeding: ``seeding.Streams`` gives exactly the ``rng_for`` streams."""

import numpy as np
import pytest

from ergolab import systems
from ergolab.seeding import ROLE_MC, ROLE_POINT, ROLE_QUERY, ROLE_TERMS, Streams, rng_for

# From 2^32 on an index is two entropy words, so one call hashes two groups;
# they are mixed here to check that each stream keeps its place.
INDICES = [0, 1, 9, 2**32 - 1, 2**32, 2**32 + 1, 5, 2**40 + 3, 2**63 - 1]


@pytest.mark.parametrize("role", [ROLE_MC, ROLE_POINT, ROLE_TERMS, ROLE_QUERY])
@pytest.mark.parametrize("master", [0, 2**31 - 1, 2**32, 2**64 + 5])
def test_streams_are_rng_for(master, role):
    # 2^64 + 5 is three entropy words: with the role and a two-word index
    # a key has six, more than the four-word pool.
    streams = Streams(master, (role,), INDICES)
    assert len(streams) == len(INDICES)
    got = [rng.random(3072).tobytes() for rng in streams]
    assert got == [rng_for(master, role, j).random(3072).tobytes() for j in INDICES]


def test_longer_prefix_and_no_indices():
    streams = Streams(3, (ROLE_TERMS, 7, 2**33), [4, 2**32 + 4])
    got = [rng.random(8).tobytes() for rng in streams]
    assert got == [rng_for(3, ROLE_TERMS, 7, 2**33, j).random(8).tobytes() for j in (4, 2**32 + 4)]
    assert len(Streams(3, (ROLE_TERMS,), [])) == 0
    assert list(Streams(3, (ROLE_TERMS,), [])) == []


def test_negative_keys_are_rejected():
    with pytest.raises(ValueError):
        Streams(3, (ROLE_TERMS,), [0, -1])
    with pytest.raises(ValueError):
        Streams(-3, (ROLE_TERMS,), [0])


@pytest.mark.parametrize("slab_rows", [1, 3, 16])
@pytest.mark.parametrize(
    "transition", [[[0.9, 0.1], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]], ids=["markov", "iid"]
)
def test_sample_rows_takes_each_stream_after_drawing_the_row_before(transition, slab_rows):
    # Streams yields one generator reset to each stream in turn.  A
    # non-i.i.d. chain draws every row at the call: had it listed the
    # streams first, every row would have drawn from the last one.
    chain = systems.build_shift([[1, 1], [1, 1]], transition)
    positions = np.array([-3, 0, 1, 4, 9, 30, 31, 200])
    points = np.array([3, 0, 2**32 + 7, 11, 12])
    slabs = systems.sample_rows(chain, positions, Streams(13, (ROLE_TERMS,), points), slab_rows)
    rows = np.concatenate([slab.copy() for slab in slabs])
    assert rows.shape == (points.size, positions.size)
    for j, row in zip(points, rows):
        want = systems.sample_at(chain, positions, 1, rng_for(13, ROLE_TERMS, int(j)))[0]
        assert np.array_equal(row, want)
    assert len({row.tobytes() for row in rows}) > 1
