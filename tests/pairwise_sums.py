"""The float rule of the dyadic level sums, as the tests' reference.

A level-r block sum of a term row is the row's pairwise tree over the
block: the sum of the two level r - 1 sums it covers, the level-0 sums
being the terms themselves.
"""

import numpy as np


def tree_block_sums(rows, r: int) -> np.ndarray:
    """The level-r block sums of each row of ``rows``, a (points, W) array
    with 2^r dividing W, as a (points, W / 2^r) array."""
    sums = np.asarray(rows, dtype=np.float64)
    for _ in range(r):
        sums = sums[:, 0::2] + sums[:, 1::2]
    return sums
