import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flipkit import Graph


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_partition_labels(rng: random.Random, n: int, k_max: int) -> list[int]:
    k = rng.randint(1, min(k_max, n))
    labels = [rng.randrange(k) for _ in range(n)]
    labels[:k] = range(k)
    return labels


def packed_words(stack: np.ndarray) -> np.ndarray:
    """A bool (F, n, n) stack packed along its flips, n >= 1: (W, n, n)
    uint64, bit i of word w being flip 64w + i, zero past F; the words
    ``graphs._word_fold`` reads, built apart from ``flips.flip_words``."""
    f, n, _ = stack.shape
    packed = np.zeros((n * n, 8 * -(-f // 64)), dtype=np.uint8)
    packed[:, : -(-f // 8)] = np.packbits(stack.reshape(f, -1).T, axis=1, bitorder="little")
    return packed.view("<u8").T.reshape(-1, n, n)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
