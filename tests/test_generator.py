"""The lazy non-tree pair pool of ``generate_random_instance`` draws the same
graphs as the eager sorted pool in ``helpers``, and ``tgr gen`` output stays
byte-identical."""

import hashlib
import random

import pytest

from tgr import generate_random_instance
from tgr.cli import main
from tgr.generator import _NonTreePairs, _random_tree

import helpers


def _capacity(n):
    return n * (n - 1) // 2 - (n - 1)


def _cases():
    """(n, T, extra, seed): every extra for n <= 3, then n up to 60 with no
    extra, extra at capacity, or extra in between."""
    rng = random.Random(2026)
    cases = [(n, t, extra, seed) for n in (1, 2, 3) for t in (1, 2) for extra in range(_capacity(n) + 1) for seed in (0, 1)]
    while len(cases) < 320:
        n = rng.randint(1, 60)
        capacity = _capacity(n)
        extra = rng.choice([0, capacity, rng.randint(0, capacity)])
        cases.append((n, rng.randint(1, 3), extra, rng.randrange(2**32)))
    return cases


def test_lazy_pool_draws_the_graphs_of_the_eager_pool():
    for case in _cases():
        assert generate_random_instance(*case) == helpers.reference_generate_random_instance(*case), case


def test_lazy_pool_lists_the_non_tree_pairs_in_order():
    rng = random.Random(5)
    for n in range(1, 30):
        tree = _random_tree(n, rng)
        pool = _NonTreePairs(n, tree)
        assert list(pool) == sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - set(tree))
        assert len(pool) == n * (n - 1) // 2 - len(tree)
        with pytest.raises(IndexError):
            pool[len(pool)]


# sha256 of the ``tgr gen`` file, pinned when the pool was still sorted eagerly
GEN_DIGESTS = {
    (30, 3, 4, 1): "123a674c1c6bcd694606ff4b88541c5a81ae37cd8cc65a46bc07279ac7851542",
    (12, 4, 3, 7): "db36b1270e1c68e3745c38520645f1ca71433fd11b71776737ac874356adc35b",
    (60, 5, 200, 2): "b7cc095e5be3e11d8b14b94625b322f15528bd28cfcad0bd00cfefee41e491f6",
    (3, 2, 0, 5): "8ce8323d74cba22eba58ee3fa17996d12ea228c4801bda5b162570c2d917606a",
    (200, 2, 19000, 3): "b85f6ab5419a4cfdbc4cee3cf9ed9ea1cc07af3a4d2224b7ca9da57ae4180844",
}


@pytest.mark.parametrize("args", GEN_DIGESTS, ids=str)
def test_gen_bytes_are_unchanged(tmp_path, capsys, args):
    out = tmp_path / "g.tg"
    n, t, extra, seed = map(str, args)
    assert main(["gen", "--n", n, "--t", t, "--extra", extra, "--seed", seed, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DIGESTS[args]
