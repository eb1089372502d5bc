"""Mod-p linear algebra: fp_rank and the incremental accumulator against a
Gaussian elimination oracle that also returns a kernel basis."""

import random

import pytest

from torushecke.fplinalg import FpRankAccumulator, fp_rank


def rank_kernel(rows, ncols, p):
    """Rank and a kernel basis of the matrix with these rows, by row
    reduction to reduced echelon form.

    Kernel vectors use the standard free-variable parametrization: for each
    non-pivot column j, the vector with 1 at j and the negated reduced
    column above the pivots.
    """
    data = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(data)) if data[i][c]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = pow(data[r][c], p - 2, p)
        data[r] = [(x * inv) % p for x in data[r]]
        for i in range(len(data)):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [(x - f * y) % p for x, y in zip(data[i], data[r])]
        pivots.append(c)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[j] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-data[i][j]) % p
        basis.append(tuple(vec))
    return len(pivots), basis


def test_rank_kernel_golden():
    rows = [[1, 2], [2, 4]]
    rank, basis = rank_kernel(rows, 2, 5)
    assert rank == fp_rank(rows, 5) == 1
    assert basis == [(3, 1)]
    # kernel vector actually annihilates the rows
    for row in rows:
        assert sum(a * b for a, b in zip(row, basis[0])) % 5 == 0


def test_rank_identity_and_zero():
    assert fp_rank([[1, 0], [0, 1]], 7) == 2
    assert fp_rank([[0, 0], [0, 0]], 7) == 0
    assert fp_rank([], 7) == 0


def test_rank_of_zero_width_rows_and_ragged_rows():
    assert fp_rank([(), (), ()], 5) == 0
    with pytest.raises(ValueError):
        fp_rank([(1, 2), (3,)], 5)
    with pytest.raises(ValueError):
        fp_rank([(), (1,)], 5)


def test_rank_kernel_dimension_formula():
    # fp_rank against the elimination oracle, whose kernel has the right size
    rng = random.Random(2026)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randrange(-2 * p, 2 * p) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            # a dependent row, so rank deficiency is common
            m.append([sum(r[j] for r in m) for j in range(cols)])
        rank, basis = rank_kernel(m, cols, p)
        assert fp_rank(m, p) == rank
        assert rank + len(basis) == cols
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) % p == 0
        # kernel vectors are independent: stack them and re-rank
        if basis:
            assert fp_rank(basis, p) == len(basis)


def test_accumulator_agrees_with_batch_rank():
    rng = random.Random(99)
    for _ in range(30):
        p = rng.choice([3, 5])
        width = rng.randint(1, 4)
        vecs = [
            tuple(rng.randrange(p) for _ in range(width))
            for _ in range(rng.randint(1, 6))
        ]
        acc = FpRankAccumulator(p, width)
        grew = [acc.add(v) for v in vecs]
        assert acc.rank == rank_kernel(vecs, width, p)[0]
        assert sum(grew) == acc.rank
        # each vector already read lies in the span: adding it again does nothing
        for v in vecs:
            assert not acc.add(v)
        assert acc.rank == sum(grew)
