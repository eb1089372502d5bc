"""Integer normal forms against brute-force and reconstruction oracles."""

import random

from torushecke.abgroup import kernel_of_map
from torushecke.intlinalg import (
    IntMatrix,
    det,
    hnf_columns,
    hnf_invariant_factors,
    hnf_reduce,
    smith_normal_form,
    snf_diagonal,
)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    bt = list(zip(*b.entries)) if b.entries else []
    out = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.entries
    )
    return IntMatrix(a.rows, b.cols, out)


def hnf_contains(h, vec):
    return all(c == 0 for c in hnf_reduce(h, vec))


def _random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_snf_reconstruction_and_divisibility():
    rng = random.Random(20260819)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v).entries == d.entries
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[i, i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            assert diag[i] >= 0
            for j in range(i + 1, len(diag)):
                if diag[i] == 0:
                    assert diag[j] == 0
                elif diag[j] != 0:
                    assert diag[j] % diag[i] == 0
        # off-diagonal must vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i, j] == 0


def test_snf_golden_diag():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert snf_diagonal(m) == [1, 6]
    m2 = IntMatrix.from_rows([[4, 0], [0, 6]])
    assert snf_diagonal(m2) == [2, 12]


def test_two_by_two_hnf_invariants_match_the_smith_form():
    """gcd(a, b, c) and ac / gcd of [[a, b], [0, c]] against snf_diagonal
    on 500 seeded HNFs with entries up to 10, 10^3 or 10^12."""
    rng = random.Random(25)
    for _ in range(500):
        bound = rng.choice((10, 10**3, 10**12))
        a, c = rng.randint(1, bound), rng.randint(1, bound)
        h = ((a, rng.randrange(a)), (0, c))
        want = tuple(x for x in snf_diagonal(IntMatrix.from_rows(h)) if x > 1)
        assert hnf_invariant_factors(h) == want, h
    assert hnf_invariant_factors(((4, 2), (0, 6))) == (2, 12)
    assert hnf_invariant_factors(((1, 0, 0), (0, 2, 1), (0, 0, 4))) == (8,)


def test_det_oracle_vs_permutation_expansion():
    rng = random.Random(7)

    def perm_det(m):
        # Leibniz expansion; fine for n <= 4
        n = m.rows
        import itertools

        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = 1
            for i in range(n):
                term *= m[i, perm[i]]
            total += sign * term
        return total

    for _ in range(40):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        assert det(m) == perm_det(m)


def _full_rank_relations(rng, k, bound=3):
    while True:
        m = _random_matrix(rng, k, k, bound)
        if det(m):
            return [tuple(m[i, j] for i in range(k)) for j in range(k)]


def _brute_image(map_columns, lattice):
    """The subgroup of Z^k / lattice the map columns generate, as canonical
    representatives, closed by breadth-first search."""
    zero = hnf_reduce(lattice, (0,) * len(lattice))
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for col in map_columns:
            y = hnf_reduce(lattice, tuple(a + b for a, b in zip(x, col)))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def test_kernel_of_map_is_kernel_and_complete():
    rng = random.Random(11)
    relations_rng = random.Random(12)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols, bound=4)
        map_columns = [tuple(m[i, j] for i in range(rows)) for j in range(cols)]
        relations = _full_rank_relations(relations_rng, rows)
        lattice = hnf_columns(relations, rows)
        kernel, quotient = kernel_of_map(map_columns, relations, cols, rows)
        # every kernel column dies in Z^k / relations
        for j in range(cols):
            x = [kernel.hnf[i][j] for i in range(cols)]
            value = [sum(m[i, c] * x[c] for c in range(cols)) for i in range(rows)]
            assert hnf_contains(lattice, value)
        # and the kernel is all of it: [Z^s : kernel] is the order of the image
        image = _brute_image(map_columns, lattice)
        assert kernel.index == len(image)
        order = 1
        for i in range(rows):
            order *= lattice[i][i]
        assert quotient.order * len(image) == order


def test_hnf_shape_membership_and_index():
    cols = [(2, 0), (1, 3)]
    h = hnf_columns(cols, 2)
    # upper triangular, positive diagonal, reduced above the diagonal
    assert h[1][0] == 0
    assert h[0][0] > 0 and h[1][1] > 0
    assert 0 <= h[0][1] < h[0][0]
    # index of the lattice = diagonal product = |det of the generators|
    assert h[0][0] * h[1][1] == 6
    for c in cols:
        assert hnf_contains(h, c)
    assert hnf_contains(h, (3, 3))
    assert not hnf_contains(h, (1, 0))
    red = hnf_reduce(h, (5, 7))
    assert hnf_contains(h, tuple(a - b for a, b in zip((5, 7), red)))


def test_hnf_membership_matches_brute_span():
    rng = random.Random(5)
    for _ in range(25):
        cols = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        # force full rank
        cols.append((1, 0))
        cols.append((0, 7))
        h = hnf_columns(cols, 2)
        # brute span over small coefficient combinations of the basis
        span = set()
        b0 = (h[0][0], h[1][0])
        b1 = (h[0][1], h[1][1])
        for a in range(-8, 9):
            for b in range(-8, 9):
                span.add((a * b0[0] + b * b1[0], a * b0[1] + b * b1[1]))
        for x in range(-6, 7):
            for y in range(-6, 7):
                if hnf_contains(h, (x, y)):
                    assert (x, y) in span
