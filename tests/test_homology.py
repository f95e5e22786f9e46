"""Exact homology machinery for Dehn fillings.

The bordered-matrix example [[5,1],[-1,-1/5]] with covector (1,5), the
wishful pair (100, -1/100) with norm 10001, and the surgery covector
(-7,7) were worked by hand from the defining formulas before this module
existed.

The reference tests compare filling_nullity_certificate (ranks included)
and surgery_solve with results built from a plain Fraction Gauss-Jordan
(oracle_tools.reference_rref) on seeded matrices, snf with
oracle_tools.reference_snf, and h1_presentation with reference_snf of
the whole presentation (oracle_tools.reference_h1_presentation).
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from oracle_tools import (
    reference_h1_presentation, reference_rref, reference_snf,
)
from relhyp.homology import (
    Filling, FillingMatrix, IntMatrix, LinkingMatrix,
    filling_matrix, filling_nullity_certificate, h1_presentation,
    kernel_rank, snf, surgery_solve, wishful_fillings,
)


def test_intmatrix_basics():
    a = IntMatrix.from_rows([[2, 1], [1, 1]])
    assert a.det() == 1
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    i2 = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert (a @ i2).entries == a.entries
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        a @ IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_snf_frozen():
    u, d, v = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert [d.entries[i][i] for i in range(2)] == [1, 6]
    _, d, _ = snf(IntMatrix.from_rows([[0, 0], [0, 0]]))
    assert all(x == 0 for row in d.entries for x in row)
    _, d, _ = snf(IntMatrix.from_rows([[2]]))
    assert d.entries == ((2,),)


def _check_snf(a):
    u, d, v = snf(a)
    assert (u @ d @ v).entries == a.entries
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    return diag


def test_snf_roundtrip_random():
    rng = random.Random(0)
    for _ in range(200):
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
        _check_snf(a)


def test_snf_rectangular():
    rng = random.Random(4)
    for rows, cols in ((2, 5), (5, 2), (1, 4), (4, 1)):
        for _ in range(20):
            a = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rows)])
            _check_snf(a)


def test_snf_empty_shapes():
    for rows, cols in ((0, 3), (3, 0), (0, 0), (0, 1), (1, 0)):
        a = IntMatrix(rows, cols, tuple(() for _ in range(rows)))
        u, d, v = snf(a)
        assert (d.rows, d.cols) == (rows, cols)
        assert (u.rows, v.rows) == (rows, cols)
        assert u @ d @ v == a


def _integer_matrix(rng, rows, cols, kind):
    """Entries in -9..9 ("dense"), mostly zero ("sparse"), or a product
    of rows x r and r x cols factors with r below full rank
    ("deficient")."""
    if kind == "dense":
        return [[rng.randint(-9, 9) for _ in range(cols)]
                for _ in range(rows)]
    if kind == "sparse":
        return [[rng.randint(-9, 9) if rng.random() < 0.25 else 0
                 for _ in range(cols)] for _ in range(rows)]
    r = rng.randint(0, min(rows, cols) - 1)
    left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(r)]
    return [[sum(left[i][s] * right[s][j] for s in range(r))
             for j in range(cols)] for i in range(rows)]


def test_snf_matches_reference():
    """snf takes U and V from the operations one D-only elimination
    streams; the reference carries them along.  All three must agree."""
    rng = random.Random(12)
    cases = [(rows, cols, kind) for rows in range(1, 9)
             for cols in range(1, 9)
             for kind in ("dense", "sparse", "deficient")]
    cases += [(20, 20, "dense")] * 3
    for rows, cols, kind in cases:
        a = IntMatrix.from_rows(_integer_matrix(rng, rows, cols, kind))
        assert snf(a) == reference_snf(a)


def test_rank_matches_snf():
    rng = random.Random(1)
    for _ in range(40):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(5)]
        diag = _check_snf(IntMatrix.from_rows(rows))
        snf_rank = sum(1 for x in diag if x != 0)
        nullity, _ = filling_nullity_certificate(rows)
        assert len(rows) - nullity == snf_rank


def test_linking_matrix_validation():
    LinkingMatrix(2, ((0, 1), (-1, 0)))
    LinkingMatrix(2, ((0, 1), (1, 0)), "symmetric")
    with pytest.raises(ValueError):
        LinkingMatrix(2, ((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        LinkingMatrix(2, ((0, 1), (1, 0)))  # skew wants -1
    with pytest.raises(ValueError):
        LinkingMatrix(2, ((0, 1), (-1, 0)), "other")
    with pytest.raises(ValueError):
        LinkingMatrix(2, ((0, 1),), "skew")


def test_filling_validation():
    f = Filling(5, 1)
    assert f.ratio() == 5
    assert Filling(1, 0).ratio() is None
    Filling(0, 1)
    with pytest.raises(ValueError, match="not primitive"):
        Filling(2, 4)


def test_filling_matrix_frozen():
    k = LinkingMatrix(2, ((0, 1), (-1, 0)))
    b = filling_matrix(k, [Filling(5, 1), Filling(-1, 5)])
    assert b.rows == ((Fraction(5), Fraction(1)),
                      (Fraction(-1), Fraction(-1, 5)))
    assert filling_nullity_certificate(b.rows)[0] == 1  # rank 1 of 2 rows
    assert b.unreduced == ()

    empty = filling_matrix(k, [None, None])
    assert empty.rows == ()
    assert filling_nullity_certificate(empty.rows) == (0, ())

    zero_k = LinkingMatrix(2, ((0, 0), (0, 0)))
    b2 = filling_matrix(zero_k, [Filling(1, 0), Filling(3, 1)])
    assert b2.unreduced == (0,)
    assert b2.rows[0] == (Fraction(1), Fraction(0))
    # diagonal, full rank
    assert filling_nullity_certificate(b2.rows) == (0, ())


def test_nullity_certificate_frozen():
    k = LinkingMatrix(2, ((0, 1), (-1, 0)))
    b = filling_matrix(k, [Filling(5, 1), Filling(-1, 5)])
    nullity, basis = filling_nullity_certificate(b.rows)
    assert nullity == 1
    assert basis == ((1, 5),)
    # certificate really kills every column
    for c in range(2):
        assert sum(basis[0][r] * b.rows[r][c] for r in range(2)) == 0

    assert filling_nullity_certificate([(1, 0), (0, 1)]) == (0, ())
    nullity, basis = filling_nullity_certificate(
        [(0, 0, 0)] * 3)
    assert nullity == 3
    assert len(basis) == 3


def test_wishful_frozen():
    res = wishful_fillings([[0, 1], [-1, 0]], 100)
    assert res.ratios == (Fraction(100), Fraction(-1, 100))
    assert res.tau == (1, 100)
    assert res.min_norm == 10001
    assert res.fillings[1] == Filling(-1, 100)

    single = wishful_fillings([[0, 1]], 7)
    assert single.ratios == (Fraction(7),)

    with pytest.raises(ValueError):
        wishful_fillings([[0, 0], [0, 0]], 10)
    with pytest.raises(ValueError):
        wishful_fillings([], 10)
    with pytest.raises(ValueError):  # row cancels at t = 1
        wishful_fillings([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], 1)


def test_wishful_norm_grows_with_t():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            x = rng.choice([1, -1]) * rng.randint(1, 5)
            rows[i][i + 1] = x
            rows[i + 1][i] = -x
        # prime t keeps gcd(entry, t) = 1, so reduction cannot shrink
        # the pair below the growth scale
        for t in (11, 101):
            try:
                res = wishful_fillings(rows, t)
            except ValueError:
                continue  # a ratio cancelled; hypothesis rejects the t
            assert res.min_norm >= t


def test_surgery_frozen():
    res = surgery_solve([[0, 1, 1], [-1, 0, 1]], (7,))
    assert res.alpha == (Fraction(-7), Fraction(7))
    assert res.fillings == (Filling(-1, 1), Filling(1, 1))
    assert res.basis_columns == (0,)
    assert res.nullity >= 1
    # requested value really is -alpha . x_{j_1}
    x0 = (0, -1)
    assert -sum(a * b for a, b in zip(res.alpha, x0)) == 7

    with pytest.raises(ValueError):
        surgery_solve([[0, 1, 1], [-1, 0, 1]], (7, 3))


def test_surgery_rank_one():
    res = surgery_solve([[0, 0, 1], [0, 0, 2]])
    assert res.alpha == (Fraction(2), Fraction(-1))
    assert res.basis_columns == ()
    assert res.fillings == (Filling(0, 1), Filling(0, 1))
    assert res.nullity >= 1


def test_surgery_errors():
    with pytest.raises(ValueError):
        surgery_solve([[0, 1, 0], [-1, 0, 0]])  # last column vanishes
    with pytest.raises(ValueError):
        surgery_solve([])
    with pytest.raises(ValueError, match="n-1 rows"):
        surgery_solve([[0, 1], [1, 0], [1, 1]])  # not an (n-1) x n block
    with pytest.raises(ValueError, match="must be zero"):
        surgery_solve([[3, 1, 1], [-1, 0, 1]])  # nonzero diagonal
    with pytest.raises(ValueError, match="zero covector"):
        surgery_solve([[0, 1, 1], [-1, 0, 1]], (0,))


def test_h1_presentation_frozen():
    k = LinkingMatrix(2, ((0, 1), (-1, 0)))
    fills = [Filling(0, 1), Filling(0, 1)]
    bound, torsion = h1_presentation(k, fills)
    assert bound == 0
    assert torsion == ()

    # meridian refill gives back the sphere
    fills = [Filling(1, 0), Filling(1, 0)]
    bound, torsion = h1_presentation(k, fills)
    assert bound == 0 and torsion == ()

    # single unknot component, (2,1) surgery: a lens space
    k1 = LinkingMatrix(1, ((0,),))
    bound, torsion = h1_presentation(k1, [Filling(2, 1)])
    assert bound == 0
    assert torsion == (2,)


def test_h1_no_fillings():
    k = LinkingMatrix(2, ((0, 0), (0, 0)))
    bound, torsion = h1_presentation(k, [])
    assert bound == 2 and torsion == ()
    bound, _ = h1_presentation(LinkingMatrix(1, ((0,),)), [])
    assert bound == 1


def test_h1_errors():
    k = LinkingMatrix(2, ((0, 1), (-1, 0)))
    with pytest.raises(ValueError, match="more fillings"):
        h1_presentation(k, [Filling(0, 1)] * 3)


def test_kernel_rank_from_h1_presentation():
    def report(k, fills):
        return kernel_rank(h1_presentation(k, fills)[0], k.n - len(fills))

    k = LinkingMatrix(2, ((0, 1), (-1, 0)))
    wish = wishful_fillings(k.entries, 100)
    assert report(k, list(wish.fillings)) == 1

    zero_k = LinkingMatrix(2, ((0, 0), (0, 0)))
    assert report(zero_k, []) == 0

    hopf_fills = [Filling(0, 1), Filling(0, 1)]
    assert report(k, hopf_fills) == 0


def test_sublemma_identity_random():
    """rank(H1 bound) - m equals the meridian-set nullity on generated
    instances: the identity that cmd_dehn_fill checks, across random skew
    matrices and fillings."""
    rng = random.Random(7)
    made = 0
    while made < 100:
        n = rng.randint(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = rng.randint(-3, 3)
                rows[i][j] = x
                rows[j][i] = -x
        k = LinkingMatrix(n, tuple(map(tuple, rows)))
        nf = rng.randint(0, n)
        fills = []
        for i in range(nf):
            while True:
                u, v = rng.randint(-6, 6), rng.randint(0, 6)
                if gcd(u, v) == 1:
                    break
            fills.append(Filling(u, v))
        bound, _ = h1_presentation(k, fills)
        m = n - nf
        b = filling_matrix(k, fills)
        nullity, _ = filling_nullity_certificate(b.rows)
        assert bound - m == nullity
        made += 1


# ---------------------------------------------------------------------------
# reference checks against a plain Fraction Gauss-Jordan


def _combined_rows(rng, nrows, ncols, rank):
    """nrows random combinations of rank base rows whose entries have
    denominators up to 9; rank 0 gives the zero matrix."""
    base = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-3, 3) for _ in range(rank)]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)),
                         Fraction(0)) for j in range(ncols)])
    return rows


def _reference_matrices():
    """Tall, wide, square, single-row and single-column matrices of every
    rank, some with a zeroed row or column, some with integer entries."""
    rng = random.Random(20)
    cases = []
    for nrows, ncols in ((7, 3), (3, 7), (5, 5), (8, 8), (1, 6), (6, 1)):
        for _ in range(30):
            rows = _combined_rows(rng, nrows, ncols,
                                  rng.randint(0, min(nrows, ncols)))
            if rng.random() < 0.3:
                rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
            if rng.random() < 0.3:
                c = rng.randrange(ncols)
                for row in rows:
                    row[c] = Fraction(0)
            if rng.random() < 0.2:
                rows = [[int(x * lcm(*(y.denominator for y in row)))
                         for x in row] for row in rows]
            cases.append(rows)
    return cases


def _reference_certificate(rows):
    """Left-kernel basis of rows from the reference RREF of the
    transpose, each vector primitive with its first nonzero entry
    positive."""
    nrows, ncols = len(rows), len(rows[0])
    mat, pivots = reference_rref([[rows[r][c] for r in range(nrows)]
                                  for c in range(ncols)])
    basis = []
    for free in (c for c in range(nrows) if c not in pivots):
        vec = [Fraction(0)] * nrows
        vec[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][free]
        scale = lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        sign = 1 if next(x for x in ints if x) > 0 else -1
        basis.append(tuple(sign * x // g for x in ints))
    return (len(basis), tuple(basis))


def _random_skew(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-3, 3)
            rows[i][j], rows[j][i] = x, -x
    return rows


def _random_slope(rng):
    """A u/v slope with v up to 9, now and then 1/0."""
    if rng.random() < 0.1:
        return Filling(1, 0)
    while True:
        u, v = rng.randint(-9, 9), rng.randint(1, 9)
        if u and gcd(u, v) == 1:
            return Filling(u, v)


def test_nullity_certificate_matches_reference():
    wide_kernels = big_entries = 0
    for rows in _reference_matrices():
        got = filling_nullity_certificate(rows)
        assert got == _reference_certificate(rows)
        wide_kernels += got[0] >= 2
        big_entries += any(abs(x) > 1 for vec in got[1] for x in vec)
        for vec in got[1]:
            for c in range(len(rows[0])):
                assert sum(a * row[c] for a, row in zip(vec, rows)) == 0
    # the comparison must see kernels of dimension >= 2 and basis
    # vectors that are more than 0/1 patterns
    assert wide_kernels >= 20
    assert big_entries >= 20


def _dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _reference_surgery(rows, requested):
    """(basis columns, alpha) from the greedy rank loop and the Gram
    solve, both on reference_rref, or the start of the ValueError
    message surgery_solve must raise."""
    nr, nc = len(rows), len(rows[0])
    cols = [[Fraction(rows[r][c]) for r in range(nr)] for c in range(nc)]
    basis = [nc - 1]
    for c in range(nc - 1):
        trial = [cols[i] for i in basis] + [cols[c]]
        if len(reference_rref(trial)[1]) == len(basis) + 1:
            basis.append(c)
    if len(requested) > len(basis) - 1:
        return "column rank"
    want = list(requested) + [1] * (len(basis) - 1 - len(requested))
    if len(basis) == 1:
        kernel = _reference_certificate([(x,) for x in cols[-1]])[1]
        if not kernel:
            return "no nonzero covector"
        alpha = [Fraction(x) for x in kernel[0]]
    else:
        order = basis[1:] + [nc - 1]
        aug = [[_dot(cols[b], cols[c]) for b in order] + [Fraction(-w)]
               for c, w in zip(order, want + [0])]
        mat, pivots = reference_rref(aug)
        assert pivots == list(range(len(order)))
        lam = [mat[i][-1] for i in range(len(order))]
        alpha = [sum((l * cols[b][i] for l, b in zip(lam, order)),
                     Fraction(0)) for i in range(nr)]
    if not any(alpha):
        return "all-zero requests"
    if any(alpha[j] == 0 and _dot(alpha, cols[j]) != 0 for j in range(nr)):
        return "column .* is infeasible"
    return basis[1:], alpha


def _check_surgery(rows, requested):
    """surgery_solve against the reference basis and covector; returns
    True when it produced a result."""
    ref = _reference_surgery(rows, requested)
    if isinstance(ref, str):
        with pytest.raises(ValueError, match=ref):
            surgery_solve(rows, requested)
        return False
    basis, alpha = ref
    res = surgery_solve(rows, requested)
    assert res.basis_columns == tuple(basis)
    assert res.alpha == tuple(alpha)
    bordered = []
    for i, f in enumerate(res.fillings):
        col = [Fraction(row[i]) for row in rows]
        ratio = None if alpha[i] == 0 else -_dot(alpha, col) / alpha[i]
        assert f == (Filling(1, 1) if ratio is None else
                     Filling(ratio.numerator, ratio.denominator))
        row = [Fraction(x) for x in rows[i]]
        row[i] = f.ratio()
        bordered.append(row)
    assert res.nullity == _reference_certificate(bordered)[0]
    return True


def test_surgery_matches_reference():
    rng = random.Random(21)
    solved = 0
    for _ in range(150):
        n = rng.randint(2, 7)
        rows = _combined_rows(rng, n - 1, n, rng.randint(1, n - 1))
        rows = [[int(x * 9 * 8 * 7 * 5) for x in row] for row in rows]
        for i in range(n - 1):
            rows[i][i] = 0
        if all(row[-1] == 0 for row in rows):
            continue
        requested = tuple(rng.randint(-5, 5)
                          for _ in range(rng.randint(0, 2)))
        solved += _check_surgery(rows, requested)
    assert solved >= 60


@pytest.mark.parametrize("n", [16, 24, 32])
def test_skew_linking_matches_reference(n):
    rng = random.Random(n)
    k = LinkingMatrix(n, tuple(map(tuple, _random_skew(rng, n))))
    fills = [None if rng.random() < 0.15 else _random_slope(rng)
             for _ in range(n)]
    b = filling_matrix(k, fills)
    assert filling_nullity_certificate(b.rows) == \
        _reference_certificate(b.rows)
    _, pivots = reference_rref(b.rows)
    assert filling_nullity_certificate(b.rows)[0] == len(b.rows) - len(pivots)
    assert _check_surgery([list(r) for r in k.entries[:n - 1]], (2, -3))


def _random_linking(rng, n, convention):
    """Entries in -2..2, skew or symmetric; the share of zero entries is
    drawn per link, so some links are split or nearly so."""
    zeros = rng.random()
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = 0 if rng.random() < zeros else rng.choice((1, -1, 2, -2))
            rows[i][j] = x
            rows[j][i] = -x if convention == "skew" else x
    return LinkingMatrix(n, tuple(map(tuple, rows)), convention)


# 1/0, negative u and negative v, and larger torsion slopes
_SLOPES = ((1, 0), (1, 1), (-1, 1), (1, -1), (2, 1), (-3, 2),
           (3, -2), (1, 2), (5, 1), (-4, 3))


def test_h1_presentation_matches_reference():
    """h1_presentation's invariants, read from the meridian block, equal
    those of reference_snf on the whole presentation, built with two
    different longitude pairs (p, q) per slope."""
    rng = random.Random(10)
    torsion_cases = rank_cases = 0
    for convention in ("skew", "symmetric"):
        for n in range(1, 13):
            k = _random_linking(rng, n, convention)
            for nf in range(n + 1):
                fills = []
                for _ in range(nf):
                    # 0/1 fillings of weakly linked components leave
                    # free rank beyond the unfilled components
                    u, v = (0, 1) if rng.random() < 0.3 else \
                        rng.choice(_SLOPES)
                    fills.append(Filling(u, v))
                bound, torsion = h1_presentation(k, fills)
                for turns in (0, 1):
                    pres = reference_h1_presentation(k, fills, turns)
                    assert (pres.rows, pres.cols) == (n + nf, 2 * nf)
                    _, d, _ = reference_snf(pres)
                    diag = [d.entries[i][i]
                            for i in range(min(d.rows, d.cols))]
                    assert bound == pres.rows - sum(1 for x in diag if x)
                    assert torsion == tuple(x for x in diag if x > 1)
                torsion_cases += torsion != ()
                rank_cases += bound > n - nf
    assert torsion_cases >= 20
    assert rank_cases >= 20
