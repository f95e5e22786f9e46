"""Exact linear algebra for Dehn-filling homology computations.

Everything here is exact, with no floats.  Eliminations run on
arbitrary-precision integer rows; Fractions carry the rational data
around them (filling ratios, kernel vectors, solutions).  Linking
matrices carry their symmetry convention as data: the skew convention
is the default, the classical symmetric one is allowed, both are
validated and reported.  The double-indexed meridian rows in
the source sub-lemma are read as u_i*alpha_i + v_i*sum_j k_ij*alpha_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n))
                               for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum(self.entries[i][k] * other.entries[k][j]
                               for k in range(self.cols)))
            out.append(tuple(row))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def det(self) -> int:
        """Bareiss fraction-free determinant; square matrices only."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for r in range(k + 1, n):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def snf(a: IntMatrix):
    """Smith normal form: returns (U, D, V) with A = U @ D @ V, U and V
    unimodular, D diagonal with each entry dividing the next."""
    m, n = a.rows, a.cols
    d = [list(r) for r in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    # every elementary operation on d is mirrored by the INVERSE
    # operation on u or v, keeping a = u d v exact throughout
    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for r in range(m):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def row_addmul(i, j, c):  # row i += c * row j
        for s in range(n):
            d[i][s] += c * d[j][s]
        for r in range(m):
            u[r][j] -= c * u[r][i]

    def row_negate(i):
        for s in range(n):
            d[i][s] = -d[i][s]
        for r in range(m):
            u[r][i] = -u[r][i]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        v[i], v[j] = v[j], v[i]

    def col_addmul(j, i, c):  # col j += c * col i
        for r in range(m):
            d[r][j] += c * d[r][i]
        for s in range(n):
            v[i][s] -= c * v[j][s]

    t = 0
    while t < min(m, n):
        # locate the smallest nonzero entry and pivot on it
        pivot = None
        for r in range(t, m):
            for c in range(t, n):
                if d[r][c] != 0 and (pivot is None
                                     or abs(d[r][c]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (r, c)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        if d[t][t] < 0:
            row_negate(t)
        dirty = False
        for r in range(t + 1, m):
            if d[r][t] != 0:
                q = d[r][t] // d[t][t]
                row_addmul(r, t, -q)
                dirty = dirty or d[r][t] != 0
        for c in range(t + 1, n):
            if d[t][c] != 0:
                q = d[t][c] // d[t][t]
                col_addmul(c, t, -q)
                dirty = dirty or d[t][c] != 0
        if dirty:
            continue  # remainders became new, smaller pivot candidates
        # pivot must divide the rest of the submatrix for the chain
        stuck = False
        for r in range(t + 1, m):
            for c in range(t + 1, n):
                if d[r][c] % d[t][t] != 0:
                    row_addmul(t, r, 1)
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        t += 1
    return (IntMatrix.from_rows(u), IntMatrix.from_rows(d),
            IntMatrix.from_rows(v))


def _rref(rows):
    """Reduced row echelon form of rows of ints and Fractions; returns
    (matrix, pivot cols), the matrix as Fractions.

    The elimination runs on integer rows: each row is cleared of its
    denominators, an update scales both rows by cofactors of their gcd,
    and every updated row is divided by its content.  Pivots are divided
    out once per row at the end.  The reduced row echelon form is unique,
    so this is the same matrix a Fraction elimination gives.
    """
    mat = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        mat.append([x.numerator * (den // x.denominator) for x in r])
    pivots = []
    lead = 0
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        sel = None
        for r in range(lead, nrows):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[lead], mat[sel] = mat[sel], mat[lead]
        prow = mat[lead]
        p = prow[col]
        for r in range(nrows):
            f = mat[r][col]
            if r != lead and f != 0:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(mat[r], prow)]
                c = gcd(*row)
                if c > 1:
                    row = [x // c for x in row]
                mat[r] = row
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    for r, col in enumerate(pivots):
        p = mat[r][col]
        mat[r] = [Fraction(x, p) for x in mat[r]]
    for r in range(len(pivots), nrows):
        mat[r] = [Fraction(0)] * ncols
    return mat, pivots


def rank_nullity(rows):
    """Exact rank of a set of rational row vectors, and its nullity
    (row count minus rank)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return (0, 0)
    _, pivots = _rref(rows)
    return (len(pivots), len(rows) - len(pivots))


@dataclass(frozen=True)
class LinkingMatrix:
    n: int
    entries: tuple
    convention: str = "skew"

    def __post_init__(self):
        if self.convention not in ("skew", "symmetric"):
            raise ValueError("convention must be 'skew' or 'symmetric'")
        if len(self.entries) != self.n or any(len(r) != self.n
                                              for r in self.entries):
            raise ValueError("linking matrix must be n x n")
        for i in range(self.n):
            if self.entries[i][i] != 0:
                raise ValueError("linking matrix diagonal must vanish")
            for j in range(self.n):
                want = -self.entries[j][i] if self.convention == "skew" \
                    else self.entries[j][i]
                if self.entries[i][j] != want:
                    raise ValueError(f"{self.convention} symmetry violated "
                                     f"at ({i},{j})")

    @classmethod
    def from_rows(cls, rows, convention="skew"):
        return cls(len(rows), tuple(tuple(int(x) for x in r) for r in rows),
                   convention)

    def row(self, i):
        return self.entries[i]


@dataclass(frozen=True)
class Filling:
    u: int
    v: int
    p: int = None
    q: int = None

    def __post_init__(self):
        if gcd(self.u, self.v) != 1:
            raise ValueError(f"({self.u},{self.v}) is not coprime")
        if (self.p is None) != (self.q is None):
            raise ValueError("p and q come together")
        if self.p is not None and self.p * self.v + self.q * self.u != 1:
            raise ValueError("need p*v + q*u = 1")

    def ratio(self):
        if self.v == 0:
            return None
        return Fraction(self.u, self.v)


@dataclass(frozen=True)
class FillingMatrix:
    rows: tuple          # tuples of Fractions, one per filled component
    filled: tuple        # indices (0-based) of the filled components
    unreduced: tuple     # indices of rows left in u_i*e_i form (v_i = 0)
    n: int


def filling_matrix(k: LinkingMatrix, fillings) -> FillingMatrix:
    """Rows (u_i/v_i)*alpha_i + sum_j k_ij*alpha_j for the filled
    components; a v_i = 0 filling keeps its unreduced integer row
    u_i*e_i and is flagged."""
    if len(fillings) > k.n:
        raise ValueError("more fillings than components")
    rows = []
    filled = []
    unreduced = []
    for i, f in enumerate(fillings):
        if f is None:
            continue
        filled.append(i)
        if f.v == 0:
            row = [Fraction(0)] * k.n
            row[i] = Fraction(f.u)
            unreduced.append(len(rows))
        else:
            row = [Fraction(x) for x in k.row(i)]
            row[i] = Fraction(f.u, f.v)
        rows.append(tuple(row))
    return FillingMatrix(tuple(rows), tuple(filled), tuple(unreduced), k.n)


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector with its
    first nonzero entry positive."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def filling_nullity_certificate(b):
    """Left-kernel basis of the filling matrix: (nullity, primitive
    integer vectors alpha with alpha . B = 0)."""
    rows = b.rows if isinstance(b, FillingMatrix) else tuple(b)
    if not rows:
        return (0, ())
    ncols = len(rows[0])
    nrows = len(rows)
    # alpha . B = 0  <=>  B^T alpha^T = 0
    transpose = [[Fraction(rows[r][c]) for r in range(nrows)]
                 for c in range(ncols)]
    mat, pivots = _rref(transpose)
    free = [c for c in range(nrows) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * nrows
        vec[f] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][f]
        basis.append(_primitive(vec))
    return (len(free), tuple(basis))


@dataclass(frozen=True)
class WishfulFillings:
    ratios: tuple        # Fractions u_i/v_i
    tau: tuple           # integer-cleared growth vector
    fillings: tuple      # reduced Filling pairs
    min_norm: int        # min over i of u_i^2 + v_i^2


def wishful_fillings(k_block, t, count=None) -> WishfulFillings:
    """Fillings u_i/v_i = sum_j k_ij tau_j / tau_i for tau = (1, t, t^2, ...).

    Rows of the block are the components being filled; the growth vector
    runs over all columns.  Demands every filled row be nonzero (for a
    skew square block that equals the nonzero-column hypothesis) and
    rejects the run if a ratio still cancels to zero.
    """
    rows = [list(r) for r in k_block]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if count is None:
        count = nrows
    if not 1 <= count <= nrows:
        raise ValueError("count out of range")
    for i in range(count):
        if all(x == 0 for x in rows[i]):
            raise ValueError(f"row {i} of the block is zero; "
                             "hypothesis violated")
    ft = Fraction(t)
    raw = [ft ** i for i in range(ncols)]
    denom = 1
    for x in raw:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    tau = tuple(int(x * denom) for x in raw)
    ratios = []
    fillings = []
    for i in range(count):
        num = sum(rows[i][j] * tau[j] for j in range(ncols))
        if num == 0:
            raise ValueError(f"ratio {i} cancels to zero; pick another t")
        r = Fraction(num, tau[i])
        ratios.append(r)
        fillings.append(Filling(r.numerator, r.denominator))
    min_norm = min(f.u * f.u + f.v * f.v for f in fillings)
    return WishfulFillings(tuple(ratios), tau, tuple(fillings), min_norm)


@dataclass(frozen=True)
class SurgeryResult:
    alpha: tuple         # Fractions, the dependency covector
    fillings: tuple      # Filling per column 1..n-1
    basis_columns: tuple  # 0-based indices j_1..j_{r-1} (last column excluded)
    nullity: int


def surgery_solve(a_rows, requested=()) -> SurgeryResult:
    """Choose fillings making the bordered matrix's rows dependent.

    a_rows: the first n-1 rows of a linking block (n columns, zero
    diagonal).  requested: up to r-1 integers, the exact values of
    -alpha . x_{j_i} for the non-final basis columns; missing entries
    default to 1.  Returns the covector alpha, one filling per row, and
    the certified nullity of the resulting bordered matrix.
    """
    rows = [list(r) for r in a_rows]
    nr = len(rows)
    if nr == 0:
        raise ValueError("need at least one row")
    nc = len(rows[0])
    if nr != nc - 1:
        raise ValueError(f"need the first n-1 rows of an n-column block, "
                         f"got {nr} rows and {nc} columns")
    for i in range(nr):
        if rows[i][i] != 0:
            # the filling cancellation below leans on the zero diagonal
            raise ValueError(f"diagonal entry ({i},{i}) must be zero")
    cols = [[Fraction(rows[r][c]) for r in range(nr)] for c in range(nc)]
    last = cols[-1]
    if all(x == 0 for x in last):
        raise ValueError("last column vanishes; it cannot join the basis")
    # greedy basis: last column first, then leftmost independent columns;
    # these are the pivot columns of the matrix with the last column moved
    # to the front
    front = [nc - 1] + list(range(nc - 1))
    _, pivots = _rref([[cols[c][i] for c in front] for i in range(nr)])
    basis_idx = [front[p] for p in pivots]
    r = len(basis_idx)
    if len(requested) > r - 1:
        raise ValueError(f"column rank {r} allows only {r - 1} "
                         "independent requests")
    want = list(requested) + [1] * (r - 1 - len(requested))
    free_cols = basis_idx[1:]

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    if r >= 2:
        # alpha = sum lam_b * x_b solved from the Gram system:
        # alpha . x_{j_i} = -want_i and alpha . x_n = 0
        order = free_cols + [nc - 1]
        gram = [[dot(cols[b], cols[c]) for b in order] for c in order]
        rhs = [Fraction(-w) for w in want] + [Fraction(0)]
        lam = _solve_exact(gram, rhs)
        alpha = [Fraction(0)] * nr
        for l, b in zip(lam, order):
            for i in range(nr):
                alpha[i] += l * cols[b][i]
    else:
        # no degrees of freedom: any nonzero covector orthogonal to the
        # last column; take the first kernel basis vector
        nullity, basis = filling_nullity_certificate(
            [(last[i],) for i in range(nr)])
        if nullity == 0:
            raise ValueError("no nonzero covector kills the last column")
        alpha = [Fraction(x) for x in basis[0]]
    if not any(alpha):
        raise ValueError("all-zero requests give the zero covector")

    fillings = []
    for j in range(nc - 1):
        prod = dot(alpha, cols[j])
        if alpha[j] != 0:
            ratio = Fraction(-prod, alpha[j])
            fillings.append(Filling(ratio.numerator, ratio.denominator))
        elif prod == 0:
            fillings.append(Filling(1, 1))  # unconstrained column
        else:
            raise ValueError(f"column {j} is infeasible for this covector; "
                             "rank deficiency")
    bordered = []
    for i in range(nr):
        row = [Fraction(x) for x in rows[i]]
        row[i] = fillings[i].ratio()
        bordered.append(tuple(row))
    nullity, _ = filling_nullity_certificate(bordered)
    if nullity < 1:
        raise AssertionError("construction failed to produce dependency")
    return SurgeryResult(tuple(alpha), tuple(fillings), tuple(free_cols),
                         nullity)


def _solve_exact(mat, rhs):
    """Solve a square rational system by elimination; singular -> error."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
           for i, row in enumerate(mat)]
    reduced, pivots = _rref(aug)
    if len(pivots) < n or n in pivots:
        raise ValueError("singular system")
    sol = [Fraction(0)] * n
    for prow, pcol in enumerate(pivots):
        sol[pcol] = reduced[prow][n]
    return sol


def h1_presentation(k: LinkingMatrix, fillings):
    """Integer presentation of the filled manifold's first homology.

    Rows of the gluing map: for each filled torus i,
      lambda_i -> p_i*alpha_i + q_i*sum_j k_ij*alpha_j + e_i
      mu_i     -> u_i*alpha_i + v_i*sum_j k_ij*alpha_j
    in the basis (alpha_1..alpha_n, e_1..e_{n-m}).  Returns the
    presentation matrix (columns are relations), the free-rank lower
    bound for H_1 of the filled manifold, and its diagonal torsion.
    """
    n = k.n
    nf = len(fillings)
    m = n - nf
    if m < 0:
        raise ValueError("more fillings than components")
    rows = []
    for i, f in enumerate(fillings):
        if f is None or f.p is None:
            raise ValueError(f"filling {i} needs its (p,q) pair")
        lam = [0] * (n + nf)
        mu = [0] * (n + nf)
        for j in range(n):
            lam[j] = f.q * k.entries[i][j]
            mu[j] = f.v * k.entries[i][j]
        lam[i] += f.p
        mu[i] += f.u
        lam[n + i] = 1
        rows.append(tuple(lam))
        rows.append(tuple(mu))
    cols = n + nf  # = 2n - m
    if rows:
        pres = IntMatrix.from_rows(rows)
        # relations become columns of the presentation
        pres = IntMatrix(cols, len(rows),
                         tuple(tuple(pres.entries[r][c] for r in range(len(rows)))
                               for c in range(cols)))
    else:
        pres = IntMatrix(cols, 0, tuple(() for _ in range(cols)))
    _, d, _ = snf(pres)
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    nonzero = sum(1 for x in diag if x != 0)
    rank_bound = cols - nonzero
    torsion = tuple(x for x in diag if x > 1)
    # cross-check against the meridian-row nullity identity
    cert_nullity, _ = filling_nullity_certificate(filling_matrix(k, fillings))
    if rank_bound - m != cert_nullity:
        raise AssertionError("rank identity violated; inconsistent input?")
    return (pres, rank_bound, torsion)


def kernel_rank(rank_bound: int, unfilled: int) -> int:
    """Lower bound for the rank of the kernel of restriction to the
    boundary in second cohomology: H_1 free rank bound minus the count
    of surviving boundary tori, floored at zero."""
    return max(0, rank_bound - unfilled)


def kernel_rank_report(k: LinkingMatrix, fillings) -> int:
    """kernel_rank of the filled manifold, from its h1_presentation."""
    return kernel_rank(h1_presentation(k, fillings)[1], k.n - len(fillings))
