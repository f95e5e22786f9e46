"""Exact linear algebra for Dehn-filling homology computations.

Everything here is exact, with no floats.  Eliminations run on
arbitrary-precision integer rows; Fractions carry the rational data
around them (filling ratios, kernel vectors, solutions).  Linking
matrices carry their symmetry convention as data and are validated
against it: the skew convention is the default and the one dehn-fill
builds; the classical symmetric one is allowed.  No report carries the
convention.  The double-indexed meridian rows in the source sub-lemma
are read as u_i*alpha_i + v_i*sum_j k_ij*alpha_j.
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


def _smith(d, ncols, u, vt):
    """Smith elimination of the integer rows d (ncols columns), in place.

    Once done, d is diagonal, nonnegative, each entry dividing the next.
    Each row operation d <- E d is mirrored as u <- u E^-1, and each column
    operation d <- d F as vt <- vt F^-T; both act on columns, and u d vt^T
    stays the product it started as.  Empty u and vt track nothing.
    """
    m, n = len(d), ncols
    t = 0
    while t < min(m, n):
        # pivot on the first smallest nonzero entry in row-major order;
        # nothing is smaller than 1, so the scan stops at the first unit
        least = 0
        for r in range(t, m):
            row = d[r]
            for c in range(t, n):
                x = abs(row[c])
                if x and (not least or x < least):
                    least, pr, pc = x, r, c
                    if x == 1:
                        break
            if least == 1:
                break
        if not least:
            break
        d[t], d[pr] = d[pr], d[t]
        for row in u:
            row[t], row[pr] = row[pr], row[t]
        for row in d + vt:
            row[t], row[pc] = row[pc], row[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            for row in u:
                row[t] = -row[t]
        dirty = False
        for r in range(t + 1, m):
            if d[r][t] != 0:
                q = d[r][t] // d[t][t]
                d[r] = [x - q * y for x, y in zip(d[r], d[t])]
                for row in u:
                    row[t] += q * row[r]
                dirty = dirty or d[r][t] != 0
        for c in range(t + 1, n):
            if d[t][c] != 0:
                q = d[t][c] // d[t][t]
                for row in d:
                    row[c] -= q * row[t]
                for row in vt:
                    row[t] += q * row[c]
                dirty = dirty or d[t][c] != 0
        if dirty:
            continue  # remainders became new, smaller pivot candidates
        # pivot must divide the rest of the submatrix for the chain
        stuck = False
        for r in range(t + 1, m):
            for c in range(t + 1, n):
                if d[r][c] % d[t][t] != 0:
                    d[t] = [x + y for x, y in zip(d[t], d[r])]
                    for row in u:
                        row[r] -= row[t]
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        t += 1


def snf(a: IntMatrix):
    """Smith normal form: returns (U, D, V) with A = U @ D @ V, U and V
    unimodular, D diagonal with each entry dividing the next.

    _smith takes D from A, starting from identities for U and V^T, and
    keeps a = u d v exact throughout.
    """
    m, n = a.rows, a.cols
    d = [list(r) for r in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    vt = [[int(i == j) for j in range(n)] for i in range(n)]
    _smith(d, n, u, vt)
    return (IntMatrix.from_rows(u), IntMatrix(m, n, tuple(map(tuple, d))),
            IntMatrix.from_rows(zip(*vt)))


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

    def row(self, i):
        return self.entries[i]


@dataclass(frozen=True)
class Filling:
    """The slope u/v of a Dehn filling.  The longitude's image (p, q),
    with p*v + q*u = 1, is not stored: no invariant here depends on it
    (see h1_presentation)."""
    u: int
    v: int

    def __post_init__(self):
        g = gcd(self.u, self.v)
        if g != 1:
            raise ValueError(f"slope {self.u}/{self.v} is not primitive "
                             f"(gcd {g})")

    def ratio(self):
        if self.v == 0:
            return None
        return Fraction(self.u, self.v)


@dataclass(frozen=True)
class FillingMatrix:
    rows: tuple          # tuples of Fractions, one per filled component
    filled: tuple        # indices (0-based) of the filled components
    unreduced: tuple     # indices of rows left in u_i*e_i form (v_i = 0)


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
    return FillingMatrix(tuple(rows), tuple(filled), tuple(unreduced))


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector with its
    first nonzero entry positive."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def filling_nullity_certificate(rows):
    """Left-kernel basis of the filling matrix rows B: (nullity, primitive
    integer vectors alpha with alpha . B = 0)."""
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


def wishful_fillings(k_block, t) -> WishfulFillings:
    """Fillings u_i/v_i = sum_j k_ij tau_j / tau_i for tau = (1, t, t^2, ...).

    Rows of the block are the components being filled; the growth vector
    runs over all columns.  Demands every filled row be nonzero (for a
    skew square block that equals the nonzero-column hypothesis) and
    rejects the run if a ratio still cancels to zero.
    """
    rows = [list(r) for r in k_block]
    nrows = len(rows)
    if not rows:
        raise ValueError("empty block")
    ncols = len(rows[0])
    for i in range(nrows):
        if all(x == 0 for x in rows[i]):
            raise ValueError(f"row {i} of the block is zero; "
                             "hypothesis violated")
    ft = Fraction(t)
    raw = [ft ** i for i in range(ncols)]
    denom = lcm(*(x.denominator for x in raw))
    tau = tuple(int(x * denom) for x in raw)
    ratios = []
    fillings = []
    for i in range(nrows):
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
    """Free-rank lower bound and torsion of the filled manifold's first
    homology, as (rank_bound, torsion).  fillings is read per component,
    as filling_matrix reads it: None, or an omitted trailing entry, leaves
    a component unfilled.

    Filling torus i glues in two relations, in the basis (alpha_1..alpha_n,
    e_1..e_nf):
      lambda_i -> p_i*alpha_i + q_i*sum_j k_ij*alpha_j + e_i
      mu_i     -> u_i*alpha_i + v_i*sum_j k_ij*alpha_j
    e_i occurs only in lambda_i, with coefficient 1, so row operations
    against e_i's row clear the rest of lambda_i's column: each lambda_i
    splits off a unit factor, and (p_i, q_i) never reach an invariant.
    What is left is the n x nf meridian block, one column per filled
    component i: M[j][i] = v_i*k_ij + [i == j]*u_i.  Smith forms are
    unique, so the free rank is n minus M's nonzero diagonal entries and
    the torsion is M's entries above 1.
    """
    n = k.n
    if len(fillings) > n:
        raise ValueError("more fillings than components")
    filled = [(i, f) for i, f in enumerate(fillings) if f is not None]
    nf = len(filled)
    meridians = [[f.v * k.entries[i][j] + (f.u if i == j else 0)
                  for i, f in filled] for j in range(n)]
    _smith(meridians, nf, [], [])
    diag = [meridians[i][i] for i in range(nf)]
    rank_bound = n - sum(1 for x in diag if x != 0)
    torsion = tuple(x for x in diag if x > 1)
    return (rank_bound, torsion)


def kernel_rank(rank_bound: int, unfilled: int) -> int:
    """Lower bound for the rank of the kernel of restriction to the
    boundary in second cohomology: H_1 free rank bound minus the count
    of surviving boundary tori, floored at zero."""
    return max(0, rank_bound - unfilled)
