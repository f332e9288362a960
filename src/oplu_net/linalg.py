"""Dense float64 matrix and vector primitives plus weight initializers.

Matrices are row-major numpy float64 arrays of shape (rows, cols); vectors
are 1-D float64 arrays. Orthogonal matrices are generated as the matrix
exponential of random skew-symmetric matrices, which always lands in the
special orthogonal group. Both models draw their weights with init_weights.
"""

import math

import numpy as np

from .errors import ShapeError
from .rng import Rng

INIT_KINDS = ("xavier", "orthogonal")

DEFAULT_SKEW_SCALE = math.pi

# the unit roundoff of float64 and its least positive value, for l2_norms
_U = 2.0 ** -53
_TINY = 2.0 ** -1074

# expm's Taylor polynomial: degree 20, with the coefficients 1/k! grouped in
# threes for the Paterson-Stockmeyer evaluation in X^3
_TAYLOR_DEGREE = 20
_TAYLOR_COEFFS = [1 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1)]


def _norm1(a: np.ndarray) -> float:
    """Matrix 1-norm: the largest absolute column sum."""
    return float(np.abs(a).sum(axis=0).max())


def expm(s: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring around a degree-20 Taylor
    polynomial, in 8 + r products of order n for r squarings.

    Scaling. With d_k = ||S^k||_1^(1/k), every power k >= 2 is a product
    of squares and cubes, so ||S^k||_1 <= max(d_2, d_3)^k (Al-Mohy &
    Higham, "A new scaling and squaring algorithm for the matrix
    exponential", SIAM J. Matrix Anal. Appl. 31(3), 2009, Lemma 4.1 and
    Thm 4.2), and alpha = min(d_1, max(d_2, d_3)) bounds the growth of the
    series. r is the least count with alpha / 2^r <= 0.5. For a random
    skew matrix alpha is near the 2-norm, well below the 1-norm: at order
    784 and scale pi, 9 squarings where the 1-norm would ask for 12.

    Evaluation. T(X) = sum_{k<=20} X^k / k! of X = S / 2^r is evaluated by
    Paterson-Stockmeyer (Higham, "Functions of Matrices", SIAM 2008, §4.2):
    a Horner recurrence in X^3 whose coefficients are the blocks
    c_{3j} I + c_{3j+1} X + c_{3j+2} X^2, 6 products. X, X^2 and X^3 are S,
    S^2 and S^3 scaled by exact powers of two, so the two products formed
    for d_2 and d_3 are reused and the scaling rounds nothing. T(X) is then
    squared r times.

    Accuracy. By the same theorem the truncation error is
    ||exp(X) - T(X)||_1 <= sum_{k>20} (alpha / 2^r)^k / k! < 1e-26, so the
    accuracy is set by rounding in the products and squarings: the
    orthogonal initializer gives max |Q^T Q - I| of about 2e-14 at order
    784.

    Memory. Four order-n arrays besides the input: S^2, S^3 and two
    buffers that take turns as the product's output and as scratch for
    the c X^k terms.
    """
    # C order, so that reshape(-1)[:: n + 1] below is a view of the diagonal
    s = np.ascontiguousarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"expm expects a square matrix, got {s.shape}")
    n = s.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    s2 = s @ s
    s3 = s2 @ s
    alpha = min(_norm1(s), max(_norm1(s2) ** (1 / 2), _norm1(s3) ** (1 / 3)))
    squarings = 0
    if alpha > 0.5:
        # alpha = m 2^e with 0.5 <= m < 1: the least r with alpha <= 2^(r-1)
        m, e = math.frexp(alpha)
        squarings = e if m == 0.5 else e + 1
    x1 = 0.5 ** squarings  # X^k = x1^k S^k, exactly
    x2 = x1 * x1
    s3 *= x2 * x1  # X^3 from here on
    c = _TAYLOR_COEFFS
    top = _TAYLOR_DEGREE // 3  # the highest block holds c_18, c_19, c_20
    # Horner in X^3 over the blocks, highest block first
    p = np.multiply(s2, c[3 * top + 2] * x2)
    q = np.multiply(s, c[3 * top + 1] * x1)
    p += q
    p.reshape(-1)[:: n + 1] += c[3 * top]
    for j in range(top - 1, -1, -1):
        np.matmul(p, s3, out=q)
        q += np.multiply(s, c[3 * j + 1] * x1, out=p)
        q += np.multiply(s2, c[3 * j + 2] * x2, out=p)
        q.reshape(-1)[:: n + 1] += c[3 * j]
        p, q = q, p
    del s2, s3
    for _ in range(squarings):
        np.matmul(p, p, out=q)
        p, q = q, p
    return p


def random_skew_symmetric(n: int, scale: float, rng: Rng) -> np.ndarray:
    """Random S with S^T = -S exactly.

    The strict upper triangle is drawn i.i.d. uniform in [-scale, scale]
    in row-major order; the lower triangle mirrors it with flipped sign and
    the diagonal is zero.
    """
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    s = np.zeros((n, n))
    upper = np.triu_indices(n, k=1)
    s[upper] = rng.uniform_array(len(upper[0]), -scale, scale)
    return s - s.T


def random_orthogonal(n: int, rng: Rng) -> np.ndarray:
    """Random special orthogonal matrix: expm of a random skew-symmetric
    matrix with entries in [-DEFAULT_SKEW_SCALE, DEFAULT_SKEW_SCALE]."""
    return expm(random_skew_symmetric(n, DEFAULT_SKEW_SCALE, rng))


def random_orthogonal_rect(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Leading rows x cols block of a random square orthogonal matrix.

    The shorter side ends up orthonormal: columns for tall outputs, rows
    for wide ones.
    """
    q = random_orthogonal(max(rows, cols), rng)
    return np.ascontiguousarray(q[:rows, :cols])


def xavier_init(fan_in: int, fan_out: int, rng: Rng) -> np.ndarray:
    """Uniform Glorot fill: entries i.i.d. in [-L, L], L = sqrt(6/(fan_in+fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform_array(fan_in * fan_out, -limit, limit).reshape(fan_in, fan_out)


def init_weights(init: str, rows: int, cols: int, rng: Rng) -> np.ndarray:
    """A fresh (rows, cols) weight matrix of an INIT_KINDS kind: "xavier"
    the Glorot fill, "orthogonal" the leading block of a random square
    orthogonal matrix (a square one is exactly random_orthogonal's)."""
    if init == "xavier":
        return xavier_init(rows, cols, rng)
    if init == "orthogonal":
        return random_orthogonal_rect(rows, cols, rng)
    raise ValueError(f"unknown init {init!r}")


def l2_norms(rows) -> list:
    """Euclidean norm of every row of `rows`: the square root of the exactly
    rounded sum of its squares, the sum math.fsum gives.

    A row is a vector along the last axis, of one array or of each array
    of a list in turn; a 0-d array is one row of one entry. An exactly
    rounded sum does not depend on the order of its terms, so permuting a
    vector never changes its norm, not even in the last bit.
    """
    norms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for b in ([rows] if isinstance(rows, np.ndarray) else rows):
            b = np.asarray(b, dtype=np.float64)
            width = b.shape[-1] if b.ndim else 1
            norms += _block_norms(b.reshape(math.prod(b.shape[:-1]), width))
    return norms


def _block_norms(x: np.ndarray) -> list:
    """The norm of every row of the (count, width) block x, in a few numpy
    passes over the block; a row the passes cannot certify takes
    _fallback_norm.

    Extraction (Rump, Ogita & Oishi, "Accurate floating-point summation
    part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008). Let p be
    a row's squares, n its width, S their exact sum, u = 2^-53 and
    gamma_k = k u / (1 - k u). Their float sum s, in any order, is within
    gamma_(n-1) S of S, so sigma, the second power of two above s, is at
    least S and at most 4.1 S. Each q = (sigma + p) - sigma is p rounded to
    a multiple of g, the spacing of the doubles in [sigma, 2 sigma) (2u
    sigma, or 2^-1074 below the normal range), and p - q is exact and at
    most g/2 <= u sigma. The q add up to at most S + n u sigma < 2 sigma,
    and every multiple of g below 2 sigma is a double, so `high`, their sum
    in any order, is exact. `low`, the float sum of the remainders in any
    order, is within gamma_(n-1) n u sigma <= 1.01 n^2 u^2 sigma of theirs
    (n u < 0.0099: any width that fits in memory). So S = high + low + e
    with |e| <= 1.01 n^2 u^2 sigma.

    Certificate. r = fl(high + low), and Knuth's TwoSum gives
    d = high + low - r exactly. S rounds to r if S - r = d + e lies
    strictly inside (-g_down/2, g_up/2), g_up and g_down the gaps from r to
    the next double up and down (at a power of two, g_down is half g_up).
    A row passes if g_up - 2d and g_down + 2d both exceed
    slack = 4 n^2 u^2 sigma + 2^-1074: that is over 2|e| even after these
    float subtractions round, and the 2^-1074 covers slack's underflow. A
    row of zeros (s = 0) passes too. A passing row's norm is sqrt(r), which
    numpy rounds correctly, as math.sqrt does.

    Every other row takes the fallback: an interval that reaches a rounding
    boundary, such as a sum on or within slack of a midpoint between two
    doubles, where the tie rule decides; and a NaN or inf square, or a sum
    so near the top of the range that s, sigma or sigma + p overflows,
    which makes d NaN and fails both comparisons. At width 100 slack is
    below 2e-11 of r's gap, so a row of ordinary data almost never falls
    back; exact ties are common in rows of a few entries.
    """
    n = x.shape[1]
    p = np.square(x)
    s = p.sum(axis=1)
    sigma = np.ldexp(1.0, np.frexp(s)[1] + 1)
    q = p + sigma[:, None]
    q -= sigma[:, None]
    high = q.sum(axis=1)
    np.subtract(p, q, out=q)
    low = q.sum(axis=1)
    r = high + low
    b = r - high
    d2 = 2 * ((high - (r - b)) + (low - b))
    slack = sigma * (4.0 * n * n * _U * _U) + _TINY
    ok = (np.nextafter(r, math.inf) - r - d2 > slack) & (r - np.nextafter(r, 0.0) + d2 > slack)
    ok |= s == 0
    norms = np.sqrt(r).tolist()
    for i in np.flatnonzero(~ok):
        norms[i] = _fallback_norm(x[i])
    return norms


def _fallback_norm(row: np.ndarray) -> float:
    """math.sqrt(math.fsum(row ** 2)). A finite row whose squares or their
    sum overflow is first scaled by 2^-e, 2^e the power of two above its
    largest magnitude, so its norm is inf only when the norm itself is
    beyond the float range; a row with an inf entry gives inf, and one with
    a NaN entry NaN."""
    try:
        total = math.fsum(memoryview(np.square(row)))
    except OverflowError:
        total = math.inf
    if total < math.inf:
        return math.sqrt(total)
    big = float(np.max(np.abs(row)))
    if not big < math.inf:
        return big
    e = math.frexp(big)[1]
    return float(np.ldexp(math.sqrt(math.fsum(memoryview(np.square(np.ldexp(row, -e))))), e))


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of v, flattened, as l2_norms gives it."""
    return l2_norms(np.ravel(v))[0]
