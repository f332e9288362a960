"""Dense float64 matrix and vector primitives plus weight initializers.

Matrices are row-major numpy float64 arrays of shape (rows, cols); vectors
are 1-D float64 arrays. Orthogonal matrices are generated as the matrix
exponential of random skew-symmetric matrices, which always lands in the
special orthogonal group.
"""

import math

import numpy as np

from .errors import ShapeError
from .rng import Rng

__all__ = [
    "Rng",
    "expm",
    "random_skew_symmetric",
    "random_orthogonal",
    "random_orthogonal_rect",
    "xavier_init",
    "l2_norm",
]

DEFAULT_SKEW_SCALE = math.pi

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


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm via exactly-rounded summation.

    math.fsum makes the sum of squares independent of element order, so
    permuting a vector never changes its norm, not even in the last bit.
    The squares come from one numpy pass: an IEEE product rounds the same
    in numpy as in Python, and a square that overflows is inf either way.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):
        squares = np.square(v)
    return math.sqrt(math.fsum(squares.tolist()))
