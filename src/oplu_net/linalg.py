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


def expm(s: np.ndarray, taylor_terms: int = 20) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    The input is halved until its 1-norm is at most 0.5, the exponential of
    the scaled matrix is evaluated with a Horner-form truncated Taylor
    series, and the result is squared back up. With the default 20 terms
    the truncation error at norm 0.5 is below 1e-26, so accuracy is set by
    rounding in the squarings.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"expm expects a square matrix, got {s.shape}")
    n = s.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    norm1 = float(np.abs(s).sum(axis=0).max())
    squarings = 0
    if norm1 > 0.5:
        squarings = int(math.ceil(math.log2(norm1 / 0.5)))
    x = s / (2.0 ** squarings)
    eye = np.eye(n)
    result = eye.copy()
    for k in range(taylor_terms, 0, -1):
        result = eye + (x @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


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


def random_orthogonal(n: int, rng: Rng, scale: float = DEFAULT_SKEW_SCALE) -> np.ndarray:
    """Random special orthogonal matrix: expm of a random skew-symmetric matrix."""
    return expm(random_skew_symmetric(n, scale, rng))


def random_orthogonal_rect(rows: int, cols: int, rng: Rng, scale: float = DEFAULT_SKEW_SCALE) -> np.ndarray:
    """Leading rows x cols block of a random square orthogonal matrix.

    The shorter side ends up orthonormal: columns for tall outputs, rows
    for wide ones.
    """
    q = random_orthogonal(max(rows, cols), rng, scale)
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
