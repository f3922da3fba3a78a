"""Dense complex/real matrix kernel.

Everything in here operates on plain numpy arrays.  Complex matrices are
``complex128``, real ones ``float64``.  The two code-specific operators are

* ``realify``   -- replace every complex entry x by the 2x2 block
                   [[Re x, -Im x], [Im x, Re x]]; a ring homomorphism from
                   n x m complex matrices into 2n x 2m real matrices.
* ``tilde_vec`` -- interleave real/imaginary parts of a complex vector,
                   [x1, x2, ...] -> [Re x1, Im x1, Re x2, Im x2, ...].

They satisfy tilde_vec(X @ s) == realify(X) @ tilde_vec(s), which is what
turns a complex transmission model into an equivalent real one.
"""

from __future__ import annotations

import re
from numbers import Integral

import numpy as np

from .errors import RankDeficientError

__all__ = [
    "realify",
    "tilde_vec",
    "vec",
    "gram_schmidt_qr",
    "matrix_to_text",
    "matrix_from_text",
    "real_matrix_from_text",
]

#: relative rank tolerance of gram_schmidt_qr and the capacity estimators
DEFAULT_RANK_TOL = 1e-10

#: the one tolerance of every exact algebraic check, ``STBCDesign.structure``
#: included: a residual above it fails
CERT_TOL = 1e-12


def _require_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_snr(snr, positive: bool = False) -> np.ndarray:
    """``snr`` as a 0-d float array, refused unless it is one value,
    finite and >= 0, or > 0 with ``positive``."""
    snr = np.asarray(snr, dtype=float)
    if snr.ndim or not np.isfinite(snr) or not (snr > 0 if positive else snr >= 0):
        raise ValueError(f"snr must be finite and {'>' if positive else '>='} 0, one value, got {snr}")
    return snr


def _require_count(count, name: str) -> None:
    """Refuse a count (trials, antennas, seeds) that is not an integer >= 1;
    a bool is not a count."""
    if isinstance(count, bool) or not isinstance(count, Integral):
        raise ValueError(f"{name} must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")


def kron_power(a: np.ndarray, m: int) -> np.ndarray:
    """m-fold Kronecker power of ``a``; m = 0 gives the 1x1 identity."""
    out = np.eye(1, dtype=np.asarray(a).dtype)
    for _ in range(m):
        out = np.kron(out, a)
    return out


def realify(x: np.ndarray) -> np.ndarray:
    """Expand an n x m complex matrix to 2n x 2m real, entrywise
    x -> [[Re x, -Im x], [Im x, Re x]].
    """
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    n, m = x.shape
    out = np.empty((2 * n, 2 * m))
    out[0::2, 0::2] = x.real
    out[0::2, 1::2] = -x.imag
    out[1::2, 0::2] = x.imag
    out[1::2, 1::2] = x.real
    return out


def tilde_vec(x: np.ndarray) -> np.ndarray:
    """Interleave real and imaginary parts of a complex vector."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    out = np.empty(2 * x.size)
    out[0::2] = x.real
    out[1::2] = x.imag
    return out


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(x).reshape(-1, order="F")


def _lex_digits(idx: np.ndarray, p: int, n: int) -> np.ndarray:
    """(n, len(idx)) base-p digits of idx, most significant first: the one
    lexicographic enumeration behind every exhaustive search."""
    return idx // p ** np.arange(n - 1, -1, -1)[:, None] % p


def gram_schmidt_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization by modified Gram-Schmidt, without pivoting.

    Returns (Q, R) with Q having orthonormal columns, R upper triangular
    with strictly positive diagonal, and A = Q R.  Column order is
    preserved: the zero structure of R reflects orthogonality among the
    *leading* columns of A, which is what the R-matrix analysis relies on.

    Raises RankDeficientError when a pivot column norm falls below
    ``DEFAULT_RANK_TOL * ||A||_F``.
    """
    a = np.array(a, dtype=float)
    _require_finite(a, "QR input")
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    m, n = a.shape
    scale = np.linalg.norm(a)
    if scale == 0.0:
        raise RankDeficientError("matrix is identically zero")
    thresh = DEFAULT_RANK_TOL * scale
    q = a.copy()
    r = np.zeros((n, n))
    for i in range(n):
        norm_i = np.linalg.norm(q[:, i])
        if norm_i <= thresh:
            raise RankDeficientError(
                f"column {i} has norm {norm_i:.3e} <= {thresh:.3e}; "
                "matrix is rank deficient at the given tolerance"
            )
        r[i, i] = norm_i
        q[:, i] /= norm_i
        if i + 1 < n:
            proj = q[:, i] @ q[:, i + 1 :]
            r[i, i + 1 :] = proj
            q[:, i + 1 :] -= np.outer(q[:, i], proj)
    return q, r


def pairwise_residual(
    left: np.ndarray, right: np.ndarray, sign: int = 1, adjoint: bool = False
) -> np.ndarray:
    """max |L_i R_j + sign R_j L_i| over all pairs of two n x n stacks, as
    a (p, q) array; with ``adjoint``, of L_i R_j^H + sign R_j L_i^H (the
    dispersion condition; n x T matrices allowed).  One left matrix at a
    time, so a step holds (q, n, n) products, never (p, q, n, n)."""
    left, right = np.asarray(left), np.asarray(right)
    right_h = right.conj().swapaxes(-1, -2) if adjoint else right
    out = np.empty((len(left), len(right)))
    for i, a in enumerate(left):
        resid = a @ right_h
        resid += sign * (right @ (a.conj().T if adjoint else a))
        out[i] = np.abs(resid).max(axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# plain-text (de)serialization: one row per line, entries "a+bi", '.' decimals
# ---------------------------------------------------------------------------

_ENTRY_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


def _format_entry(z: complex) -> str:
    z = complex(z)
    im = z.imag
    sign = "+" if (im >= 0 or np.isnan(im)) else "-"
    return f"{z.real!r}{sign}{abs(im)!r}i"


def _parse_entry(tok: str) -> complex:
    m = _ENTRY_RE.match(tok)
    if m is None:
        raise ValueError(f"cannot parse matrix entry {tok!r}")
    real = float(m.group("re"))
    imag = float(m.group("im")) if m.group("im") is not None else 0.0
    return complex(real, imag)


def matrix_to_text(a: np.ndarray) -> str:
    """Serialize a matrix: one row per line, complex entries as 'a+bi'."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return "\n".join(" ".join(_format_entry(z) for z in row) for row in a)


def matrix_from_text(text: str) -> np.ndarray:
    """Parse the output of :func:`matrix_to_text` (complex result).

    Bare real entries like ``0.5`` are accepted with zero imaginary part.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([_parse_entry(tok) for tok in line.split()])
    if not rows:
        raise ValueError("empty matrix text")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in matrix text")
    return np.array(rows, dtype=complex)


def real_matrix_from_text(text: str) -> np.ndarray:
    """Parse a plain-text matrix that must be purely real."""
    a = matrix_from_text(text)
    if np.any(a.imag != 0.0):
        raise ValueError("expected a real matrix, found nonzero imaginary parts")
    return a.real.copy()
