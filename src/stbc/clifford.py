"""Anticommuting generator matrices for n = 2^a antennas.

The construction produces 2a pairwise anticommuting, anti-Hermitian,
unitary n x n matrices out of Kronecker products of three 2x2 seed
blocks (a 90-degree rotation, an imaginary swap and a diagonal sign).
All entries live in {0, +-1, +-j}, so products and signs can be tracked
exactly: a product of generators is represented as a scalar from
{1, -1, j, -j} times an ascending index list, and multiplication of two
such products is pure integer bookkeeping (each transposition of
distinct generators flips the sign, each squared generator contributes
-1).  The floating point matrices are kept alongside for numeric work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BadIndexOrderError, UnsupportedSizeError
from .linalg import kron_power, pairwise_residual
from .reports import Report

__all__ = [
    "CliffordSet",
    "SignedProduct",
    "build_generators",
    "subset_square_sign",
    "products_commute",
    "product_of",
    "power_set_products",
    "verify_traceless",
    "verify_generators",
]

# 2x2 seed blocks.  ROT90 and IMSWAP square to -I, DIAGSIGN to +I; they
# pairwise anticommute and ROT90 @ IMSWAP == 1j * DIAGSIGN.
ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
IMSWAP = np.array([[0.0, 1.0j], [1.0j, 0.0]], dtype=complex)
DIAGSIGN = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: largest supported exponent (n = 2^a, so up to 32 antennas)
MAX_A = 5


@dataclass(frozen=True)
class CliffordSet:
    """The ordered anticommuting generators for n = 2^a.

    ``generators[i]`` is the (i+1)-th generator; there are 2a of them.
    For a = 1 the list is augmented with a third matrix (the imaginary
    swap block) so that three pairwise anticommuting matrices are always
    available; it equals the exact product of the first two generators,
    and the index pair (1, 2) is used for it wherever exact sign
    bookkeeping is required.
    """

    a: int
    n: int
    sign: int
    generators: tuple[np.ndarray, ...]

    @property
    def n_generators(self) -> int:
        """Number of generators honouring the pairwise rules (2a)."""
        return 2 * self.a

    def generator(self, index: int) -> np.ndarray:
        """1-based access, matching the index sets of SignedProduct."""
        if not 1 <= index <= len(self.generators):
            raise BadIndexOrderError(f"generator index {index} out of range")
        return self.generators[index - 1]


@dataclass(frozen=True)
class SignedProduct:
    """scalar * G_{i1} G_{i2} ... G_{is} with ascending 1-based indices.

    ``scalar`` is one of 1, -1, j, -j (exact) for the generator products,
    and any unit-modulus number for a layer of a full-rate extension.
    ``matrix`` is the dense value; for products of the builtin generators
    with the exact scalars it is exact as well since every entry is in
    {0, +-1, +-j}.
    """

    scalar: complex
    indices: tuple[int, ...]
    matrix: np.ndarray

    def label(self) -> str:
        """Short symbolic name, e.g. '-j.g4g5', '1' or '(0.707107+0.707107j).g1'."""
        z = complex(self.scalar)
        pre = {1 + 0j: "", -1 + 0j: "-", 1j: "j.", -1j: "-j."}.get(z, f"({z:.6g}).")
        return pre + ("".join(f"g{i}" for i in self.indices) or "1")


def build_generators(a: int, sign: int = 1) -> CliffordSet:
    """Build the 2a anticommuting, anti-Hermitian, unitary generators.

    G_1      = sign * j * DIAGSIGN^{x a}
    G_{2k}   = I_2^{x(a-k)} x ROT90  x DIAGSIGN^{x(k-1)},  k = 1..a
    G_{2k+1} = I_2^{x(a-k)} x IMSWAP x DIAGSIGN^{x(k-1)},  k = 1..a-1

    For a = 1 the returned list additionally contains IMSWAP (= G_1 G_2
    exactly) so the three-anticommuting-matrix requirement of the code
    constructions can be met for two antennas as well.
    """
    if not 1 <= a <= MAX_A:
        raise UnsupportedSizeError(f"a must be in 1..{MAX_A}, got {a}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    eye2 = np.eye(2, dtype=complex)
    gens: list[np.ndarray] = [sign * 1j * kron_power(DIAGSIGN, a)]
    for k in range(1, a + 1):
        tail = kron_power(DIAGSIGN, k - 1)
        head = kron_power(eye2, a - k)
        gens.append(np.kron(head, np.kron(ROT90, tail)))
        if k < a:
            gens.append(np.kron(head, np.kron(IMSWAP, tail)))
    if a == 1:
        gens.append(IMSWAP.copy())
    for g in gens:
        g.setflags(write=False)
    return CliffordSet(a=a, n=2**a, sign=sign, generators=tuple(gens))


def subset_square_sign(s: int) -> int:
    """Sign of the square of a product of s distinct generators.

    A product of s pairwise anticommuting matrices that each square to
    -I squares to (-1)^{s(s+1)/2} I.
    """
    if s < 1:
        raise ValueError("subset size must be >= 1")
    return (-1) ** ((s * (s + 1)) // 2)


def products_commute(r: int, s: int, p: int) -> bool:
    """Whether products of r and s generators sharing p of them commute.

    True iff (-1)^{rs - p} = 1, i.e. either r, s, p are all odd, or the
    product r*s is even and p is even (0 included).  Anticommute
    otherwise.
    """
    if not 0 <= p <= min(r, s):
        raise ValueError("overlap p must satisfy 0 <= p <= min(r, s)")
    return (r * s - p) % 2 == 0


def mul_index_products(
    s1: int | complex,
    idx1: Sequence[int],
    s2: int | complex,
    idx2: Sequence[int],
) -> tuple[complex, tuple[int, ...]]:
    """Exact product of two signed generator products.

    (s1 * prod(idx1)) @ (s2 * prod(idx2)) = scalar * prod(indices),
    using only the anticommutation rules and G_i^2 = -I.
    """
    sign = 1
    out = list(idx1)
    for g in idx2:
        greater = sum(1 for e in out if e > g)
        if g in out:
            sign *= (-1) ** greater * (-1)  # move next to its twin, then square
            out.remove(g)
        else:
            sign *= (-1) ** greater
            out.append(g)
            out.sort()
    return complex(s1) * complex(s2) * sign, tuple(out)


def _matrix_of(cliff: CliffordSet, indices: Iterable[int]) -> np.ndarray:
    out = np.eye(cliff.n, dtype=complex)
    for i in indices:
        out = out @ cliff.generator(i)
    return out


def product_of(
    cliff: CliffordSet, indices: Sequence[int], scalar: complex = 1.0
) -> SignedProduct:
    """Literal left-to-right product scalar * G_{i1} ... G_{is}.

    Indices must be strictly ascending and within range; the empty list
    gives scalar * I.
    """
    indices = tuple(int(i) for i in indices)
    if any(i2 <= i1 for i1, i2 in zip(indices, indices[1:])):
        raise BadIndexOrderError(f"indices must be strictly ascending, got {indices}")
    if indices and not (1 <= indices[0] and indices[-1] <= len(cliff.generators)):
        raise BadIndexOrderError(f"indices out of range 1..{len(cliff.generators)}")
    matrix = scalar * _matrix_of(cliff, indices)
    matrix.setflags(write=False)
    return SignedProduct(scalar=complex(scalar), indices=indices, matrix=matrix)


def mul_signed(p: SignedProduct, q: SignedProduct) -> SignedProduct:
    """Exact product of two signed generator products (matrix included)."""
    scalar, indices = mul_index_products(p.scalar, p.indices, q.scalar, q.indices)
    matrix = p.matrix @ q.matrix
    matrix.setflags(write=False)
    return SignedProduct(scalar=scalar, indices=indices, matrix=matrix)


def power_set_products(
    items: Sequence[SignedProduct], n: int | None = None
) -> list[SignedProduct]:
    """All 2^len(items) products prod_i items[i]^{lambda_i}, lambda in {0,1}.

    Enumeration order: the selection bits counted with items[0] varying
    fastest, so the identity comes first, then items[0], items[1],
    items[0]*items[1], ...  ``n`` fixes the identity size when items is
    empty.
    """
    if len(items) > 12:
        raise ValueError("power set of more than 12 products is not supported")
    if n is None:
        if not items:
            raise ValueError("need n to size the identity for an empty set")
        n = items[0].matrix.shape[0]
    eye = np.eye(n, dtype=complex)
    eye.setflags(write=False)
    out: list[SignedProduct] = []
    for lam in range(2 ** len(items)):
        prod = SignedProduct(scalar=1.0 + 0j, indices=(), matrix=eye)
        for i, item in enumerate(items):
            if lam >> i & 1:
                prod = mul_signed(prod, item)
        out.append(prod)
    return out


def all_lambda_products(cliff: CliffordSet) -> list[SignedProduct]:
    """All 2^{2a} products G_1^{l1} ... G_{2a}^{l_{2a}}, identity first.

    Selection bits are counted with G_1 varying fastest.
    """
    singles = [product_of(cliff, (i,)) for i in range(1, cliff.n_generators + 1)]
    return power_set_products(singles, n=cliff.n)


def verify_traceless(cliff: CliffordSet, tol: float = 1e-12) -> Report:
    """Check that every non-identity generator product is traceless."""
    report = Report(f"tracelessness of generator products (a={cliff.a})")
    products = all_lambda_products(cliff)  # the identity leads
    traces = np.trace(np.stack([p.matrix for p in products]), axis1=1, axis2=2).tolist()
    witnesses = [] if abs(traces[0] - cliff.n) < tol else [
        f"identity trace {traces[0]} != {cliff.n}"]
    witnesses += [f"{p.label()} has trace {t}"
                  for p, t in zip(products[1:], traces[1:]) if abs(t) > tol]
    report.add(
        f"all {len(products) - 1} non-identity products traceless",
        not witnesses,
        witnesses,
    )
    return report


def verify_generators(cliff: CliffordSet, tol: float = 1e-12) -> Report:
    """Certify anti-Hermitianness, unitarity and pairwise anticommutation."""
    report = Report(f"generator certification (a={cliff.a})")
    gens = np.stack(cliff.generators)
    gens_h = gens.conj().swapaxes(-1, -2)

    resid = np.abs(gens_h + gens).max(axis=(1, 2))
    bad = [f"g{i + 1}: max |G^H + G| = {r:.2e}" for i, r in enumerate(resid) if r > tol]
    report.add("anti-Hermitian (G^H = -G)", not bad, bad)

    resid = np.abs(gens_h @ gens - np.eye(cliff.n)).max(axis=(1, 2))
    bad = [f"g{i + 1}: max |G^H G - I| = {r:.2e}" for i, r in enumerate(resid) if r > tol]
    report.add("unitary (G^H G = I)", not bad, bad)

    resid = pairwise_residual(gens, gens)
    bad = [f"(g{i + 1}, g{j + 1}): max |AB + BA| = {resid[i, j]:.2e}"
           for i, j in np.argwhere(np.triu(resid > tol, 1))]
    report.add("pairwise anticommutation", not bad, bad)

    allowed = np.array([0, 1, -1, 1j, -1j], dtype=complex)
    resid = np.abs(gens[..., None] - allowed).min(axis=-1).max(axis=(1, 2))
    bad = [f"g{i + 1} has an entry outside {{0, +-1, +-j}}"
           for i in np.flatnonzero(resid > tol)]
    report.add("entries in {0, +-1, +-j}", not bad, bad)
    return report
