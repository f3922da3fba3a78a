"""Assembly of rate-1 4-group decodable designs and their full-rate extensions.

A design is an ordered list of complex n_t x T weight matrices A_i; the
transmit matrix for the real symbol vector s is S = sum_i s_i A_i.  The
rate-1 construction places 2^{a-1} commuting Hermitian involutions in a
first group and generates three more groups by right-multiplying with
three pairwise anticommuting generators; the resulting four groups
satisfy the cross-group dispersion condition

    A_i A_j^H + A_j A_i^H = 0   whenever i and j sit in different groups,

which is what makes per-group ML decoding exact, whatever the weight
order.  ``STBCDesign.structure`` decides it once: the first layer's four
groups and the outer indices when the condition holds, else None; the
account, the encoder, the decoder and the R-matrix analysis all read
it.  Full-rate designs stack unitary multiples of the rate-1 layer, each
layer holding the rate-1 groups shifted by one layer width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from numbers import Number

import numpy as np

from .clifford import (
    CliffordSet,
    SignedProduct,
    build_generators,
    mul_signed,
    power_set_products,
    product_of,
)
from .errors import (
    DependentExtensionError,
    DesignFormatError,
    DimensionMismatchError,
    StructureError,
)
from .linalg import (CERT_TOL, _integer_refusal, _require_size, matrix_from_text, matrix_to_text,
                     pairwise_residual, tilde_vec, vec)
from .reports import Report

__all__ = [
    "STBCDesign",
    "build_rate1_4group",
    "extend_full_rate",
    "verify_theorem1",
    "verify_group_decodable",
    "verify_design",
    "codeword",
    "design_to_text",
    "design_from_text",
    "save_design",
    "load_design",
]

GROUPS_PER_LAYER = 4


@dataclass(frozen=True, eq=False)
class STBCDesign:
    """Ordered weight matrices with group partition and provenance.

    weights   -- 2k complex n_t x T matrices (read-only arrays)
    groups    -- partition of 0-based weight indices; each group lies
                 inside one layer (4 groups per layer, contiguous, for
                 the builtin constructions)
    layers    -- number of stacked rate-1 layers (1 for rate-1 designs);
                 layer L is the index range [L*2k/layers, (L+1)*2k/layers)
    products  -- exact signed-product bookkeeping for constructed
                 designs (None when loaded from a file)
    cliff     -- the generators the products were built from (likewise)
    """

    n_t: int
    T: int
    weights: tuple[np.ndarray, ...]
    groups: tuple[tuple[int, ...], ...]
    layers: int = 1
    provenance: str = ""
    products: tuple[SignedProduct, ...] | None = field(default=None, repr=False)
    cliff: CliffordSet | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("n_t", "T", "layers"):
            if refusal := _integer_refusal(getattr(self, name), name, 1):
                raise DesignFormatError(refusal)
        if not self.weights:
            raise DesignFormatError("a design needs at least one weight matrix")
        for w in self.weights:
            if w.shape != (self.n_t, self.T):
                raise DimensionMismatchError(
                    f"weight shape {w.shape} != ({self.n_t}, {self.T})"
                )
            if not np.all(np.isfinite(w.view(float))):
                raise DesignFormatError("weight matrix contains non-finite entries")
        flat = sorted(i for g in self.groups for i in g)
        if flat != list(range(len(self.weights))):
            raise DesignFormatError("groups must partition the weight indices exactly once")
        if len(self.weights) % self.layers:
            raise DesignFormatError(
                f"{self.layers} layers do not split {len(self.weights)} weights evenly"
            )
        if np.linalg.matrix_rank(self.G) < len(self.weights):
            raise DependentExtensionError(
                "weight matrices are linearly dependent over the reals"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def n_real_symbols(self) -> int:
        return len(self.weights)

    @property
    def k(self) -> int:
        """Number of complex information symbols per codeword."""
        return len(self.weights) // 2

    @property
    def rate(self) -> float:
        """Complex symbols per channel use."""
        return self.k / self.T

    @property
    def energy_scale(self) -> float:
        """Scalar putting the average codeword energy at n_t * T for
        unit-power information symbols."""
        return float(np.sqrt(self.T / self.k))

    @cached_property
    def weight_stack(self) -> np.ndarray:
        """(2k, n_t, T) stacked weights."""
        out = np.stack(self.weights)
        out.setflags(write=False)
        return out

    @cached_property
    def weight_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values), each (q, 2k*T) and read-only: column i*T + t
        lists the rows of the nonzero entries of column t of weight i and
        their values, padded with zero values up to q, the most nonzeros
        any column holds.  Column t of H A_i is then the sum over the q
        taps s of H[:, rows[s, c]] * values[s, c], c = i*T + t.  The
        Clifford weights are signed permutations, so q = 1."""
        cols = self.weight_stack.transpose(0, 2, 1).reshape(-1, self.n_t)  # (2k*T, n_t)
        nonzero = cols != 0
        q = int(nonzero.sum(axis=1).max())
        # each column's nonzero rows first, in ascending order, then zeros
        taps = np.argsort(~nonzero, axis=1, kind="stable")[:, :q]
        out = np.ascontiguousarray(taps.T), np.take_along_axis(cols, taps, axis=1).T.copy()
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def G(self) -> np.ndarray:
        """Real 2*n_t*T x 2k generator matrix with tilde(vec(S)) = G s."""
        out = np.column_stack([tilde_vec(vec(w)) for w in self.weights])
        out.setflags(write=False)
        return out

    @cached_property
    def structure(self) -> tuple[tuple[tuple[int, ...], ...], np.ndarray] | None:
        """The certified split that the complexity account, the encoder and
        the decoder read: (groups, outer), the first layer's four declared
        groups in declared order once they meet the cross-group dispersion
        condition at ``CERT_TOL``, as ``verify_group_decodable`` checks it,
        and every other index in ascending order (read-only), or None when
        they do not.  StructureError when a group straddles the first layer."""
        groups = self.layer_groups(0)
        if len(groups) != 4 or _dispersion_witnesses(self.weight_stack, groups):
            return None
        inner = {i for g in groups for i in g}
        outer = np.array([i for i in range(self.n_real_symbols) if i not in inner], dtype=int)
        outer.setflags(write=False)
        return groups, outer

    @cached_property
    def _default_encoders(self) -> dict:
        """The default encoders ``coding_gain.default_encoder`` keeps for
        this design, one per alphabet (keyed by its bytes): kept on the
        design, so they go when it goes."""
        return {}

    def layer_groups(self, layer: int) -> tuple[tuple[int, ...], ...]:
        """The declared groups inside one layer's index range (0-based
        layer number), in declared order; raises StructureError when a
        group straddles the range."""
        per = self.n_real_symbols // self.layers
        start, stop = layer * per, (layer + 1) * per
        inside = []
        for g in self.groups:
            hits = sum(start <= i < stop for i in g)
            if hits and hits < len(g):
                raise StructureError(
                    f"group {tuple(i + 1 for i in g)} straddles layer {layer + 1}"
                )
            if hits:
                inside.append(g)
        return tuple(inside)

    def labels(self) -> list[str]:
        if self.products is not None:
            return [p.label() for p in self.products]
        return [f"A{i + 1}" for i in range(len(self.weights))]


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=complex)
    m.setflags(write=False)
    return m


def build_rate1_4group(a: int, sign: int = 1) -> STBCDesign:
    """Rate-1, 4-group decodable design for n_t = 2^a antennas.

    The first group holds the 2^{a-1} products of the commuting Hermitian
    set {j G_4 G_5, j G_6 G_7, ..., j G_{2a-2} G_{2a-1}, G_1 G_2 G_3}
    (identity first); groups 2..4 are the first group right-multiplied by
    G_1, G_2, G_3.  All 2^{a+1} weight matrices are unitary with entries
    in {0, +-1, +-j}.
    """
    cliff = build_generators(a, sign)
    seeds: list[SignedProduct] = []
    for m in range(2, a):  # pairs (4,5), (6,7), ..., (2a-2, 2a-1)
        seeds.append(product_of(cliff, (2 * m, 2 * m + 1), scalar=1j))
    if a >= 2:
        seeds.append(product_of(cliff, (1, 2, 3)))
    group1 = power_set_products(seeds, n=cliff.n)

    # the three anticommuting right-multipliers; for a = 1 the third one
    # is the exact product G_1 G_2, tracked under the index pair (1, 2)
    headers = [product_of(cliff, (1,)), product_of(cliff, (2,))]
    if a == 1:
        headers.append(product_of(cliff, (1, 2)))
    else:
        headers.append(product_of(cliff, (3,)))

    products = list(group1)
    for header in headers:
        products.extend(mul_signed(p, header) for p in group1)

    q = len(group1)
    groups = tuple(
        tuple(range(m * q, (m + 1) * q)) for m in range(GROUPS_PER_LAYER)
    )
    design = STBCDesign(
        n_t=cliff.n,
        T=cliff.n,
        weights=tuple(_freeze(p.matrix) for p in products),
        groups=groups,
        layers=1,
        provenance=f"rate-1 4-group construction, a={a}, sign={sign:+d}",
        products=tuple(products),
        cliff=cliff,
    )
    report = verify_group_decodable(design)
    if not report.passed:
        raise AssertionError(
            "construction bug: cross-group dispersion condition failed\n"
            + report.summary()
        )
    return design


def _dispersion_witnesses(ws: np.ndarray, groups, start: int = 0) -> list[str]:
    """One line per pair of weights in different groups that violates the
    cross-group condition A_i A_j^H + A_j A_i^H = 0, in group-pair, then
    row-major order; weights are numbered 1-based from index ``start``."""
    witnesses = []
    for gi, gj in combinations(range(len(groups)), 2):
        rows, cols = groups[gi], groups[gj]
        resid = pairwise_residual(ws[list(rows)], ws[list(cols)], adjoint=True)
        witnesses += [
            f"groups ({gi + 1},{gj + 1}) weights "
            f"({rows[x] - start + 1},{cols[y] - start + 1}): residual {resid[x, y]:.2e}"
            for x, y in np.argwhere(resid > CERT_TOL)  # row-major: the nested-loop order
        ]
    return witnesses


def verify_group_decodable(design: STBCDesign) -> Report:
    """Check the cross-group condition A_i A_j^H + A_j A_i^H = 0 within
    each layer (groups of different layers need not meet it), numbering
    witnesses from the layer's first weight."""
    layered = design.layers > 1
    report = Report(f"layered design certification ({design.layers} layers)" if layered
                    else "cross-group dispersion condition")
    per = design.n_real_symbols // design.layers
    for layer in range(design.layers):
        witnesses = _dispersion_witnesses(
            design.weight_stack, design.layer_groups(layer), layer * per)
        report.add(f"layer {layer + 1}: " * layered + "all cross-group pairs",
                   not witnesses, witnesses)
    return report


def verify_theorem1(design: STBCDesign) -> Report:
    """Certify the six normal-form conditions of a g-group design.

    1. first-group matrices square to +I
    2. the leading matrix of every later group squares to -I
    3. first-group matrices commute pairwise
    4. first-group matrices commute with every group header
    5. group headers anticommute pairwise
    6. row rule: entry i of group m equals (first-group entry i) @ (header m)

    plus the cross-group dispersion condition.  Intended for rate-1
    designs in construction order; later layers of an extended design are
    unitary multiples and satisfy only the dispersion condition.
    """
    report = Report("group-decodable normal form")
    ws = design.weight_stack
    eye = np.eye(design.n_t)
    g1 = np.array(design.groups[0])
    headers = np.array([g[0] for g in design.groups[1:]], dtype=int)

    resid = np.abs(ws[g1] @ ws[g1] - eye).max(axis=(1, 2))
    bad = [f"weight {i + 1}: max |A^2 - I| = {r:.2e}" for i, r in zip(g1, resid) if r > CERT_TOL]
    report.add("1: first group squares to +I", not bad, bad)

    resid = np.abs(ws[headers] @ ws[headers] + eye).max(axis=(1, 2))
    bad = [f"weight {j + 1}: max |A^2 + I| = {r:.2e}"
           for j, r in zip(headers, resid) if r > CERT_TOL]
    report.add("2: group headers square to -I", not bad, bad)

    resid = pairwise_residual(ws[g1], ws[g1], sign=-1)
    bad = [f"({g1[x] + 1},{g1[y] + 1}): commutator residual {resid[x, y]:.2e}"
           for x, y in np.argwhere(np.triu(resid > CERT_TOL, 1))]
    report.add("3: first group commutes pairwise", not bad, bad)

    resid = pairwise_residual(ws[g1], ws[headers], sign=-1)
    bad = [f"({g1[x] + 1},{headers[y] + 1}): commutator residual {resid[x, y]:.2e}"
           for x, y in np.argwhere(resid > CERT_TOL)]
    report.add("4: first group commutes with headers", not bad, bad)

    resid = pairwise_residual(ws[headers], ws[headers])
    bad = [f"({headers[x] + 1},{headers[y] + 1}): anticommutator residual {resid[x, y]:.2e}"
           for x, y in np.argwhere(np.triu(resid > CERT_TOL, 1))]
    report.add("5: headers anticommute pairwise", not bad, bad)

    bad = []
    for m, group in enumerate(design.groups[1:], start=1):
        if len(group) > len(g1):
            bad.append(f"group {m + 1} has more entries than the first group")
            continue
        resid = np.abs(ws[list(group)] - ws[g1[: len(group)]] @ ws[group[0]]).max(axis=(1, 2))
        bad += [f"group {m + 1} entry {pos + 1} (weight {j + 1}): "
                f"deviates from row rule by {r:.2e}"
                for pos, (j, r) in enumerate(zip(group, resid)) if r > CERT_TOL]
    report.add("6: row-generation rule", not bad, bad)

    report.extend(verify_group_decodable(design))
    return report


def _extension_multipliers(design: STBCDesign, n_layers: int) -> list[tuple[complex, tuple[int, ...]]]:
    """Deterministic (scalar, index-subset) multiplier per layer.

    Layer 1 uses the identity.  Layers up to n_t/2 take multipliers from
    the generator products, preferring single even-indexed generators
    (g4, g6, ...) and falling back to the first product, in selection-bit
    order, whose coset w.r.t. the first-layer span is new.  Once those
    are exhausted the same sequence is reused multiplied by j.
    """
    n_gen = design.cliff.n_generators
    g1_subsets = frozenset(frozenset(p.indices) for p in design.products[: 2 * design.n_t])
    if len(g1_subsets) != 2 * design.n_t:
        raise AssertionError("first-layer subsets are not distinct")

    def coset(rep: frozenset) -> frozenset:
        return frozenset(frozenset(rep ^ s) for s in g1_subsets)

    candidates: list[tuple[int, ...]] = [
        (i,) for i in range(4, n_gen + 1, 2)
    ]
    for lam in range(2**n_gen):
        subset = tuple(i + 1 for i in range(n_gen) if lam >> i & 1)
        if subset not in candidates:
            candidates.append(subset)

    from_f = min(n_layers, design.n_t // 2)
    multipliers: list[tuple[complex, tuple[int, ...]]] = [(1.0 + 0j, ())]
    used: set[frozenset] = set(coset(frozenset()))
    for cand in candidates:
        if len(multipliers) == from_f:
            break
        if frozenset(cand) in used:
            continue
        multipliers.append((1.0 + 0j, cand))
        used |= coset(frozenset(cand))
    if len(multipliers) < from_f:
        raise AssertionError("ran out of generator-product cosets")
    for layer in range(from_f, n_layers):
        scalar, subset = multipliers[layer - design.n_t // 2]
        multipliers.append((1j * scalar, subset))
    return multipliers


def extend_full_rate(
    base: STBCDesign,
    n_layers: int,
    layer_scalar: complex = 1.0 + 0j,
) -> STBCDesign:
    """Stack ``n_layers`` unitary multiples of a rate-1 design.

    Layer L's weights are layer_scalar * (base weights) @ M_L with M_L the
    layer multiplier chosen by :func:`_extension_multipliers`
    (layer_scalar, a number of unit modulus, applies to layers >= 2 only;
    NaN is refused).  The result transmits
    ``n_layers`` complex symbols per channel use and keeps every layer
    individually 4-group decodable; one layer is ``base`` itself.
    """
    if base.layers != 1 or base.products is None:
        raise ValueError("base must be a constructed rate-1 design")
    _require_size(n_layers, "n_layers", base.n_t)
    if not (isinstance(layer_scalar, Number) and abs(abs(complex(layer_scalar)) - 1.0) <= 1e-12):
        raise ValueError(f"layer_scalar must be a number of unit modulus, got {layer_scalar!r}")
    if n_layers == 1:
        return base

    multipliers = _extension_multipliers(base, n_layers)
    products: list[SignedProduct] = []
    for layer, (scalar, subset) in enumerate(multipliers):
        layer_gain = complex(scalar) * (complex(layer_scalar) if layer else 1.0)
        mult = product_of(base.cliff, subset, scalar=layer_gain)
        products.extend(mul_signed(p, mult) for p in base.products)

    per = base.n_real_symbols
    groups = tuple(tuple(i + layer * per for i in g)
                   for layer in range(n_layers) for g in base.groups)
    mult_desc = ", ".join(
        f"layer{i + 1}={product_of(base.cliff, sub, scalar=sc).label()}"
        for i, (sc, sub) in enumerate(multipliers)
    )
    try:
        design = STBCDesign(
            n_t=base.n_t,
            T=base.T,
            weights=tuple(_freeze(p.matrix) for p in products),
            groups=groups,
            layers=n_layers,
            provenance=(
                f"{base.provenance}; extended to {n_layers} layers "
                f"[{mult_desc}], layer_scalar={complex(layer_scalar):.6g}"
            ),
            products=tuple(products),
            cliff=base.cliff,
        )
    except DependentExtensionError:
        raise DependentExtensionError(
            f"extension to {n_layers} layers produced dependent weights"
        ) from None
    return design


def verify_design(design: STBCDesign) -> Report:
    """Certification appropriate to the design's structure.

    Rate-1 designs get the full normal-form check; layered designs are
    checked layer by layer for the cross-group dispersion condition
    (the layers themselves are unitary multiples, not in normal form).
    """
    verify = verify_theorem1 if design.layers == 1 else verify_group_decodable
    return verify(design)


def codeword(design: STBCDesign, s: np.ndarray) -> np.ndarray:
    """S = sum_i s_i A_i for a real symbol vector s of length 2k, or one
    S per row of a stack s (..., 2k).

    Each codeword is its own vector-matrix product, so a stack equals
    the codewords of its rows bit for bit.  No energy normalization is
    applied here; the transmit convention scales by
    ``design.energy_scale`` at simulation time.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 0 or s.shape[-1] != design.n_real_symbols:
        raise DimensionMismatchError(
            f"expected {design.n_real_symbols} real symbols, got shape {s.shape}"
        )
    flat = design.weight_stack.reshape(design.n_real_symbols, -1)
    return (s[..., None, :] @ flat).reshape(*s.shape[:-1], design.n_t, design.T)


# ---------------------------------------------------------------------------
# plain-text design files
# ---------------------------------------------------------------------------

_MAGIC = "stbc-design v1"


def design_to_text(design: STBCDesign) -> str:
    """Serialize a design: header fields, group layout (1-based indices),
    then each weight matrix in the plain-text matrix format."""
    lines = [
        _MAGIC,
        f"nt {design.n_t}",
        f"T {design.T}",
        f"layers {design.layers}",
        f"groups {len(design.groups)}",
    ]
    for g in design.groups:
        lines.append("group " + " ".join(str(i + 1) for i in g))
    if design.provenance:
        lines.append(f"provenance {design.provenance}")
    for i, w in enumerate(design.weights):
        lines.append(f"weight {i + 1}")
        lines.append(matrix_to_text(w))
    return "\n".join(lines) + "\n"


def design_from_text(text: str) -> STBCDesign:
    """Parse :func:`design_to_text` output.  Exact product bookkeeping is
    not stored in files, so loaded designs cannot be extended further."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise DesignFormatError(f"not a design file (missing '{_MAGIC}' header)")
    fields: dict[str, str] = {}
    groups: list[tuple[int, ...]] = []
    weights: list[np.ndarray] = []
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "group":
            try:
                groups.append(tuple(int(tok) - 1 for tok in rest.split()))
            except ValueError as err:
                raise DesignFormatError(f"bad group line {line!r}") from err
        elif key == "weight":
            block = []
            while i < len(lines) and lines[i].strip() and not lines[i].startswith(
                ("weight", "group")
            ):
                block.append(lines[i])
                i += 1
            try:
                weights.append(matrix_from_text("\n".join(block)))
            except ValueError as err:
                raise DesignFormatError(f"weight {rest}: {err}") from err
        else:
            fields[key] = rest
    missing = [key for key in ("nt", "T") if key not in fields]
    if missing:
        raise DesignFormatError(f"design file lacks the {' and '.join(missing)} field")
    try:
        n_t, T = int(fields["nt"]), int(fields["T"])
        layers = int(fields.get("layers", "1"))
        declared = int(fields.get("groups", len(groups)))
    except ValueError as err:
        raise DesignFormatError(f"malformed header value: {err}") from err
    if declared != len(groups):
        raise DesignFormatError(
            f"header declares {declared} groups but the file lists {len(groups)}")
    design = STBCDesign(
        n_t=n_t,
        T=T,
        weights=tuple(_freeze(w) for w in weights),
        groups=tuple(groups),
        layers=layers,
        provenance=fields.get("provenance", ""),
    )
    # the transmit model's energy_scale assumes E||S||^2 = n_t T, i.e. a
    # mean squared weight norm of n_t; single weights may spread around it
    energy = float(np.mean([np.linalg.norm(w) ** 2 for w in design.weights]))
    if abs(energy - n_t) > 1e-9 * n_t:
        raise DesignFormatError(
            f"mean squared weight norm {energy:.12g} != n_t = {n_t}: the design "
            "would not carry the stated codeword energy"
        )
    return design


def save_design(design: STBCDesign, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(design_to_text(design))


def load_design(path) -> STBCDesign:
    with open(path, "r", encoding="utf-8") as fh:
        return design_from_text(fh.read())
