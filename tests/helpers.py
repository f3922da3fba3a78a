"""Shared oracles for the test suite (independent of the library paths
they check wherever that matters)."""

import hashlib
from itertools import product

import numpy as np

from stbc.designs import STBCDesign
from stbc.rng import substream
from stbc.sim import draw_trial

CTX_TEST = 11


def digest(text):
    """sha256 of text; reports are pinned through ``digest(r.summary())``."""
    return hashlib.sha256(text.encode()).hexdigest()


def literal_product(cliff, *indices, scalar=1.0):
    """Left-to-right matrix product of generators, bypassing the exact
    sign bookkeeping (this is the oracle side)."""
    out = np.eye(cliff.n, dtype=complex) * scalar
    for i in indices:
        out = out @ cliff.generators[i - 1]
    return out


def expected_table_n8(cliff):
    """The 16 weight matrices of the eight-antenna rate-1 code, written
    out column by column with explicit signs (independent construction)."""
    p = lambda *idx, s=1.0: literal_product(cliff, *idx, scalar=s)
    return [
        # group 1
        p(), p(4, 5, s=1j), p(1, 2, 3), p(1, 2, 3, 4, 5, s=1j),
        # group 2
        p(1), p(1, 4, 5, s=1j), -p(2, 3), -p(2, 3, 4, 5, s=1j),
        # group 3
        p(2), p(2, 4, 5, s=1j), p(1, 3), p(1, 3, 4, 5, s=1j),
        # group 4
        p(3), p(3, 4, 5, s=1j), -p(1, 2), -p(1, 2, 4, 5, s=1j),
    ]


def random_trial(design, encoder, n_r, snr, seed, trial, noise_scale=1.0):
    """One transmit/receive draw on the test stream: (Y, H, true levels)."""
    rng = substream(seed, CTX_TEST, 0, trial)
    return draw_trial(design, encoder, n_r, snr, rng, noise_scale)


def relabel(design, perm, group_order=None):
    """The same code with weight i moved to index perm[i] (groups carried
    along) and the group list taken in ``group_order``."""
    weights = [None] * design.n_real_symbols
    for old, new in enumerate(perm):
        weights[new] = design.weights[old]
    order = range(len(design.groups)) if group_order is None else group_order
    return STBCDesign(
        n_t=design.n_t,
        T=design.T,
        weights=tuple(weights),
        groups=tuple(tuple(perm[i] for i in design.groups[g]) for g in order),
        layers=design.layers,
        provenance=f"relabelled {design.provenance}",
    )


def one_weight_per_group_design():
    """A certified two-layer n_t = 4 code with one weight per group: the
    first weight of each group of the a=2 rate-1 code, plus the same four
    positions in the second layer of its two-layer extension."""
    from stbc.designs import build_rate1_4group, extend_full_rate

    full = extend_full_rate(build_rate1_4group(2), 2)
    picks = (0, 2, 4, 6, 8, 10, 12, 14)
    return STBCDesign(
        n_t=4,
        T=4,
        weights=tuple(full.weights[i] for i in picks),
        groups=tuple((i,) for i in range(len(picks))),
        layers=2,
        provenance="one weight per group of the a=2 two-layer code",
    )


def structured_reference(y, phi, pam, outer, groups):
    """Exact ML indices by the structured search's arithmetic, for one
    trial of the real model y = phi x + n: every outer hypothesis in one
    array, each group minimized in closed form, then the lexicographically
    smallest full index vector among the minima.  Totals within 1e-9 of
    |least| + ||y||^2 + the groups' largest image energies count as tied,
    and so do a group's candidates against its least metric, so rounding
    never decides between hypotheses whose metrics are equal."""
    p = len(pam)
    n_out = len(outer)
    out_digits = np.array(list(product(range(p), repeat=n_out)), dtype=int)
    out_digits = out_digits.T.reshape(n_out, p**n_out)
    yp = y[:, None] - phi[:, outer] @ pam[out_digits]
    total = np.einsum("ij,ij->j", yp, yp)
    scans = []
    scale = float(y @ y)
    for g in groups:
        cols = sorted(g)
        cand = np.array(list(product(range(p), repeat=len(cols))), dtype=int).T
        images = phi[:, cols] @ pam[cand]
        qnorm = np.einsum("ij,ij->j", images, images)
        metrics = qnorm[:, None] - 2.0 * (images.T @ yp)
        total = total + metrics.min(axis=0)
        scans.append((cols, cand, metrics))
        scale += qnorm.max()

    def tied(values, least):
        return values <= least + 1e-9 * (abs(least) + scale)

    near = np.flatnonzero(tied(total, total.min()))
    vectors = np.empty((len(near), phi.shape[1]), dtype=int)
    vectors[:, outer] = out_digits[:, near].T
    for cols, cand, metrics in scans:
        m = metrics[:, near]
        vectors[:, cols] = cand[:, np.argmax(tied(m, m.min(axis=0)), axis=0)].T
    return min(map(tuple, vectors.tolist()))
