"""Property tests: exact ML decoding depends only on the declared groups.

The cross-group dispersion condition does not care where the weights sit
in the list or in which order the groups are declared, so relabelling a
certified code must leave every structured decoder equal to the
exhaustive oracle -- in the decoded indices, the metric and the
hypothesis counters -- including on the all-tied zero-channel input.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import relabel
from stbc.coding_gain import default_encoder
from stbc.decoder import (
    complexity_account,
    conditional_decode,
    constellation,
    decode_auto,
    group_decode,
    ml_oracle,
)
from stbc.designs import build_rate1_4group, extend_full_rate
from stbc.rng import substream
from stbc.sim import draw_trial

BASES = {
    "a1": build_rate1_4group(1),
    "a2": build_rate1_4group(2),
    "silver": extend_full_rate(build_rate1_4group(1), 2),
}


@st.composite
def relabelled_codes(draw):
    """(base, relabelled design): weights permuted inside each layer,
    groups carried along and declared in a random order."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    per = base.n_real_symbols // base.layers
    perm = []
    for layer in range(base.layers):
        perm += draw(st.permutations(range(layer * per, (layer + 1) * per)))
    order = draw(st.permutations(range(len(base.groups))))
    return base, relabel(base, perm, order)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    code=relabelled_codes(),
    cons_label=st.sampled_from(["4qam", "16qam"]),
    n_r=st.integers(1, 2),
    snr_db=st.floats(0.0, 20.0),
    trial=st.integers(0, 1 << 20),
    zero_channel=st.booleans(),
)
def test_structured_decoders_equal_oracle(code, cons_label, n_r, snr_db, trial,
                                          zero_channel):
    base, design = code
    cons = constellation(cons_label)
    # the rotation acts per group position, so the base code's encoder
    # applies unchanged to the relabelled one
    enc = default_encoder(base, cons.pam)
    snr = 10.0 ** (snr_db / 10.0)
    y, h, _ = draw_trial(design, enc, n_r, snr, substream(trial, 13))
    if zero_channel:
        h = np.zeros_like(h)
    ref = ml_oracle(y, h, design, cons, snr, enc)
    account = complexity_account(design, cons)
    if design.layers == 1:
        structured, predicted = group_decode, account.group_evaluations
    else:
        structured, predicted = conditional_decode, account.conditional_evaluations
    for decode in (structured, decode_auto):
        res = decode(y, h, design, cons, snr, enc)
        assert res.level_indices == ref.level_indices
        assert abs(res.metric - ref.metric) <= 1e-9
        assert res.metric_evaluations == predicted
    if zero_channel:
        assert ref.level_indices == (0,) * design.n_real_symbols
