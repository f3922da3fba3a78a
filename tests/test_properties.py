"""Property tests: exact ML decoding depends only on the declared groups.

The cross-group dispersion condition does not care where the weights sit
in the list or in which order the groups are declared, so relabelling a
certified code must leave every structured decoder equal to the
exhaustive oracle -- in the decoded indices, the metric and the
hypothesis counters -- including on the all-tied zero-channel input.

A design file damaged by hand must never give a silently wrong answer:
it either loads and decodes equal to the oracle, or it is refused with a
ValueError subclass from ``stbc.errors``.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import relabel, structured_reference
from stbc import decoder
from stbc.coding_gain import default_encoder
from stbc.decoder import (
    complexity_account,
    constellation,
    decode_auto,
    ml_oracle,
)
from stbc.designs import build_rate1_4group, design_from_text, design_to_text, extend_full_rate
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
    res = decode_auto(y, h, design, cons, snr, enc)
    assert res.level_indices == ref.level_indices
    assert abs(res.metric - ref.metric) <= 1e-9
    assert res.metric_evaluations == (account.group_evaluations
                                      or account.conditional_evaluations)
    if zero_channel:
        assert ref.level_indices == (0,) * design.n_real_symbols


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    code=relabelled_codes(),
    cons_label=st.sampled_from(["4qam", "16qam"]),
    n_r=st.integers(1, 2),
    trials=st.lists(
        st.tuples(st.floats(0.0, 20.0), st.integers(0, 1 << 20),
                  st.sampled_from(["drawn", "zero channel", "zero received"])),
        min_size=1, max_size=6,
    ),
    # a chunk narrower than the outer count takes the bounded search;
    # its chunk widths, one column included, must not move a decision
    chunk=st.sampled_from([1, 2, 3, 6, 1 << 14]),
)
def test_stacked_search_equals_per_trial_decoding(code, cons_label, n_r, trials, chunk):
    """One stack of trials at mixed SNRs decodes to what each trial
    decodes to alone, to the structured reference and, where the minimum
    is unique or all-tied, to the oracle.  A zero channel ties every
    hypothesis.  A zero received matrix ties x with -x exactly (the PAM
    levels are symmetric), and often more sign patterns, so tied outer
    hypotheses carry different group picks; the oracle's own arithmetic
    breaks those ties by rounding, so it is not compared there.  Small
    outer chunks send every code through the bounded search, where a
    stacked trial must prune exactly as it does alone (equal counters)
    and ties fall across chunks as well as inside one."""
    base, design = code
    cons = constellation(cons_label)
    enc = default_encoder(base, cons.pam)
    ys, hs, snrs = [], [], []
    for snr_db, trial, kind in trials:
        snr = 10.0 ** (snr_db / 10.0)
        y, h, _ = draw_trial(design, enc, n_r, snr, substream(trial, 13))
        ys.append(np.zeros_like(y) if kind == "zero received" else y)
        hs.append(np.zeros_like(h) if kind == "zero channel" else h)
        snrs.append(snr)
    with patch.object(decoder, "_CHUNK", chunk):
        levels, evaluations, _ = decoder._decode_stack(
            np.array(ys), np.array(hs), design, cons, np.array(snrs), enc)
        alone = [decode_auto(*args, design, cons, snr, enc) for *args, snr in zip(ys, hs, snrs)]
    groups, outer = design.structure
    for i, (y, h, snr) in enumerate(zip(ys, hs, snrs)):
        y_real, phi, _ = decoder._effective_operator(y, h, design, cons, snr, enc)
        reference = structured_reference(y_real, phi, cons.pam, outer, groups)
        assert tuple(levels[i].tolist()) == alone[i].level_indices == reference
        assert evaluations[i] == alone[i].metric_evaluations
        if trials[i][2] != "zero received":
            assert reference == ml_oracle(y, h, design, cons, snr, enc).level_indices


SEARCH_CODES = {
    "a3-two-layer-4qam": (extend_full_rate(build_rate1_4group(3), 2), "4qam"),
    "a2-two-layer-16qam": (extend_full_rate(build_rate1_4group(2), 2), "16qam"),
}


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    code=st.sampled_from(sorted(SEARCH_CODES)),
    snr_db=st.floats(0.0, 20.0),
    trial=st.integers(0, 1 << 20),
    kind=st.sampled_from(["drawn", "noiseless", "zero channel"]),
)
def test_bounded_search_equals_structured_reference(code, snr_db, trial, kind):
    """The 65,536 outer hypotheses of both codes span four chunks, so the
    decoder scans only the survivors of its QR bound; the decision must
    equal the reference's, which scores all of them in one array.  A
    zero channel ties every hypothesis, so nothing is pruned."""
    design, label = SEARCH_CODES[code]
    cons = constellation(label)
    enc = default_encoder(design, cons.pam)
    snr = 10.0 ** (snr_db / 10.0)
    y, h, levels = draw_trial(design, enc, 2, snr, substream(trial, 13),
                              noise_scale=0.0 if kind == "noiseless" else 1.0)
    if kind == "zero channel":
        h = np.zeros_like(h)
    res = decode_auto(y, h, design, cons, snr, enc)
    groups, outer = design.structure
    y_real, phi, _ = decoder._effective_operator(y, h, design, cons, snr, enc)
    assert res.level_indices == structured_reference(y_real, phi, cons.pam, outer, groups)
    account = complexity_account(design, cons).conditional_evaluations
    assert 0 < res.metric_evaluations <= account
    assert res.metric_evaluations % (4 * len(cons.pam) ** len(groups[0])) == 0
    if kind == "noiseless":
        assert res.level_indices == tuple(levels)
    if kind == "zero channel":
        assert res.metric_evaluations == account


def _weight_rows(lines):
    """Line numbers of matrix rows (the lines inside weight blocks)."""
    rows, inside = [], False
    for n, line in enumerate(lines):
        if line.startswith("weight"):
            inside = True
        elif line.startswith(("group", "provenance")) or not line.strip():
            inside = False
        elif inside:
            rows.append(n)
    return rows


def _flip_sign(tok):
    return tok[1:] if tok.startswith("-") else "-" + tok


HEADER_KEYS = ("nt ", "T ", "layers ")
# another small integer, or not an integer at all
HEADER_VALUES = st.one_of(
    st.integers(-1, 8).map(str),
    st.sampled_from(["0.0+1.0i", "-1.0+0.0i", "0.0-1.0i"]),
    st.sampled_from(["abc", "two", "1.5", "1+", "x"]),
)


@st.composite
def mutated_design_texts(draw):
    """design_to_text output of a base code with 1-3 random mutations:
    a sign flip of one weight entry, a dropped or duplicated group entry,
    a weight block truncated by an entry, a row or all its rows, or an
    nt, T or layers value replaced."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    lines = design_to_text(base).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        rows = _weight_rows(lines)
        groups = [n for n, line in enumerate(lines) if line.startswith("group ")]
        headers = [n for n, line in enumerate(lines) if line.startswith(HEADER_KEYS)]
        kind = draw(st.sampled_from(["sign", "drop", "duplicate", "truncate", "header"]))
        if kind == "sign" and rows:
            n = draw(st.sampled_from(rows))
            toks = lines[n].split()
            j = draw(st.integers(0, len(toks) - 1))
            toks[j] = _flip_sign(toks[j])
            lines[n] = " ".join(toks)
        elif kind == "drop" and groups:
            n = draw(st.sampled_from(groups))
            toks = lines[n].split()
            if len(toks) > 1:
                del toks[draw(st.integers(1, len(toks) - 1))]
            lines[n] = " ".join(toks)
        elif kind == "duplicate" and groups:
            source = lines[draw(st.sampled_from(groups))].split()[1:]
            if source:
                n = draw(st.sampled_from(groups))
                lines[n] += " " + draw(st.sampled_from(source))
        elif kind == "truncate" and rows:
            lo = hi = draw(st.sampled_from(rows))
            cut = draw(st.sampled_from(["entry", "row", "block"]))
            if cut == "entry":
                lines[lo] = lines[lo].rsplit(" ", 1)[0]
                continue
            if cut == "block":
                while lo - 1 in rows:
                    lo -= 1
                while hi + 1 in rows:
                    hi += 1
            del lines[lo : hi + 1]
        elif kind == "header" and headers:
            n = draw(st.sampled_from(headers))
            key, *values = lines[n].split()
            values[draw(st.integers(0, len(values) - 1))] = draw(HEADER_VALUES)
            lines[n] = " ".join([key, *values])
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    text=mutated_design_texts(),
    n_r=st.integers(1, 2),
    snr_db=st.floats(0.0, 20.0),
    trial=st.integers(0, 1 << 20),
)
def test_mutated_design_file_decodes_exactly_or_is_refused(text, n_r, snr_db, trial):
    cons = constellation("4qam")
    snr = 10.0 ** (snr_db / 10.0)
    try:
        design = design_from_text(text)
        enc = default_encoder(design, cons.pam)
        y, h, _ = draw_trial(design, enc, n_r, snr, substream(trial, 13))
        ref = ml_oracle(y, h, design, cons, snr, enc)
        res = decode_auto(y, h, design, cons, snr, enc)
    except ValueError as err:
        assert type(err).__module__ == "stbc.errors", repr(err)
        return
    assert res.level_indices == ref.level_indices
    assert abs(res.metric - ref.metric) <= 1e-9
