"""Command line front end.

Subcommands mirror the library modules:

    stbc clifford dump     -- print/stash the anticommuting generators
    stbc design build      -- construct a design and write a design file
    stbc design verify     -- certify a design file
    stbc design dump       -- pretty-print a design file
    stbc channel profile   -- R-matrix zero structure over random channels
    stbc decode            -- per-trial Monte-Carlo decode log
    stbc capacity sweep    -- ergodic-capacity sweep, CSV out
    stbc sim sweep         -- symbol/codeword error-rate sweep, CSV out
    stbc gain min-det      -- brute-force minimum determinant (rate-1 designs)
    stbc verify-all        -- every certification in one report

The default master seed comes from the STBC_SEED environment variable
(0 when unset); identical seeds yield byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .capacity import code_capacity
from .channel import _mask_text, profile_over_channels
from .clifford import build_generators
from .coding_gain import (
    default_encoder,
    identity_encoder,
    min_determinant,
    rotation_from_matrix,
)
from .decoder import _DECODERS, constellation
from .designs import (
    build_rate1_4group,
    design_to_text,
    extend_full_rate,
    load_design,
    save_design,
    verify_design,
)
from .linalg import matrix_to_text, real_matrix_from_text
from .rng import CTX_CAPACITY, substream
from .sim import (
    SimConfig,
    _check_sweep,
    _csv_text,
    emit_csv,
    parse_config_file,
    parse_layer_scalar,
    parse_snr_spec,
    run_decode_trials,
    run_error_sweep,
    verify_all,
)


#: ``sim sweep --config`` keys, each the destination of the flag it stands for
_CONFIG_KEYS = ("design", "a", "layers", "layer_scalar", "sign", "nr", "constellation",
                "snr_db", "trials", "seed", "decoder", "out", "noise_scale")


def _build_design(a: int, layers: int, layer_scalar: str, sign: int):
    return extend_full_rate(build_rate1_4group(a, sign), layers,
                            layer_scalar=parse_layer_scalar(layer_scalar))


def _design_from_args(args) -> "STBCDesign":
    """The design of a command declared with ``add_design_source``."""
    if args.design:
        return load_design(args.design)
    if args.a:
        return _build_design(args.a, args.layers, args.layer_scalar, args.sign)
    raise SystemExit("need --design FILE or --a A")


def _sim_config(args, snr_db, **fields) -> SimConfig:
    """The decoded experiment of a ``decode`` or ``sim sweep`` command;
    without ``--nr``, one receive antenna per layer."""
    design = _design_from_args(args)
    return SimConfig(design=design, n_r=design.layers if args.nr is None else args.nr,
                     constellation=args.constellation, snr_db=snr_db, trials=args.trials,
                     seed=args.seed, decoder=args.decoder, **fields)


def _write_output(text: str, out) -> None:
    """Write ``text`` to the file ``out`` and say so, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def cmd_clifford_dump(args) -> int:
    cliff = build_generators(args.a, args.sign)
    blocks = []
    for i, g in enumerate(cliff.generators):
        blocks.append(f"generator {i + 1}")
        blocks.append(matrix_to_text(g))
    _write_output("\n".join(blocks) + "\n", args.out)
    return 0


def cmd_design_build(args) -> int:
    design = _build_design(args.a, args.layers, args.layer_scalar, args.sign)
    save_design(design, args.out)
    print(f"wrote {args.out}: n_t={design.n_t}, T={design.T}, "
          f"rate={design.rate:g}, {len(design.weights)} weight matrices")
    return 0


def cmd_design_verify(args) -> int:
    design = load_design(args.design)
    report = verify_design(design)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_design_dump(args) -> int:
    design = load_design(args.design)
    sys.stdout.write(design_to_text(design))
    return 0


def cmd_channel_profile(args) -> int:
    design = _design_from_args(args)
    mean_abs, max_abs, always_zero, _ = profile_over_channels(
        design, args.nr, args.seeds, args.tol, args.seed
    )
    print(f"# zero mask over {args.seeds} channels ('.' = |R| < {args.tol:g}):")
    print(_mask_text(always_zero))
    if args.out:
        n = mean_abs.shape[0]
        rows = ((i + 1, j + 1, float(mean_abs[i, j]), float(max_abs[i, j]),
                 int(always_zero[i, j])) for i in range(n) for j in range(n))
        _write_output(_csv_text(("row", "col", "mean_abs", "max_abs", "always_zero"), rows),
                      args.out)
    return 0


def cmd_decode(args) -> int:
    rows = run_decode_trials(_sim_config(args, (args.snr_db,)))
    columns = ("trial", "metric", "symbol_errors", "evaluations")
    _write_output(_csv_text(columns, ([r[c] for c in columns] for r in rows)), args.out)
    return 0


def cmd_capacity_sweep(args) -> int:
    design = _design_from_args(args)
    snrs = parse_snr_spec(args.snr_db)
    _check_sweep(snrs, args.trials, n_r=args.nr)
    rows = []
    for i, db in enumerate(snrs):
        est = code_capacity(design, args.nr, 10.0 ** (db / 10.0), args.trials,
                            rng=substream(args.seed, CTX_CAPACITY, i, 0))
        rows.append((float(db), est.mean, est.std_error, est.trials))
    _write_output(_csv_text(("snr_db", "mean_bits", "std_err", "trials"), rows), args.out)
    return 0


def cmd_sim_sweep(args) -> int:
    records = run_error_sweep(
        _sim_config(args, parse_snr_spec(args.snr_db), noise_scale=args.noise_scale))
    for rec in records:
        print(
            f"snr {rec.snr_db:6.1f} dB: cer {rec.cer:.5f}  ser {rec.ser:.5f}  "
            f"({rec.trials} trials, {rec.mean_evals:.0f} evals/codeword, "
            f"{rec.wall_time_s:.2f} s)"
        )
    if args.out:
        emit_csv(records, args.out, timing=args.timing)
        print(f"wrote {args.out}")
    return 0


def cmd_gain_min_det(args) -> int:
    design = _design_from_args(args)
    if design.layers > 1:  # one first-layer group's determinant is no certificate of the code
        raise SystemExit(f"gain min-det certifies rate-1 designs only, got {design.layers} layers")
    cons = constellation(args.alphabet)
    if args.rotation == "none":
        encoder = identity_encoder(design, cons.pam)
    elif args.rotation == "builtin":
        encoder = default_encoder(design, cons.pam)
    else:
        with open(args.rotation, "r", encoding="utf-8") as fh:
            u = real_matrix_from_text(fh.read())
        encoder = default_encoder(design, cons.pam, rotation_from_matrix(u))
    res = min_determinant(design, encoder)
    print(f"minimum determinant: {res.min_det!r}")
    print(f"difference vectors searched: {res.evaluations}")
    print(f"argmin info difference: {np.array2string(res.argmin, precision=6)}")
    print(f"closed-form vs literal max relative gap: {res.max_disagreement:.3e}")
    return 0


def cmd_verify_all(args) -> int:
    report = verify_all(args.a, args.layers, seed=args.seed)
    print(report.summary())
    return 0 if report.passed else 1


def build_parser(sweep_defaults: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The ``stbc`` parser; ``sweep_defaults`` replace the ``sim sweep``
    defaults, and argparse runs each string through its flag's type."""
    parser = argparse.ArgumentParser(
        prog="stbc",
        description="Space-time block codes for 2^a transmit antennas: "
                    "construction, certification and Monte-Carlo evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed = os.environ.get("STBC_SEED", "0")  # the --seed default, run through int

    def add_design_source(p):
        p.add_argument("--design", help="design file")
        p.add_argument("--a", type=int, help="antenna exponent (n_t = 2^a)")
        p.add_argument("--layers", type=int, default=1)
        p.add_argument("--layer-scalar", dest="layer_scalar", default="1",
                       help="'1', 'pi/4' or an explicit a+bi unit scalar")
        p.add_argument("--sign", type=int, choices=(1, -1), default=1)

    def add_experiment(p, trials: int):  # what _sim_config reads, and --out
        add_design_source(p)
        p.add_argument("--nr", type=int, help="receive antennas (default: layers)")
        p.add_argument("--constellation", default="4qam")
        p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--decoder", default="auto", choices=tuple(_DECODERS))
        p.add_argument("--out")

    p = sub.add_parser("clifford", help="generator matrices")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pd = csub.add_parser("dump", help="emit the generators as matrix text")
    pd.add_argument("--a", type=int, required=True)
    pd.add_argument("--sign", type=int, choices=(1, -1), default=1)
    pd.add_argument("--out")
    pd.set_defaults(func=cmd_clifford_dump)

    p = sub.add_parser("design", help="build / verify / dump designs")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    pb = dsub.add_parser("build", help="construct a design file")
    pb.add_argument("--a", type=int, required=True)
    pb.add_argument("--layers", type=int, default=1)
    pb.add_argument("--layer-scalar", dest="layer_scalar", default="1")
    pb.add_argument("--sign", type=int, choices=(1, -1), default=1)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_design_build)
    pv = dsub.add_parser("verify", help="certify a design file")
    pv.add_argument("--design", required=True)
    pv.set_defaults(func=cmd_design_verify)
    pp = dsub.add_parser("dump", help="print a design file")
    pp.add_argument("--design", required=True)
    pp.set_defaults(func=cmd_design_dump)

    p = sub.add_parser("channel", help="equivalent-channel analysis")
    chsub = p.add_subparsers(dest="subcommand", required=True)
    pc = chsub.add_parser("profile", help="R-matrix zero structure")
    add_design_source(pc)
    pc.add_argument("--nr", type=int, required=True)
    pc.add_argument("--seeds", type=int, default=100)
    pc.add_argument("--tol", type=float, default=1e-9)
    pc.add_argument("--seed", type=int, default=seed)
    pc.add_argument("--out", help="per-entry |R| statistics CSV")
    pc.set_defaults(func=cmd_channel_profile)

    p = sub.add_parser("decode", help="per-trial decode log")
    add_experiment(p, trials=100)
    p.add_argument("--snr-db", dest="snr_db", type=float, required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("capacity", help="ergodic capacity")
    casub = p.add_subparsers(dest="subcommand", required=True)
    pcs = casub.add_parser("sweep", help="capacity vs snr, CSV out")
    add_design_source(pcs)
    pcs.add_argument("--nr", type=int, required=True)
    pcs.add_argument("--snr-db", dest="snr_db", required=True,
                     help="'A:B:STEP' or comma list")
    pcs.add_argument("--trials", type=int, default=1000)
    pcs.add_argument("--seed", type=int, default=seed)
    pcs.add_argument("--out")
    pcs.set_defaults(func=cmd_capacity_sweep)

    p = sub.add_parser("sim", help="error-rate simulation")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    ps = ssub.add_parser("sweep", help="SER/CER sweep, CSV out")
    ps.add_argument("--config", help="key=value config file (flags win)")
    add_experiment(ps, trials=1000)
    ps.add_argument("--snr-db", dest="snr_db", default="10")
    ps.add_argument("--noise-scale", dest="noise_scale", type=float, default=1.0)
    ps.add_argument("--timing", action="store_true",
                    help="write measured wall time into the CSV "
                         "(breaks byte-identical re-runs)")
    ps.set_defaults(func=cmd_sim_sweep, **(sweep_defaults or {}))

    p = sub.add_parser("gain", help="coding gain")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    pg = gsub.add_parser("min-det", help="brute-force minimum determinant")
    add_design_source(pg)
    pg.add_argument("--alphabet", default="4qam")
    pg.add_argument("--rotation", default="builtin",
                    help="'builtin', 'none' or a rotation matrix file")
    pg.set_defaults(func=cmd_gain_min_det)

    p = sub.add_parser("verify-all", help="run every certification")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "config", None):  # config entries: below flags, above defaults
        entries = parse_config_file(args.config)
        unknown = sorted(set(entries) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
        args = build_parser(entries).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
