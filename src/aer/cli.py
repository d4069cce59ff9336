"""Configuration-driven command line: single runs, alpha sweeps and the
component ablation matrix, with manifests and deterministic CSV outputs.

Exit codes: 0 success, 2 configuration error, 3 numerical abort,
4 I/O or data-file error.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import PRESETS, config_hash, load_config, parse_option
from .engine import run_single, train_reference
from .errors import ConfigError, InputError, NumericalError, ParseError
from .metrics import summary_row, write_summary_csv, write_trace_csv, write_trace_jsonl

OUT_ROOT_ENV = "AER_OUT_ROOT"

# (summary label, preset) per rung of the component ablation
ABLATION_VARIANTS = [
    ("er", "er"),
    ("er_ace", "er_ace"),
    ("er_ace_alpha", "er_ace_alpha"),
    ("er_ace_alpha_aer", "er_ace_alpha_aer"),
    ("er_ace_abs", "er_ace_abs"),
    ("full_aer_abs", "aer_abs"),
    ("full_minus_ace", "full_minus_ace"),
]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aer",
        description="Continual-learning engine for noisy class-incremental streams")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured method over all seeds")
    sweep_p = sub.add_parser("sweep-alpha",
                             help="rerun the configured method across insertion cutoffs")
    ablate_p = sub.add_parser("ablate", help="run the component ablation matrix")
    for p in (run_p, sweep_p, ablate_p):
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--seeds", help="comma-separated seed list overriding the config")
        p.add_argument("--out", help="output directory (default: runs/<name>, "
                                     f"root overridable via ${OUT_ROOT_ENV})")
    sweep_p.add_argument("--alphas", required=True,
                         help="comma-separated insertion-cutoff percentages")
    return parser


def _apply_flag(cfg, flag, ini, text):
    """``cfg`` with option ``ini`` parsed from a flag's text and validated;
    a ``ConfigError`` names the flag before the option."""
    try:
        name, value = parse_option(ini, text)
        return dataclasses.replace(cfg, **{name: value}).validate()
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _resolve_out_dir(arg_out, command, variants):
    """``--out``, or ``<root>/<command>[-<method>]-<key>`` keyed by what the
    variants run: ``method`` when they all run one, and ``key`` the first 12
    hex digits of the single variant's ``config_hash``, or of the sha256 of
    all the variants' hashes."""
    if arg_out:
        return Path(arg_out)
    hashes = [config_hash(vcfg) for _, vcfg in variants]
    key = hashes[0] if len(hashes) == 1 else hashlib.sha256("".join(hashes).encode()).hexdigest()
    methods = {vcfg.method for _, vcfg in variants}
    name = "-".join([command, *(methods if len(methods) == 1 else ()), key[:12]])
    root = os.environ.get(OUT_ROOT_ENV)
    return (Path(root) if root else Path("runs")) / name


def _run_variants(cfg, variants, out_dir):
    """Execute (label, cfg) variants, each running the method its
    ``cfg.method`` names; write all artifacts and return the summary rows."""
    try:
        reference = train_reference(cfg)
    except NumericalError:
        # the reference model only feeds the diversity column; a divergence
        # here must not preempt the seeded runs and their state dumps
        warnings.warn("reference model training diverged; diversity left empty")
        reference = None
    rows = []
    outputs = []

    def output(path):
        """``path``, its directory made and its name recorded for the manifest."""
        path.parent.mkdir(parents=True, exist_ok=True)
        outputs.append(path)
        return path

    for label, vcfg in variants:
        vdir = out_dir if len(variants) == 1 else out_dir / label
        records = []
        for seed in vcfg.seeds:
            # called only inside this iteration's run_single
            def dump_buffer(task, model, buffer):
                if buffer is not None and len(buffer):
                    buffer.dump_jsonl(output(vdir / f"buffer_task{task}_seed{seed}.jsonl"))

            rec = run_single(vcfg, seed, reference_model=reference,
                             on_task_end=dump_buffer, dump_dir=vdir)
            records.append(rec)
            write_trace_csv(rec.traces, output(vdir / f"trace_seed{seed}.csv"))
            write_trace_jsonl(rec.traces, output(vdir / f"trace_seed{seed}.jsonl"))
            if rec.consolidation_reports:
                output(vdir / f"consolidation_seed{seed}.json").write_text(
                    json.dumps(rec.consolidation_reports, sort_keys=True))
        if records[0].noise_report is not None:
            output(vdir / "noise_manifest.json").write_text(
                json.dumps(records[0].noise_report, sort_keys=True))
        rows.append(summary_row(label, vcfg, records))
    write_summary_csv(rows, output(out_dir / "summary.csv"))
    manifest = {
        "tool_version": __version__,
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash(cfg),
        "variants": [label for label, _ in variants],
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": sorted(str(p.relative_to(out_dir)) for p in outputs),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True))
    return rows


def _print_rows(rows):
    header = f"{'label':<20} {'faa':>8} {'ff':>8} {'purity':>8} {'diversity':>10}"
    print(header)
    for row in rows:
        def cell(v, width):
            return f"{v:>{width}.4f}" if isinstance(v, float) else f"{'-':>{width}}"
        print(f"{row['label']:<20} {cell(row['faa_mean'], 8)} "
              f"{cell(row['ff_mean'], 8)} {cell(row['purity_mean'], 8)} "
              f"{cell(row['diversity_mean'], 10)}")


def _variants(args, cfg):
    """The (label, cfg) list the command runs."""
    if args.command == "ablate":
        return [(label, dataclasses.replace(cfg, method=method))
                for label, method in ABLATION_VARIANTS]
    if args.command == "run":
        return [(cfg.method, cfg)]
    if not PRESETS[cfg.method].alpha_gate:
        raise ConfigError(f"--alphas: {cfg.method} has no alpha gate to sweep")
    cfgs = [_apply_flag(cfg, "--alphas", "run.alpha", a)
            for a in args.alphas.split(",") if a.strip()]
    if not cfgs:
        raise ConfigError("--alphas: need at least one value")
    # each alpha writes to its own alpha=<value:g> directory
    values = [f"{c.alpha:g}" for c in cfgs]
    if len(set(values)) != len(values):
        raise ConfigError(f"--alphas: must be distinct, got [{', '.join(values)}]")
    return [(f"alpha={v}", c) for v, c in zip(values, cfgs)]


def run_command(args):
    """Load the config, apply ``--seeds``, run the command's variants and
    print their summary rows."""
    cfg = load_config(args.config)
    if args.seeds is not None:
        cfg = _apply_flag(cfg, "--seeds", "run.seeds", args.seeds)
    variants = _variants(args, cfg)
    out_dir = _resolve_out_dir(args.out, args.command, variants)
    rows = _run_variants(cfg, variants, out_dir)
    _print_rows(rows)
    print(f"artifacts written to {out_dir}")
    return 0


def _format_warning(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning prints as "warning: <message>", without its code location;
    # the filters and the recording hooks stay as the caller set them
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        # an overflow or invalid value names no field or stage; the MLP's
        # finiteness checks turn a diverging run into the numerical abort that does
        with np.errstate(over="ignore", invalid="ignore"):
            return run_command(args)
    except (ConfigError, InputError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array the config sizes does not fit
        print(f"configuration error: {exc}; sized by run.buffer_capacity, run.batch_size, "
              "run.hidden, dataset.dims, dataset.per_class, dataset.classes", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
