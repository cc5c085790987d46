"""Command-line entry point.

Subcommands: generate, import, estimate, correlate, run, sweep. Every run
prints the effective configuration (JSON), its hash, and the seed set; every
output file embeds the same configuration as comment lines, so results are
self-describing and reproducible. Exit codes: 0 success, 2 configuration
error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .channel import (
    ChannelConfig,
    SynthesizedLink,
    draw_paths,
    export_trace,
    import_trace,
    synthesize,
)
from .correlation import check_window, correlation_report
from .errors import ChanpredError, ConfigError
from .estimation import estimate_trace
from .mlp import save_model
from .pipelines import APPROACHES, PERSISTENCE, ExperimentConfig, mean_nmse, snr_sweep
from .rng import stream

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# flat config keys <-> (dataclass, field) mapping; CLI flags mirror these keys
_CHANNEL_KEYS = {
    "m_h": "m_h",
    "m_v": "m_v",
    "subcarriers": "n_subcarriers",
    "subcarrier_spacing_hz": "subcarrier_spacing",
    "carrier_hz": "carrier_freq",
    "speed_mps": "speed",
    "block_s": "block_duration",
    "paths": "n_paths",
    "delay_spread_s": "delay_spread",
    "doppler_grid_blocks": "doppler_grid_blocks",
    "doppler_offset_hz": "doppler_offset",
}
# echoed as a config key, so that hashes and CSV headers keep their bytes; a
# run's channel follows its seed in 'seeds', the argument of draw_paths
_CHANNEL_SEED = 1
_EXPERIMENT_KEYS = ("tau", "pilot_column", "snr_db", "n0", "n_tr", "n_tr_prime",
                    "n_gap", "n_te", "hidden", "batch_size", "learning_rate",
                    "epochs", "seeds", "approaches")

PRESETS = {
    # full experiment scale
    "paper": {},
    # small CI-speed variant: 4x4 UPA, 16 subcarriers, short chronological
    # split, and livelier channel dynamics (shorter Doppler grid window,
    # nonzero mean Doppler, moderate extra delay spread) so the shrunken
    # training windows exercise the same regime as the full-scale run
    "desk": {
        "m_h": 4, "m_v": 4, "subcarriers": 16,
        "speed_mps": 6.0 * 1000.0 / 3600.0,
        "doppler_grid_blocks": 250,
        "doppler_offset_hz": 9.6,
        "delay_spread_s": 4e-7,
        "n_tr_prime": 10, "n_gap": 240, "n_te": 100,
        "epochs": 200,
    },
}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {"channel_seed": _CHANNEL_SEED}
    for key, attr in _CHANNEL_KEYS.items():
        out[key] = getattr(cfg.channel, attr)
    for key in _EXPERIMENT_KEYS:
        value = getattr(cfg, key)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


def _cast_scalar(key: str, value, kind: type):
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r}: expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: expected a finite number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
    return kind(value)


def _cast(key: str, value, default):
    """Cast `value` to the type of the field's default (element-wise for tuples)."""
    if not isinstance(default, tuple):
        return _cast_scalar(key, value, type(default))
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key {key!r}: expected a list, got {value!r}")
    return tuple(_cast_scalar(key, v, type(default[0])) for v in value)


def config_from_dict(data: dict) -> ExperimentConfig:
    known = set(_CHANNEL_KEYS) | set(_EXPERIMENT_KEYS) | {"channel_seed", "preset"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    preset = _cast_scalar("preset", data.get("preset", "paper"), str)
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose one of {sorted(PRESETS)}")
    merged.update(PRESETS[preset])
    merged.update({k: v for k, v in data.items() if k != "preset"})

    chan_defaults = _defaults(ChannelConfig)
    channel = ChannelConfig(**{attr: _cast(key, merged[key], chan_defaults[attr])
                               for key, attr in _CHANNEL_KEYS.items() if key in merged})
    channel_seed = _cast("channel_seed", merged.get("channel_seed", _CHANNEL_SEED), _CHANNEL_SEED)
    if channel_seed != _CHANNEL_SEED:
        raise ConfigError(f"channel_seed must be {_CHANNEL_SEED}: each run's channel "
                          f"follows its seed in 'seeds' (got channel_seed={channel_seed})")
    exp_defaults = _defaults(ExperimentConfig)
    cfg = ExperimentConfig(channel=channel, **{key: _cast(key, merged[key], exp_defaults[key])
                                               for key in _EXPERIMENT_KEYS
                                               if key in merged and key != "n_tr"})
    # n_tr is derived from n_tr_prime; a given value must agree with it
    if "n_tr" in merged and _cast("n_tr", merged["n_tr"], 0) != cfg.n_tr:
        raise ConfigError(
            f"n_tr must equal n_tr_prime * L for a fair comparison "
            f"(n_tr={merged['n_tr']}, n_tr_prime={cfg.n_tr_prime}, "
            f"L={cfg.channel.n_subcarriers})")
    cfg.validate()
    return cfg


def canonical_json(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:12]


def parse_config(path: str | None = None, overrides: dict | None = None,
                 preset: str = "paper") -> ExperimentConfig:
    """Build the effective config from an optional JSON file plus overrides."""
    data = {"preset": preset}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                loaded = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        data.update(loaded)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)


def _echo_config(cfg: ExperimentConfig, seeds) -> None:
    print(f"config: {canonical_json(cfg)}")
    print(f"config_hash: {config_hash(cfg)}")
    print(f"seeds: {list(seeds)}")


def _write_csv(path, cfg, header_cols, rows) -> None:
    lines = [f"# config_hash: {config_hash(cfg)}", f"# config: {canonical_json(cfg)}",
             ",".join(header_cols)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _fmt(value) -> str:
    return format(value, ".10g") if isinstance(value, float) else str(value)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), default="paper")
    parser.add_argument("--config", help="JSON config file (keys mirror the flags)")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="single RNG seed override")
    seeds.add_argument("--seeds", type=_int_list, help="comma-separated seed list")
    parser.add_argument("--snr-db", type=_float_list, dest="snr_db",
                        help="comma-separated SNR list in dB")
    parser.add_argument("--tau", type=int, help="pilot length")
    parser.add_argument("--emit-config", help="write the effective config JSON here")


def _int_list(text: str):
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str):
    return [float(t) for t in text.split(",") if t]


def _effective_config(args) -> ExperimentConfig:
    overrides = {}
    if args.snr_db is not None:
        overrides["snr_db"] = args.snr_db
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    elif args.seed is not None:
        overrides["seeds"] = [args.seed]
    if getattr(args, "approach", None) is not None:
        overrides["approaches"] = [args.approach]
    cfg = parse_config(args.config, overrides, preset=args.preset)
    if args.emit_config:
        with open(args.emit_config, "w") as f:
            json.dump(config_to_dict(cfg), f, sort_keys=True, indent=2)
            f.write("\n")
    return cfg


def _single_seed_config(args, *flags) -> tuple[ExperimentConfig, int]:
    """Build and echo the config of a command that runs one seed; return it and the seed.

    A --seeds flag, or one of `flags`, that lists more than one entry is
    refused before the config is built.
    """
    for flag in ("seeds", *flags):
        if len(getattr(args, flag) or ()) > 1:
            raise ConfigError(f"--{flag.replace('_', '-')} takes one entry for {args.command}, "
                              f"got {getattr(args, flag)}")
    cfg = _effective_config(args)
    seed = cfg.seeds[0]
    _echo_config(cfg, [seed])
    return cfg, seed


def _cmd_generate(args) -> int:
    cfg, seed = _single_seed_config(args)
    blocks = cfg.required_blocks if args.blocks is None else args.blocks
    tensor = synthesize(cfg.channel, draw_paths(cfg.channel, seed), blocks)
    export_trace(tensor, args.out)
    print(f"wrote trace: {args.out} (N={tensor.n_blocks} L={tensor.n_subcarriers} "
          f"M={tensor.n_antennas})")
    return EXIT_OK


def _cmd_import(args) -> int:
    tensor = import_trace(args.trace)
    # sum of |h|^2 by one dot product, with no tensor-sized temporary
    power = float(np.vdot(tensor.values, tensor.values).real) / tensor.values.size
    print(f"trace ok: N={tensor.n_blocks} L={tensor.n_subcarriers} "
          f"M={tensor.n_antennas} provenance={tensor.provenance} "
          f"mean_element_power={power:.6g}")
    if args.out:
        export_trace(tensor, args.out)
        print(f"re-exported canonically: {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    cfg, seed = _single_seed_config(args, "snr_db")
    tensor = import_trace(args.trace)
    snr_db = cfg.snr_db[0]
    est = estimate_trace(tensor, cfg.scheme(snr_db), stream(seed, "pilot-noise"))
    export_trace(est, args.out)
    print(f"wrote estimated trace: {args.out} (snr_db={snr_db}, tau={cfg.tau})")
    return EXIT_OK


def _cmd_correlate(args) -> int:
    cfg, seed = _single_seed_config(args)
    check_window(args.max_shift, args.n_avg)
    if args.trace:
        source = import_trace(args.trace)
    else:
        source = SynthesizedLink(cfg.channel, draw_paths(cfg.channel, seed),
                                 args.n_avg + args.max_shift)
    report = correlation_report(source, args.max_shift, args.n_avg)
    rows = [(shift, domain, float(auto[shift]), float(cross[shift]))
            for domain, auto, cross in (
                ("subcarrier", report.subcarrier_auto, report.subcarrier_cross),
                ("antenna", report.antenna_auto, report.antenna_cross))
            for shift in range(args.max_shift + 1)]
    _write_csv(args.out, cfg, ("shift", "domain", "auto_mag", "cross_mag"), rows)
    print(f"wrote correlation study: {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """`sweep` runs the configured approaches; `run` the one given by --approach."""
    cfg = _effective_config(args)
    _echo_config(cfg, cfg.seeds)
    # refuse what open and makedirs would refuse below, before hours of training
    for path in (args.out, args.loss_out):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if args.save_models:
        os.makedirs(args.save_models, exist_ok=True)
    started = time.perf_counter()
    cells = snr_sweep(cfg, collect_models=bool(args.save_models))
    runtime = time.perf_counter() - started
    rows = [(a, float(snr), 10.0 * float(np.log10(mean_nmse(cells, a, snr))), len(cfg.seeds),
             cfg.overhead_blocks(a)) for a in cfg.approaches for snr in cfg.snr_db]
    for approach, snr, db, _, overhead in rows:
        print(f"{approach:9s} snr={snr:6.1f} dB  nmse={db:8.2f} dB  overhead={overhead} blocks")
    for snr in cfg.snr_db:
        value = mean_nmse(cells, PERSISTENCE, snr)
        print(f"persistence snr={float(snr):6.1f} dB  nmse={10*np.log10(value):8.2f} dB")
    print(f"runtime: {runtime:.1f} s")
    if args.out:
        _write_csv(args.out, cfg,
                   ("approach", "snr_db", "nmse_db", "seed_count", "overhead_blocks"), rows)
        print(f"wrote report: {args.out}")
    if args.loss_out:
        rows = []
        for cell in cells:
            for series, hist in sorted(cell.histories.items()):
                rows.extend((cell.approach, cell.snr_db, cell.seed, series, ep, loss)
                            for ep, loss in enumerate(hist))
        _write_csv(args.loss_out, cfg,
                   ("approach", "snr_db", "seed", "series", "epoch", "loss"), rows)
        print(f"wrote loss history: {args.loss_out}")
    if args.save_models:
        for cell in cells:
            for series, model in cell.models.items():
                name = f"{cell.approach}_snr{cell.snr_db!r}_seed{cell.seed}_series{series}.txt"
                save_model(model, os.path.join(args.save_models, name))
        print(f"saved models under: {args.save_models}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanpred",
        description="Wideband massive-MIMO channel prediction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a channel trace file")
    _add_common(p)
    p.add_argument("--blocks", type=int, help="number of coherence blocks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("import", help="validate (and canonicalize) a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("estimate", help="LS-estimate a true trace")
    _add_common(p)
    p.add_argument("--trace", required=True, help="input true trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("correlate", help="auto/cross correlation study (CSV)")
    _add_common(p)
    p.add_argument("--trace", help="analyze this trace instead of synthesizing")
    p.add_argument("--n-avg", type=int, default=2000, dest="n_avg")
    p.add_argument("--max-shift", type=int, default=16, dest="max_shift")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("run", help="run one prediction approach")
    _add_common(p)
    p.add_argument("--approach", choices=APPROACHES, required=True)
    p.add_argument("--out")
    p.add_argument("--loss-out", dest="loss_out")
    p.add_argument("--save-models", dest="save_models")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sweep", help="run all configured approaches over the SNR grid")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-out", dest="loss_out")
    p.set_defaults(func=_cmd_sweep, save_models=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ChanpredError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
