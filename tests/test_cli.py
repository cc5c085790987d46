"""CLI: config parsing, subcommand smoke tests, determinism, exit codes."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from chanpred import ConfigError, import_trace, mean_nmse, prepare_link, snr_sweep
from chanpred.channel import SYNTH_CHUNK
from chanpred.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    _fmt,
    canonical_json,
    config_from_dict,
    config_hash,
    config_to_dict,
    main,
    parse_config,
)
from chanpred.pipelines import PERSISTENCE

MICRO = {
    "m_h": 2, "m_v": 2, "subcarriers": 3, "paths": 7,
    "speed_mps": 6.0 / 3.6, "doppler_grid_blocks": 60, "doppler_offset_hz": 10.0,
    "n0": 2, "n_tr": 12, "n_tr_prime": 4, "n_gap": 14, "n_te": 4,
    "hidden": [16], "batch_size": 16, "epochs": 25,
    "snr_db": [10.0], "seeds": [1],
}


@pytest.fixture()
def micro_cfg_file(tmp_path):
    path = tmp_path / "micro.json"
    path.write_text(json.dumps(MICRO))
    return str(path)


class TestParseConfig:
    def test_empty_config_gives_paper_defaults(self):
        cfg = parse_config()
        assert cfg.channel.n_antennas == 64
        assert cfg.channel.n_subcarriers == 50
        assert cfg.n0 == 3
        assert cfg.hidden == (512, 512)
        assert cfg.batch_size == 128
        assert cfg.learning_rate == pytest.approx(1e-3)
        assert cfg.epochs == 1000
        assert cfg.n_tr == 1000
        assert cfg.n_tr_prime == 20

    def test_desk_preset(self):
        cfg = parse_config(preset="desk")
        assert cfg.channel.n_antennas == 16
        assert cfg.channel.n_subcarriers == 16
        assert cfg.n_tr == 160 and cfg.n_tr_prime == 10
        assert cfg.epochs == 200
        cfg.validate()

    def test_gap_smaller_than_n_tr_rejected(self):
        with pytest.raises(ConfigError, match="n_gap"):
            config_from_dict({**MICRO, "n_gap": 9, "n_tr": 12})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({**MICRO, "subcariers": 4})

    def test_emitted_config_round_trips(self):
        cfg = config_from_dict(MICRO)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict(MICRO)
        b = config_from_dict({**MICRO, "n_te": 5})
        assert config_hash(a) == config_hash(a)
        assert config_hash(a) != config_hash(b)

    def test_budget_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="n_tr"):
            config_from_dict({**MICRO, "n_tr": 13})

    def test_n_tr_follows_n_tr_prime(self):
        cfg = config_from_dict({"preset": "desk", "n_tr_prime": 5})
        assert cfg.n_tr == 5 * cfg.channel.n_subcarriers == 80
        assert config_to_dict(cfg)["n_tr"] == 80

    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_n_tr_prime_named(self, value):
        # by its own name, not as the derived n_tr = n_tr_prime * L
        with pytest.raises(ConfigError, match=rf"^n_tr_prime must be >= 1, got {value}$"):
            config_from_dict({"preset": "desk", "n_tr_prime": value})

    @pytest.mark.parametrize("key, value", [
        ("n_tr_prime", 10.9),   # non-integral number in an integer field
        ("m_h", 4.7),
        ("epochs", True),       # boolean
        ("seeds", "12"),        # string where a list is expected
        ("hidden", "64"),
    ])
    def test_coercible_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            config_from_dict({**MICRO, key: value})

    @pytest.mark.parametrize("key, value", [
        ("speed_mps", float("nan")),
        ("snr_db", [float("nan")]),
        ("learning_rate", float("inf")),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            config_from_dict({**MICRO, key: value})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO, key: value}))   # NaN / Infinity tokens
        trace = tmp_path / "x.trace"
        assert main(["generate", "--config", str(bad), "--out", str(trace)]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not trace.exists()

    def test_preset_must_be_a_string(self, tmp_path):
        with pytest.raises(ConfigError, match="'preset'"):
            config_from_dict({**MICRO, "preset": ["desk"]})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": ["desk"]}))
        assert main(["generate", "--config", str(bad),
                     "--out", str(tmp_path / "x.trace")]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [
        ("snr_db", [10, 10]),
        ("seeds", [1, 1]),
        ("approaches", ["jl", "jl"]),
    ])
    def test_duplicate_list_entries_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} has duplicate"):
            config_from_dict({**MICRO, key: value})

    def test_channel_seed_is_not_a_second_seed(self):
        # the channel follows each run's seed; only the emitted value 1 is accepted
        cfg = config_from_dict({**MICRO, "channel_seed": 1})
        assert cfg == config_from_dict(MICRO)
        assert '"channel_seed":1' in canonical_json(cfg)
        with pytest.raises(ConfigError, match=r"^channel_seed must be 1: each run's channel "
                           r"follows its seed in 'seeds' \(got channel_seed=5\)$"):
            config_from_dict({**MICRO, "channel_seed": 5})

    @pytest.mark.parametrize("preset, digest", [("paper", "7cf8f54dec2b"),
                                                ("desk", "665855d922ce")])
    def test_preset_config_hash_pinned(self, preset, digest):
        # the hash names the run behind every CSV; a change to the canonical
        # keys or their values moves it and must be declared
        cfg = parse_config(preset=preset)
        assert len(config_to_dict(cfg)) == 26
        assert config_hash(cfg) == digest

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.json")


class TestSubcommands:
    def test_generate_import_estimate_chain(self, tmp_path, micro_cfg_file, capsys):
        trace = str(tmp_path / "true.trace")
        assert main(["generate", "--config", micro_cfg_file, "--out", trace,
                     "--blocks", "30"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config_hash:" in out and "seeds:" in out

        assert main(["import", "--trace", trace]) == EXIT_OK
        assert "trace ok" in capsys.readouterr().out

        est = str(tmp_path / "est.trace")
        assert main(["estimate", "--config", micro_cfg_file, "--trace", trace,
                     "--out", est]) == EXIT_OK
        tensor = import_trace(est)
        assert tensor.provenance == "estimated"
        assert tensor.n_blocks == 30

    def test_file_chain_reproduces_prepare_link(self, tmp_path, capsys):
        # generate and estimate each spell out the seed and stream tags that
        # prepare_link uses; the estimated file must carry its kept blocks bit
        # for bit (the head of 14 blocks, sl's, meets the tail at n_gap; a
        # jldt cell's head is 6), and the true file's label blocks its labels
        for approaches, head in ((["sl", "sl_small", "jl", "jldt"], 14), (["jldt"], 6)):
            cfg_file = tmp_path / f"{len(approaches)}.json"
            cfg_file.write_text(json.dumps({**MICRO, "approaches": approaches}))
            trace, est = str(tmp_path / "true.trace"), str(tmp_path / "est.trace")
            flags = ["--config", str(cfg_file), "--seed", "3", "--snr-db", "7.5"]
            assert main(["generate", *flags, "--out", trace]) == EXIT_OK
            assert main(["estimate", *flags, "--trace", trace, "--out", est]) == EXIT_OK
            capsys.readouterr()
            cfg = parse_config(str(cfg_file))
            assert cfg.head_blocks == head
            labels, want = prepare_link(cfg, 7.5, 3)
            got = import_trace(est)
            assert got.provenance == want.provenance
            kept = np.concatenate([got.values[:head], got.values[cfg.n_gap:]])
            assert np.array_equal(kept.view(np.uint64), want.values.view(np.uint64))
            truth = import_trace(trace)
            assert truth.provenance == "true"
            first = cfg.n_gap + cfg.n0
            assert np.array_equal(truth.values[first:first + cfg.n_te],
                                  labels.require("true", cfg.n_te).read(0, cfg.n_te))

    def test_correlate_row_count_and_determinism(self, tmp_path, micro_cfg_file):
        out1 = str(tmp_path / "corr1.csv")
        out2 = str(tmp_path / "corr2.csv")
        args = ["correlate", "--config", micro_cfg_file, "--n-avg", "20",
                "--max-shift", "3"]
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        body1 = Path(out1).read_text()
        assert body1 == Path(out2).read_text()
        rows = [l for l in body1.splitlines() if not l.startswith("#")]
        # header + (max_shift+1) rows per domain: subcarrier shifts 0..3, then antenna
        assert rows[0] == "shift,domain,auto_mag,cross_mag"
        assert [tuple(r.split(",")[:2]) for r in rows[1:]] == (
            [(str(k), "subcarrier") for k in range(4)] + [(str(k), "antenna") for k in range(4)])

    def test_correlate_single_series_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "one_antenna.json"
        cfg.write_text(json.dumps({**MICRO, "m_h": 1, "m_v": 1}))
        out = tmp_path / "corr.csv"
        # refused before any block of the link is made
        with mock.patch("chanpred.channel.synthesize") as synth:
            assert main(["correlate", "--config", str(cfg), "--n-avg", "20",
                         "--max-shift", "3", "--out", str(out)]) == EXIT_RUNTIME
        assert "antenna domain has 1 series" in capsys.readouterr().err
        synth.assert_not_called()
        assert not out.exists()  # no CSV, so no nan rows

    @pytest.mark.parametrize("window, name", [(["--n-avg", "-20", "--max-shift", "16"], "n_avg"),
                                              (["--max-shift", "-5"], "max_shift"),
                                              (["--n-avg", "0"], "n_avg")])
    def test_correlate_window_checked_before_synthesis(self, tmp_path, capsys, window, name):
        out = tmp_path / "corr.csv"
        # the study makes its link through channel.synthesize; with n_avg <= 0
        # it would read no block, so the paths, drawn before any, show a late
        # check too
        with mock.patch("chanpred.channel.synthesize") as synth, \
                mock.patch("chanpred.cli.draw_paths",
                           side_effect=AssertionError("paths drawn before the check")) as paths:
            code = main(["correlate", "--preset", "desk", *window, "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert f"error: {name} must be" in capsys.readouterr().err
        synth.assert_not_called()
        paths.assert_not_called()
        assert not out.exists()

    def test_correlate_memory_does_not_grow_with_n_avg(self, tmp_path):
        # paper dims, L = 50 and M = 64: the study holds about one synthesis
        # chunk and one FFT window of the link, whatever --n-avg is; the link
        # of n_avg = 2000 alone is eight chunks
        out = str(tmp_path / "corr.csv")
        peaks = {}
        for n_avg in (500, 2000):
            tracemalloc.start()
            try:
                assert main(["correlate", "--preset", "paper", "--n-avg", str(n_avg),
                             "--max-shift", "16", "--out", out]) == EXIT_OK
                peaks[n_avg] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block = 50 * 64 * 16
        window = 64 * block   # the FFT length at max_shift 16
        assert peaks[2000] < peaks[500] + window
        assert peaks[2000] < 3 * SYNTH_CHUNK * block

    def test_run_deterministic_outputs(self, tmp_path, micro_cfg_file):
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        base = ["run", "--config", micro_cfg_file, "--approach", "jldt",
                "--seed", "7"]
        assert main(base + ["--out", out1]) == EXIT_OK
        assert main(base + ["--out", out2]) == EXIT_OK
        assert Path(out1).read_text() == Path(out2).read_text()

    def test_sweep_writes_row_per_approach_snr(self, tmp_path, micro_cfg_file):
        out = str(tmp_path / "nmse.csv")
        loss = str(tmp_path / "loss.csv")
        assert main(["sweep", "--config", micro_cfg_file, "--out", out,
                     "--loss-out", loss]) == EXIT_OK
        lines = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "approach,snr_db,nmse_db,seed_count,overhead_blocks"
        assert len(lines) == 1 + 4  # four approaches, one SNR
        approaches = [l.split(",")[0] for l in lines[1:]]
        assert set(approaches) == {"sl", "sl_small", "jl", "jldt"}
        loss_lines = [l for l in Path(loss).read_text().splitlines() if not l.startswith("#")]
        assert loss_lines[0] == "approach,snr_db,seed,series,epoch,loss"
        assert len(loss_lines) > MICRO["epochs"]

    def test_sweep_table_follows_from_the_cells(self, tmp_path, capsys):
        config = tmp_path / "micro.json"
        config.write_text(json.dumps({**MICRO, "seeds": [1, 2], "snr_db": [0.0, 10.0]}))
        out = tmp_path / "nmse.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        cfg = parse_config(str(config))
        cells = snr_sweep(cfg)
        for label in (PERSISTENCE, *cfg.approaches):
            for snr in cfg.snr_db:
                seeds = [c.nmse for c in cells if c.approach == label and c.snr_db == snr]
                assert len(seeds) == len(cfg.seeds)
                assert mean_nmse(cells, label, snr) == float(np.mean(seeds))
        with pytest.raises(KeyError):
            mean_nmse(cells, "jdlt", cfg.snr_db[0])
        rows = [",".join(_fmt(v) for v in (
                    a, snr, 10.0 * float(np.log10(mean_nmse(cells, a, snr))), len(cfg.seeds),
                    cfg.overhead_blocks(a)))
                for a in cfg.approaches for snr in cfg.snr_db]
        persistence = [f"persistence snr={snr:6.1f} dB  "
                       f"nmse={10 * np.log10(mean_nmse(cells, PERSISTENCE, snr)):8.2f} dB"
                       for snr in cfg.snr_db]
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[1:] == rows   # no persistence row
        assert [l for l in printed if l.startswith("persistence")] == persistence

    def test_save_models_writes_checkpoints(self, tmp_path, micro_cfg_file):
        outdir = tmp_path / "models"
        assert main(["run", "--config", micro_cfg_file, "--approach", "jl",
                     "--save-models", str(outdir)]) == EXIT_OK
        files = list(outdir.glob("*.txt"))
        assert len(files) == 1
        from chanpred import load_model
        model = load_model(files[0])
        assert model.dims[0] == 2 * MICRO["n0"] * 4  # 2*n0*M

    def test_save_models_names_checkpoints_by_exact_snr(self, tmp_path, micro_cfg_file):
        # two SNRs that print alike under :g train two models; both are kept
        outdir = tmp_path / "models"
        assert main(["run", "--config", micro_cfg_file, "--approach", "jl",
                     "--snr-db", "10,10.0000001", "--save-models", str(outdir)]) == EXIT_OK
        files = sorted(outdir.glob("*.txt"))
        assert [f.name for f in files] == ["jl_snr10.0000001_seed1_series0.txt",
                                           "jl_snr10.0_seed1_series0.txt"]
        from chanpred import load_model
        a, b = (load_model(f) for f in files)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    @pytest.mark.parametrize("command, flag, path, message", [
        pytest.param("run", "--out", "missing/x.csv",
                     "[Errno 2] No such file or directory: '{}'", id="out-parent-missing"),
        pytest.param("sweep", "--loss-out", "missing/loss.csv",
                     "[Errno 2] No such file or directory: '{}'", id="loss-out-parent-missing"),
        pytest.param("run", "--save-models", "file.txt",
                     "[Errno 17] File exists: '{}'", id="save-models-is-a-file")])
    def test_output_paths_refused_before_training(self, tmp_path, micro_cfg_file, capsys,
                                                  command, flag, path, message):
        (tmp_path / "file.txt").write_text("")
        path = str(tmp_path / path)
        argv = [command, "--config", micro_cfg_file, flag, path]
        argv += ["--approach", "jl"] if command == "run" else ["--out", str(tmp_path / "x.csv")]
        with mock.patch("chanpred.cli.snr_sweep", side_effect=AssertionError("trained")):
            assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {message.format(path)}\n"

    def test_emit_config_round_trip(self, tmp_path, micro_cfg_file):
        emitted = str(tmp_path / "effective.json")
        trace = str(tmp_path / "t.trace")
        assert main(["generate", "--config", micro_cfg_file, "--out", trace,
                     "--blocks", "25", "--emit-config", emitted]) == EXIT_OK
        cfg1 = parse_config(micro_cfg_file)
        cfg2 = parse_config(emitted)
        assert cfg1 == cfg2

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO, "n_gap": 3}))
        trace = str(tmp_path / "x.trace")
        assert main(["generate", "--config", str(bad), "--out", trace]) == EXIT_CONFIG

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        trace = tmp_path / "x.trace"
        assert main(["generate", "--config", str(bad), "--out", str(trace)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not trace.exists()

    def test_runtime_error_exit_code(self, tmp_path):
        assert main(["import", "--trace", str(tmp_path / "missing.trace")]) == EXIT_RUNTIME

    @pytest.mark.parametrize("command, config", [
        (["generate", "--blocks", str(10 ** 12)], {"preset": "desk"}),   # in synthesize
        (["run", "--approach", "jldt"], {"preset": "desk", "n_te": 10 ** 12}),   # estimate_trace
    ])
    def test_unallocatable_size_is_runtime_error(self, tmp_path, capsys, command, config):
        # petabytes: past any address space, so refused at once under any overcommit mode
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "allocate" in err and "Traceback" not in err
        assert not out.exists()

    def test_malformed_trace_exit_code(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("chanpred-trace v1\nN=2 L=2 M=2 domain=subcarrier provenance=true\n1 1 1 0 0\n")
        assert main(["import", "--trace", str(bad)]) == EXIT_RUNTIME

    @pytest.mark.parametrize("flags, config_error", [
        (["--tau", "0"], True),
        (["--seeds", ","], True),
        (["--snr-db", ","], True),
        (["--blocks", "0"], False),
        (["--blocks", "-3"], False),
    ])
    def test_given_overrides_are_not_ignored(self, tmp_path, flags, config_error):
        trace = tmp_path / "t.trace"
        code = main(["generate", "--preset", "desk", *flags, "--out", str(trace)])
        assert code == EXIT_CONFIG if config_error else code != EXIT_OK
        assert not trace.exists()

    @pytest.mark.parametrize("command, flags", [
        ("generate", ["--seeds", "1,2"]),
        ("correlate", ["--seeds", "3,4"]),
        ("estimate", ["--seeds", "1,2"]),
        ("estimate", ["--snr-db", "5,10"]),
    ])
    def test_single_run_commands_reject_extra_entries(self, tmp_path, micro_cfg_file, capsys,
                                                      command, flags):
        # each command runs one seed (and estimate one SNR): a longer list
        # given as a flag is an error, not silently cut to its first entry
        trace = str(tmp_path / "t.trace")
        assert main(["generate", "--config", micro_cfg_file, "--blocks", "25",
                     "--out", trace]) == EXIT_OK
        out = tmp_path / "out"
        extra = ["--trace", trace] if command == "estimate" else []
        capsys.readouterr()
        code = main([command, "--config", micro_cfg_file, *flags, *extra, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_preset_lists_keep_their_first_entry(self, tmp_path):
        # the preset's seeds are [1, 2, 3]; a single-run command takes seed 1
        trace = tmp_path / "t.trace"
        assert main(["generate", "--preset", "desk", "--blocks", "5",
                     "--out", str(trace)]) == EXIT_OK
        assert trace.exists()

    def test_seed_and_seeds_are_exclusive(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--preset", "desk", "--seed", "1", "--seeds", "2",
                  "--out", str(trace)])
        assert exc.value.code == EXIT_CONFIG
        assert "not allowed with argument" in capsys.readouterr().err
        assert not trace.exists()

    def test_snr_and_tau_overrides(self, tmp_path, micro_cfg_file, capsys):
        trace = str(tmp_path / "t.trace")
        assert main(["generate", "--config", micro_cfg_file, "--out", trace,
                     "--blocks", "25", "--snr-db", "3.5", "--tau", "2"]) == EXIT_OK
        echoed = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("config:")][0]
        data = json.loads(echoed.split("config: ", 1)[1])
        assert data["snr_db"] == [3.5]
        assert data["tau"] == 2
