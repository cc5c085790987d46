"""Channel generator: path statistics, steering geometry, trace synthesis and I/O."""

import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chanpred import (
    ChannelConfig,
    ChannelTensor,
    ConfigError,
    ContractError,
    TraceFormatError,
    draw_paths,
    export_trace,
    import_trace,
    steering_vector,
    synthesize,
)
from chanpred.channel import SPEED_OF_LIGHT, SYNTH_CHUNK, SynthesizedLink
from chanpred.cli import parse_config
from chanpred.estimation import PilotScheme, estimate_trace
from chanpred.rng import stream
from conftest import FINITE_DOUBLES, LINE_CORRUPTIONS, corrupt_line, random_tensor


class TestDrawPaths:
    def test_single_static_path(self):
        cfg = ChannelConfig(n_paths=1, delay_spread=0.0)
        paths = draw_paths(cfg, 3)
        assert paths.n_paths == 1
        assert paths.delays[0] == 0.0
        assert np.isclose(np.abs(paths.gains[0]) ** 2, 1.0)

    def test_static_ue_has_zero_doppler(self):
        cfg = ChannelConfig(speed=0.0)
        paths = draw_paths(cfg, 4)
        assert np.all(paths.dopplers == 0.0)

    def test_doppler_bound(self):
        # oracle: nu_max = v * f_c / c = 2.3442 Hz at 1 km/h, 2.53 GHz
        cfg = ChannelConfig()
        bound = cfg.speed * cfg.carrier_freq / SPEED_OF_LIGHT
        assert np.isclose(bound, 2.3442, atol=5e-4)
        for seed in range(10):
            paths = draw_paths(cfg, seed)
            assert np.max(np.abs(paths.dopplers)) <= bound + 1e-12

    def test_power_normalized_exactly(self):
        for seed in range(5):
            paths = draw_paths(ChannelConfig(), seed)
            assert np.isclose(np.sum(np.abs(paths.gains) ** 2), 1.0, rtol=1e-12)

    def test_powers_follow_delay_profile(self):
        cfg = ChannelConfig()
        paths = draw_paths(cfg, 11)
        expected = np.exp(-paths.delays / cfg.delay_spread)
        expected /= expected.sum()
        assert np.allclose(np.abs(paths.gains) ** 2, expected, rtol=1e-9)

    def test_angle_ranges(self):
        paths = draw_paths(ChannelConfig(), 12)
        assert np.all((paths.azimuths >= -np.pi) & (paths.azimuths < np.pi))
        assert np.all((paths.elevations >= -np.pi / 2) & (paths.elevations < np.pi / 2))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ChannelConfig(n_paths=0).validate()
        with pytest.raises(ConfigError):
            ChannelConfig(delay_spread=-1e-9).validate()


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        assert np.allclose(steering_vector(0.0, 0.0, 4, 4), np.ones(16))

    def test_unit_modulus(self):
        rng = stream(9, "angles")
        for _ in range(20):
            sv = steering_vector(rng.uniform(-np.pi, np.pi),
                                 rng.uniform(-np.pi / 2, np.pi / 2), 3, 5)
            assert np.allclose(np.abs(sv), 1.0)

    def test_endfire_2x2_hand_values(self):
        # phase formula by hand: element (p, q) at flat index q*2+p with
        # theta=pi/2, phi=0 gives exp(j*pi*p) -> (1, -1, 1, -1)
        sv = steering_vector(np.pi / 2, 0.0, 2, 2)
        assert np.allclose(sv, [1, -1, 1, -1], atol=1e-12)


class TestSynthesize:
    def test_static_single_path_is_constant_rank_one(self):
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=4, n_paths=1,
                            delay_spread=0.0, speed=0.0)
        t = synthesize(cfg, draw_paths(cfg, 6), 10)
        assert np.allclose(t.values, t.values[0, 0][None, None, :])

    def test_power_within_5pct_of_m(self, default_trace):
        # Monte-Carlo check of the per-element power normalization over 2000 blocks
        m = default_trace.n_antennas
        power = np.mean(np.sum(np.abs(default_trace.values[:2000]) ** 2, axis=2))
        assert abs(power - m) / m < 0.05

    def test_far_subcarriers_stay_coherent(self, default_trace):
        # coherence bandwidth 1/(5*tau_rms) = 2 MHz >> 735 kHz span; brute force
        h1 = default_trace.values[:2000, 0, :]
        h50 = default_trace.values[:2000, 49, :]
        num = np.abs(np.sum(np.conj(h1) * h50))
        den = np.sqrt(np.sum(np.abs(h1) ** 2) * np.sum(np.abs(h50) ** 2))
        assert num / den > 0.9

    def test_temporal_smoothness_per_subcarrier(self, default_trace):
        v = default_trace.values[:2001]
        for l in range(0, 50, 7):
            r0 = np.sum(np.abs(v[:2000, l]) ** 2)
            r1 = np.abs(np.sum(np.conj(v[:2000, l]) * v[1:2001, l]))
            assert r1 / r0 > 0.99

    def test_frequency_coherence_monotone_on_average(self):
        # averaged over 20 seeds, cross-subcarrier correlation magnitude must
        # not increase with subcarrier distance
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=20)
        curves = []
        for seed in range(20):
            t = synthesize(cfg, draw_paths(cfg, seed), 400)
            v = t.values
            g = np.einsum("nlm,nkm->lk", np.conj(v), v)
            d = np.real(np.diag(g))
            norm = np.abs(g) / np.sqrt(np.outer(d, d))
            curve = [np.mean(np.diag(norm, k)) for k in range(1, 20)]
            curves.append(curve)
        avg = np.mean(curves, axis=0)
        assert np.all(np.diff(avg) <= 5e-3)

    def test_seeded_determinism(self):
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=5)
        a = synthesize(cfg, draw_paths(cfg, 21), 30)
        b = synthesize(cfg, draw_paths(cfg, 21), 30)
        assert np.array_equal(a.values, b.values)

    def test_all_finite_and_flags(self, default_trace):
        assert default_trace.provenance == "true"
        assert np.all(np.isfinite(default_trace.values))


    def test_first_block_continues_the_link(self):
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=3)
        paths = draw_paths(cfg, 22)
        whole = synthesize(cfg, paths, 2 * SYNTH_CHUNK + 5).values
        # a piece cut on chunk boundaries or anywhere else is the same bits
        tail = synthesize(cfg, paths, SYNTH_CHUNK + 5, SYNTH_CHUNK).values
        assert np.array_equal(tail, whole[SYNTH_CHUNK:])
        piece = synthesize(cfg, paths, 7, 100).values
        assert np.array_equal(piece, whole[100:107])
        with pytest.raises(ContractError, match="first_block"):
            synthesize(cfg, paths, 7, -1)


def _link_formula(cfg, paths, block):
    """values[block - 1] of the link from the synthesize formula, 1-based `block`."""
    L, M = cfg.n_subcarriers, cfg.n_antennas
    out = np.zeros((L, M), dtype=complex)
    for p in range(paths.n_paths):
        rot = paths.gains[p] * np.exp(2j * np.pi * paths.dopplers[p] * block * cfg.block_duration)
        freq = np.exp(-2j * np.pi * np.arange(L) * cfg.subcarrier_spacing * paths.delays[p])
        steer = steering_vector(paths.azimuths[p], paths.elevations[p], cfg.m_h, cfg.m_v)
        out += rot * freq[:, None] * steer[None, :]
    return out


class TestRangeInvariance:
    """synthesize(cfg, paths, n, lo) is blocks lo .. lo+n-1 of the whole link, bit for bit.

    A link is read by making just the blocks asked for, so every reader of
    one (correlation windows, estimation chunks, test labels) rests on this.
    """

    OFFSETS = (1, 63, 129, 257)   # odd, inside, at and past chunk edges
    WHOLE = 257 + 257

    @pytest.fixture(scope="class", params=["desk", "paper"])
    def link(self, request):
        cfg = parse_config(preset=request.param).channel
        paths = draw_paths(cfg, 1)
        return cfg, paths, synthesize(cfg, paths, self.WHOLE).values

    @pytest.mark.parametrize("n", [1, 2, 13, 63, 64, 65, 255, 256, 257])
    def test_any_range_is_the_whole_links_blocks(self, link, n):
        cfg, paths, whole = link
        for lo in self.OFFSETS:
            piece = synthesize(cfg, paths, n, lo).values
            assert np.array_equal(piece.view(np.uint64), whole[lo:lo + n].view(np.uint64))

    def test_blocks_are_counted_from_one(self, link):
        # a whole link and its pieces shifted alike would still agree; the
        # formula pins block lo of a piece to the link's 1-based block lo + 1
        cfg, paths, _ = link
        for lo in self.OFFSETS:
            got = synthesize(cfg, paths, 1, lo).values[0]
            assert np.allclose(got, _link_formula(cfg, paths, lo + 1), rtol=0, atol=1e-10)


class TestSynthesizedLink:
    @pytest.mark.parametrize("blocks", [1, SYNTH_CHUNK - 1, SYNTH_CHUNK, 2 * SYNTH_CHUNK + 5])
    def test_chunks_are_the_whole_link(self, blocks):
        # consecutive reads of any length give the bits of one synthesis
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3)
        paths = draw_paths(cfg, 23)
        link = SynthesizedLink(cfg, paths, blocks)
        assert (link.n_subcarriers, link.n_antennas) == (3, 2)
        edges = [*range(0, blocks, 37), blocks]
        pieces = [link.read(lo, hi) for lo, hi in zip(edges, edges[1:])]
        whole = synthesize(cfg, paths, blocks).values
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("lo, hi", [(-1, 3), (3, 3), (5, 4), (0, 11), (5, 100), (12, 15)])
    def test_read_outside_the_link_rejected(self, lo, hi):
        # a tensor of as many blocks refuses the same reads in the same words
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3)
        link = SynthesizedLink(cfg, draw_paths(cfg, 23), 10)
        messages = []
        for source in (link, synthesize(cfg, link.paths, 10)):
            with pytest.raises(ContractError, match="not blocks of a source of 10 blocks") as exc:
                source.read(lo, hi)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == f"blocks {lo} .. {hi - 1} are not blocks of a " \
                                             f"source of 10 blocks"

    @pytest.mark.parametrize("first_block", [1, 37, SYNTH_CHUNK - 3])
    def test_first_block_offsets_every_read(self, first_block):
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3)
        paths = draw_paths(cfg, 23)
        link = SynthesizedLink(cfg, paths, 20, first_block)
        whole = synthesize(cfg, paths, first_block + 20).values
        for lo, hi in ((0, 20), (0, 1), (7, 19), (19, 20)):
            want = whole[first_block + lo:first_block + hi]
            assert np.array_equal(link.read(lo, hi).view(np.uint64), want.view(np.uint64))
        with pytest.raises(ContractError, match="not blocks of a source of 20 blocks"):
            link.read(0, 21)

    def test_require_checks_length_and_provenance(self):
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3)
        link = SynthesizedLink(cfg, draw_paths(cfg, 23), 10)
        assert link.require("true", 10) is link
        with pytest.raises(ContractError, match="link of 10 blocks too short"):
            link.require("true", 11)
        with pytest.raises(ContractError, match="provenance 'estimated'"):
            link.require("estimated", 1)

    def test_unneeded_pieces_are_not_made(self, monkeypatch):
        # an estimate of a link makes only the estimation chunks (64 blocks)
        # that hold kept blocks, with the bits of estimating the whole link
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3)
        paths = draw_paths(cfg, 24)
        blocks = 3 * SYNTH_CHUNK + 5
        scheme = PilotScheme.dft(4, 1, snr_db=5.0)
        keep = [(3, 10), (300, 310), (770, blocks)]
        want = estimate_trace(synthesize(cfg, paths, blocks), scheme,
                              stream(24, "pilot-noise"), keep=keep).values
        made = []

        def counted(config, paths, n_blocks, first_block=0):
            made.append((first_block, n_blocks))
            return synthesize(config, paths, n_blocks, first_block)

        monkeypatch.setattr("chanpred.channel.synthesize", counted)
        got = estimate_trace(SynthesizedLink(cfg, paths, blocks), scheme,
                             stream(24, "pilot-noise"), keep=keep).values
        assert made == [(0, 64), (256, 64), (768, 5)]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTensorValidate:
    # 50 x 64 entries per block: the finiteness check goes 20 blocks at a time
    SHAPE = (45, 50, 64)

    @pytest.mark.parametrize("block", [0, 19, 20, 22, 44])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)])
    def test_non_finite_entry_rejected_in_any_block(self, block, bad):
        values = np.zeros(self.SHAPE, dtype=complex)
        values[block, 49, 63] = bad
        with pytest.raises(ContractError, match="non-finite"):
            ChannelTensor(values, "true").validate()
        values[block, 49, 63] = 0.0
        ChannelTensor(values, "true").validate()

    def test_peak_memory_at_paper_size(self):
        # the check's bool temporaries are bounded; the tensor's would be 5.45 MB
        tensor = ChannelTensor(np.zeros((1704, 50, 64), dtype=complex), "true")
        tracemalloc.start()
        try:
            tensor.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestTraceIO:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3)
        t = synthesize(cfg, draw_paths(cfg, 8), 7)
        path = tmp_path / "a.trace"
        export_trace(t, path)
        t2 = import_trace(path)
        assert np.array_equal(t.values, t2.values)
        assert t2.provenance == t.provenance

    def test_documented_sample_trace(self):
        t = import_trace("docs/sample_trace.txt")
        assert (t.n_blocks, t.n_subcarriers, t.n_antennas) == (4, 2, 2)
        assert t.provenance == "true"
        # hand-written values from the docs
        assert t.values[0, 0, 0] == 1.0 + 0.0j
        assert t.values[0, 0, 1] == 0.5 - 0.5j
        assert t.values[1, 1, 0] == -0.25 + 1.0j
        assert t.values[3, 1, 1] == 0.125 - 0.125j

    def test_missing_subcarrier_record_is_dimension_mismatch(self, tmp_path):
        cfg = ChannelConfig(m_h=1, m_v=1, n_subcarriers=2)
        t = synthesize(cfg, draw_paths(cfg, 9), 3)
        path = tmp_path / "bad.trace"
        export_trace(t, path)
        lines = path.read_text().splitlines()
        del lines[3]  # drop one subcarrier record from the first block
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="dimension mismatch"):
            import_trace(path)

    def test_nonfinite_value_names_record(self, tmp_path):
        path = tmp_path / "nan.trace"
        path.write_text(
            "chanpred-trace v1\n"
            "N=1 L=1 M=2 domain=subcarrier provenance=true\n"
            "1 1 1 0.5 0.5\n"
            "1 1 2 nan 0.0\n")
        with pytest.raises(TraceFormatError, match="line 4"):
            import_trace(path)

    def test_bad_magic_and_header(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("something else\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            import_trace(path)
        path.write_text("chanpred-trace v1\nN=2 L=2 domain=subcarrier provenance=true\n")
        with pytest.raises(TraceFormatError, match="missing field"):
            import_trace(path)

    def test_repeated_header_field_is_named(self, tmp_path):
        # the later N would otherwise win silently and fail as a count mismatch
        path = tmp_path / "x.trace"
        path.write_text("chanpred-trace v1\n"
                        "N=1 L=1 M=1 domain=subcarrier provenance=true N=2\n"
                        "1 1 1 0.5 0.5\n")
        with pytest.raises(TraceFormatError) as err:
            import_trace(path)
        assert str(err.value) == "line 2: trace header repeats field 'N'"
        path.write_text("chanpred-trace v1\n"
                        "N=1 L=1 M=1 domain=subcarrier provenance=true note=a\n"
                        "1 1 1 0.5 0.5\n")
        assert import_trace(path).values.shape == (1, 1, 1)   # an unknown field is accepted

    def test_signed_zeros_survive_import(self, tmp_path):
        path = tmp_path / "zeros.trace"
        path.write_text("chanpred-trace v1\n"
                        "N=1 L=1 M=2 domain=subcarrier provenance=true\n"
                        "1 1 1 -0 0\n"
                        "1 1 2 0 -0\n")
        values = import_trace(path).values.reshape(-1)
        assert np.signbit(values.real).tolist() == [True, False]
        assert np.signbit(values.imag).tolist() == [False, True]

    _VALID = ["chanpred-trace v1", "N=1 L=1 M=2 domain=subcarrier provenance=true",
              "1 1 1 0.5 -0.5", "1 1 2 0.25 0"]

    @pytest.mark.parametrize("edit, index, text, bad_line", [
        ("replace", 1, "N=1 L=1 M=2 domain=antenna provenance=true", 2),  # only one order
        ("insert", 3, "", 4),                     # blank line between records
        ("insert", 3, "   ", 4),                  # whitespace-only line
        ("insert", 3, "# a comment", 4),          # comment line between records
        ("replace", 2, "1 1 1 0.5 -0.5 # note", 3),   # trailing comment on a record
        ("insert", 4, "", 5),                     # blank line after the last record
        ("truncate", 2, None, 3),                 # header only: no records at all
    ])
    def test_malformed_lines_name_the_line(self, tmp_path, edit, index, text, bad_line):
        path = tmp_path / "t.trace"
        path.write_text("\n".join(self._VALID) + "\n")
        assert import_trace(path).values.shape == (1, 1, 2)
        lines = list(self._VALID)
        if edit == "replace":
            lines[index] = text
        elif edit == "insert":
            lines.insert(index, text)
        else:
            del lines[index:]
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")        # no parser warning may escape
            with pytest.raises(TraceFormatError, match=rf"^line {bad_line}:"):
                import_trace(path)

    def test_tensor_validation(self):
        with pytest.raises(Exception):
            ChannelTensor(np.zeros((2, 2)), "true").validate()
        bad = np.zeros((1, 1, 1), dtype=complex)
        bad[0, 0, 0] = np.inf
        with pytest.raises(Exception):
            ChannelTensor(bad, "true").validate()

    @pytest.mark.parametrize("shape", [(0, 2, 3), (4, 0, 3), (4, 3, 0)])
    def test_empty_axis_rejected(self, tmp_path, shape):
        # the trace reader refuses a zero dimension, so no tensor may have one
        tensor = ChannelTensor(np.zeros(shape, dtype=complex), "true")
        with pytest.raises(ContractError, match=re.escape(f"got shape {shape}")):
            tensor.validate()
        with pytest.raises(ContractError):
            export_trace(tensor, tmp_path / "empty.trace")
        assert not (tmp_path / "empty.trace").exists()


class TestStreamedImport:
    """import_trace reads one block of L*M records at a time.

    Its errors are those of reading the whole file at once and cutting it
    with str.splitlines, the line named included.
    """

    # 3 blocks of 2 x 2 records: block n (1-based) is lines 4n - 1 .. 4n + 2
    SHAPE = (3, 2, 2)

    def _lines(self, tmp_path):
        n, l, m = np.indices(self.SHAPE)
        values = (n + 0.5) - 1j * (l + m / 4)
        path = tmp_path / "t.trace"
        export_trace(ChannelTensor(values, "true"), path)
        return path, path.read_text().split("\n")[:-1]

    @staticmethod
    def _insert(index, text):
        return lambda lines: lines[:index] + [text] + lines[index:]

    @staticmethod
    def _replace(index, text):
        return lambda lines: lines[:index] + [text] + lines[index + 1:]

    @pytest.mark.parametrize("fault, message", [
        pytest.param(_replace(6, "2 1 2 1.5 -0"),
                     "line 7: trace dimension mismatch: expected record (n,l,m)=(2, 1, 1), "
                     "found ('2', '1', '2')", id="block-2-first-line-index"),
        pytest.param(_replace(6, "2 1 1 1.5 -0 x"),
                     "line 7: unparseable trace record '2 1 1 1.5 -0 x'",
                     id="block-2-first-line-token"),
        # float() reads both of these; the block's own parser refuses them
        pytest.param(_replace(8, "2 2 1 1_0 0.5"),
                     "line 9: unparseable trace record '2 2 1 1_0 0.5'",
                     id="digit-underscore"),
        pytest.param(_replace(8, "2 2 1 \uff11 0.5"),
                     "line 9: unparseable trace record '2 2 1 \uff11 0.5'",
                     id="fullwidth-digit"),
        pytest.param(_replace(13, "3 2 2 nan -1.25"),
                     "line 14: non-finite channel value in record (n,l,m)=(3, 2, 2)",
                     id="last-line-non-finite"),
        pytest.param(_replace(13, "3 2 2 2.5"),
                     "line 14: expected 5 fields 'n l m re im', found 4",
                     id="last-line-short"),
        pytest.param(lambda lines: lines[:-1],
                     "line 14: trace dimension mismatch: header declares 3x2x2 = 12 records, "
                     "found 11 lines", id="line-missing-at-end"),
        pytest.param(lambda lines: lines + ["3 2 2 2.5 -1.25"],
                     "line 15: trace dimension mismatch: header declares 3x2x2 = 12 records, "
                     "found 13 lines", id="line-extra-at-end"),
        pytest.param(lambda lines: lines + ["x", "y"],
                     "line 15: trace dimension mismatch: header declares 3x2x2 = 12 records, "
                     "found 14 lines", id="lines-extra-at-end"),
        pytest.param(_insert(6, ""),
                     "line 7: expected 5 fields 'n l m re im', found 0",
                     id="blank-line-at-block-boundary"),
        pytest.param(_insert(10, "   "),
                     "line 11: expected 5 fields 'n l m re im', found 0",
                     id="whitespace-line-at-block-boundary"),
        pytest.param(_replace(7, "2 1 2 1.5\x0c -0.25"),
                     "line 8: expected 5 fields 'n l m re im', found 4", id="form-feed-in-record"),
        pytest.param(_replace(7, "2 1 2 1.5\u2028 -0.25"),
                     "line 8: expected 5 fields 'n l m re im', found 4",
                     id="line-separator-in-record"),
        pytest.param(_replace(9, "2 2 2 1.5 -1.25\x0b"),   # a record, then a blank line
                     "line 11: expected 5 fields 'n l m re im', found 0",
                     id="vertical-tab-ends-block"),
    ])
    def test_error_names_the_line_of_a_whole_file_read(self, tmp_path, fault, message):
        path, lines = self._lines(tmp_path)
        assert import_trace(path).values.shape == self.SHAPE
        path.write_text("\n".join(fault(lines)) + "\n")
        with pytest.raises(TraceFormatError) as err:
            import_trace(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("fault, message", [
        pytest.param(lambda lines: lines,
                     "line 15: trace dimension mismatch: header declares 1000000000000x2x2 = "
                     "4000000000000 records, found 12 lines", id="records-end"),
        pytest.param(_replace(6, "2 1 2 1.5 -0"),
                     "line 7: trace dimension mismatch: expected record (n,l,m)=(2, 1, 1), "
                     "found ('2', '1', '2')", id="record-breaks-first"),
    ])
    def test_header_declaring_more_records_than_the_file_holds(self, tmp_path, fault, message):
        # 10**12 blocks is more than memory holds; the error is the one of
        # a header that overstates the records by one block
        path, lines = self._lines(tmp_path)
        lines[1] = lines[1].replace("N=3 ", f"N={10 ** 12} ")
        path.write_text("\n".join(fault(lines)) + "\n")
        with pytest.raises(TraceFormatError) as err:
            import_trace(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("n_blocks", [
        pytest.param(10 ** 17, id="more-than-an-address-space"),   # numpy: MemoryError
        pytest.param(10 ** 20, id="more-than-a-dimension")])       # numpy: ValueError
    def test_piped_header_declaring_more_than_memory_holds(self, tmp_path, n_blocks):
        # a pipe has no size to check the header against: the tensor it
        # declares cannot be made, and that is a format error of line 2
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        header = f"chanpred-trace v1\nN={n_blocks} L=1 M=1 domain=subcarrier provenance=true\n"
        writer = threading.Thread(target=fifo.write_text, args=(header,), daemon=True)
        writer.start()
        try:
            with pytest.raises(TraceFormatError) as err:
                import_trace(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(err.value).startswith(
            f"line 2: trace header declares {n_blocks}x1x1 = {n_blocks} records, "
            "more than memory holds: ")

    def test_records_split_by_any_line_break_are_read(self, tmp_path):
        # two records on one line, parted by \u2029, are two lines to splitlines
        path, lines = self._lines(tmp_path)
        want = import_trace(path).values
        path.write_text("\n".join(lines[:7] + [lines[7] + "\u2029" + lines[8]] + lines[9:]))
        assert np.array_equal(import_trace(path).values, want)

    def test_peak_memory_does_not_grow_with_the_file(self, tmp_path):
        # a 300-block desk trace: 256 records, 12.6 kB of text, per block.
        # Beside the tensor the reader holds the text reader's buffers
        # (about 30 kB), one block's lines as str objects (about twice its
        # text) and their parse; the whole file as lines is over 1000 blocks
        peaks = {}
        for blocks in (300, 600):
            cfg = parse_config(preset="desk").channel
            path = tmp_path / f"desk{blocks}.trace"
            export_trace(synthesize(cfg, draw_paths(cfg, 1), blocks), path)
            block_text = path.stat().st_size / blocks
            tracemalloc.start()
            try:
                tensor = import_trace(path)
                peaks[blocks] = tracemalloc.get_traced_memory()[1] - tensor.values.nbytes
            finally:
                tracemalloc.stop()
            assert peaks[blocks] < 10 * block_text
        assert abs(peaks[600] - peaks[300]) < block_text


@st.composite
def _tensors(draw):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    parts = draw(st.lists(FINITE_DOUBLES, min_size=2 * int(np.prod(shape)),
                          max_size=2 * int(np.prod(shape))))
    values = np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)
    return ChannelTensor(values, draw(st.sampled_from(["true", "estimated", "predicted"])))


def _savetxt_trace(tensor, path):
    # the trace bytes as np.savetxt writes them, the reference for export_trace
    N, L, M = tensor.values.shape
    n_idx, l_idx, m_idx = np.meshgrid(np.arange(1, N + 1), np.arange(1, L + 1),
                                      np.arange(1, M + 1), indexing="ij")
    flat = tensor.values.reshape(-1)
    with open(path, "w") as f:
        f.write("chanpred-trace v1\n")
        f.write(f"N={N} L={L} M={M} domain=subcarrier provenance={tensor.provenance}\n")
        np.savetxt(f, np.column_stack([n_idx.reshape(-1), l_idx.reshape(-1), m_idx.reshape(-1),
                                       flat.real, flat.imag]), fmt="%d %d %d %.17g %.17g")


_TRACE_RECORD = "%d %d %d %.17g %.17g\n"  # one record, n l m re im


class TestTraceFileProperties:
    @settings(max_examples=100, deadline=None)
    @given(_tensors())
    def test_export_matches_savetxt(self, tensor):
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = Path(tmp, "a.trace"), Path(tmp, "b.trace")
            export_trace(tensor, ours)
            _savetxt_trace(tensor, ref)
            assert ours.read_bytes() == ref.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(st.integers(1, 40), st.integers(1, 6), st.integers(1, 6)),
           st.integers(0, 10 ** 6))
    @example((5, 1, 4), 0)
    @example((5, 4, 1), 1)
    def test_export_matches_per_record_format(self, shape, seed):
        # each block is formatted at once; its bytes are those of one
        # _TRACE_RECORD per value, signed zeros, subnormals and 1e308 mixed in
        rng = stream(seed, "export-records")
        size = 2 * int(np.prod(shape))
        parts = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        parts[::7] = np.resize([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308], len(parts[::7]))
        tensor = ChannelTensor(parts.view(np.complex128).reshape(shape), "estimated")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "a.trace")
            export_trace(tensor, path)
            records = path.read_bytes().decode().splitlines(keepends=True)[2:]
        N, L, M = shape
        assert records == [_TRACE_RECORD % (n + 1, l + 1, m + 1, tensor.values[n, l, m].real,
                                            tensor.values[n, l, m].imag)
                           for n in range(N) for l in range(L) for m in range(M)]

    @settings(max_examples=100, deadline=None)
    @given(_tensors())
    def test_export_import_export_is_bit_exact(self, tensor):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.trace"), Path(tmp, "b.trace")
            export_trace(tensor, first)
            loaded = import_trace(first)
            export_trace(loaded, second)
            assert np.array_equal(loaded.values.view(np.uint64), tensor.values.view(np.uint64))
            assert loaded.provenance == tensor.provenance
            assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
           st.sampled_from(LINE_CORRUPTIONS), st.integers(0, 10 ** 6))
    def test_corrupted_line_is_named(self, shape, corruption, index):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.trace")
            export_trace(random_tensor(index, *shape), path)
            path.write_bytes(corrupt_line(path.read_bytes(), corruption, index))
            with pytest.raises(TraceFormatError, match=r"line \d+"):
                import_trace(path)
