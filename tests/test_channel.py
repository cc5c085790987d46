"""Channel generator: path statistics, steering geometry, trace synthesis and I/O."""

import re
import tempfile
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
from chanpred.rng import stream
from conftest import FINITE_DOUBLES, LINE_CORRUPTIONS, corrupt_line, random_tensor


class TestDrawPaths:
    def test_single_static_path(self):
        cfg = ChannelConfig(n_paths=1, delay_spread=0.0, seed=3)
        paths = draw_paths(cfg)
        assert paths.n_paths == 1
        assert paths.delays[0] == 0.0
        assert np.isclose(np.abs(paths.gains[0]) ** 2, 1.0)

    def test_static_ue_has_zero_doppler(self):
        cfg = ChannelConfig(speed=0.0, seed=4)
        paths = draw_paths(cfg)
        assert np.all(paths.dopplers == 0.0)

    def test_doppler_bound(self):
        # oracle: nu_max = v * f_c / c = 2.3442 Hz at 1 km/h, 2.53 GHz
        cfg = ChannelConfig(seed=0)
        bound = cfg.speed * cfg.carrier_freq / SPEED_OF_LIGHT
        assert np.isclose(bound, 2.3442, atol=5e-4)
        for seed in range(10):
            paths = draw_paths(cfg.with_seed(seed))
            assert np.max(np.abs(paths.dopplers)) <= bound + 1e-12

    def test_power_normalized_exactly(self):
        for seed in range(5):
            paths = draw_paths(ChannelConfig(seed=seed))
            assert np.isclose(np.sum(np.abs(paths.gains) ** 2), 1.0, rtol=1e-12)

    def test_powers_follow_delay_profile(self):
        cfg = ChannelConfig(seed=11)
        paths = draw_paths(cfg)
        expected = np.exp(-paths.delays / cfg.delay_spread)
        expected /= expected.sum()
        assert np.allclose(np.abs(paths.gains) ** 2, expected, rtol=1e-9)

    def test_angle_ranges(self):
        paths = draw_paths(ChannelConfig(seed=12))
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
                            delay_spread=0.0, speed=0.0, seed=6)
        t = synthesize(cfg, draw_paths(cfg), 10)
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
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=20, seed=0)
        curves = []
        for seed in range(20):
            c = cfg.with_seed(seed)
            t = synthesize(c, draw_paths(c), 400)
            v = t.values
            g = np.einsum("nlm,nkm->lk", np.conj(v), v)
            d = np.real(np.diag(g))
            norm = np.abs(g) / np.sqrt(np.outer(d, d))
            curve = [np.mean(np.diag(norm, k)) for k in range(1, 20)]
            curves.append(curve)
        avg = np.mean(curves, axis=0)
        assert np.all(np.diff(avg) <= 5e-3)

    def test_seeded_determinism(self):
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=5, seed=21)
        a = synthesize(cfg, draw_paths(cfg), 30)
        b = synthesize(cfg, draw_paths(cfg), 30)
        assert np.array_equal(a.values, b.values)

    def test_all_finite_and_flags(self, default_trace):
        assert default_trace.provenance == "true"
        assert np.all(np.isfinite(default_trace.values))


    def test_first_block_continues_the_link(self):
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=3, seed=22)
        paths = draw_paths(cfg)
        whole = synthesize(cfg, paths, 2 * SYNTH_CHUNK + 5).values
        # a piece cut on chunk boundaries is the same bits; any other piece
        # is the same blocks, made by GEMMs of another shape
        tail = synthesize(cfg, paths, SYNTH_CHUNK + 5, SYNTH_CHUNK).values
        assert np.array_equal(tail, whole[SYNTH_CHUNK:])
        piece = synthesize(cfg, paths, 7, 100).values
        assert np.allclose(piece, whole[100:107], rtol=0, atol=1e-12)
        with pytest.raises(ContractError, match="first_block"):
            synthesize(cfg, paths, 7, -1)


class TestSynthesizedLink:
    @pytest.mark.parametrize("blocks", [1, SYNTH_CHUNK - 1, SYNTH_CHUNK, 2 * SYNTH_CHUNK + 5])
    def test_chunks_are_the_whole_link(self, blocks):
        # pieces on chunk boundaries, in order, with the bits of one synthesis
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3, seed=23)
        paths = draw_paths(cfg)
        link = SynthesizedLink(cfg, paths, blocks)
        assert (link.n_subcarriers, link.n_antennas) == (3, 2)
        chunks = list(link.chunks())
        starts = list(range(0, blocks, SYNTH_CHUNK))
        assert [start for start, _, _ in chunks] == starts
        assert [stop for _, stop, _ in chunks] == [*starts[1:], blocks]
        assert all(piece.provenance == "true" for _, _, piece in chunks)
        whole = synthesize(cfg, paths, blocks).values
        assert np.array_equal(np.concatenate([piece.values for _, _, piece in chunks]), whole)

    def test_unneeded_pieces_are_not_made(self, monkeypatch):
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3, seed=24)
        paths = draw_paths(cfg)
        blocks = 3 * SYNTH_CHUNK + 5
        whole = synthesize(cfg, paths, blocks).values
        made = []

        def counted(config, paths, n_blocks, first_block=0):
            made.append(first_block)
            return synthesize(config, paths, n_blocks, first_block)

        monkeypatch.setattr("chanpred.channel.synthesize", counted)
        link = SynthesizedLink(cfg, paths, blocks)
        asked = []

        def needed(lo, hi):   # every piece but the second
            asked.append((lo, hi))
            return lo != SYNTH_CHUNK

        for start, stop, piece in link.chunks(needed):
            assert (piece is None) == (start == SYNTH_CHUNK)
            if piece is not None:
                assert np.array_equal(piece.values, whole[start:stop])
        assert made == [0, 2 * SYNTH_CHUNK, 3 * SYNTH_CHUNK]
        c = SYNTH_CHUNK
        assert asked == [(0, c), (c, 2 * c), (2 * c, 3 * c), (3 * c, blocks)]


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
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=3, seed=8)
        t = synthesize(cfg, draw_paths(cfg), 7)
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
        cfg = ChannelConfig(m_h=1, m_v=1, n_subcarriers=2, seed=9)
        t = synthesize(cfg, draw_paths(cfg), 3)
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
