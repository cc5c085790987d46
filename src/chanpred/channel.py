"""Synthetic wideband MIMO channel generation and trace file I/O.

The generator is a geometric sum-of-paths model shaped to reproduce the two
correlation regimes that motivate domain transformation: subcarrier channels
that are almost perfectly cross-correlated (delay spread well inside the
coherence bandwidth) while antenna-domain channels are nearly uncorrelated
(each path carries its own steering phase and its own Doppler tone).

Per-path Doppler shifts are drawn sum-of-sinusoids style from the DFT grid of
the default correlation-averaging window (``doppler_grid_blocks`` blocks of
``block_duration`` seconds). Distinct grid tones are exactly orthogonal over
that window, so time averaging fully separates paths; the tone ladder is
assigned strongest-path-first from the center outwards, which keeps the
temporal auto-correlation high out to large block shifts.
"""

from __future__ import annotations

import os
import stat
import warnings
from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from .errors import ConfigError, ContractError, TraceFormatError
from .rng import stream

SPEED_OF_LIGHT = 299_792_458.0

DOMAIN_SUBCARRIER = "subcarrier"
DOMAIN_ANTENNA = "antenna"
DOMAINS = (DOMAIN_SUBCARRIER, DOMAIN_ANTENNA)

PROVENANCE_TRUE = "true"
PROVENANCE_ESTIMATED = "estimated"
PROVENANCE_PREDICTED = "predicted"
PROVENANCES = (PROVENANCE_TRUE, PROVENANCE_ESTIMATED, PROVENANCE_PREDICTED)

SYNTH_CHUNK = 256  # blocks per synthesis chunk, bounds peak memory
_FINITE_CHUNK = 1 << 16  # entries per finiteness check, bounds its bool temporary


@dataclass(frozen=True)
class ChannelConfig:
    """Geometry and mobility parameters of the synthetic link.

    Defaults follow the experiment setup: 8x8 UPA, 50 subcarriers at 15 kHz,
    2.53 GHz carrier, 1 km/h UE speed, 20 ms coherence blocks. Path count and
    delay spread are tunable stand-ins for the external channel generator.
    """

    m_h: int = 8                     # horizontal UPA elements
    m_v: int = 8                     # vertical UPA elements
    n_subcarriers: int = 50          # L
    subcarrier_spacing: float = 15e3  # Hz
    carrier_freq: float = 2.53e9     # Hz
    speed: float = 1000.0 / 3600.0   # UE speed, m/s (1 km/h)
    block_duration: float = 20e-3    # coherence block, s
    n_paths: int = 31
    delay_spread: float = 100e-9     # RMS delay spread, s
    doppler_grid_blocks: int = 2000  # reference window defining the tone grid
    doppler_offset: float = 0.0      # mean Doppler, Hz (snapped to the grid)

    @property
    def n_antennas(self) -> int:
        return self.m_h * self.m_v

    @property
    def max_doppler(self) -> float:
        return self.speed * self.carrier_freq / SPEED_OF_LIGHT

    def validate(self) -> "ChannelConfig":
        if self.m_h < 1 or self.m_v < 1:
            raise ConfigError(f"antenna counts must be >= 1, got {self.m_h}x{self.m_v}")
        if self.n_subcarriers < 1:
            raise ConfigError(f"n_subcarriers must be >= 1, got {self.n_subcarriers}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.subcarrier_spacing <= 0:
            raise ConfigError("subcarrier_spacing must be positive")
        if self.block_duration <= 0:
            raise ConfigError("block_duration must be positive")
        if self.carrier_freq <= 0:
            raise ConfigError("carrier_freq must be positive")
        if self.delay_spread < 0:
            raise ConfigError("delay_spread must be non-negative")
        if self.speed < 0:
            raise ConfigError("speed must be non-negative")
        if self.doppler_grid_blocks < 1:
            raise ConfigError("doppler_grid_blocks must be >= 1")
        if abs(self.doppler_offset) > self.max_doppler:
            raise ConfigError(
                f"doppler_offset {self.doppler_offset} Hz exceeds the maximum "
                f"Doppler shift {self.max_doppler:.4g} Hz at this speed")
        return self


@dataclass(frozen=True)
class PathSet:
    """Multipath parameters: complex gains, delays, Doppler shifts, BS angles."""

    gains: np.ndarray      # (P,) complex
    delays: np.ndarray     # (P,) s
    dopplers: np.ndarray   # (P,) Hz
    azimuths: np.ndarray   # (P,) rad
    elevations: np.ndarray  # (P,) rad

    @property
    def n_paths(self) -> int:
        return self.gains.shape[0]

    def validate(self) -> "PathSet":
        n = self.n_paths
        for name in ("gains", "delays", "dopplers", "azimuths", "elevations"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ContractError(f"PathSet.{name} has shape {arr.shape}, expected ({n},)")
        if np.any(self.delays < 0):
            raise ContractError("path delays must be non-negative")
        total = float(np.sum(np.abs(self.gains) ** 2))
        if not np.isclose(total, 1.0, rtol=1e-9):
            raise ContractError(f"path powers must sum to 1, got {total}")
        return self


@dataclass(frozen=True)
class ChannelTensor:
    """Complex channel values indexed (block n, subcarrier l, antenna m).

    The storage layout is always (N, L, M). A domain is not a property of
    the tensor but a way of reading it: ``series_view`` gives the series of
    either domain without moving data. ``provenance`` tracks whether values
    are true channels, LS estimates, or predictor outputs.
    """

    values: np.ndarray
    provenance: str = PROVENANCE_TRUE

    @property
    def n_blocks(self) -> int:
        return self.values.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.values.shape[1]

    @property
    def n_antennas(self) -> int:
        return self.values.shape[2]

    def validate(self, finite: bool = True) -> "ChannelTensor":
        """Check shape and provenance, and with `finite` that every entry is finite."""
        if self.values.ndim != 3:
            raise ContractError(f"channel values must be 3-D (N, L, M), got shape {self.values.shape}")
        if 0 in self.values.shape:
            raise ContractError(f"channel dimensions must be >= 1, got shape {self.values.shape}")
        if self.provenance not in PROVENANCES:
            raise ContractError(f"unknown provenance {self.provenance!r}")
        if finite:
            require_finite(self.values)
        return self

    def require(self, provenance: str, n_blocks: int, finite: bool = True) -> "ChannelTensor":
        """Demand at least `n_blocks` blocks, then validate(finite) and `provenance`.

        The length comes first so that a tensor with no blocks at all is
        reported as too short rather than as empty.
        """
        if self.values.ndim == 3 and self.n_blocks < n_blocks:
            raise ContractError(f"tensor of {self.n_blocks} blocks too short: needs at "
                                f"least {n_blocks} blocks")
        self.validate(finite)
        if self.provenance != provenance:
            raise ContractError(f"needs a tensor of provenance {provenance!r}, got "
                                f"provenance {self.provenance!r}")
        return self

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Values of blocks lo .. hi-1 (0-based), a view."""
        _require_blocks(lo, hi, self.n_blocks)
        return self.values[lo:hi]


def _require_blocks(lo: int, hi: int, n_blocks: int) -> None:
    """Refuse a read of blocks lo .. hi-1 that is empty or not inside [0, n_blocks)."""
    if not 0 <= lo < hi <= n_blocks:
        raise ContractError(f"blocks {lo} .. {hi - 1} are not blocks of a source of "
                            f"{n_blocks} blocks")


def require_finite(values: np.ndarray) -> None:
    """Refuse (N, ...) channel values with a non-finite entry.

    Whole blocks at a time, so the check never makes a bool array the size
    of `values`.
    """
    step = max(1, _FINITE_CHUNK // max(1, values[:1].size))
    for start in range(0, len(values), step):
        if not np.isfinite(values[start:start + step]).all():
            raise ContractError("channel values contain non-finite entries")


def series_view(values: np.ndarray, domain: str) -> np.ndarray:
    """View of (..., L, M) values as (..., S, D): series s of `domain` is [..., s, :].

    This re-indexing is the whole domain transformation: the subcarrier
    domain reads each L x M matrix by rows (series l, vectors over m), the
    antenna domain by columns (series m, vectors over l). No data is copied.
    """
    if domain == DOMAIN_SUBCARRIER:
        return values
    if domain == DOMAIN_ANTENNA:
        return values.swapaxes(-1, -2)
    raise ContractError(f"unknown domain {domain!r}; expected one of {DOMAINS}")


def steering_vector(theta: float, phi: float, m_h: int, m_v: int) -> np.ndarray:
    """Half-wavelength UPA response for azimuth theta and elevation phi.

    Element (p, q) sits at flat index q*m_h + p and responds with
    exp(j*pi*(p*sin(theta)*cos(phi) + q*sin(phi))); all entries unit modulus.
    """
    p = np.arange(m_h)
    q = np.arange(m_v)
    phase = p[None, :] * (np.sin(theta) * np.cos(phi)) + q[:, None] * np.sin(phi)
    return np.exp(1j * np.pi * phase).reshape(m_h * m_v)


def _tone_ladder(n_paths: int) -> np.ndarray:
    """Tone indices 0, +1, -1, +2, -2, ... (length n_paths)."""
    ladder = np.zeros(n_paths, dtype=np.int64)
    for i in range(1, n_paths):
        k = (i + 1) // 2
        ladder[i] = k if i % 2 == 1 else -k
    return ladder


def draw_paths(config: ChannelConfig, seed: int) -> PathSet:
    """Draw a multipath realization for `config` from the run seed's "paths" stream.

    Delays are exponential with mean ``delay_spread``; per-path powers follow
    exp(-tau/delay_spread), normalized to sum to exactly 1, with uniformly
    random gain phases. BS azimuth/elevation are uniform. Doppler shifts are
    distinct tones k/(doppler_grid_blocks*block_duration) spread around the
    (grid-snapped) mean ``doppler_offset`` and assigned to paths in descending
    power order from the cluster center outwards, capped so that
    |nu| <= speed*carrier_freq/c.
    """
    config.validate()
    rng = stream(seed, "paths")
    P = config.n_paths

    if config.delay_spread > 0:
        delays = rng.exponential(config.delay_spread, P)
        weights = np.exp(-delays / config.delay_spread)
    else:
        delays = np.zeros(P)
        weights = np.ones(P)
    weights = weights / weights.sum()
    gains = np.sqrt(weights) * np.exp(2j * np.pi * rng.random(P))

    azimuths = rng.uniform(-np.pi, np.pi, P)
    elevations = rng.uniform(-np.pi / 2, np.pi / 2, P)

    f0 = 1.0 / (config.doppler_grid_blocks * config.block_duration)
    k_cap = int(config.max_doppler / f0)
    k_center = int(np.rint(config.doppler_offset / f0))
    tones = np.clip(k_center + _tone_ladder(P), -k_cap, k_cap)
    dopplers = np.empty(P)
    dopplers[np.argsort(-weights)] = tones * f0

    return PathSet(gains, delays, dopplers, azimuths, elevations).validate()


def synthesize(config: ChannelConfig, paths: PathSet, n_blocks: int,
               first_block: int = 0) -> ChannelTensor:
    """Superimpose the paths into a true (n_blocks, L, M) tensor.

    values[n, l, m] = sum_p gain_p * exp(j*2*pi*nu_p*n*T_B)
                              * exp(-j*2*pi*(l-1)*delta_f*tau_p)
                              * steering(theta_p, phi_p)[m]
    with 1-based block index n and subcarrier index l. The tensor holds
    blocks first_block+1 .. first_block+n_blocks, so a link can be made one
    piece at a time: every block's values depend on its own index alone, so
    any piece is bit for bit the same blocks of the whole link.
    """
    config.validate()
    paths.validate()
    if n_blocks < 1:
        raise ContractError(f"n_blocks must be >= 1, got {n_blocks}")
    if first_block < 0:
        raise ContractError(f"first_block must be >= 0, got {first_block}")

    L = config.n_subcarriers
    M = config.n_antennas
    P = paths.n_paths

    freq = np.exp(-2j * np.pi * np.arange(L)[:, None]
                  * config.subcarrier_spacing * paths.delays[None, :])     # (L, P)
    steer = np.empty((P, M), dtype=np.complex128)
    for p in range(P):
        steer[p] = steering_vector(paths.azimuths[p], paths.elevations[p],
                                   config.m_h, config.m_v)

    out = np.empty((n_blocks, L, M), dtype=np.complex128)
    for start in range(0, n_blocks, SYNTH_CHUNK):
        stop = min(start + SYNTH_CHUNK, n_blocks)
        n = np.arange(first_block + start + 1, first_block + stop + 1)     # 1-based blocks
        rot = paths.gains[None, :] * np.exp(
            2j * np.pi * paths.dopplers[None, :] * n[:, None] * config.block_duration)
        mix = rot[:, None, :] * freq[None, :, :]                           # (chunk, L, P)
        np.matmul(mix.reshape(-1, P), steer, out=out[start:stop].reshape(-1, M))

    return ChannelTensor(out, PROVENANCE_TRUE).validate()


@dataclass(frozen=True)
class SynthesizedLink:
    """`n_blocks` blocks of the true link that `paths` make, from block
    `first_block` on (0-based), never held whole.

    It is read like a ChannelTensor, by require() and read(); read() makes
    the blocks asked for, which are bit for bit those of
    ``synthesize(config, paths, n_blocks, first_block)``.
    """

    config: ChannelConfig
    paths: PathSet
    n_blocks: int
    first_block: int = 0

    @property
    def n_subcarriers(self) -> int:
        return self.config.n_subcarriers

    @property
    def n_antennas(self) -> int:
        return self.config.n_antennas

    def require(self, provenance: str, n_blocks: int) -> "SynthesizedLink":
        """Demand at least `n_blocks` blocks and true channels, as ChannelTensor.require."""
        if self.n_blocks < n_blocks:
            raise ContractError(f"link of {self.n_blocks} blocks too short: needs at "
                                f"least {n_blocks} blocks")
        if provenance != PROVENANCE_TRUE:
            raise ContractError(f"needs a tensor of provenance {provenance!r}, got a "
                                f"synthesized link of provenance {PROVENANCE_TRUE!r}")
        return self

    def read(self, lo: int, hi: int) -> np.ndarray:
        """True values of blocks lo .. hi-1 (0-based, from first_block), made anew."""
        _require_blocks(lo, hi, self.n_blocks)
        return synthesize(self.config, self.paths, hi - lo, self.first_block + lo).values


# ---------------------------------------------------------------------------
# Trace file I/O (text; format documented in docs/trace_format.md)
# ---------------------------------------------------------------------------

_TRACE_MAGIC = "chanpred-trace v1"
# records are always in (n, l, m) order, which the header names by its domain
_TRACE_DOMAIN = DOMAIN_SUBCARRIER


def export_trace(tensor: ChannelTensor, path) -> None:
    """Write `tensor` to `path` in the plain-text trace format (lossless)."""
    tensor.validate()
    N, L, M = tensor.values.shape
    # records "n l m re im", one block per write; the records of a block differ
    # only in (l, m) and the values, and %.17g round-trips every double
    tail = [f" {l} {m} %.17g %.17g\n" for l, m in product(range(1, L + 1), range(1, M + 1))]
    with open(path, "w") as f:
        f.write(_TRACE_MAGIC + "\n")
        f.write(f"N={N} L={L} M={M} domain={_TRACE_DOMAIN} provenance={tensor.provenance}\n")
        for n, block in enumerate(tensor.values, start=1):
            parts = np.ascontiguousarray(block, dtype=complex).view(np.float64).ravel()
            f.write((str(n) + str(n).join(tail)) % tuple(parts.tolist()))


def _parse_header(line: str) -> dict:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise TraceFormatError(f"line 2: malformed header token {token!r}")
        key, value = token.split("=", 1)
        if key in fields:
            raise TraceFormatError(f"line 2: trace header repeats field {key!r}")
        fields[key] = value
    for key in ("N", "L", "M", "domain", "provenance"):
        if key not in fields:
            raise TraceFormatError(f"line 2: trace header missing field {key!r}")
    try:
        dims = {k: int(fields[k]) for k in ("N", "L", "M")}
    except ValueError as exc:
        raise TraceFormatError(f"line 2: non-integer dimension in trace header: {exc}") from exc
    if any(v < 1 for v in dims.values()):
        raise TraceFormatError(f"line 2: trace dimensions must be >= 1, got {dims}")
    if fields["domain"] != _TRACE_DOMAIN:
        raise TraceFormatError(f"line 2: trace domain must be {_TRACE_DOMAIN!r} (records in "
                               f"(n, l, m) order), got {fields['domain']!r}")
    if fields["provenance"] not in PROVENANCES:
        raise TraceFormatError(
            f"line 2: unknown provenance {fields['provenance']!r} in trace header")
    return {**dims, "provenance": fields["provenance"]}


def _line_batches(f, count: int):
    """Yield the lines of `f`, `count` at a time, as str.splitlines would cut them.

    Reading a file breaks lines at newlines only; splitlines also breaks at
    \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029, and a record
    holding one of those is two lines of the trace. A batch is short only at
    the end of the file, and every batch after it is empty.
    """
    held = []
    while True:
        while len(held) < count:
            more = "".join(islice(f, count - len(held))).splitlines()
            if not more:
                break
            held += more
        yield held[:count]
        del held[:count]


def _record_error(lines: list, n: int, L: int, M: int) -> str | None:
    """Name the first of block n's record lines that breaks the format, if one does.

    Only runs on a block that the bulk parse or its checks rejected, or that
    the file ends inside, so it may go line by line, each line parsed as the
    block is.
    """
    for i, line in enumerate(lines):
        where = f"line {3 + n * L * M + i}"
        want = (n + 1, i // M + 1, i % M + 1)
        tokens = line.split()
        try:
            with warnings.catch_warnings():   # loadtxt warns on a blank line
                warnings.simplefilter("ignore")
                fields = np.loadtxt([line], ndmin=2, comments=None).ravel()
        except ValueError:
            return f"{where}: unparseable trace record {line!r}"
        if len(fields) != 5:
            return f"{where}: expected 5 fields 'n l m re im', found {len(fields)}"
        if tuple(fields[:3]) != want:
            return (f"{where}: trace dimension mismatch: expected record "
                    f"(n,l,m)={want}, found {tuple(tokens[:3])}")
        if not (np.isfinite(fields[3]) and np.isfinite(fields[4])):
            return f"{where}: non-finite channel value in record (n,l,m)={want}"
    return None


def import_trace(path) -> ChannelTensor:
    """Read a trace file written by export_trace (or an external generator).

    Records must appear in canonical (n, l, m) order with 1-based indices,
    one per line, with no blank or comment lines; errors name the offending
    line. The file is read one block of L*M records at a time, so memory is
    the tensor plus one block of text.
    """
    with open(path, errors="replace") as f:
        magic = f.readline().rstrip("\n")
        if magic != _TRACE_MAGIC:
            raise TraceFormatError(f"line 1: expected {_TRACE_MAGIC!r}, got {magic!r}")
        header = _parse_header(f.readline().rstrip("\n"))
        N, L, M = header["N"], header["L"], header["M"]
        per = L * M
        # a record line holds at least 9 characters, 'n l m re im'; a file too
        # short for the records its header declares gets no tensor, and the
        # walk below names the line where its records break off
        info = os.fstat(f.fileno())
        values = parts = None
        if N * per * 9 <= info.st_size or not stat.S_ISREG(info.st_mode):
            try:   # a pipe's header is not checked against a size
                values = np.empty((N, L, M), dtype=np.complex128)
            except (MemoryError, ValueError) as exc:
                raise TraceFormatError(f"line 2: trace header declares {N}x{L}x{M} = "
                                       f"{N * per} records, more than memory holds: "
                                       f"{exc}") from exc
            # (re, im) pairs of each block: copying the parsed columns in keeps
            # every bit, the sign of zero included
            parts = values.view(np.float64).reshape(N, per, 2)
        lm = np.column_stack([np.repeat(np.arange(1, L + 1), M), np.tile(np.arange(1, M + 1), L)])
        batches = _line_batches(f, per)
        for n in range(N):
            lines = next(batches)
            records, parse_error = None, ""
            # loadtxt skips blank lines and warns on no data, so a short or
            # all-blank block goes to the line by line check instead
            if len(lines) == per and any(map(str.strip, lines)):
                try:
                    records = np.loadtxt(lines, ndmin=2, comments=None)
                except ValueError as exc:
                    parse_error = str(exc)
            if (records is None or records.shape != (per, 5) or (records[:, 0] != n + 1).any()
                    or (records[:, 1:3] != lm).any() or not np.isfinite(records[:, 3:]).all()):
                error = _record_error(lines, n, L, M)
                if error is None and len(lines) == per:
                    error = f"line {3 + n * per}: unparseable trace records: {parse_error}"
                if error is not None:
                    raise TraceFormatError(error)
                found = n * per + len(lines)
                break
            if parts is not None:
                parts[n] = records[:, 3:]
            del lines, records   # before the next block is read
        else:
            found = N * per
            while lines := next(batches):
                found += len(lines)
        if found != N * per:
            raise TraceFormatError(
                f"line {min(found, N * per) + 3}: trace dimension mismatch: header declares "
                f"{N}x{L}x{M} = {N * per} records, found {found} lines")
    # every block's values were checked finite as it was read
    return ChannelTensor(values, header["provenance"]).validate(finite=False)
