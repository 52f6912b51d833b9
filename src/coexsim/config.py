"""Run configuration: the settings the simulator reads, their text form, seeds.

An empty config reproduces the reference testbed: 94 cm WiFi link, LTE base
station 34/35 cm from the WiFi transmitter/receiver, 3 dBi antennas at
5.18 GHz, 100 PRB LTE, 17 dBm WiFi sending saturated 1500-byte UDP frames.

The settings classes are the run parameters themselves.  Each checks its
values when it is built, also through ``dataclasses.replace``, and raises
``ConfigError`` naming the key as ``section.key``.  Text becomes a value in
one place, ``parse_value``, for INI files and sweep grids alike.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
from dataclasses import dataclass, field, fields

from .engine import NS_PER_S, NS_PER_US
from .lte import PRB_CHOICES, on_duration_ns
from .radio import DEFAULT_PER_THRESHOLDS_DB, fspl_db
from .wifi import (BITS_PER_SYMBOL, CCA_PRESETS, FAST_FORWARD_CHUNK, MCS_RATES,
                   MEASURE_BANDS, CcaProfile, ack_airtime_us, frame_airtime_us)


class ConfigError(ValueError):
    """Invalid configuration text or values; message names the offending key."""


def _invalid(section: str, key: str, rule: str, value) -> ConfigError:
    return ConfigError(f"{section}.{key} must {rule}, got {value!r}")


def _check_nonzero(name: str, text: str, value) -> None:
    """A number whose mantissa in ``text`` is nonzero must not convert to 0.0."""
    if value == 0.0 and any(c in "123456789" for c in text.lower().partition("e")[0]):
        raise ConfigError(f"{name}: {text!r} is not 0 but converts to 0.0")


# Bounds that keep every link budget finite: each value in dB (a key ending
# in _db, _dbi, _dbc or _dbm, or a PER threshold) lies within +-DB_LIMIT, and
# each distance, frequency and bandwidth within MAGNITUDE_RANGE of its unit.
# Received powers, noise floors and SINRs then stay within about +-2,600 dB,
# far inside the range where 10 ** (dB / 10) is a finite, nonzero float.
DB_LIMIT = 300.0
MAGNITUDE_RANGE = (1e-9, 1e9)
# The DCF step computes times in int64 ns.
INT64_MAX = 2**63 - 1


def _check_floats(settings, section: str) -> None:
    """Every float key finite, and every dB key within +-DB_LIMIT."""
    for key in _FLOAT_KEYS[section]:
        value = getattr(settings, key)
        if value is None:
            continue
        if not math.isfinite(value):
            raise _invalid(section, key, "be finite", value)
        if key in _DB_KEYS[section] and abs(value) > DB_LIMIT:
            raise _invalid(section, key, f"be within +-{DB_LIMIT:g} dB", value)


@dataclass(frozen=True)
class LteSettings:
    """Duty-cycle schedule and occupied spectrum of the LTE node.

    duty is the long-run fraction of time spent radiating; silent_spread is
    the uniform half-width of a silent period, as a fraction of its mean.
    """

    duty: float = 0.5
    mean_period_ms: float = 150.0
    silent_spread: float = 0.5
    frame_align_ms: int = 10
    n_prb: int = 100
    center_offset_mhz: float = 0.0  # relative to the WiFi channel center
    tx_power_dbm: float = 12.0

    def __post_init__(self) -> None:
        _check_floats(self, "lte")
        if not 0.0 <= self.duty <= 1.0:
            raise _invalid("lte", "duty", "be in [0, 1]", self.duty)
        if self.mean_period_ms <= 0:
            raise _invalid("lte", "mean_period_ms", "be positive", self.mean_period_ms)
        if self.duty > 0 and on_duration_ns(self) == 0:
            raise _invalid("lte", "duty", "be 0 or radiate at least 1 ms a period "
                           "(duty x mean_period_ms, rounded to whole ms)", self.duty)
        if not 0.0 <= self.silent_spread < 1.0:
            raise _invalid("lte", "silent_spread", "be in [0, 1)", self.silent_spread)
        if self.frame_align_ms < 1:
            raise _invalid("lte", "frame_align_ms", "be >= 1", self.frame_align_ms)
        if self.n_prb not in PRB_CHOICES:
            raise _invalid("lte", "n_prb", f"be one of {PRB_CHOICES}", self.n_prb)


@dataclass(frozen=True)
class WifiSettings:
    """The WiFi link: MCS, power, payload, carrier sensing and 802.11a MAC timing."""

    mcs_mbps: int = 54
    tx_power_dbm: float = 17.0
    payload_bytes: int = 1500
    cca_profile: str = "vendor-A"
    # Optional per-field overrides of the named CCA preset.
    cca_ed_threshold_dbm: float | None = None
    cca_measure_band: str | None = None
    cca_mid_packet_abort: bool | None = None
    slot_us: int = 9
    sifs_us: int = 16
    cw_min: int = 15
    cw_max: int = 1023
    retry_limit: int = 7
    preamble_us: int = 20
    ack_bytes: int = 14
    control_rate_mbps: int = 24
    mac_overhead_bytes: int = 36

    def __post_init__(self) -> None:
        _check_floats(self, "wifi")
        for key in ("mcs_mbps", "control_rate_mbps"):
            if getattr(self, key) not in BITS_PER_SYMBOL:
                raise _invalid("wifi", key, f"be one of {MCS_RATES}", getattr(self, key))
        for key in ("payload_bytes", "slot_us"):
            if getattr(self, key) <= 0:
                raise _invalid("wifi", key, "be positive", getattr(self, key))
        for key in ("sifs_us", "preamble_us", "ack_bytes", "mac_overhead_bytes"):
            if getattr(self, key) < 0:
                raise _invalid("wifi", key, "be >= 0", getattr(self, key))
        for key in ("cw_min", "cw_max"):  # the backoff stream draws at most 32 bits
            cw = getattr(self, key)
            if not 0 <= cw < 2**32 or cw & (cw + 1):
                raise _invalid("wifi", key, "be 2^k - 1 for k in [0, 32]", cw)
        if self.cw_max < self.cw_min:
            raise _invalid("wifi", "cw_max", "be >= cw_min", self.cw_max)
        if not 0 <= self.retry_limit <= INT64_MAX:
            raise _invalid("wifi", "retry_limit", "be in [0, 2^63 - 1]", self.retry_limit)
        if self.cca_profile not in CCA_PRESETS:
            raise _invalid("wifi", "cca_profile", f"be one of {sorted(CCA_PRESETS)}",
                           self.cca_profile)
        if self.cca_measure_band == "":  # empty keeps the preset's band, as unset does
            object.__setattr__(self, "cca_measure_band", None)
        if self.cca_measure_band not in (None, *MEASURE_BANDS):
            raise _invalid("wifi", "cca_measure_band", f"be one of {MEASURE_BANDS}",
                           self.cca_measure_band)
        # The parts of the longest DCF cycle, by the key that sets each, for the
        # range RunConfig checks: computed once per section, not once per config.
        data_us = frame_airtime_us(self.mcs_mbps, self.payload_bytes, self) - self.preamble_us
        ack_us = ack_airtime_us(self.mcs_mbps, self) - self.preamble_us
        object.__setattr__(self, "_cycle_parts_us", {
            "cw_max" if self.cw_max > self.slot_us else "slot_us":
                (self.cw_max + 3) * self.slot_us,
            "sifs_us": 2 * self.sifs_us,
            "preamble_us": 2 * self.preamble_us,
            "payload_bytes" if self.payload_bytes >= self.mac_overhead_bytes
            else "mac_overhead_bytes": data_us,
            "ack_bytes": ack_us,
        })

    @property
    def difs_us(self) -> int:
        return self.sifs_us + 2 * self.slot_us

    def cca(self) -> CcaProfile:
        """The CCA preset with this section's overrides applied field by field."""
        overrides = (self.cca_ed_threshold_dbm, self.cca_measure_band, self.cca_mid_packet_abort)
        return CcaProfile(*(preset if own is None else own for own, preset
                            in zip(overrides, CCA_PRESETS[self.cca_profile])))

    def dcf_params(self) -> WifiSettings:
        """The DCF timing the analytic goodput reads: these settings themselves."""
        return self


@dataclass(frozen=True)
class RadioSettings:
    freq_ghz: float = 5.18
    wifi_bandwidth_mhz: float = 20.0
    noise_figure_db: float = 7.0
    antenna_gain_dbi: float = 3.0
    dist_lte_to_wifi_tx_m: float = 0.34
    dist_lte_to_wifi_rx_m: float = 0.35
    dist_wifi_tx_to_rx_m: float = 0.94
    # Explicit per-link gains override the geometry-derived ones.
    gain_lte_to_wifi_tx_db: float | None = None
    gain_lte_to_wifi_rx_db: float | None = None
    gain_wifi_link_db: float | None = None
    oob_floor_dbc: float = -30.0
    soft_slope_k: float = 0.0
    per_thresholds: str = ""  # e.g. "6:5, 9:6"; empty keeps the defaults

    def __post_init__(self) -> None:
        _check_floats(self, "radio")
        low, high = MAGNITUDE_RANGE
        for key in ("freq_ghz", "wifi_bandwidth_mhz", "dist_lte_to_wifi_tx_m",
                    "dist_lte_to_wifi_rx_m", "dist_wifi_tx_to_rx_m"):
            if not low <= getattr(self, key) <= high:
                raise _invalid("radio", key, f"be in [{low:g}, {high:g}]",
                               getattr(self, key))
        if self.oob_floor_dbc > 0:
            raise _invalid("radio", "oob_floor_dbc", "be <= 0", self.oob_floor_dbc)
        if self.soft_slope_k < 0:
            raise _invalid("radio", "soft_slope_k", "be >= 0", self.soft_slope_k)
        thresholds = dict(DEFAULT_PER_THRESHOLDS_DB)
        if self.per_thresholds.strip():
            given = set()
            for pair in self.per_thresholds.split(","):
                try:
                    rate, text = pair.split(":")
                    rate, db = int(rate.strip()), float(text)
                except ValueError as exc:
                    raise ConfigError(
                        f"radio.per_thresholds: bad entry {pair.strip()!r}") from exc
                _check_nonzero("radio.per_thresholds", text.strip(), db)
                if rate not in MCS_RATES or rate in given:
                    raise _invalid("radio", "per_thresholds",
                                   f"give each rate of {MCS_RATES} at most once",
                                   self.per_thresholds)
                given.add(rate)
                thresholds[rate] = db
        if not all(abs(db) <= DB_LIMIT for db in thresholds.values()):
            raise _invalid("radio", "per_thresholds",
                           f"give thresholds within +-{DB_LIMIT:g} dB", self.per_thresholds)
        ordered = [thresholds[rate] for rate in sorted(thresholds)]
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise _invalid("radio", "per_thresholds",
                           "give thresholds strictly increasing with MCS rate",
                           self.per_thresholds)
        object.__setattr__(self, "_thresholds", thresholds)

    def _gain(self, override: float | None, distance_m: float) -> float:
        if override is not None:
            return override
        return -fspl_db(distance_m, self.freq_ghz) + 2 * self.antenna_gain_dbi

    def link_gains(self) -> tuple[float, float, float]:
        """(LTE->WiFi TX, LTE->WiFi RX, WiFi TX<->RX) path gains in dB."""
        return (self._gain(self.gain_lte_to_wifi_tx_db, self.dist_lte_to_wifi_tx_m),
                self._gain(self.gain_lte_to_wifi_rx_db, self.dist_lte_to_wifi_rx_m),
                self._gain(self.gain_wifi_link_db, self.dist_wifi_tx_to_rx_m))

    def threshold_db(self, mcs_mbps: int) -> float:
        """The PER threshold of an MCS: the default, or this section's override."""
        return self._thresholds[mcs_mbps]


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    duration_s: float = 10.0
    lte: LteSettings = field(default_factory=LteSettings)
    wifi: WifiSettings = field(default_factory=WifiSettings)
    radio: RadioSettings = field(default_factory=RadioSettings)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:  # the engine seeds every stream with 64 bits
            raise _invalid("run", "seed", "be in [0, 2^64 - 1]", self.seed)
        duration_ns = self.duration_s * NS_PER_S  # inf also when the product overflows
        if not (math.isfinite(duration_ns) and round(duration_ns) >= 1):
            raise _invalid("run", "duration_s", "be finite and at least 1 ns",
                           self.duration_s)
        self._check_step_range(round(duration_ns))

    def _check_step_range(self, end_ns: int) -> None:
        """Keep the DCF step's int64 ns arithmetic from overflowing.

        A step adds up to FAST_FORWARD_CHUNK cycles to a time before the run
        end, so that many of the longest cycle past the run end must fit in
        int64.  The longest cycle is cw_max slots of backoff, DIFS (SIFS and
        two slots), data, SIFS, ACK and the slot after a failure.  Past the
        bound, the error names the key that sets the largest part of it.
        """
        parts_us = self.wifi._cycle_parts_us
        scale = FAST_FORWARD_CHUNK * NS_PER_US
        if scale * sum(parts_us.values()) + end_ns <= INT64_MAX:
            return
        parts_us = {**parts_us, "duration_s": end_ns / scale}
        key = max(parts_us, key=parts_us.get)
        section, settings = ("run", self) if key == "duration_s" else ("wifi", self.wifi)
        raise _invalid(section, key, f"keep {FAST_FORWARD_CHUNK} of the longest DCF cycles "
                       "past the run end within 2^63 - 1 ns", getattr(settings, key))


_SECTIONS = {"run": RunConfig, "lte": LteSettings, "wifi": WifiSettings,
             "radio": RadioSettings}
_GRID_SECTIONS = ("lte", "wifi", "radio")


def _scalar_types(cls) -> dict[str, type]:
    """Declared type of each scalar field, with ``| None`` taken off, read from the
    annotations' text (this module postpones their evaluation)."""
    kinds = {kind.__name__: kind for kind in (bool, int, float, str)}
    hints = {key: hint.removesuffix(" | None") for key, hint in cls.__annotations__.items()}
    return {key: kinds[hint] for key, hint in hints.items() if hint in kinds}


# Resolved once per class: a conversion is a dict lookup, not a type-hint walk.
_KEY_TYPES = {name: _scalar_types(cls) for name, cls in _SECTIONS.items()}
_FLOAT_KEYS = {name: tuple(k for k, t in types.items() if t is float)
               for name, types in _KEY_TYPES.items()}
_DB_KEYS = {name: tuple(k for k in keys
                        if k.rpartition("_")[2] in ("db", "dbi", "dbc", "dbm"))
            for name, keys in _FLOAT_KEYS.items()}
_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}

# Pairs that must not both be set explicitly: a distance and its gain override.
_GEOMETRY_CONFLICTS = [
    ("dist_lte_to_wifi_tx_m", "gain_lte_to_wifi_tx_db"),
    ("dist_lte_to_wifi_rx_m", "gain_lte_to_wifi_rx_db"),
    ("dist_wifi_tx_to_rx_m", "gain_wifi_link_db"),
]


def parse_value(section: str, key: str, text: str):
    """``text`` as the value of ``[section] key``, in the key's declared type.

    INI values, ``--grid`` tokens and the built-in grids (as ``str(value)``)
    all convert here.  A ``%`` suffix is accepted for ``duty`` alone.  A
    nonzero mantissa must not convert to 0.0.  Ranges are checked when built.
    """
    kind = _KEY_TYPES[section].get(key)
    if kind is None:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    token = text.strip()
    try:
        if kind is bool:
            return _BOOLS[token.lower()]
        value = float(token[:-1]) / 100.0 if key == "duty" and token.endswith("%") else kind(token)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {text!r} as "
                          f"{kind.__name__}") from exc
    _check_nonzero(f"{section}.{key}", text, value)
    return value


def resolve_path(path: str) -> tuple[str, str]:
    """(section, key) of a grid path: ``section.key``, or a key one section has."""
    section, dot, key = path.strip().rpartition(".")
    names = [section] if dot else _GRID_SECTIONS
    found = [name for name in names if name in _GRID_SECTIONS and key in _KEY_TYPES[name]]
    if len(found) != 1:
        raise ConfigError(f"grid path {path!r} is {'ambiguous' if found else 'unknown'}; "
                          "use section.field")
    return found[0], key


def parse_config(text: str) -> RunConfig:
    """Parse a sectioned key-value configuration; unknown sections and keys are errors."""
    # No section name is empty, so [DEFAULT] is an unknown section like any other.
    # A ";" after whitespace starts a comment, also after a value.
    parser = configparser.ConfigParser(interpolation=None, default_section="",
                                       inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        for key, raw in parser.items(name):
            values[name][key] = parse_value(name, key, raw)
    for dist_key, gain_key in _GEOMETRY_CONFLICTS:
        if dist_key in values["radio"] and gain_key in values["radio"]:
            raise ConfigError(
                f"radio.{dist_key} and radio.{gain_key} are inconsistent: "
                "give the geometry or the explicit gain, not both")
    return RunConfig(**values["run"], lte=LteSettings(**values["lte"]),
                     wifi=WifiSettings(**values["wifi"]),
                     radio=RadioSettings(**values["radio"]))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every key, fixed order; re-parsing round-trips."""
    return run_text(cfg.seed, cfg.duration_s) + "".join(
        section_text(name, getattr(cfg, name)) for name in _GRID_SECTIONS)


def run_text(seed: int, duration_s: float) -> str:
    """The ``[run]`` section of ``serialize_config``."""
    return f"[run]\nseed = {seed}\nduration_s = {duration_s!r}\n"


def section_text(name: str, section) -> str:
    """One settings section of ``serialize_config``, from the blank line before it."""
    superseded = {dist for dist, gain in _GEOMETRY_CONFLICTS
                  if getattr(section, gain) is not None} if name == "radio" else ()
    lines = [f"\n[{name}]\n"]
    for f in fields(section):
        value = getattr(section, f.name)
        if value is None or f.name in superseded:
            continue  # an explicit gain supersedes its distance key
        lines.append(f"{f.name} = {value!r}\n" if isinstance(value, float)
                     else f"{f.name} = {value}\n")
    return "".join(lines)


# A WiFi-only run's LTE: at duty 0 the node never acts, so no other setting counts.
WIFI_ONLY = LteSettings(duty=0.0)


def lte_for_seed(lte: LteSettings) -> LteSettings:
    """The LTE settings a run's seed derives from: ``WIFI_ONLY`` at duty 0."""
    return WIFI_ONLY if lte.duty == 0 else lte


def canonical_for_seed(cfg: RunConfig) -> RunConfig:
    """Identity for seed derivation: a duty-0 run is a WiFi-only run.

    At duty 0 the LTE node never acts, so its settings are erased to
    ``WIFI_ONLY``.  This both de-duplicates baseline runs across grid points and
    makes every duty-0 row share its baseline's seed exactly.
    """
    return dataclasses.replace(cfg, seed=0, lte=lte_for_seed(cfg.lte))


def seed_from_text(master_seed: int, text: str, rep: int) -> int:
    """Stable per-run seed from (master seed, canonical config text, repetition)."""
    digest = hashlib.sha256(f"{master_seed}|{rep}|{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1
