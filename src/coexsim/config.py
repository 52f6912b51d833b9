"""Run configuration: flat sectioned key-value files, validation, canonical form.

An empty config reproduces the reference testbed: 94 cm WiFi link, LTE base
station 34/35 cm from the WiFi transmitter/receiver, 3 dBi antennas at
5.18 GHz, 100 PRB LTE, 17 dBm WiFi sending saturated 1500-byte UDP frames.
Unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
from dataclasses import dataclass, field, fields

from . import lte as lte_mod
from . import radio, wifi


class ConfigError(Exception):
    """Invalid configuration text or values; message names the offending key."""


@dataclass(frozen=True)
class LteSettings:
    duty: float = 0.5
    mean_period_ms: float = 150.0
    silent_spread: float = 0.5
    frame_align_ms: int = 10
    n_prb: int = 100
    center_offset_mhz: float = 0.0
    tx_power_dbm: float = 12.0

    def duty_cycle(self) -> lte_mod.DutyCycleConfig:
        return lte_mod.DutyCycleConfig(self.duty, self.mean_period_ms,
                                       self.silent_spread, self.frame_align_ms)

    def phy(self) -> lte_mod.LtePhyConfig:
        return lte_mod.LtePhyConfig(self.n_prb, self.center_offset_mhz,
                                    self.tx_power_dbm)


@dataclass(frozen=True)
class WifiSettings:
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

    def dcf_params(self) -> wifi.DcfParams:
        return wifi.DcfParams(
            slot_us=self.slot_us, sifs_us=self.sifs_us,
            difs_us=self.sifs_us + 2 * self.slot_us,
            cw_min=self.cw_min, cw_max=self.cw_max, retry_limit=self.retry_limit,
            preamble_us=self.preamble_us, ack_bytes=self.ack_bytes,
            control_rate_mbps=self.control_rate_mbps,
            mac_overhead_bytes=self.mac_overhead_bytes)

    def cca(self) -> wifi.CcaProfile:
        preset = wifi.CCA_PRESETS.get(self.cca_profile)
        if preset is None:
            raise ConfigError(f"unknown cca_profile {self.cca_profile!r}; "
                              f"presets: {sorted(wifi.CCA_PRESETS)}")
        return wifi.CcaProfile(
            name=preset.name,
            ed_threshold_dbm=(preset.ed_threshold_dbm
                              if self.cca_ed_threshold_dbm is None
                              else self.cca_ed_threshold_dbm),
            measure_band=self.cca_measure_band or preset.measure_band,
            mid_packet_abort=(preset.mid_packet_abort
                              if self.cca_mid_packet_abort is None
                              else self.cca_mid_packet_abort))


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

    def _gain(self, override: float | None, distance_m: float) -> float:
        if override is not None:
            return override
        return -radio.fspl_db(distance_m, self.freq_ghz) + 2 * self.antenna_gain_dbi

    def link_gains(self) -> tuple[float, float, float]:
        """(LTE->WiFi TX, LTE->WiFi RX, WiFi TX<->RX) path gains in dB."""
        return (self._gain(self.gain_lte_to_wifi_tx_db, self.dist_lte_to_wifi_tx_m),
                self._gain(self.gain_lte_to_wifi_rx_db, self.dist_lte_to_wifi_rx_m),
                self._gain(self.gain_wifi_link_db, self.dist_wifi_tx_to_rx_m))

    def per_model(self) -> radio.PerModel:
        thresholds = dict(radio.DEFAULT_PER_THRESHOLDS_DB)
        if self.per_thresholds.strip():
            for pair in self.per_thresholds.split(","):
                try:
                    rate, db = pair.split(":")
                    thresholds[int(rate.strip())] = float(db.strip())
                except ValueError as exc:
                    raise ConfigError(f"bad per_thresholds entry {pair.strip()!r}") from exc
        try:
            return radio.PerModel(thresholds, self.soft_slope_k, self.oob_floor_dbc)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    duration_s: float = 10.0
    lte: LteSettings = field(default_factory=LteSettings)
    wifi: WifiSettings = field(default_factory=WifiSettings)
    radio: RadioSettings = field(default_factory=RadioSettings)


_SECTIONS = {"run": None, "lte": LteSettings, "wifi": WifiSettings,
             "radio": RadioSettings}
_RUN_KEYS = {"seed": int, "duration_s": float}

# Pairs that must not both be set explicitly: a distance and its gain override.
_GEOMETRY_CONFLICTS = [
    ("dist_lte_to_wifi_tx_m", "gain_lte_to_wifi_tx_db"),
    ("dist_lte_to_wifi_rx_m", "gain_lte_to_wifi_rx_db"),
    ("dist_wifi_tx_to_rx_m", "gain_wifi_link_db"),
]


def _coerce(section: str, key: str, raw: str, target_type) -> object:
    text = raw.strip()
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(text)
        if target_type is int:
            return int(text)
        if target_type is float:
            if text.endswith("%"):  # duty etc. may be given as a percentage
                return float(text[:-1]) / 100.0
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as "
                          f"{target_type.__name__}") from exc


def _field_types(cls) -> dict[str, type]:
    out = {}
    for f in fields(cls):
        t = f.type
        if isinstance(t, str):
            t = {"int": int, "float": float, "str": str, "bool": bool,
                 "float | None": float, "str | None": str,
                 "bool | None": bool}.get(t, str)
        out[f.name] = t
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key-value configuration."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    run_kwargs: dict[str, object] = {}
    if parser.has_section("run"):
        for key, raw in parser.items("run"):
            if key not in _RUN_KEYS:
                raise ConfigError(f"unknown key {key!r} in section [run]")
            run_kwargs[key] = _coerce("run", key, raw, _RUN_KEYS[key])

    sections: dict[str, object] = {}
    for name, cls in _SECTIONS.items():
        if cls is None:
            continue
        types = _field_types(cls)
        kwargs: dict[str, object] = {}
        if parser.has_section(name):
            for key, raw in parser.items(name):
                if key not in types:
                    raise ConfigError(f"unknown key {key!r} in section [{name}]")
                kwargs[key] = _coerce(name, key, raw, types[key])
        if name == "radio":
            for dist_key, gain_key in _GEOMETRY_CONFLICTS:
                if dist_key in kwargs and gain_key in kwargs:
                    raise ConfigError(
                        f"[radio] {dist_key} and {gain_key} are inconsistent: "
                        "give the geometry or the explicit gain, not both")
        try:
            sections[name] = cls(**kwargs)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc

    cfg = RunConfig(seed=run_kwargs.get("seed", 1),
                    duration_s=run_kwargs.get("duration_s", 10.0),
                    lte=sections["lte"], wifi=sections["wifi"],
                    radio=sections["radio"])
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Check cross-field constraints; raises ConfigError naming the key."""
    if cfg.duration_s <= 0:
        raise ConfigError("[run] duration_s must be positive")
    if not 0.0 <= cfg.lte.duty <= 1.0:
        raise ConfigError(f"[lte] duty must be in [0, 1], got {cfg.lte.duty}")
    try:
        cfg.lte.duty_cycle()
        cfg.lte.phy()
    except ValueError as exc:
        raise ConfigError(f"[lte] {exc}") from exc
    if cfg.wifi.mcs_mbps not in wifi.BITS_PER_SYMBOL:
        raise ConfigError(f"[wifi] mcs_mbps must be one of {wifi.MCS_RATES}, "
                          f"got {cfg.wifi.mcs_mbps}")
    if cfg.wifi.payload_bytes <= 0:
        raise ConfigError("[wifi] payload_bytes must be positive")
    try:
        cfg.wifi.dcf_params()
        cfg.wifi.cca()
    except ValueError as exc:
        raise ConfigError(f"[wifi] {exc}") from exc
    for key in ("dist_lte_to_wifi_tx_m", "dist_lte_to_wifi_rx_m",
                "dist_wifi_tx_to_rx_m"):
        if getattr(cfg.radio, key) <= 0:
            raise ConfigError(f"[radio] {key} must be positive")
    if cfg.radio.wifi_bandwidth_mhz <= 0:
        raise ConfigError("[radio] wifi_bandwidth_mhz must be positive")
    cfg.radio.per_model()


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every key, fixed order; re-parsing round-trips."""
    out = io.StringIO()
    out.write("[run]\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write(f"duration_s = {cfg.duration_s!r}\n")
    superseded = {dist for dist, gain in _GEOMETRY_CONFLICTS
                  if getattr(cfg.radio, gain) is not None}
    for name in ("lte", "wifi", "radio"):
        section = getattr(cfg, name)
        out.write(f"\n[{name}]\n")
        for f in fields(section):
            value = getattr(section, f.name)
            if value is None or (name == "radio" and f.name in superseded):
                continue  # an explicit gain supersedes its distance key
            if isinstance(value, float):
                out.write(f"{f.name} = {value!r}\n")
            else:
                out.write(f"{f.name} = {value}\n")
    return out.getvalue()


def canonical_for_seed(cfg: RunConfig) -> RunConfig:
    """Identity for seed derivation: a duty-0 run is a WiFi-only run.

    At duty 0 the LTE node never acts, so its parameters are erased to
    defaults.  This both de-duplicates baseline runs across grid points and
    makes every duty-0 row share its baseline's seed exactly.
    """
    cfg = dataclasses.replace(cfg, seed=0)
    if cfg.lte.duty == 0:
        cfg = dataclasses.replace(cfg, lte=LteSettings(duty=0.0))
    return cfg


def seed_from_text(master_seed: int, text: str, rep: int) -> int:
    """Stable per-run seed from (master seed, canonical config text, repetition)."""
    digest = hashlib.sha256(f"{master_seed}|{rep}|{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def derive_seed(master_seed: int, cfg: RunConfig, rep: int) -> int:
    """Stable per-run seed from (master seed, canonical config, repetition)."""
    return seed_from_text(master_seed, serialize_config(canonical_for_seed(cfg)), rep)
