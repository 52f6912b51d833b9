import dataclasses
import itertools
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexsim.config import (DB_LIMIT, MAGNITUDE_RANGE, ConfigError, LteSettings,
                            RadioSettings, RunConfig, WifiSettings, canonical_for_seed,
                            parse_config, serialize_config)
from coexsim.experiments import Scenario
from coexsim.lte import PRB_CHOICES
from coexsim.simulation import plan
from coexsim.wifi import CCA_PRESETS, MCS_RATES, CcaProfile

from conftest import derive_seed


class TestDefaults:
    def test_empty_config_reproduces_testbed(self):
        cfg = parse_config("")
        assert cfg.radio.dist_lte_to_wifi_tx_m == 0.34
        assert cfg.radio.dist_lte_to_wifi_rx_m == 0.35
        assert cfg.radio.dist_wifi_tx_to_rx_m == 0.94
        assert cfg.radio.freq_ghz == 5.18
        assert cfg.radio.antenna_gain_dbi == 3.0
        assert cfg.lte.n_prb == 100
        assert cfg.lte.mean_period_ms == 150.0
        assert cfg.wifi.tx_power_dbm == 17.0
        assert cfg.wifi.payload_bytes == 1500
        assert cfg.duration_s == 10.0

    def test_default_gains_follow_fspl_plus_antennas(self):
        gains = RunConfig().radio.link_gains()
        assert gains[0] == pytest.approx(-31.37, abs=0.01)
        assert gains[1] == pytest.approx(-31.62, abs=0.01)
        assert gains[2] == pytest.approx(-40.20, abs=0.01)


class TestParsing:
    def test_sections_and_values(self):
        cfg = parse_config("""
            [lte]
            duty = 0.25
            tx_power_dbm = -16
            [wifi]
            mcs_mbps = 6
            [run]
            seed = 99
            duration_s = 2.5
        """)
        assert cfg.lte.duty == 0.25
        assert cfg.lte.tx_power_dbm == -16.0
        assert cfg.wifi.mcs_mbps == 6
        assert cfg.seed == 99
        assert cfg.duration_s == 2.5

    def test_duty_accepts_percent(self):
        assert parse_config("[lte]\nduty = 50%\n").lte.duty == 0.5

    @pytest.mark.parametrize("token", ["0", "0.0", "-0.0", "0e5", "0%", "-0e-400%"])
    def test_zero_tokens_are_zero(self, token):
        assert parse_config(f"[lte]\nduty = {token}\n").lte.duty == 0.0

    @pytest.mark.parametrize("key,token", [
        ("duty", "1e-400"), ("duty", "1e-400%"), ("duty", "-1e-400"), ("duty", "1e-322%"),
        ("tx_power_dbm", "2.5e-999"), ("center_offset_mhz", "1_0e-400")])
    def test_nonzero_token_that_converts_to_zero_names_key(self, key, token):
        # Too small for a float, it would otherwise run as 0.
        with pytest.raises(ConfigError, match=f"lte.{key}: '{token}' is not 0"):
            parse_config(f"[lte]\n{key} = {token}\n")

    def test_duty_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="duty"):
            parse_config("[lte]\nduty = 1.3\n")

    def test_prb_outside_channelization_set(self):
        with pytest.raises(ConfigError, match="n_prb"):
            parse_config("[lte]\nn_prb = 40\n")

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("[wifi]\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config("[mystery]\nx = 1\n")

    def test_unknown_mcs_rejected(self):
        with pytest.raises(ConfigError, match="mcs"):
            parse_config("[wifi]\nmcs_mbps = 11\n")

    def test_geometry_and_gain_conflict(self):
        with pytest.raises(ConfigError, match="inconsistent"):
            parse_config("[radio]\ndist_wifi_tx_to_rx_m = 1.0\n"
                         "gain_wifi_link_db = -40\n")

    def test_gain_override_alone_is_fine(self):
        cfg = parse_config("[radio]\ngain_wifi_link_db = -50\n")
        assert cfg.radio.link_gains()[2] == -50.0

    def test_unparsable_value_names_key(self):
        with pytest.raises(ConfigError, match="duty"):
            parse_config("[lte]\nduty = lots\n")

    def test_per_threshold_overrides(self):
        cfg = parse_config("[radio]\nper_thresholds = 54:27, 6:4\n")
        assert cfg.radio.threshold_db(54) == 27.0
        assert cfg.radio.threshold_db(6) == 4.0
        assert cfg.radio.threshold_db(24) == 13.0  # the default stays

    def test_cca_profile_overrides(self):
        cfg = parse_config("[wifi]\ncca_profile = vendor-B\n"
                           "cca_ed_threshold_dbm = -55\n")
        assert cfg.wifi.cca() == CcaProfile(ed_threshold_dbm=-55.0, measure_band="primary10",
                                            mid_packet_abort=False)

    def test_empty_measure_band_is_the_default_config(self):
        # An empty band keeps the preset's, so it is the same config and seed.
        cfg = parse_config("[wifi]\ncca_measure_band =\n")
        assert cfg == RunConfig()
        assert derive_seed(1, cfg, 0) == derive_seed(1, RunConfig(), 0)

    def test_unknown_cca_profile(self):
        with pytest.raises(ConfigError, match="cca_profile"):
            parse_config("[wifi]\ncca_profile = vendor-X\n").wifi.cca()

    def test_a_semicolon_after_whitespace_starts_a_comment(self):
        cfg = parse_config("[lte]\nduty = 50%  ; or 0.5\nn_prb = 25\t;six to 100\n"
                           "; a whole line\n[wifi] ; a header\ncca_profile = vendor-B ;\n")
        assert (cfg.lte.duty, cfg.lte.n_prb, cfg.wifi.cca_profile) == (0.5, 25, "vendor-B")

    @pytest.mark.parametrize("text", ["[lte]\nduty = 0.5;x\n", "[lte]\nduty = 0.5 # x\n",
                                      "[wifi]\ncca_profile = vendor-B;\n"])
    def test_a_semicolon_inside_a_value_or_a_hash_is_part_of_it(self, text):
        with pytest.raises(ConfigError, match="cannot parse|must be one of"):
            parse_config(text)

    @pytest.mark.parametrize("text", ["[DEFAULT]\nduty = 0.3\n",
                                      "[DEFAULT]\nseed = 3\n[run]\n",
                                      "[run]\nseed = 2\n[DEFAULT]\nduty = 0.3\n"])
    def test_default_section_is_unknown(self, text):
        # configparser would drop a lone [DEFAULT] and copy its keys into
        # every other section.
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            parse_config(text)


class TestRoundTrip:
    def test_default_round_trips(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_modified_round_trips(self):
        cfg = parse_config("""
            [lte]
            duty = 0.7
            n_prb = 25
            center_offset_mhz = -15
            [wifi]
            mcs_mbps = 9
            cca_profile = vendor-B
            cca_mid_packet_abort = true
            [radio]
            gain_wifi_link_db = -41.5
            per_thresholds = 54:26
        """)
        assert parse_config(serialize_config(cfg)) == cfg


class TestSeedDerivation:
    def test_deterministic(self):
        cfg = RunConfig()
        assert derive_seed(1, cfg, 0) == derive_seed(1, cfg, 0)

    def test_sensitive_to_master_rep_and_config(self):
        cfg = RunConfig()
        other = dataclasses.replace(cfg, lte=dataclasses.replace(cfg.lte, duty=0.7))
        seeds = {derive_seed(1, cfg, 0), derive_seed(2, cfg, 0),
                 derive_seed(1, cfg, 1), derive_seed(1, other, 0)}
        assert len(seeds) == 4

    def test_duty_zero_erases_lte_parameters(self):
        base = RunConfig()
        a = dataclasses.replace(base, lte=dataclasses.replace(
            base.lte, duty=0.0, tx_power_dbm=-16.0, n_prb=6))
        b = dataclasses.replace(base, lte=dataclasses.replace(
            base.lte, duty=0.0, tx_power_dbm=12.0, n_prb=100))
        assert canonical_for_seed(a) == canonical_for_seed(b)
        assert derive_seed(1, a, 3) == derive_seed(1, b, 3)

    def test_config_seed_field_does_not_leak_into_derivation(self):
        base = RunConfig()
        reseeded = dataclasses.replace(base, seed=777)
        assert derive_seed(1, base, 0) == derive_seed(1, reseeded, 0)


SETTINGS = {"lte": LteSettings, "wifi": WifiSettings, "radio": RadioSettings}
TOKENS = ["0", "1", "-1", "12", "12.5", "54.7", "50%", "12%", "nan", "inf", "true",
          "off", "vendor-B", "primary10", "6:4", "abc", ""]


def outcome(build):
    """The built value and its type, or the text of the config error."""
    try:
        value = build()
    except ConfigError as exc:
        return "error", str(exc)
    return type(value), value


class TestGridTokensParseLikeIniValues:
    @pytest.mark.parametrize("section,key", [
        (name, f.name) for name, cls in SETTINGS.items() for f in fields(cls)])
    def test_same_text_gives_same_value_or_error(self, section, key):
        def from_ini():
            cfg = parse_config(f"[{section}]\n{key} = {text}\n")
            return getattr(getattr(cfg, section), key)

        def from_grid():
            scenario = Scenario("grid", RunConfig(), [], reps=1)
            scenario.override_grid(f"{section}.{key}", [text])
            cfg = scenario.grid()[0][1]
            return getattr(getattr(cfg, section), key)

        for text in TOKENS:
            assert outcome(from_ini) == outcome(from_grid), text


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
db_value = st.floats(-DB_LIMIT, DB_LIMIT)
optional_db = st.none() | db_value
magnitude = st.floats(*MAGNITUDE_RANGE)
contention_windows = st.lists(st.integers(0, 12), min_size=2, max_size=2).map(sorted)
# (duty, mean_period_ms): off, or on for at least 1 ms a period once rounded
# to whole ms, as the LTE schedule rounds it.
lte_schedules = st.tuples(st.floats(0.0, 1.0), positive).filter(
    lambda s: s[0] == 0.0 or math.floor(s[0] * s[1] + 0.5) >= 1)


def per_table(thresholds):
    return ", ".join(f"{rate}:{db!r}" for rate, db in zip(MCS_RATES, sorted(thresholds)))


def lte_settings(schedule, **kwargs):
    duty, mean_period_ms = schedule
    return LteSettings(duty=duty, mean_period_ms=mean_period_ms, **kwargs)


def wifi_settings(windows, **kwargs):
    cw_min, cw_max = (2 ** k - 1 for k in windows)
    return WifiSettings(cw_min=cw_min, cw_max=cw_max, **kwargs)


valid_configs = st.builds(
    RunConfig,
    seed=st.integers(0, 2**64 - 1),
    duration_s=positive,
    lte=st.builds(lte_settings, lte_schedules,
                  silent_spread=st.floats(0.0, 1.0, exclude_max=True),
                  frame_align_ms=st.integers(1, 1000), n_prb=st.sampled_from(PRB_CHOICES),
                  center_offset_mhz=finite, tx_power_dbm=db_value),
    wifi=st.builds(wifi_settings, contention_windows,
                   mcs_mbps=st.sampled_from(MCS_RATES), tx_power_dbm=db_value,
                   payload_bytes=st.integers(1, 10_000),
                   cca_profile=st.sampled_from(sorted(CCA_PRESETS)),
                   cca_ed_threshold_dbm=optional_db,
                   cca_measure_band=st.sampled_from([None, "full20", "primary10"]),
                   cca_mid_packet_abort=st.sampled_from([None, False, True]),
                   slot_us=st.integers(1, 100), sifs_us=st.integers(0, 100),
                   retry_limit=st.integers(0, 20), preamble_us=st.integers(0, 100),
                   ack_bytes=st.integers(0, 100), control_rate_mbps=st.sampled_from(MCS_RATES),
                   mac_overhead_bytes=st.integers(0, 100)),
    radio=st.builds(RadioSettings, freq_ghz=magnitude, wifi_bandwidth_mhz=magnitude,
                    noise_figure_db=db_value, antenna_gain_dbi=db_value,
                    dist_lte_to_wifi_tx_m=magnitude, dist_lte_to_wifi_rx_m=magnitude,
                    dist_wifi_tx_to_rx_m=magnitude, gain_lte_to_wifi_tx_db=optional_db,
                    gain_lte_to_wifi_rx_db=optional_db, gain_wifi_link_db=optional_db,
                    oob_floor_dbc=st.floats(-DB_LIMIT, 0.0),
                    soft_slope_k=st.floats(min_value=0.0, allow_infinity=False),
                    per_thresholds=st.just("") | st.lists(
                        db_value, min_size=8, max_size=8, unique=True).map(per_table)),
)

def run_with_wifi(**kwargs):
    """A default 10 s RunConfig whose WiFi settings take ``kwargs``."""
    return RunConfig(wifi=WifiSettings(**kwargs))


# Keys that take a float, each of which rejects every non-finite value.
FLOAT_KEYS = {
    LteSettings: ["duty", "mean_period_ms", "silent_spread", "center_offset_mhz", "tx_power_dbm"],
    WifiSettings: ["tx_power_dbm", "cca_ed_threshold_dbm"],
    RadioSettings: ["freq_ghz", "wifi_bandwidth_mhz", "dist_lte_to_wifi_tx_m",
                    "dist_lte_to_wifi_rx_m", "dist_wifi_tx_to_rx_m", "noise_figure_db",
                    "antenna_gain_dbi", "gain_lte_to_wifi_tx_db", "gain_lte_to_wifi_rx_db",
                    "gain_wifi_link_db", "oob_floor_dbc", "soft_slope_k"],
    RunConfig: ["duration_s"],
}
# Bad values listed one by one: each is checked on every run, and the
# property test below draws them among its random cases.
LISTED_INVALID = (
    [(cls, key, value) for cls, keys in FLOAT_KEYS.items() for key in keys
     for value in (math.nan, math.inf, -math.inf)]
    + [(WifiSettings, "cw_max", cw) for cw in (0, 1, 3, 7)]  # below the default cw_min
    + [(RadioSettings, "per_thresholds", text) for text in (
        "6", "6:", "x:5", "6:5:7", "6:nan", "54:inf", "6:30", "9:4", "54:5, 6:30", "54:301",
        "6:-1e308",
        # Not 0, but too small for a float: it would give a 0 dB threshold.
        "6:1e-400", "6: -1e-400",
        # Rates that are no 802.11a rate, and a rate given twice.
        "100:40", "7:5.5", "6:5, 6:5")]
    # A value just past each bound the property test draws beyond, so that every
    # key it can draw is checked on every run.
    + [(cls, key, value) for cls, keys in (
        (LteSettings, ["tx_power_dbm"]), (WifiSettings, ["tx_power_dbm", "cca_ed_threshold_dbm"]),
        (RadioSettings, ["noise_figure_db", "antenna_gain_dbi", "gain_lte_to_wifi_tx_db",
                         "gain_lte_to_wifi_rx_db", "gain_wifi_link_db", "oob_floor_dbc"]))
       for key in keys for value in (math.nextafter(-DB_LIMIT, -math.inf),
                                     math.nextafter(DB_LIMIT, math.inf))]
    + [(RadioSettings, key, value) for key in (
        "freq_ghz", "wifi_bandwidth_mhz", "dist_lte_to_wifi_tx_m", "dist_lte_to_wifi_rx_m",
        "dist_wifi_tx_to_rx_m") for value in (math.nextafter(MAGNITUDE_RANGE[0], 0.0),
                                              math.nextafter(MAGNITUDE_RANGE[1], math.inf))]
    + [(LteSettings, "duty", value) for value in (-1e-9, 1.000001, 0.0033)]
    + [(LteSettings, key, value) for key, value in (
        ("mean_period_ms", 0.0), ("silent_spread", -1e-9), ("silent_spread", 1.0),
        ("frame_align_ms", 0), ("n_prb", 7))]
    + [(WifiSettings, key, value) for key, value in (
        ("mcs_mbps", 7), ("payload_bytes", 0), ("slot_us", 0), ("sifs_us", -1),
        ("preamble_us", -1), ("ack_bytes", -1), ("mac_overhead_bytes", -1),
        ("cw_min", -1), ("cw_min", 14), ("cw_min", 2**33 - 1), ("cw_max", -1), ("cw_max", 14),
        ("cw_max", 2**33 - 1), ("cca_profile", "vendor-C"), ("cca_measure_band", "full10"),
        ("retry_limit", -1), ("retry_limit", 2**63))]
    # Control rates that are no 802.11a rate: the ACK would go at 6 Mbps.
    + [(WifiSettings, "control_rate_mbps", rate) for rate in (-3, 0, 7, 1000)]
    + [(RadioSettings, "oob_floor_dbc", 1e-9), (RadioSettings, "soft_slope_k", -1e-9)]
    + [(RunConfig, key, value) for key, value in (
        ("duration_s", 4e-10), ("duration_s", 1e10), ("seed", -1), ("seed", 2**64))]
    # Past the int64 range of the DCF step after a 10 s run.
    + [(run_with_wifi, key, value) for key, value in (
        ("cw_max", 2**38 - 1), ("slot_us", 10**10), ("sifs_us", 10**13),
        ("preamble_us", 10**13), ("payload_bytes", 10**14), ("ack_bytes", 10**14),
        ("mac_overhead_bytes", 10**14))])
beyond_db_limit = (st.floats(max_value=-DB_LIMIT, exclude_max=True)
                   | st.floats(min_value=DB_LIMIT, exclude_min=True))
out_of_magnitude = (st.floats(max_value=MAGNITUDE_RANGE[0], exclude_max=True)
                    | st.floats(min_value=MAGNITUDE_RANGE[1], exclude_min=True))
invalid_values = st.one_of(
    st.sampled_from(LISTED_INVALID),
    st.tuples(st.just(LteSettings), st.just("duty"),
              st.floats(max_value=-1e-9) | st.floats(min_value=1.000001)),
    # A duty above 0 whose active interval rounds to 0 ms at the 150 ms period.
    st.tuples(st.just(LteSettings), st.just("duty"),
              st.floats(min_value=0.0, max_value=0.0033, exclude_min=True)),
    st.tuples(st.just(LteSettings), st.just("mean_period_ms"), st.floats(max_value=0.0)),
    st.tuples(st.just(LteSettings), st.just("silent_spread"),
              st.floats(max_value=-1e-9) | st.floats(min_value=1.0)),
    st.tuples(st.just(LteSettings), st.just("frame_align_ms"), st.integers(max_value=0)),
    st.tuples(st.just(LteSettings), st.just("n_prb"),
              st.integers().filter(lambda n: n not in PRB_CHOICES)),
    st.tuples(st.just(LteSettings), st.just("tx_power_dbm"), beyond_db_limit),
    st.tuples(st.just(WifiSettings), st.sampled_from(["mcs_mbps", "control_rate_mbps"]),
              st.integers().filter(lambda n: n not in MCS_RATES)),
    st.tuples(st.just(WifiSettings), st.sampled_from(
        ["tx_power_dbm", "cca_ed_threshold_dbm"]), beyond_db_limit),
    st.tuples(st.just(WifiSettings), st.sampled_from(["payload_bytes", "slot_us"]),
              st.integers(max_value=0)),
    st.tuples(st.just(WifiSettings), st.sampled_from(
        ["sifs_us", "preamble_us", "ack_bytes", "mac_overhead_bytes"]),
        st.integers(max_value=-1)),
    st.tuples(st.just(WifiSettings), st.sampled_from(["cw_min", "cw_max"]),
              st.integers(max_value=14).filter(lambda cw: cw < 0 or cw & (cw + 1))),
    # Windows past the 32 bits a backoff draw takes.
    st.tuples(st.just(WifiSettings), st.sampled_from(["cw_min", "cw_max"]),
              st.integers(33, 200).map(lambda k: 2**k - 1)),
    st.tuples(st.just(WifiSettings), st.just("cca_profile"),
              st.text().filter(lambda t: t not in CCA_PRESETS)),
    st.tuples(st.just(WifiSettings), st.just("cca_measure_band"),
              st.text(min_size=1).filter(lambda t: t not in ("full20", "primary10"))),
    st.tuples(st.just(RadioSettings), st.sampled_from(
        ["freq_ghz", "wifi_bandwidth_mhz", "dist_lte_to_wifi_tx_m",
         "dist_lte_to_wifi_rx_m", "dist_wifi_tx_to_rx_m"]),
        out_of_magnitude),
    st.tuples(st.just(RadioSettings), st.sampled_from(
        ["noise_figure_db", "antenna_gain_dbi", "gain_lte_to_wifi_tx_db",
         "gain_lte_to_wifi_rx_db", "gain_wifi_link_db"]), beyond_db_limit),
    st.tuples(st.just(RadioSettings), st.just("oob_floor_dbc"),
              st.floats(min_value=1e-9) | beyond_db_limit),
    st.tuples(st.just(RadioSettings), st.just("soft_slope_k"), st.floats(max_value=-1e-9)),
    st.tuples(st.just(WifiSettings), st.just("retry_limit"),
              st.integers(max_value=-1) | st.integers(min_value=2**63)),
    st.tuples(st.just(RunConfig), st.just("duration_s"),
              st.floats(max_value=4e-10) | st.floats(min_value=1e10)),
    # Seeds past 64 bits would alias the runs of other seeds.
    st.tuples(st.just(RunConfig), st.just("seed"),
              st.integers(max_value=-1) | st.integers(min_value=2**64)),
    # Past the int64 range of the DCF step: 4096 of the longest cycles after
    # the 10 s run end would pass 2^63 - 1 ns.
    st.tuples(st.just(run_with_wifi), st.just("cw_max"),
              st.integers(38, 200).map(lambda k: 2**k - 1)),
    st.tuples(st.just(run_with_wifi), st.just("slot_us"), st.integers(min_value=10**10)),
    st.tuples(st.just(run_with_wifi), st.sampled_from(["sifs_us", "preamble_us"]),
              st.integers(min_value=10**13)),
    st.tuples(st.just(run_with_wifi), st.sampled_from(
        ["payload_bytes", "ack_bytes", "mac_overhead_bytes"]), st.integers(min_value=10**14)),
)


def assert_config_error(cls, key, value):
    with pytest.raises(ConfigError, match=key):
        cls(**{key: value})


LINKS = (("dist_lte_to_wifi_tx_m", "gain_lte_to_wifi_tx_db"),
         ("dist_lte_to_wifi_rx_m", "gain_lte_to_wifi_rx_db"),
         ("dist_wifi_tx_to_rx_m", "gain_wifi_link_db"))


def corner_configs():
    """Configs at every corner of the dB and magnitude bounds, links by geometry
    or by explicit gain."""
    db = (-DB_LIMIT, DB_LIMIT)
    geometry = [dict(zip([d for d, _ in LINKS], ds))
                for ds in itertools.product(MAGNITUDE_RANGE, repeat=3)]
    gains = [dict(zip([g for _, g in LINKS], gs)) for gs in itertools.product(db, repeat=3)]
    for lte_dbm, wifi_dbm, nf, antenna, freq, bandwidth, oob, offset, links in (
            itertools.product(db, db, db, db, MAGNITUDE_RANGE, MAGNITUDE_RANGE,
                              (-DB_LIMIT, 0.0), (0.0, 1e6), geometry + gains)):
        yield RunConfig(
            lte=LteSettings(tx_power_dbm=lte_dbm, center_offset_mhz=offset),
            wifi=WifiSettings(tx_power_dbm=wifi_dbm),
            radio=RadioSettings(noise_figure_db=nf, antenna_gain_dbi=antenna,
                                freq_ghz=freq, wifi_bandwidth_mhz=bandwidth,
                                oob_floor_dbc=oob, **links))


def test_link_budget_is_finite_at_every_corner_of_the_bounds():
    for cfg in corner_configs():
        _, sinr_rx, sinr_tx = plan(cfg.lte, cfg.wifi, cfg.radio).medium
        assert all(map(math.isfinite, (*sinr_rx, *sinr_tx))), cfg


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(valid_configs)
    def test_serialized_config_parses_back_to_itself(self, cfg):
        radio = cfg.radio
        for dist_key, gain_key in (("dist_lte_to_wifi_tx_m", "gain_lte_to_wifi_tx_db"),
                                   ("dist_lte_to_wifi_rx_m", "gain_lte_to_wifi_rx_db"),
                                   ("dist_wifi_tx_to_rx_m", "gain_wifi_link_db")):
            if getattr(radio, gain_key) is not None:  # the gain supersedes the distance
                radio = dataclasses.replace(
                    radio, **{dist_key: getattr(RadioSettings(), dist_key)})
        assert parse_config(serialize_config(cfg)) == dataclasses.replace(cfg, radio=radio)

    @settings(max_examples=500, deadline=None)
    @given(invalid_values)
    def test_out_of_range_value_is_a_config_error_naming_its_key(self, case):
        assert_config_error(*case)

    @pytest.mark.parametrize("cls,key,value", LISTED_INVALID,
                             ids=[f"{cls.__name__}.{key}={value!r}"
                                  for cls, key, value in LISTED_INVALID])
    def test_listed_bad_value_is_a_config_error_naming_its_key(self, cls, key, value):
        assert_config_error(cls, key, value)
