"""Which RNG streams a run builds, and that the ones it draws from are unchanged.

A stream depends only on (seed, label), so leaving out a stream that a run
never draws from cannot move any draw of the others.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexsim import experiments
from coexsim.config import canonical_for_seed, seed_from_text, serialize_config
from coexsim.engine import Engine, Seed, stream_words
from coexsim.experiments import SCENARIOS, run_sweep
from coexsim.simulation import Simulation

from conftest import derive_seed, lte_transitions, make_cfg


class TestStreamsBuilt:
    def test_hard_per_run_has_no_decode_stream(self):
        sim = Simulation(make_cfg(duty=0.5, duration=0.3), seed=3)
        sim.run()
        assert "wifi-decode" not in sim.engine._streams
        assert "wifi-backoff" in sim.engine._streams

    @pytest.mark.parametrize("duty", [0.0, 1.0])
    def test_no_silent_stream_without_silent_periods(self, duty):
        sim = Simulation(make_cfg(duty=duty, duration=0.3), seed=3)
        sim.run()
        assert "lte-silent" not in sim.engine._streams


def seed_sequence_of_ints(seed, label):
    """A stream's start state as ``SeedSequence([seed, *label_words])`` gives it."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
    return np.random.PCG64(np.random.SeedSequence([seed, *words])).state


def run_labels():
    """Every label a run draws from: soft PER builds the decode stream, and a
    duty strictly between 0 and 1 the LTE silent-period stream."""
    cfg = make_cfg(duty=0.5, duration=0.05)
    cfg = dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio, soft_slope_k=2.0))
    return sorted(Simulation(cfg, seed=1).engine._streams)


class TestStreamDerivation:
    def test_a_run_builds_every_label(self):
        assert run_labels() == ["lte-silent", "wifi-backoff", "wifi-decode"]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_streams_equal_seed_sequence_of_ints(self, seed):
        for label in run_labels():
            state = Engine(seed).rng_stream(label).bit_generator.state
            assert state == seed_sequence_of_ints(seed, label), label

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           label=st.sampled_from(["lte-silent", "wifi-backoff", "wifi-decode"]) | st.text())
    def test_any_seed_and_label_equal_seed_sequence_of_ints(self, seed, label):
        state = Engine(seed).rng_stream(label).bit_generator.state
        assert state == seed_sequence_of_ints(seed, label)


RUN_LABELS = ["lte-silent", "wifi-backoff", "wifi-decode"]  # as run_labels() gives them
# One-word and two-word seeds, with each bound of each length.
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
seed_batches = st.lists(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**32 - 1)
                        | st.integers(0, 2**64 - 1), max_size=50)


class TestStreamWords:
    @settings(max_examples=50, deadline=None)
    @given(seeds=seed_batches | st.just(EDGE_SEEDS),
           label=st.sampled_from(RUN_LABELS) | st.text())
    def test_each_row_gives_the_seed_sequence_state(self, seeds, label):
        words = stream_words(seeds, label)
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for j, seed in enumerate(seeds):
            state = Engine(Seed(seed, {label: words}, j)).rng_stream(label).bit_generator.state
            assert state == seed_sequence_of_ints(seed, label), seed

    def test_an_engine_builds_a_stream_from_its_words(self):
        zeros = np.zeros((1, 4), dtype=np.uint64)
        from_words = Engine(Seed(5, {"wifi-backoff": zeros}, 0))
        assert from_words.seed == 5
        assert (from_words.rng_stream("wifi-backoff").bit_generator.state
                != Engine(5).rng_stream("wifi-backoff").bit_generator.state)
        # A label without words keeps the seed's own stream.
        assert (from_words.rng_stream("lte-silent").bit_generator.state
                == Engine(5).rng_stream("lte-silent").bit_generator.state)

    def test_a_seed_pickles_with_its_words(self):
        # A pool that does not fork sends the planned runs, Seeds included, pickled.
        seed = Seed(2**40 + 3, {"wifi-backoff": stream_words([7, 2**40 + 3], "wifi-backoff")}, 1)
        copy = pickle.loads(pickle.dumps(seed))
        assert (type(copy), copy, copy.index) == (Seed, seed, 1)
        assert (Engine(copy).rng_stream("wifi-backoff").bit_generator.state
                == seed_sequence_of_ints(2**40 + 3, "wifi-backoff"))


def test_every_sweep_run_is_its_standalone_run(monkeypatch):
    """Each run of a sweep, soft PER included, draws the streams that
    ``Simulation(cfg, seed=seed)`` draws, every one from its batch's words."""
    sims = []

    class Recorded(Simulation):
        def __init__(self, cfg, seed):
            super().__init__(cfg, seed=seed)
            sims.append((cfg, seed, self))

        def run(self):
            self.metrics = super().run()
            return self.metrics

    monkeypatch.setattr(experiments, "Simulation", Recorded)
    scenario = SCENARIOS["duty"]()
    scenario.reps, scenario.duration_s = 2, 0.3
    for path, values in (("lte.duty", [0, 0.5, 1]), ("lte.tx_power_dbm", [-6]),
                         ("wifi.mcs_mbps", [54]), ("radio.soft_slope_k", [0, 2])):
        scenario.override_grid(path, values)
    result = run_sweep(scenario, master_seed=4, jobs=1)
    # 6 points at 2 reps; the duty-0 points are the baselines of the others.
    assert len(result.rows) == len(sims) == 12
    built = set()
    for cfg, seed, sim in sims:
        standalone = Simulation(cfg, seed=int(seed))
        assert standalone.run() == sim.metrics
        streams = sim.engine._streams
        assert set(streams) <= set(seed.words)  # no stream falls back to its SeedSequence
        assert {label: rng.bit_generator.state for label, rng in streams.items()} == {
            label: rng.bit_generator.state for label, rng in standalone.engine._streams.items()}
        built |= set(streams)
    assert built == set(RUN_LABELS)


class TestDrawsUnchanged:
    def test_soft_per_half_duty_draws_pinned_sequences(self):
        # Pinned from the code that built every stream for every run.
        cfg = make_cfg(duty=0.5, lte_power=-6.0, duration=0.5)
        cfg = dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio, soft_slope_k=2.0))
        sim = Simulation(cfg, seed=7)
        metrics = sim.run()
        assert dataclasses.astuple(metrics) == (
            1048500, 700, 0, 0, 193115000, 225000000, 500000000)
        assert lte_transitions(sim) == [
            (0, True), (75000000, False), (170000000, True), (245000000, False),
            (360000000, True), (435000000, False)]
        assert sim.station.decode_rng.uniform(size=3).tolist() == [
            0.08514812159421248, 0.20690615171707427, 0.1261768195815648]
        assert sim.lte_node.rng.uniform(size=3).tolist() == [
            0.018215087516119, 0.0067603642789679785, 0.3984484808115806]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), before=st.integers(0, 100),
           drawn=st.integers(0, 10_000))
    def test_a_negative_advance_rewinds_uniform_draws_exactly(self, seed, before, drawn):
        # The soft step rewinds a chunk's unused decode draws with one negative
        # advance, which numpy takes modulo 2^128: one PCG64 output a draw.
        rng = Engine(seed).rng_stream("wifi-decode")
        rng.uniform(size=before)
        state = rng.bit_generator.state
        rng.uniform(size=drawn)
        rng.bit_generator.advance(-drawn)
        assert rng.bit_generator.state == state


class TestSeedFromText:
    @pytest.mark.parametrize("duty", [0.0, 0.5])
    def test_derive_seed_is_seed_from_canonical_text(self, duty):
        cfg = make_cfg(duty=duty, lte_power=-16.0, mcs=6)
        text = serialize_config(canonical_for_seed(cfg))
        for master, rep in ((1, 0), (7, 3)):
            assert derive_seed(master, cfg, rep) == seed_from_text(master, text, rep)