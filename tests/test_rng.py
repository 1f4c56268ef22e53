"""Tests for the named random-stream factory and the row-buffered streams."""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.addc import AddcPolicy
from repro.experiments.config import ExperimentConfig
from repro.graphs.tree import build_collection_tree
from repro.network.channels import ChannelPlan
from repro.network.deployment import deploy_crn
from repro.rng import RowStream, StreamFactory, derive_seed
from repro.rng.streams import ROW_BLOCK_UNIFORMS
from repro.sim.engine import SlottedEngine
from repro.spectrum.sensing import sensing_at_pcr


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "pu-activity") == derive_seed(7, "pu-activity")

    def test_name_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_returns_64_bit_value(self):
        value = derive_seed(123456789, "stream")
        assert 0 <= value < 2**64

    @given(st.integers(), st.text(max_size=50))
    def test_stable_under_any_inputs(self, seed, name):
        assert derive_seed(seed, name) == derive_seed(seed, name)


class TestStreamFactory:
    def test_same_name_same_state(self):
        factory = StreamFactory(42)
        a = factory.stream("x").random(5)
        b = factory.stream("x").random(5)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        factory = StreamFactory(42)
        a = factory.stream("x").random(5)
        b = factory.stream("y").random(5)
        assert not np.allclose(a, b)

    def test_request_order_irrelevant(self):
        first = StreamFactory(1)
        second = StreamFactory(1)
        a1 = first.stream("a").random()
        _ = second.stream("b").random()
        a2 = second.stream("a").random()
        assert a1 == a2

    def test_spawn_changes_streams(self):
        factory = StreamFactory(5)
        child = factory.spawn("rep-0")
        assert factory.stream("x").random() != child.stream("x").random()

    def test_spawn_deterministic(self):
        a = StreamFactory(5).spawn("rep-1").stream("x").random()
        b = StreamFactory(5).spawn("rep-1").stream("x").random()
        assert a == b

    def test_seed_property_and_repr(self):
        factory = StreamFactory(9)
        assert factory.seed == 9
        assert "9" in repr(factory)


@pytest.mark.parametrize("seed", [0, 1, 2**63, -5])
def test_factory_accepts_any_integer_seed(seed):
    StreamFactory(seed).stream("s").random()


def _fresh(seed: int) -> np.random.Generator:
    return StreamFactory(seed).stream("rows")


class TestRowStream:
    """``RowStream`` against an independent oracle: a fresh generator.

    Rows taken in any interleaving of ``peek``, ``take`` and ``random``
    must be the rows a same-seed generator's ``random((taken, width))``
    returns, and ``state()`` must be that generator's state afterwards.
    Counts reach two refill blocks, so interleavings cross refills.
    """

    @pytest.mark.parametrize("width", [0, 1, 7, 115])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_interleavings_match_a_fresh_generator(self, width, data):
        largest = 2 * ROW_BLOCK_UNIFORMS // max(1, width)
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["peek", "take", "random"]),
                    st.integers(0, largest),
                ),
                max_size=8,
            )
        )
        # Each op reads at most `count` rows past those taken, or one row.
        oracle = _fresh(width).random((sum(count for _, count in ops) + len(ops), width))
        rows = RowStream(_fresh(width), width)
        taken = 0
        for op, count in ops:
            if op == "peek":
                got = rows.peek(count)
                want = oracle[taken : taken + count]
            elif op == "take":
                got = rows.take(count)
                want = oracle[taken : taken + count]
                taken += count
            else:
                got = rows.random(width)
                want = oracle[taken]
                taken += 1
            np.testing.assert_array_equal(got, want)
        reference = _fresh(width)
        reference.random((taken, width))
        assert rows.state() == reference.bit_generator.state

    @pytest.mark.parametrize("width", [0, 1, 7, 115])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_thresholded_stream_is_its_twin_compared(self, width, data):
        """A ``threshold`` stream hands out exactly ``raw >= threshold`` of
        an unthresholded twin's rows, and its ``state()`` stays the twin's,
        across refills and at ``max_peek``."""
        threshold = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        largest = 2 * ROW_BLOCK_UNIFORMS // max(1, width)
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["peek", "take", "random", "max_peek"]),
                    st.integers(0, largest),
                ),
                max_size=8,
            )
        )
        raw = RowStream(_fresh(width), width)
        rows = RowStream(_fresh(width), width, threshold=threshold)
        assert rows.max_peek == raw.max_peek
        for op, count in ops:
            if op == "peek":
                got, want = rows.peek(count), raw.peek(count)
            elif op == "take":
                got, want = rows.take(count), raw.take(count)
            elif op == "random":
                got, want = rows.random(width), raw.random(width)
            else:
                got, want = rows.peek(rows.max_peek), raw.peek(raw.max_peek)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, want >= threshold)
            assert rows.state() == raw.state()

    @pytest.mark.parametrize("width", [0, 1, 7, 115])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_row_takes_and_skips_match_single_row_draws(self, width, data):
        """Any interleaving of ``take_row``, ``skip``, ``peek`` and ``take``
        hands out the rows of plain ``generator.random(width)`` calls, one
        call per row consumed, and ``state()`` stays that generator's."""
        largest = 2 * ROW_BLOCK_UNIFORMS // max(1, width)
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["take_row", "skip", "peek", "take"]),
                    st.integers(0, largest),
                ),
                max_size=8,
            )
        )
        plain = _fresh(width)
        rows = RowStream(_fresh(width), width)

        def plain_rows(generator, count):
            return np.array(
                [generator.random(width) for _ in range(count)]
            ).reshape(count, width)

        for op, count in ops:
            if op == "take_row":
                got = rows.take_row()
                assert got.shape == (width,)
                np.testing.assert_array_equal(got, plain.random(width))
            elif op == "skip":
                rows.skip(count)
                plain_rows(plain, count)
            elif op == "peek":
                np.testing.assert_array_equal(
                    rows.peek(count), plain_rows(copy.deepcopy(plain), count)
                )
            else:
                np.testing.assert_array_equal(
                    rows.take(count), plain_rows(plain, count)
                )
            assert rows.state() == plain.bit_generator.state

    @pytest.mark.parametrize("width", [0, 1, 7, 115])
    def test_never_drawn_and_peek_only_streams_report_the_fresh_state(self, width):
        fresh_state = _fresh(width).bit_generator.state
        assert RowStream(_fresh(width), width).state() == fresh_state
        rows = RowStream(_fresh(width), width)
        rows.peek(3)
        assert rows.state() == fresh_state

    def test_random_reshapes_one_row(self):
        rows = RowStream(_fresh(6), 6)
        np.testing.assert_array_equal(
            rows.random((3, 2)), _fresh(6).random((3, 2))
        )

    @pytest.mark.parametrize("width", [1, 115, 2000])
    def test_refill_across_a_partly_consumed_buffer(self, width):
        block = ROW_BLOCK_UNIFORMS // width
        rows = RowStream(_fresh(width), width)
        rows.take(block - 3)
        before = rows.peek(3)
        kept = before.copy()
        got = rows.peek(10)  # 3 untaken rows plus a fresh block
        oracle = _fresh(width).random((block + 7, width))
        np.testing.assert_array_equal(got, oracle[block - 3 :])
        np.testing.assert_array_equal(before, kept)  # earlier views stay valid
        assert not got.flags.writeable
        rows.take(10)
        reference = _fresh(width)
        reference.random((block + 7, width))
        assert rows.state() == reference.bit_generator.state

    @pytest.mark.parametrize("width", [1, 115, 2000])
    def test_handed_out_rows_stay_intact_across_a_refill(self, width):
        """Rows taken one per slot, as the slot loop does, keep their
        values after the refill that starts the next block."""
        block = ROW_BLOCK_UNIFORMS // width
        oracle = _fresh(width).random((2 * block, width))
        rows = RowStream(_fresh(width), width)
        held = [rows.random(width) for _ in range(block)]
        held.append(rows.random(width))  # the refill
        held.extend(rows.random(width) for _ in range(block - 1))
        for index, row in enumerate(held):
            np.testing.assert_array_equal(row, oracle[index])

    def test_a_refill_block_stays_below_the_default_mmap_threshold(self):
        # glibc serves 128 KiB and up with mmap until the first such block
        # is freed; keeping refills under it keeps peak RSS steady.
        assert ROW_BLOCK_UNIFORMS * np.dtype(np.float64).itemsize < 128 * 1024

    @pytest.mark.parametrize("width", [1, 115, 2000])
    def test_peek_longer_than_one_block(self, width):
        block = ROW_BLOCK_UNIFORMS // width
        rows = RowStream(_fresh(width), width)
        rows.take(5)
        got = rows.peek(3 * block + 2)
        oracle = _fresh(width).random((3 * block + 7, width))
        np.testing.assert_array_equal(got, oracle[5:])
        rows.take(3 * block)
        reference = _fresh(width)
        reference.random((3 * block + 5, width))
        assert rows.state() == reference.bit_generator.state
        np.testing.assert_array_equal(rows.take(2), oracle[3 * block + 5 :])


@functools.lru_cache(maxsize=None)
def _geometric_engine(channels: int):
    """A geometric-blocking engine, its PU incidence and each PU's channel."""
    config = ExperimentConfig(
        area=40.0 * 40.0, num_pus=30, num_sus=60, repetitions=1
    )
    factory = StreamFactory(3)
    topology = deploy_crn(config.deployment_spec(), factory.spawn("busy"))
    _, sense_map, _ = sensing_at_pcr(
        topology, alpha=4.0, eta_p_db=8.0, eta_s_db=8.0
    )
    num_pus = topology.primary.num_pus
    plan = (
        ChannelPlan.uniform(num_pus, channels, np.random.default_rng(4))
        if channels > 1
        else None
    )
    engine = SlottedEngine(
        topology,
        sense_map,
        AddcPolicy(
            build_collection_tree(
                topology.secondary.graph, topology.secondary.base_station
            )
        ),
        factory.spawn("engine"),
        channel_plan=plan,
    )
    pu_channels = (
        np.zeros(num_pus, dtype=np.int64) if plan is None else plan.pu_channels
    )
    return engine, sense_map.pu_incidence(), pu_channels


class TestBusyCountRows:
    """The engine counts busy PUs only for the rows it reads: the busy
    counts of any subset of nodes, in any order, must be those rows of
    the full integer product, per channel with a channel plan."""

    @pytest.mark.parametrize("channels", [1, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_rows_are_those_rows_of_the_full_product(self, channels, data):
        engine, incidence, pu_channels = _geometric_engine(channels)
        num_nodes, num_pus = incidence.shape
        states = np.array(
            data.draw(st.lists(st.booleans(), min_size=num_pus, max_size=num_pus)),
            dtype=bool,
        )
        rows = np.array(
            data.draw(st.lists(st.integers(0, num_nodes - 1), unique=True)),
            dtype=np.int64,
        )
        engine.spectrum._set_states(states)
        full = np.stack(
            [
                incidence @ (states & (pu_channels == channel)).astype(incidence.dtype)
                for channel in range(channels)
            ],
            axis=1,
        )
        got = engine.spectrum.busy_counts(rows)
        assert got.dtype == incidence.dtype
        np.testing.assert_array_equal(
            got, full[rows] if channels > 1 else full[rows, 0]
        )
