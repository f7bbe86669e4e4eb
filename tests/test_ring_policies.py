"""Tests for ring-buffer overflow policies (§V optimization study)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf.ringbuf import (POLICIES, PerCPURingBuffer, SAMPLE_STRIDE,
                                SAMPLE_WATERMARK)
from repro.tracer import TracerConfig
from tests.ring_oracle import OracleRing


class TestDropNew:
    def test_default_policy(self):
        rb = PerCPURingBuffer(1, 100)
        assert rb.policy == "drop-new"

    def test_keeps_oldest(self):
        rb = PerCPURingBuffer(1, 100)
        rb.produce(0, "old", 100)
        assert not rb.produce(0, "new", 100)
        assert rb.consume(0) == ["old"]


class TestOverwriteOldest:
    def test_keeps_newest(self):
        rb = PerCPURingBuffer(1, 100, policy="overwrite-oldest")
        rb.produce(0, "old", 100)
        assert rb.produce(0, "new", 100)
        assert rb.consume(0) == ["new"]
        assert rb.stats.dropped == 1

    def test_evicts_multiple_small_for_one_large(self):
        rb = PerCPURingBuffer(1, 100, policy="overwrite-oldest")
        for i in range(4):
            rb.produce(0, i, 25)
        assert rb.produce(0, "big", 80)
        remaining = rb.consume(0)
        assert remaining[-1] == "big"
        assert rb.stats.dropped >= 3

    def test_oversized_record_rejected(self):
        rb = PerCPURingBuffer(1, 100, policy="overwrite-oldest")
        rb.produce(0, "x", 50)
        assert not rb.produce(0, "huge", 200)
        assert rb.consume(0) == []  # the eviction loop emptied the buffer

    def test_capacity_never_exceeded(self):
        rb = PerCPURingBuffer(1, 128, policy="overwrite-oldest")
        for i in range(50):
            rb.produce(0, i, 13)
            assert rb._buffers[0].used <= 128


class TestSample:
    def test_no_thinning_below_watermark(self):
        rb = PerCPURingBuffer(1, 1000, policy="sample")
        for i in range(int(1000 * SAMPLE_WATERMARK) // 10 - 1):
            assert rb.produce(0, i, 10)
        assert rb.stats.dropped == 0

    def test_thins_above_watermark(self):
        rb = PerCPURingBuffer(1, 1000, policy="sample")
        admitted = sum(1 for i in range(100) if rb.produce(0, i, 10))
        # Up to the watermark everything fits; beyond it ~1/STRIDE pass.
        assert admitted < 100
        assert rb.stats.dropped > 0
        # Roughly a quarter of the overflow region is admitted.
        assert admitted >= int(1000 * SAMPLE_WATERMARK) // 10 - 1

    def test_sampling_spreads_across_the_stream(self):
        """Unlike drop-new, sampling keeps records from the burst tail."""
        rb_drop = PerCPURingBuffer(1, 500, policy="drop-new")
        rb_sample = PerCPURingBuffer(1, 500, policy="sample")
        for i in range(200):
            rb_drop.produce(0, i, 10)
            rb_sample.produce(0, i, 10)
        kept_drop = rb_drop.consume(0)
        kept_sample = rb_sample.consume(0)
        # drop-new keeps only the head of the burst; sampling stretches
        # the same capacity further into the stream.
        assert max(kept_sample) > max(kept_drop) * 1.5


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PerCPURingBuffer(1, 100, policy="yolo")

    def test_tracer_config_validates_policy(self):
        with pytest.raises(ValueError):
            TracerConfig(ring_policy="nonsense")
        config = TracerConfig(ring_policy="overwrite-oldest")
        assert config.ring_policy == "overwrite-oldest"


# ---------------------------------------------------------------------------
# A drain takes a run: what the per-record ring leaves, under every policy

_steps = st.lists(st.one_of(
    st.tuples(st.just("produce"), st.integers(0, 1), st.integers(1, 40)),
    st.tuples(st.just("consume"), st.integers(0, 1),
              st.one_of(st.none(), st.integers(0, 6)))), max_size=120)


@pytest.mark.parametrize("policy", POLICIES)
@given(steps=_steps, capacity=st.integers(20, 120))
@settings(max_examples=150, deadline=None)
def test_any_interleaving_leaves_what_the_per_record_ring_leaves(
        policy, steps, capacity):
    ring = PerCPURingBuffer(2, capacity, policy=policy)
    oracle = OracleRing(2, capacity, policy)
    for number, (op, cpu, arg) in enumerate(steps):
        if op == "produce":
            assert ring.produce(cpu, number, arg) == oracle.produce(
                cpu, number, arg)
        else:
            assert ring.consume(cpu, arg) == oracle.consume(cpu, arg)
        assert [buffer.used for buffer in ring._buffers] == oracle.used
        assert ring.pending_records() == sum(map(len, oracle.queues))
    stats = ring.stats
    assert (stats.produced, stats.consumed, stats.dropped,
            stats.bytes_produced) == (oracle.produced, oracle.consumed,
                                      oracle.dropped, oracle.bytes_produced)
    assert ring.consume_all() == [record for cpu in (0, 1)
                                  for record in oracle.consume(cpu)]
