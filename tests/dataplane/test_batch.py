"""Property tests: batch kernels are byte-identical to their sequential twins.

Every vectorized method on the data-plane structures (``update_batch``,
``add_batch``, ``observe_batch``, ...) promises the *exact* end state the
equivalent sequence of scalar calls produces — the contract that lets the
batch engine swap paths freely.  These tests drive both paths with the
same randomized workloads over 50 seeds and compare exported state and
scalar queries (``estimate``, ``in``), including the nasty edges:
``width_bits=1`` saturation, table-full LRU eviction, and runs of
repeated keys that exercise HashPipe's run-coalescing.
"""

import random
import zlib

import pytest

from repro.dataplane import (BloomFilter, CountMinSketch, FlowTable,
                             HashPipe, PacketBatch, RegisterArray, salt_seed,
                             stable_hash)

SEEDS = range(50)


def random_keys(rng, n, universe=40):
    """A key stream with deliberate runs (same key repeated), the case
    HashPipe's batch path coalesces."""
    keys = []
    while len(keys) < n:
        key = f"k{rng.randrange(universe)}"
        for _ in range(rng.choice([1, 1, 1, 2, 3, 5])):
            keys.append(key)
            if len(keys) >= n:
                break
    return keys


class TestHashBatch:
    def test_salt_seed_composes_crc(self):
        # The decomposition the whole vectorization rests on:
        # crc32(a + b) == crc32(b, crc32(a)).
        for salt in (0, 9, 255):
            seed = salt_seed(salt)
            assert zlib.crc32(b"payload", seed) == zlib.crc32(
                f"{salt}|".encode() + b"payload")
            for key in ("a", ("x", 1), 42, 3.5, None):
                assert (zlib.crc32(repr(key).encode(), seed)
                        == stable_hash(key, salt))


class TestSketchBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_update_batch_matches_sequential(self, seed):
        rng = random.Random(seed)
        width_bits = rng.choice([1, 8, 32])
        batch_sk = CountMinSketch("b", width=64, depth=3,
                                  width_bits=width_bits)
        seq_sk = CountMinSketch("b", width=64, depth=3,
                                width_bits=width_bits)
        for _ in range(rng.randrange(1, 5)):
            keys = random_keys(rng, rng.randrange(1, 200))
            counts = [rng.randrange(0, 4) for _ in keys]
            batch_sk.update_batch(keys, counts)
            seq_sk.update_batch_reference(keys, counts)
        assert batch_sk.export_state() == seq_sk.export_state()
        assert batch_sk.total == seq_sk.total
        probe = random_keys(rng, 30)
        assert ([batch_sk.estimate(k) for k in probe]
                == [seq_sk.estimate(k) for k in probe])

    def test_width_bits_1_saturates_identically(self):
        batch_sk = CountMinSketch("b", width=8, depth=2, width_bits=1)
        seq_sk = CountMinSketch("b", width=8, depth=2, width_bits=1)
        keys = ["a"] * 5 + ["b", "a", "c"] * 3
        batch_sk.update_batch(keys)
        seq_sk.update_batch_reference(keys)
        assert batch_sk.export_state() == seq_sk.export_state()
        assert batch_sk.estimate("a") <= 1

    def test_default_counts_are_ones(self):
        sk = CountMinSketch("b", width=32, depth=2)
        sk.update_batch(["x", "x", "y"])
        assert sk.estimate("x") >= 2
        assert sk.total == 3

    def test_negative_count_rejected_before_mutation(self):
        sk = CountMinSketch("b", width=32, depth=2)
        with pytest.raises(ValueError):
            sk.update_batch(["a", "b"], [1, -1])
        assert sk.total == 0


class TestBloomBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_and_contains_match_sequential(self, seed):
        rng = random.Random(seed)
        batch_bf = BloomFilter("b", size_bits=256, n_hashes=3)
        seq_bf = BloomFilter("b", size_bits=256, n_hashes=3)
        keys = random_keys(rng, rng.randrange(1, 120))
        batch_bf.add_batch(keys)
        seq_bf.add_batch_reference(keys)
        assert batch_bf.export_state() == seq_bf.export_state()
        assert batch_bf.inserted == seq_bf.inserted
        probe = random_keys(rng, 60, universe=80)
        assert [k in batch_bf for k in probe] == [k in seq_bf for k in probe]


class TestHashPipeBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_update_batch_matches_sequential(self, seed):
        rng = random.Random(seed)
        # Tiny tables force eviction churn, the order-sensitive path.
        batch_hp = HashPipe("b", stages=2, slots_per_stage=4)
        seq_hp = HashPipe("b", stages=2, slots_per_stage=4)
        for _ in range(rng.randrange(1, 4)):
            keys = random_keys(rng, rng.randrange(1, 150), universe=25)
            counts = [rng.randrange(1, 100) for _ in keys]
            batch_hp.update_batch(keys, counts)
            seq_hp.update_batch_reference(keys, counts)
        assert batch_hp.export_state() == seq_hp.export_state()
        assert batch_hp.total == seq_hp.total
        probe = random_keys(rng, 30, universe=30)
        assert ([batch_hp.estimate(k) for k in probe]
                == [seq_hp.estimate(k) for k in probe])
        assert batch_hp.heavy_hitters(1) == seq_hp.heavy_hitters(1)

    def test_run_coalescing_equals_split_updates(self):
        a = HashPipe("a", stages=2, slots_per_stage=2)
        b = HashPipe("b", stages=2, slots_per_stage=2)
        a.update_batch(["k", "k", "k"], [1, 2, 3])
        for count in (1, 2, 3):
            b.update("k", count)
        assert a.export_state() == b.export_state()

    def test_negative_count_rejected_before_mutation(self):
        hp = HashPipe("b", stages=2, slots_per_stage=4)
        with pytest.raises(ValueError):
            hp.update_batch(["a", "b"], [1, -2])
        assert hp.total == 0


class TestFlowTableBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_observe_batch_matches_sequential(self, seed):
        rng = random.Random(seed)
        # capacity < universe so LRU eviction fires.
        batch_ft = FlowTable("b", capacity=12, rate_ewma_alpha=0.3)
        seq_ft = FlowTable("b", capacity=12, rate_ewma_alpha=0.3)
        now = 0.0
        for _ in range(rng.randrange(2, 6)):
            now += rng.random()
            n = rng.randrange(1, 60)
            keys = random_keys(rng, n, universe=20)
            sizes = [rng.randrange(0, 1500) for _ in range(n)]
            flags = {}
            if rng.random() < 0.7:
                for name in ("syn", "ack", "fin", "rst"):
                    flags[name] = [rng.random() < 0.15 for _ in range(n)]
            batch_ft.observe_batch(keys, now, sizes, **flags)
            seq_ft.observe_batch_reference(keys, now, sizes, **flags)
        assert batch_ft.export_state() == seq_ft.export_state()
        assert batch_ft.evictions == seq_ft.evictions
        # LRU order matters too (it decides future evictions).
        assert ([e.key for e in batch_ft.entries()]
                == [e.key for e in seq_ft.entries()])

    def test_column_length_mismatch_rejected(self):
        ft = FlowTable("b")
        with pytest.raises(ValueError):
            ft.observe_batch(["a", "b"], 1.0, [10])


class TestRegisterBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_batch_matches_sequential(self, seed):
        rng = random.Random(seed)
        width_bits = rng.choice([1, 4, 32])
        batch_ra = RegisterArray("b", size=32, width_bits=width_bits)
        seq_ra = RegisterArray("b", size=32, width_bits=width_bits)
        keys = random_keys(rng, rng.randrange(1, 100))
        salt = rng.randrange(4)
        indices = [seq_ra.index_for(k, salt) for k in keys]
        deltas = [rng.randrange(0, 5) for _ in keys]
        batch_ra.add_batch(indices, deltas)
        for index, delta in zip(indices, deltas):
            seq_ra.add(index, delta)
        assert batch_ra.export_state() == seq_ra.export_state()

    def test_add_batch_rejects_negative_deltas(self):
        ra = RegisterArray("b", size=8)
        with pytest.raises(ValueError):
            ra.add_batch([0, 1], [1, -1])
        assert ra.read(0) == 0


class TestPacketBatch:
    def _packets(self):
        from repro.netsim.packet import Packet, PacketKind
        pkts = [Packet(src=f"h{i}", dst="d", size_bytes=100 + i,
                       sport=i, ttl=60 + i) for i in range(4)]
        pkts[2].kind = PacketKind.PROBE
        for i, p in enumerate(pkts):
            p.created_at = float(i)
        return pkts

    def test_columns_are_parallel_and_cached(self):
        batch = PacketBatch(self._packets())
        assert list(batch.src) == ["h0", "h1", "h2", "h3"]
        assert list(batch.size_bytes) == [100, 101, 102, 103]
        assert list(batch.sport) == [0, 1, 2, 3]
        assert list(batch.ts) == [0.0, 1.0, 2.0, 3.0]
        assert batch.column("src") is batch.column("src")  # cached
        assert len(batch.flow_keys) == 4

    def test_data_mask_excludes_non_data_and_dead(self):
        batch = PacketBatch(self._packets())
        batch.drop(0, "test")
        mask = batch.data_mask()
        assert list(mask) == [0, 1, 0, 1]  # 0 dropped, 2 is a PROBE

    def test_drop_consume_bookkeeping(self):
        batch = PacketBatch(self._packets())
        batch.drop(1, "why")
        batch.drop(1, "again")  # idempotent
        batch.consume(3)
        assert batch.dropped == 1 and batch.consumed == 1
        assert batch.alive_count() == 2
        assert list(batch.alive) == [1, 0, 1, 0]
        assert [i for i, _ in batch.survivors()] == [0, 2]
        assert batch.packets[1].dropped == "why"  # first reason wins
