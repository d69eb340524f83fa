"""Refinement check: equal signatures really do mean equal behaviour.

The analyzer's sharing decision rests on the claim that two PPM
declarations with equal semantic signatures compute the same function.
These hypothesis tests *run* structures built from signature-equal
declarations against random workloads and assert observably identical
outputs — the dynamic counterpart of the [24]-style static equivalence.
"""

from hypothesis import given, settings, strategies as st

from repro.boosters import bloom_ppm, hashpipe_ppm, sketch_ppm
from repro.dataplane import BloomFilter, CountMinSketch, HashPipe

keys = st.integers(0, 200)
counts = st.integers(1, 50)


def build_sketch(spec):
    params = dict(spec.params)
    return CountMinSketch(spec.qualified_name, width=params["width"],
                          depth=params["depth"])


def build_bloom(spec):
    params = dict(spec.params)
    return BloomFilter(spec.qualified_name, size_bits=params["size_bits"],
                       n_hashes=params["n_hashes"])


def build_pipe(spec):
    params = dict(spec.params)
    return HashPipe(spec.qualified_name, stages=params["stages"],
                    slots_per_stage=params["slots_per_stage"])


class TestRefinement:
    @settings(max_examples=25, deadline=None)
    @given(workload=st.lists(st.tuples(keys, counts), max_size=150))
    def test_equivalent_sketches_behave_identically(self, workload):
        alice = sketch_ppm("alice", "cnt", width=128, depth=3,
                           style="macros")
        bob = sketch_ppm("bob", "byte_counter", width=128, depth=3,
                         style="handwritten")
        assert alice.signature() == bob.signature()
        a, b = build_sketch(alice), build_sketch(bob)
        for key, count in workload:
            a.update(key, count)
            b.update(key, count)
        for key in range(0, 201, 7):
            assert a.estimate(key) == b.estimate(key)

    @settings(max_examples=25, deadline=None)
    @given(members=st.lists(keys, max_size=100), probe=keys)
    def test_equivalent_blooms_behave_identically(self, members, probe):
        alice = bloom_ppm("alice", "seen", size_bits=2048, n_hashes=3)
        bob = bloom_ppm("bob", "member_set", size_bits=2048, n_hashes=3)
        assert alice.signature() == bob.signature()
        a, b = build_bloom(alice), build_bloom(bob)
        for key in members:
            a.add(key)
            b.add(key)
        assert (probe in a) == (probe in b)

    @settings(max_examples=20, deadline=None)
    @given(workload=st.lists(st.tuples(keys, counts), max_size=150))
    def test_equivalent_hashpipes_behave_identically(self, workload):
        alice = hashpipe_ppm("alice", "hh", stages=3, slots_per_stage=16)
        bob = hashpipe_ppm("bob", "top_talkers", stages=3,
                           slots_per_stage=16)
        assert alice.signature() == bob.signature()
        a, b = build_pipe(alice), build_pipe(bob)
        for key, count in workload:
            a.update(key, count)
            b.update(key, count)
        assert a.heavy_hitters(1) == b.heavy_hitters(1)

    @settings(max_examples=25, deadline=None)
    @given(workload=st.lists(st.tuples(keys, counts), min_size=30,
                             max_size=150))
    def test_nonequivalent_sketches_can_differ(self, workload):
        """The converse sanity check: different parameters are declared
        non-equivalent — and the structures are genuinely different
        objects (their error profiles differ even if some workloads
        happen to agree)."""
        small = sketch_ppm("x", "s", width=8, depth=1)
        big = sketch_ppm("y", "s", width=4096, depth=4)
        assert small.signature() != big.signature()
        a, b = build_sketch(small), build_sketch(big)
        for key, count in workload:
            a.update(key, count)
            b.update(key, count)
        # Over-counting can only be worse (never better) on the small
        # sketch: a is an upper bound of b everywhere.
        assert all(a.estimate(k) >= b.estimate(k) for k in range(200))
