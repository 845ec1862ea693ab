"""Property tests for :class:`repro.testbed.workload.TransactionWorkload`.

Dependency-free property style: each invariant is checked over a seeded
sample grid of (seed, node, epoch, flavor, size) combinations rather than a
single example, pinning the generator's contract:

* batches are a pure function of (seed, node, epoch);
* every transaction is exactly ``transaction_bytes`` long;
* the structured prefix before the ``|#`` terminator parses for all flavors;
* ``_pad`` truncates deterministically when the body exceeds the target.
"""

import random

from repro.testbed.workload import (
    TransactionWorkload,
    WorkloadSpec,
    random_bytes,
)

FLAVORS = ("uniform", "task-allocation", "telemetry")
SEEDS = (0, 1, 7, 0xDEAD)
NODES = (0, 1, 5)
EPOCHS = (0, 1, "equiv")


class TestDeterminism:
    def test_batches_pure_in_seed_node_epoch(self):
        for flavor in FLAVORS:
            spec = WorkloadSpec(batch_size=4, transaction_bytes=96, flavor=flavor)
            for seed in SEEDS:
                for node in NODES:
                    for epoch in EPOCHS:
                        a = TransactionWorkload(spec, seed=seed).batch_for(node, epoch)
                        b = TransactionWorkload(spec, seed=seed).batch_for(node, epoch)
                        assert a == b

    def test_batches_distinct_across_coordinates(self):
        spec = WorkloadSpec(batch_size=4, transaction_bytes=96)
        seen = set()
        for seed in SEEDS:
            for node in NODES:
                for epoch in EPOCHS:
                    batch = tuple(TransactionWorkload(spec, seed=seed)
                                  .batch_for(node, epoch))
                    assert batch not in seen
                    seen.add(batch)


class TestRandomBytes:
    def test_equals_per_byte_randrange_and_leaves_the_same_rng_state(self):
        # every pinned digest in the repo descends from the bytes (and the
        # RNG position) the per-byte expression produced
        # (sizes below, at and above the bulk rounds' threshold of 32
        # missing bytes, and a 4-packet proposal's ~6,000 bytes)
        for seed in SEEDS + tuple(range(100, 140)):
            for count in (0, 1, 2, 3, 7, 31, 32, 33, 40, 100, 1000, 6000):
                fast, reference = random.Random(seed), random.Random(seed)
                assert random_bytes(fast, count) == bytes(
                    reference.randrange(256) for _ in range(count))
                assert fast.getstate() == reference.getstate()


class TestLength:
    def test_every_transaction_exactly_target_bytes(self):
        for flavor in FLAVORS:
            for size in (8, 33, 64, 200):
                spec = WorkloadSpec(batch_size=5, transaction_bytes=size,
                                    flavor=flavor)
                for seed in SEEDS:
                    batch = TransactionWorkload(spec, seed=seed).batch_for(2)
                    assert all(len(tx) == size for tx in batch), (flavor, size)


class TestStructuredPrefix:
    def test_prefix_before_terminator_parses(self):
        # Large enough target that the full structured body fits: the prefix
        # before the first "|#" must be the parseable field list.
        expected_head = {"uniform": b"tx", "task-allocation": b"task",
                         "telemetry": b"telemetry"}
        expected_fields = {"uniform": 5, "task-allocation": 7, "telemetry": 7}
        for flavor in FLAVORS:
            spec = WorkloadSpec(batch_size=3, transaction_bytes=160,
                                flavor=flavor)
            for seed in SEEDS[:2]:
                for node in NODES:
                    for tx in TransactionWorkload(spec, seed=seed).batch_for(node):
                        assert b"|#" in tx, (flavor, tx)
                        prefix = tx.split(b"|#", 1)[0]
                        fields = prefix.split(b"|")
                        assert fields[0] == expected_head[flavor]
                        assert len(fields) == expected_fields[flavor]
                        # flavored fields are key=value; uniform is positional
                        if flavor != "uniform":
                            assert all(b"=" in field for field in fields[1:])

    def test_flavored_fields_identify_node_and_epoch(self):
        spec = WorkloadSpec(batch_size=1, transaction_bytes=160,
                            flavor="telemetry")
        tx = TransactionWorkload(spec, seed=1).batch_for(3, epoch=9)[0]
        prefix = tx.split(b"|#", 1)[0]
        assert b"node=3" in prefix and b"epoch=9" in prefix


class TestPadTruncation:
    """Pin the exact boundary behaviour of ``_pad``."""

    @staticmethod
    def pad(body: bytes, target: int) -> bytes:
        workload = TransactionWorkload(
            WorkloadSpec(batch_size=1, transaction_bytes=target))
        return workload._pad(body, random.Random(0))

    def test_oversized_body_truncated_without_terminator(self):
        body = b"x" * 20
        padded = self.pad(body, 8)
        assert padded == body[:8]
        assert len(padded) == 8

    def test_body_exactly_target_untouched(self):
        body = b"y" * 12
        assert self.pad(body, 12) == body

    def test_terminator_truncated_at_boundary(self):
        # body one byte short of target: only the "|" of the terminator fits
        body = b"z" * 11
        padded = self.pad(body, 12)
        assert padded == body + b"|"
        # body two bytes short: the full terminator fits, no filler
        body = b"z" * 10
        assert self.pad(body, 12) == body + b"|#"

    def test_filler_follows_terminator(self):
        body = b"w" * 8
        padded = self.pad(body, 32)
        assert padded.startswith(body + b"|#")
        assert len(padded) == 32

    def test_short_transactions_truncate_uniform_body(self):
        # transaction_bytes=8 (the minimum) always truncates the uniform
        # body; the last surviving byte is the per-transaction index, so
        # transactions stay distinct even at the minimum size.
        spec = WorkloadSpec(batch_size=4, transaction_bytes=8)
        batch = TransactionWorkload(spec, seed=3).batch_for(0)
        assert all(len(tx) == 8 for tx in batch)
        assert all(tx.startswith(b"tx|0|0|") for tx in batch)
