"""Tests for the Reed-Solomon erasure coder used by Cachin's RBC."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.components.erasure import (
    ErasureError,
    _PRIME,
    _interpolate_coefficients,
    _interpolate_via_matrix,
    decode_blocks,
    encode_blocks,
)


class TestErasureCoding:
    def test_roundtrip_with_all_blocks(self):
        data = b"a moderately sized proposal payload for dispersal"
        blocks = encode_blocks(data, num_data_blocks=2, num_blocks=4)
        assert decode_blocks(blocks) == data

    def test_roundtrip_with_any_k_blocks(self):
        data = b"any k of n blocks suffice"
        blocks = encode_blocks(data, num_data_blocks=2, num_blocks=4)
        assert decode_blocks([blocks[1], blocks[3]]) == data
        assert decode_blocks([blocks[2], blocks[0]]) == data

    def test_insufficient_blocks_rejected(self):
        blocks = encode_blocks(b"payload", num_data_blocks=3, num_blocks=5)
        with pytest.raises(ErasureError):
            decode_blocks(blocks[:2])

    def test_duplicate_blocks_do_not_count(self):
        blocks = encode_blocks(b"payload", num_data_blocks=2, num_blocks=4)
        with pytest.raises(ErasureError):
            decode_blocks([blocks[0], blocks[0]])

    def test_empty_payload(self):
        blocks = encode_blocks(b"", num_data_blocks=2, num_blocks=4)
        assert decode_blocks(blocks[:2]) == b""

    def test_invalid_parameters(self):
        with pytest.raises(ErasureError):
            encode_blocks(b"x", num_data_blocks=0, num_blocks=4)
        with pytest.raises(ErasureError):
            encode_blocks(b"x", num_data_blocks=5, num_blocks=4)
        with pytest.raises(ErasureError):
            decode_blocks([])

    def test_mixed_encodings_rejected(self):
        blocks_a = encode_blocks(b"payload A", num_data_blocks=2, num_blocks=4)
        blocks_b = encode_blocks(b"payload B!", num_data_blocks=3, num_blocks=4)
        with pytest.raises(ErasureError):
            decode_blocks([blocks_a[0], blocks_b[1]])

    def test_block_sizes_reported(self):
        blocks = encode_blocks(b"x" * 90, num_data_blocks=3, num_blocks=4)
        assert all(block.size_bytes() > 0 for block in blocks)
        # each block holds ~1/k of the payload in field elements
        assert blocks[0].size_bytes() < 90

    @given(data=st.binary(min_size=0, max_size=200),
           k=st.integers(min_value=1, max_value=4),
           extra=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data, k, extra):
        n = k + extra
        blocks = encode_blocks(data, num_data_blocks=k, num_blocks=n)
        assert decode_blocks(blocks[-k:]) == data


    @given(payload=st.binary(min_size=0, max_size=400),
           k=st.integers(min_value=1, max_value=12),
           extra=st.integers(min_value=0, max_value=8),
           drop_seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_from_a_random_subset(self, payload, k, extra,
                                            drop_seed):
        blocks = encode_blocks(payload, k, k + extra)
        subset = random.Random(drop_seed).sample(blocks, k)
        assert decode_blocks(subset) == payload

    @given(payload=st.binary(min_size=0, max_size=200),
           k=st.integers(min_value=1, max_value=5),
           extra=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_from_leading_or_trailing_blocks(self, payload, k,
                                                       extra):
        blocks = encode_blocks(payload, k, k + extra)
        assert decode_blocks(blocks[:k]) == payload
        assert decode_blocks(blocks[-k:]) == payload

    @pytest.mark.parametrize("k, n, digest", [
        (2, 4, "de11299580065dfe5947fff01606aad9"),
        (5, 9, "6e6cd76a042a4e91096b88a67604656b")])
    def test_encoded_blocks_are_pinned(self, k, n, digest):
        """The block values every recorded run used, hashed; the coder may
        get faster, never different."""
        payload = bytes(random.Random(k * 100 + n).randrange(256)
                        for _ in range(301))
        hasher = hashlib.sha256()
        for block in encode_blocks(payload, k, n):
            for value in block.values:
                hasher.update(value.to_bytes(4, "big"))
        assert hasher.hexdigest()[:32] == digest


class TestMatrixDecoder:
    """The cached-matrix decoder must be bit-identical to the seed's
    per-basis Lagrange expansion (kept as ``_interpolate_coefficients``)."""

    @given(k=st.integers(min_value=1, max_value=16),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matrix_matches_reference_interpolation(self, k, seed):
        rng = random.Random(seed)
        points = rng.sample(range(1, 200), k)
        values = [rng.randrange(_PRIME) for _ in range(k)]
        assert _interpolate_via_matrix(tuple(points), values) == \
            _interpolate_coefficients(points, values)

    def test_decode_uses_k_smallest_points(self):
        # The decoder must select the k smallest points of an over-supplied
        # set (seed behaviour: full sort, take first k), whatever the order.
        data = b"selection order should not matter"
        blocks = encode_blocks(data, num_data_blocks=3, num_blocks=8)
        shuffled = [blocks[6], blocks[1], blocks[4], blocks[0], blocks[7]]
        assert decode_blocks(shuffled) == data

    def test_payload_length_mismatch_rejected(self):
        blocks_a = encode_blocks(b"AAAA", num_data_blocks=2, num_blocks=4)
        blocks_b = encode_blocks(b"BBBBBB", num_data_blocks=2, num_blocks=4)
        with pytest.raises(ErasureError, match="payload length"):
            decode_blocks([blocks_a[0], blocks_b[1]])

    def test_large_k_roundtrip(self):
        rng = random.Random(12)
        data = bytes(rng.randrange(256) for _ in range(900))
        blocks = encode_blocks(data, num_data_blocks=32, num_blocks=48)
        assert decode_blocks(blocks[10:42]) == data


class TestEdgeCasePayloads:
    """Zero-length and sub-chunk payloads must round-trip (regression: these
    hit the forced single-zero-polynomial branch of the encoder)."""

    @pytest.mark.parametrize("payload", [b"", b"a", b"ab"])
    def test_short_payload_roundtrip(self, payload):
        blocks = encode_blocks(payload, num_data_blocks=2, num_blocks=4)
        assert all(len(block.values) == 1 for block in blocks)
        assert decode_blocks(blocks[-2:]) == payload

    def test_truncated_block_values_named_error(self):
        blocks = encode_blocks(b"hello world!", num_data_blocks=2,
                               num_blocks=4)
        truncated = dataclasses.replace(blocks[0],
                                        values=blocks[0].values[:-1])
        with pytest.raises(ErasureError, match="carries"):
            decode_blocks([truncated, blocks[1]])

    def test_inflated_block_values_named_error(self):
        blocks = encode_blocks(b"hello world!", num_data_blocks=2,
                               num_blocks=4)
        inflated = dataclasses.replace(blocks[0],
                                       values=blocks[0].values + (1,))
        with pytest.raises(ErasureError, match="carries"):
            decode_blocks([inflated, blocks[1]])

    def test_degenerate_block_metadata_named_errors(self):
        blocks = encode_blocks(b"xyz", num_data_blocks=1, num_blocks=2)
        zero_k = dataclasses.replace(blocks[0], num_data_blocks=0)
        with pytest.raises(ErasureError, match="data blocks"):
            decode_blocks([zero_k])
        negative_length = dataclasses.replace(blocks[0], payload_length=-1)
        with pytest.raises(ErasureError, match="negative payload"):
            decode_blocks([negative_length])
