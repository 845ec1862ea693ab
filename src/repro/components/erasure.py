"""Erasure coding for Cachin's (AVID-style) reliable broadcast.

Cachin's RBC divides the proposal into N blocks using an (k, N) erasure code
so that any k blocks reconstruct the proposal.  The paper points out that
this under-utilises a wireless broadcast channel (N - 1 unicast-style
transmissions instead of one broadcast) and therefore prefers Bracha's RBC;
the coder is still provided so the comparison can be made.

The code is a Reed-Solomon code over the prime field ``F_p`` with
``p = 2^31 - 1``: the payload is chunked into field elements, interpreted as
the coefficients of polynomials, and block ``i`` holds the evaluations at
point ``i + 1``.  Any ``k`` blocks interpolate the polynomials and recover
the payload.

Decoding no longer expands Lagrange basis polynomials per payload polynomial
(O(k^3) each): it builds the inverse-Vandermonde action once per distinct
point set -- the matrix whose rows are the Lagrange basis coefficient
vectors, computed in O(k^2) via synthetic division of the master polynomial
-- caches it, and recovers each polynomial with an O(k^2) matrix-vector
product.  The results are bit-identical to the naive interpolation (same
field, same canonical representatives).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

_PRIME = 2**31 - 1
_CHUNK_BYTES = 3  # 24-bit chunks always fit below 2^31 - 1


class ErasureError(ValueError):
    """Raised for invalid coding parameters or undecodable share sets."""


@dataclass(frozen=True)
class ErasureBlock:
    """One coded block: evaluations of the payload polynomials at one point."""

    index: int
    point: int
    values: tuple[int, ...]
    payload_length: int
    num_data_blocks: int

    def size_bytes(self) -> int:
        """Approximate wire size of the block."""
        return len(self.values) * _CHUNK_BYTES + 8


def _chunk(data: bytes) -> list[int]:
    padded = data + b"\x00" * ((-len(data)) % _CHUNK_BYTES)
    return [int.from_bytes(padded[i:i + _CHUNK_BYTES], "big")
            for i in range(0, len(padded), _CHUNK_BYTES)]


def _unchunk(values: list[int], length: int) -> bytes:
    raw = b"".join(value.to_bytes(_CHUNK_BYTES, "big") for value in values)
    return raw[:length]


@lru_cache(maxsize=512)
def _lagrange_basis_columns(points: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Columns of the interpolation matrix for ``points``.

    Row ``i`` of the matrix holds the coefficients (low-to-high) of the
    Lagrange basis polynomial ``L_i`` with ``L_i(points[j]) = delta_ij``;
    multiplying evaluations by the matrix recovers polynomial coefficients.
    Returned transposed (as columns, one per coefficient degree) so decoding
    can take dot products against the evaluation vector directly.

    Built in O(k^2): one master-polynomial product, then one synthetic
    division and one Horner evaluation per point.
    """
    k = len(points)
    # Master polynomial M(x) = prod (x - x_j), coefficients low-to-high.
    master = [1]
    for x in points:
        shifted = [0] * (len(master) + 1)
        for degree, coefficient in enumerate(master):
            shifted[degree] = (shifted[degree] - x * coefficient) % _PRIME
            shifted[degree + 1] = (shifted[degree + 1] + coefficient) % _PRIME
        master = shifted
    rows = []
    for x_i in points:
        # Synthetic division: Q_i = M / (x - x_i), degree k - 1.
        quotient = [0] * k
        carry = 0
        for degree in range(k, 0, -1):
            carry = (master[degree] + carry * x_i) % _PRIME
            quotient[degree - 1] = carry
        # Q_i(x_i) = prod_{j != i} (x_i - x_j), the basis denominator.
        acc = 0
        for coefficient in reversed(quotient):
            acc = (acc * x_i + coefficient) % _PRIME
        inverse = pow(acc, -1, _PRIME)
        rows.append([coefficient * inverse % _PRIME for coefficient in quotient])
    return tuple(tuple(row[degree] for row in rows) for degree in range(k))


def _interpolate_via_matrix(points: tuple[int, ...],
                            values: list[int]) -> list[int]:
    """Coefficients (low-to-high) of the interpolant through the points."""
    columns = _lagrange_basis_columns(points)
    return [sum(value * weight for value, weight in zip(values, column)) % _PRIME
            for column in columns]


def encode_blocks(data: bytes, num_data_blocks: int,
                  num_blocks: int) -> list[ErasureBlock]:
    """Encode ``data`` into ``num_blocks`` blocks, any ``num_data_blocks`` of
    which suffice to decode.

    The encoding is byte-identical to the seed implementation.
    """
    if num_data_blocks < 1:
        raise ErasureError(f"need at least 1 data block, got {num_data_blocks}")
    if num_blocks < num_data_blocks:
        raise ErasureError(
            f"total blocks ({num_blocks}) must be >= data blocks ({num_data_blocks})")
    chunks = _chunk(data)
    if not chunks:
        chunks = [0]
    # Group chunks into polynomials of degree < num_data_blocks.
    groups: list[list[int]] = []
    for start in range(0, len(chunks), num_data_blocks):
        group = chunks[start:start + num_data_blocks]
        group += [0] * (num_data_blocks - len(group))
        groups.append(group)
    prime = _PRIME
    blocks = []
    for index in range(num_blocks):
        point = index + 1
        values = []
        for coefficients in groups:
            acc = 0
            for coefficient in reversed(coefficients):
                acc = (acc * point + coefficient) % prime
            values.append(acc)
        blocks.append(ErasureBlock(index=index, point=point, values=tuple(values),
                                   payload_length=len(data),
                                   num_data_blocks=num_data_blocks))
    return blocks


def decode_blocks(blocks: list[ErasureBlock]) -> bytes:
    """Recover the payload from at least ``num_data_blocks`` distinct blocks.

    Malformed inputs fail with a named :class:`ErasureError` rather than an
    incidental ``IndexError``/``ValueError`` deep in the arithmetic: blocks
    must agree on the encoding parameters, and every block must carry exactly
    the number of values the declared payload length implies (an adversary
    truncating one block's values must not crash -- or silently corrupt --
    the decoder).
    """
    if not blocks:
        raise ErasureError("no blocks to decode")
    reference = blocks[0]
    num_data_blocks = reference.num_data_blocks
    payload_length = reference.payload_length
    if num_data_blocks < 1:
        raise ErasureError(
            f"blocks declare {num_data_blocks} data blocks, need at least 1")
    if payload_length < 0:
        raise ErasureError(
            f"blocks declare a negative payload length ({payload_length})")
    # Every block holds one evaluation per payload polynomial; the polynomial
    # count is fixed by the declared payload length (zero-length payloads
    # still encode one all-zero polynomial).
    chunk_count = max(1, (payload_length + _CHUNK_BYTES - 1) // _CHUNK_BYTES)
    num_polynomials = (chunk_count + num_data_blocks - 1) // num_data_blocks
    distinct: dict[int, ErasureBlock] = {}
    for block in blocks:
        if block.num_data_blocks != num_data_blocks:
            raise ErasureError("blocks come from different encodings")
        if block.payload_length != payload_length:
            raise ErasureError(
                f"inconsistent payload lengths across blocks "
                f"({block.payload_length} != {payload_length})")
        if len(block.values) != num_polynomials:
            raise ErasureError(
                f"block {block.index} carries {len(block.values)} values, "
                f"expected {num_polynomials} for a {payload_length}-byte "
                f"payload")
        distinct.setdefault(block.point, block)
    if len(distinct) < num_data_blocks:
        raise ErasureError(
            f"need {num_data_blocks} distinct blocks, got {len(distinct)}")
    selected = heapq.nsmallest(num_data_blocks, distinct.values(),
                               key=attrgetter("point"))
    points = tuple(block.point for block in selected)
    chunks = []
    for poly_index in range(num_polynomials):
        values = [block.values[poly_index] for block in selected]
        chunks.extend(_interpolate_via_matrix(points, values))
    return _unchunk(chunks, payload_length)


def _interpolate_coefficients(points: list[int], values: list[int]) -> list[int]:
    """Recover polynomial coefficients (low-to-high) from point evaluations.

    This is the seed implementation (per-basis Lagrange expansion, O(k^3)).
    It is kept as the reference for the bit-identity property tests and the
    hot-path micro-benchmarks; production decoding goes through
    :func:`_interpolate_via_matrix`.
    """
    k = len(points)
    # Build the polynomial as a coefficient vector via Lagrange basis expansion.
    coefficients = [0] * k
    for i in range(k):
        # numerator polynomial prod_{j != i} (x - x_j)
        basis = [1]
        denominator = 1
        for j in range(k):
            if i == j:
                continue
            basis = _poly_mul(basis, [(-points[j]) % _PRIME, 1])
            denominator = (denominator * (points[i] - points[j])) % _PRIME
        scale = (values[i] * pow(denominator, -1, _PRIME)) % _PRIME
        for degree, coefficient in enumerate(basis):
            coefficients[degree] = (coefficients[degree] + coefficient * scale) % _PRIME
    return coefficients


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    result = [0] * (len(a) + len(b) - 1)
    for i, coefficient_a in enumerate(a):
        for j, coefficient_b in enumerate(b):
            result[i + j] = (result[i + j] + coefficient_a * coefficient_b) % _PRIME
    return result
