"""Tests for delta encoding."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.filegen.binary import generate_binary
from repro.sync.delta import DeltaCodec, DeltaOpKind


class TestDeltaCodec:
    def setup_method(self):
        self.codec = DeltaCodec(block_size=4096)

    def roundtrip(self, old, new):
        signature = self.codec.compute_signature(old)
        delta = self.codec.compute_delta(new, signature)
        assert self.codec.apply_delta(old, delta) == new
        return delta

    def test_identical_files_produce_no_literals(self):
        data = generate_binary(100_000, seed=1).content
        delta = self.roundtrip(data, data)
        assert delta.literal_bytes == 0
        assert sum(op.kind is DeltaOpKind.COPY for op in delta.ops) == len(self.codec.compute_signature(data))

    def test_append_only_sends_appended_bytes(self):
        old = generate_binary(100_000, seed=2).content
        addition = generate_binary(10_000, seed=3).content
        delta = self.roundtrip(old, old + addition)
        assert delta.literal_bytes <= len(addition) + self.codec.block_size

    def test_insertion_in_the_middle_realigns(self):
        old = generate_binary(200_000, seed=4).content
        insertion = generate_binary(5_000, seed=5).content
        new = old[:100_000] + insertion + old[100_000:]
        delta = self.roundtrip(old, new)
        # The rolling hash re-synchronises after the insertion, so only the
        # inserted region plus at most a couple of blocks become literals.
        assert delta.literal_bytes <= len(insertion) + 3 * self.codec.block_size

    def test_completely_new_content_is_all_literal(self):
        old = generate_binary(50_000, seed=6).content
        new = generate_binary(50_000, seed=7).content
        delta = self.roundtrip(old, new)
        assert delta.literal_bytes == len(new)
        assert sum(op.kind is DeltaOpKind.COPY for op in delta.ops) == 0

    def test_wire_size_accounts_for_framing(self):
        old = generate_binary(50_000, seed=8).content
        delta = self.roundtrip(old, old)
        assert delta.wire_size() == 12 * len(delta.ops)

    def test_empty_new_file(self):
        old = generate_binary(10_000, seed=9).content
        delta = self.roundtrip(old, b"")
        assert delta.literal_bytes == 0
        assert delta.ops == []

    def test_empty_old_file_is_all_literal(self):
        new = generate_binary(10_000, seed=10).content
        delta = self.roundtrip(b"", new)
        assert delta.literal_bytes == len(new)

    def test_small_file_below_block_size(self):
        old = generate_binary(2_000, seed=11).content
        new = generate_binary(3_000, seed=12).content
        delta = self.roundtrip(old, new)
        assert delta.literal_bytes == len(new)

    def test_signature_wire_size(self):
        data = generate_binary(40_960, seed=13).content
        signature = DeltaCodec(block_size=4096).compute_signature(data)
        assert len(signature) == 10
        assert signature.wire_size() == 200

    def test_rejects_non_positive_block_size(self):
        with pytest.raises(ConfigurationError):
            DeltaCodec(block_size=0)

    def test_ops_kinds_are_well_formed(self):
        old = generate_binary(30_000, seed=14).content
        new = old[:10_000] + generate_binary(500, seed=15).content + old[10_000:]
        signature = self.codec.compute_signature(old)
        delta = self.codec.compute_delta(new, signature)
        for op in delta.ops:
            if op.kind is DeltaOpKind.COPY:
                assert 0 <= op.block_index < len(signature)
                assert op.data == b""
            else:
                assert op.literal_length > 0
