"""Tests for compression policies, bundling, encryption and protocol sizing."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.filegen.binary import generate_binary
from repro.filegen.jpeg import generate_fake_jpeg, generate_image
from repro.filegen.text import generate_text
from repro.sync.bundling import BUNDLE_OVERHEAD_BYTES, ENTRY_OVERHEAD_BYTES, BundleBuilder, BundleEntry
from repro.sync.compression import CompressionPolicy, Compressor, looks_compressed
from repro.sync.encryption import ENCRYPTION_HEADER_BYTES, ConvergentEncryptor
from repro.sync.protocol import ChunkUploadMessage, CommitMessage, FileMetadataMessage, ListChangesMessage, MessageSizes


class TestCompression:
    def test_always_policy_compresses_text(self):
        result = Compressor(CompressionPolicy.ALWAYS).process(generate_text(100_000).content)
        assert result.compressed
        assert result.transmitted_size < 50_000
        assert result.transmitted_size < result.original_size

    def test_never_policy_sends_raw(self):
        result = Compressor(CompressionPolicy.NEVER).process(generate_text(100_000).content)
        assert not result.compressed
        assert result.ratio == 1.0

    def test_random_data_never_shrinks(self):
        result = Compressor(CompressionPolicy.ALWAYS).process(generate_binary(100_000).content)
        assert result.transmitted_size == 100_000

    def test_smart_policy_skips_jpeg_magic(self):
        fake = generate_fake_jpeg(100_000).content
        smart = Compressor(CompressionPolicy.SMART).process(fake)
        always = Compressor(CompressionPolicy.ALWAYS).process(fake)
        assert not smart.compressed
        assert always.compressed

    def test_smart_policy_still_compresses_text(self):
        result = Compressor(CompressionPolicy.SMART).process(generate_text(100_000).content)
        assert result.compressed

    def test_looks_compressed_magic_numbers(self):
        assert looks_compressed(generate_image(1000).content)
        assert looks_compressed(b"PK\x03\x04rest-of-zip")
        assert looks_compressed(b"\x1f\x8b\x08gzip")
        assert not looks_compressed(b"plain old text")

    def test_empty_payload(self):
        result = Compressor(CompressionPolicy.ALWAYS).process(b"")
        assert result.transmitted_size == 0
        assert result.ratio == 1.0


class TestBundling:
    def test_pack_respects_size_limit(self):
        # Two 400 B entries fit (wire: 800 + 256 + 2*64 = 1184 <= 1200); a
        # third would push the wire size over the cap.
        builder = BundleBuilder(max_bundle_bytes=1_200)
        bundles = builder.pack_sizes([400, 400, 400, 400])
        assert [len(bundle) for bundle in bundles] == [2, 2]

    def test_pack_caps_wire_size_not_payload_size(self):
        # Regression: the cap used to apply to the payload alone, so bundles
        # could exceed max_bundle_bytes on the wire once framing was added.
        builder = BundleBuilder(max_bundle_bytes=1_000)
        bundles = builder.pack_sizes([400, 400, 400, 400])
        assert all(bundle.wire_size <= 1_000 for bundle in bundles)
        assert [len(bundle) for bundle in bundles] == [1, 1, 1, 1]

    def test_pack_wire_cap_counts_per_entry_overhead(self):
        # 10 zero-payload entries cost 256 + 10*64 = 896 wire bytes; an
        # 896 B cap takes exactly 10 per bundle, one byte less takes 9.
        assert [len(b) for b in BundleBuilder(max_bundle_bytes=896).pack_sizes([0] * 20)] == [10, 10]
        assert [len(b) for b in BundleBuilder(max_bundle_bytes=895).pack_sizes([0] * 20)] == [9, 9, 2]

    def test_pack_respects_entry_limit(self):
        builder = BundleBuilder(max_bundle_bytes=10_000, max_entries=3)
        bundles = builder.pack_sizes([10] * 7)
        assert [len(bundle) for bundle in bundles] == [3, 3, 1]

    def test_oversized_entry_gets_own_bundle(self):
        builder = BundleBuilder(max_bundle_bytes=1_000)
        bundles = builder.pack_sizes([5_000, 100])
        assert len(bundles) == 2
        assert bundles[0].payload_size == 5_000

    def test_wire_size_includes_framing(self):
        bundle = BundleBuilder().pack([BundleEntry("a", 100), BundleEntry("b", 200)])[0]
        assert bundle.wire_size == 300 + BUNDLE_OVERHEAD_BYTES + 2 * ENTRY_OVERHEAD_BYTES

    def test_empty_input(self):
        assert BundleBuilder().pack([]) == []

    def test_rejects_bad_limits(self):
        with pytest.raises(ConfigurationError):
            BundleBuilder(max_bundle_bytes=0)
        with pytest.raises(ConfigurationError):
            BundleBuilder(max_entries=0)


class TestConvergentEncryption:
    def test_identical_plaintexts_give_identical_ciphertexts(self):
        encryptor = ConvergentEncryptor()
        data = generate_binary(10_000).content
        assert encryptor.encrypt(data).digest == encryptor.encrypt(data).digest
        assert encryptor.encrypt(data).content_key == encryptor.content_key(data)

    def test_different_plaintexts_give_different_ciphertexts(self):
        encryptor = ConvergentEncryptor()
        a = encryptor.encrypt(generate_binary(1_000, seed=1).content)
        b = encryptor.encrypt(generate_binary(1_000, seed=2).content)
        assert a.digest != b.digest

    def test_size_overhead_is_constant(self):
        encryptor = ConvergentEncryptor()
        payload = encryptor.encrypt(b"x" * 5_000)
        assert payload.ciphertext_size == 5_000 + ENCRYPTION_HEADER_BYTES
        assert payload.overhead == ENCRYPTION_HEADER_BYTES

    def test_cpu_time_scales_with_size(self):
        encryptor = ConvergentEncryptor(per_megabyte_cpu_seconds=0.01)
        assert encryptor.cpu_time(2_000_000) == pytest.approx(0.02)

    @pytest.mark.parametrize("size", [0, 1, 4096, 1_000_000])
    def test_content_key_hashes_prefix_then_plaintext(self, size):
        plaintext = generate_binary(size, seed=3).content
        expected = hashlib.sha256(b"convergent-key:" + plaintext).hexdigest()
        assert ConvergentEncryptor().content_key(plaintext) == expected


class TestProtocolMessages:
    def test_metadata_grows_with_chunk_count(self):
        small = FileMetadataMessage(chunk_count=1)
        large = FileMetadataMessage(chunk_count=100)
        assert large.request_bytes > small.request_bytes

    def test_commit_grows_with_file_count(self):
        assert CommitMessage(file_count=50).request_bytes > CommitMessage(file_count=1).request_bytes

    def test_chunk_envelope_wraps_payload(self):
        message = ChunkUploadMessage(payload_bytes=10_000)
        assert message.request_bytes == 10_000 + MessageSizes().chunk_envelope
        assert message.response_bytes == MessageSizes().chunk_ack

    def test_list_changes_sizes(self):
        message = ListChangesMessage()
        assert message.request_bytes > 0
        assert message.response_bytes > 0
