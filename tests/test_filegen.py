"""Tests for the workload file generators."""

from __future__ import annotations

import hashlib
import random
import zlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.errors import WorkloadError
from repro.filegen import (
    FileKind,
    GeneratedFile,
    generate_batch,
    generate_binary,
    generate_fake_jpeg,
    generate_file,
    generate_image,
    generate_text,
)
from repro.filegen import dictionary
from repro.filegen.jpeg import JPEG_MAGIC, FakeJPEGGenerator, _with_jpeg_framing
from repro.filegen.dictionary import (
    WORDS,
    decode_paragraphs,
    paragraph_bytes,
    random_paragraph,
    random_sentence,
    random_words,
)
from repro.filegen.text import RandomTextGenerator
from repro.randomness import DEFAULT_SEED, make_rng


def per_word_paragraphs(rng, size, end):
    """The per-word paragraph loop :func:`paragraph_bytes` replays: the oracle."""
    pieces = []
    total = 0
    while total < size:
        paragraph = random_paragraph(rng) + end
        pieces.append(paragraph)
        total += len(paragraph)
    return "".join(pieces).encode("utf-8")


#: SHA-256 of generated files: text and fake JPEGs as the per-word
#: paragraph loop emits them, binary files and images as
#: ``random.Random.randbytes`` draws them.  Any change to these bytes shifts
#: the results documents.
CONTENT_DIGESTS = {
    ("text", DEFAULT_SEED, 64): "4f201c412f121f703e576f4edd59e718b75f667e00870ca77e1da2d4a16225de",
    ("text", DEFAULT_SEED, 1000): "544b43052affca4045f38d0c4a3fd38aa178ce9f0bf24e036133fb6eb2d14db5",
    ("text", DEFAULT_SEED, 100_000): "f7d84bdddabd006f7f4338adfbc9f6d3af5c4a02d67102cf7259befd03823f20",
    ("text", DEFAULT_SEED, 1_500_000): "8c2450bb4c79b235e645102c9e7d75988fbe9b0afaf02164aa193c66c2db2376",
    ("text", 7, 64): "fef6c9221420d380d3265ad3bc5f1e7c29046480809abbc14827abfacd540bd3",
    ("text", 7, 1000): "40de9d8f5d929e3b24c481849769e6778314dcf7f54bda28b12f40fe7e007fa6",
    ("text", 7, 100_000): "fe8b5a4a8a0a40ccf9cd50759f3e8a4788e45da3addd225a4a13b55d90b4e28c",
    ("text", 7, 1_500_000): "b4bb4c89ffe82f0cc1f1487d6d04558ad164f77345940a5d9ab71de1b2cf3e0a",
    ("fake_jpeg", DEFAULT_SEED, 64): "6a48e947fbbc81a5302a0b704ee95b9187bb30352bd4fd41dd64bc62bfd72caf",
    ("fake_jpeg", DEFAULT_SEED, 1000): "97e78d5d917af72300fe37de53a1315fd51a7d9f1bb9349782b81bf6b34ebe3a",
    ("fake_jpeg", DEFAULT_SEED, 100_000): "af82c2518edafcd132ad3ffe3ce96e58f7b9912ab199ab29fd0946797f21c654",
    ("fake_jpeg", DEFAULT_SEED, 1_500_000): "ee5a085916797afb35eb380616dc2eba222930500eccef6b1545debef95ecb3b",
    ("fake_jpeg", 7, 64): "82da0ae30e1fe4c64afea3daa7b7157116d00e2eef0e78f553a5ad97307ea19b",
    ("fake_jpeg", 7, 1000): "456e86bb702136d3988dfffbd707bf2ca8665bbf6b7b2f69156a6c7a8c7b961f",
    ("fake_jpeg", 7, 100_000): "c19ef5a4faa91e9b59e8779c0b32707f027306d13a5893762fadcd7b5c6ba374",
    ("fake_jpeg", 7, 1_500_000): "92c622cda81114d03e9607bbda5991d6ce1a17afb91d0a06c00a602e77d45aea",
    ("binary", DEFAULT_SEED, 1): "5a0ec31daa84fa27666da56af259b9351086bba0b9ab4aa6007e3e6fb1866b47",
    ("binary", DEFAULT_SEED, 3): "18d9325433af1924ac005ff4992e24d43d64e6191f0312dff27b98f27577a4b4",
    ("binary", DEFAULT_SEED, 10_000): "d0c37be9e04d341429c1aed8ba89bb810b0cb5191bcba85fdb319e8fe789999f",
    ("binary", DEFAULT_SEED, 100_001): "522d4df8fa3e2921e5e5c83e76af32fbc49fb4a5ad6664ef765717354509920a",
    ("binary", DEFAULT_SEED, 1_000_000): "eb4389715c8479b1d94bb3ba0058a36197c626a183f275a78e7f9fecc0134e98",
    ("binary", 7, 1): "4bfa260a661d68110a7a0a45264d2d43af9727de925cc2e09fb687b3651efe9d",
    ("binary", 7, 3): "44ced7e8fc76778931444c352ee734ddc9f9b6ccf7dcde73bd959f355b42cb84",
    ("binary", 7, 10_000): "0c9bb0dc49e71e04f4185af1bddc775cb08f297122c058af352a609c603ae339",
    ("binary", 7, 100_001): "bd35db66e2fae1afe8584f91eed17355f2bef1db9404061504b0bb0aebbdb774",
    ("binary", 7, 1_000_000): "ec7ee4300b3d5e457a523bacb4f0e821f559d3f18524f27c475c6e040938503a",
    ("image", DEFAULT_SEED, 23): "e8b7c5fd32d6d703b989ed2402f965f86054c6182396fbbe062ed47ac8f4311f",
    ("image", DEFAULT_SEED, 25): "a1e1c221819f485d2f7d9d606e6a8e97e9eeb0f8f27b5cf8732debefe264238e",
    ("image", DEFAULT_SEED, 10_000): "4113af21294be5fd7714d2fda81f5f08d1a9f13eb6640b7e6c779b8b93be2fc3",
    ("image", DEFAULT_SEED, 100_001): "3c4b020499731a501aa86a216c7282b39e3a9c262a8cecf3f9c22d90b223c7f7",
    ("image", 7, 23): "fe1b5d4c64c4745597806ea172a49131afda0da653c1e27d0cc272828a36bda3",
    ("image", 7, 25): "08e4dc857c7dbc9bb99e86589c20b34ba8fe1de671271f46ff27edf18bace720",
    ("image", 7, 10_000): "28ba352461a59cac4ead874ca3bcae22624b297e8e14d265f9d84d56399cd221",
    ("image", 7, 100_001): "377af0ce4d5783df2b9cb679cf4c60f693daed178c7fa0676bcdaf704c32cffe",
}


# --------------------------------------------------------------------------- #
# GeneratedFile model
# --------------------------------------------------------------------------- #
class TestGeneratedFile:
    def test_size_and_digest(self):
        file = GeneratedFile(name="a.bin", content=b"hello world")
        assert file.size == 11
        assert len(file.digest) == 64
        assert file.digest == GeneratedFile(name="b.bin", content=b"hello world").digest

    def test_renamed_keeps_content(self):
        file = GeneratedFile(name="a.bin", content=b"xyz", kind=FileKind.BINARY)
        copy = file.renamed("folder/b.bin")
        assert copy.name == "folder/b.bin"
        assert copy.content == file.content
        assert copy.kind is file.kind

    def test_with_content_changes_content_only(self):
        file = GeneratedFile(name="a.bin", content=b"xyz")
        new = file.with_content(b"longer content")
        assert new.name == "a.bin"
        assert new.size == len(b"longer content")

    def test_extension_per_kind(self):
        assert FileKind.TEXT.extension == ".txt"
        assert FileKind.BINARY.extension == ".bin"
        assert FileKind.FAKE_JPEG.extension == ".jpg"


# --------------------------------------------------------------------------- #
# Dictionary
# --------------------------------------------------------------------------- #
class TestDictionary:
    def test_word_list_is_reasonable(self):
        assert len(WORDS) > 100
        assert all(word.islower() for word in WORDS)

    def test_random_words_count(self):
        rng = make_rng(1, "words")
        assert len(random_words(rng, 25)) == 25

    def test_random_sentence_shape(self):
        sentence = random_sentence(make_rng(2, "sentence"))
        assert sentence.endswith(".")
        assert sentence[0].isupper()

    def test_random_paragraph_has_sentences(self):
        paragraph = random_paragraph(make_rng(3, "paragraph"), sentences=4)
        assert paragraph.count(".") >= 4


# --------------------------------------------------------------------------- #
# Content generators
# --------------------------------------------------------------------------- #
class TestGenerators:
    @pytest.mark.parametrize("size", [0, 1, 100, 10_000, 123_457])
    def test_text_exact_size(self, size):
        assert generate_text(size).size == size

    @pytest.mark.parametrize("size", [0, 1, 100, 10_000, 123_457])
    def test_binary_exact_size(self, size):
        assert generate_binary(size).size == size

    @pytest.mark.parametrize("size", [64, 10_000, 100_000])
    def test_fake_jpeg_exact_size(self, size):
        assert generate_fake_jpeg(size).size == size

    def test_text_is_highly_compressible(self):
        file = generate_text(100_000)
        ratio = len(zlib.compress(file.content)) / file.size
        assert ratio < 0.5

    def test_binary_is_incompressible(self):
        file = generate_binary(100_000)
        ratio = len(zlib.compress(file.content)) / file.size
        assert ratio > 0.95

    def test_fake_jpeg_has_jpeg_magic_but_compressible_body(self):
        file = generate_fake_jpeg(50_000)
        assert file.content.startswith(JPEG_MAGIC[:3])
        ratio = len(zlib.compress(file.content)) / file.size
        assert ratio < 0.6

    def test_real_image_has_magic_and_is_incompressible(self):
        file = generate_image(50_000)
        assert file.content.startswith(JPEG_MAGIC[:3])
        ratio = len(zlib.compress(file.content)) / file.size
        assert ratio > 0.9

    def test_generators_are_deterministic_per_seed(self):
        for generate in (generate_binary, generate_text, generate_fake_jpeg):
            assert generate(1000, seed=7).content == generate(1000, seed=7).content
            assert generate(1000, seed=7).content != generate(1000, seed=8).content

    @pytest.mark.parametrize("kind, seed, size", sorted(CONTENT_DIGESTS, key=repr))
    def test_content_is_pinned(self, kind, seed, size):
        generate = {
            "text": generate_text,
            "fake_jpeg": generate_fake_jpeg,
            "binary": generate_binary,
            "image": generate_image,
        }[kind]
        content = generate(size, seed=seed).content
        assert hashlib.sha256(content).hexdigest() == CONTENT_DIGESTS[(kind, seed, size)]

    def test_generate_text_rejects_negative_size(self):
        with pytest.raises(ValueError):
            generate_text(-1)


# --------------------------------------------------------------------------- #
# Bulk replay of the paragraph stream
# --------------------------------------------------------------------------- #
seeds = st.integers(min_value=0, max_value=2**64 - 1)
ends = st.sampled_from(["\n\n", "\n"])


class TestParagraphBytes:
    @given(seed=seeds, size=st.one_of(st.integers(0, 3_000), st.integers(0, 2_500_000)), end=ends)
    @example(seed=DEFAULT_SEED, size=2_500_000, end="\n\n")
    @example(seed=7, size=2_499_999, end="\n")
    @example(seed=0, size=1, end="\n\n")
    @example(seed=0, size=0, end="\n")
    @settings(max_examples=30, deadline=None)
    def test_matches_per_word_loop(self, seed, size, end):
        expected_rng = random.Random(seed)
        actual_rng = random.Random(seed)
        assert paragraph_bytes(actual_rng, size, end) == per_word_paragraphs(expected_rng, size, end)
        assert actual_rng.getstate() == expected_rng.getstate()

    @given(seed=seeds, paragraphs=st.integers(1, 8), offset=st.integers(-1, 1), end=ends)
    @settings(max_examples=60, deadline=None)
    def test_sizes_around_a_paragraph_end(self, seed, paragraphs, offset, end):
        rng = random.Random(seed)
        boundary = sum(len(random_paragraph(rng) + end) for _ in range(paragraphs))
        expected_rng = random.Random(seed)
        actual_rng = random.Random(seed)
        expected = per_word_paragraphs(expected_rng, boundary + offset, end)
        assert paragraph_bytes(actual_rng, boundary + offset, end) == expected
        assert actual_rng.getstate() == expected_rng.getstate()

    @given(seed=seeds, warmup=st.integers(0, 700), size=st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_caller_rng_continues_identically(self, seed, warmup, size):
        # A used rng: mid-way through an MT19937 block, with a cached gauss value.
        expected_rng = random.Random(seed)
        expected_rng.getrandbits(32 * warmup + 1)
        expected_rng.gauss(0.0, 1.0)
        actual_rng = random.Random()
        actual_rng.setstate(expected_rng.getstate())
        text = RandomTextGenerator().generate(size, rng=actual_rng).content
        fake = FakeJPEGGenerator().generate(size, rng=actual_rng).content
        assert text == per_word_paragraphs(expected_rng, size, "\n\n")[:size]
        assert fake == _with_jpeg_framing(per_word_paragraphs(expected_rng, size, "\n"), size)
        assert actual_rng.getstate() == expected_rng.getstate()
        assert actual_rng.random() == expected_rng.random()
        assert actual_rng.gauss(0.0, 1.0) == expected_rng.gauss(0.0, 1.0)

    @pytest.mark.parametrize("end", ["\n\n", "\n"])
    @pytest.mark.parametrize("size", [1, 445, 30_000])
    def test_decoder_needs_exactly_the_outputs_it_reports(self, size, end):
        # Raw outputs straight from random.Random, not numpy's MT19937.
        outputs = size // 2 + 1_000
        block = random.Random(size).getrandbits(32 * outputs).to_bytes(4 * outputs, "little")
        raw = np.frombuffer(block, dtype="<u4")
        text, used = decode_paragraphs(raw, size, end)
        assert text == per_word_paragraphs(random.Random(size), size, end)
        assert decode_paragraphs(raw[:used], size, end) == (text, used)
        assert decode_paragraphs(raw[: used - 1], size, end) is None
        assert decode_paragraphs(raw[:0], size, end) is None

    def test_short_blocks_grow_until_the_text_fits(self, monkeypatch):
        monkeypatch.setattr(dictionary, "_OUTPUTS_PER_BYTE", 0.0)
        monkeypatch.setattr(dictionary, "_SPARE_OUTPUTS", 1)
        expected_rng = random.Random(11)
        actual_rng = random.Random(11)
        assert paragraph_bytes(actual_rng, 5_000, "\n") == per_word_paragraphs(expected_rng, 5_000, "\n")
        assert actual_rng.getstate() == expected_rng.getstate()


# --------------------------------------------------------------------------- #
# Dispatch and batches
# --------------------------------------------------------------------------- #
class TestBatches:
    def test_generate_file_dispatch(self):
        for kind in FileKind:
            file = generate_file(kind, 2048)
            assert file.kind is kind
            assert file.size == 2048

    def test_generate_file_default_name_uses_extension(self):
        assert generate_file(FileKind.TEXT, 10).name.endswith(".txt")

    def test_batch_count_sizes_and_unique_names(self):
        batch = generate_batch(FileKind.BINARY, 10, 1000, prefix="set")
        assert len(batch) == 10
        assert all(file.size == 1000 for file in batch)
        assert len({file.name for file in batch}) == 10

    def test_batch_files_have_distinct_content(self):
        batch = generate_batch(FileKind.BINARY, 5, 512)
        assert len({file.digest for file in batch}) == 5

    def test_batch_rejects_bad_arguments(self):
        with pytest.raises(WorkloadError):
            generate_batch(FileKind.BINARY, 0, 100)
        with pytest.raises(WorkloadError):
            generate_batch(FileKind.BINARY, 1, -5)
