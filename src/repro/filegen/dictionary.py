"""A small English dictionary used to produce compressible text files.

The paper's testing application builds text files from "random words from a
dictionary" (§2).  We embed a compact word list (rather than depending on
``/usr/share/dict``) so text generation is self-contained and deterministic.
The list mixes very common English words with networking vocabulary; what
matters for the benchmarks is only that the resulting text is highly
compressible and looks like natural language to a compressor.

:func:`random_sentence` and :func:`random_paragraph` are the written
definition of the text stream.  Generators emit it through
:func:`paragraph_bytes`, which replays that stream in bulk: it returns the
same bytes and leaves the rng in the same state as calling
:func:`random_paragraph` paragraph by paragraph.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Tuple

import numpy as np

from repro.randomness import peek_outputs, skip_outputs

__all__ = ["WORDS", "random_words", "random_sentence", "random_paragraph", "paragraph_bytes", "decode_paragraphs"]

WORDS: List[str] = [
    "the", "of", "and", "to", "in", "that", "for", "with", "as", "was",
    "cloud", "storage", "service", "client", "server", "file", "folder",
    "synchronization", "upload", "download", "traffic", "network", "packet",
    "measurement", "benchmark", "capacity", "performance", "latency",
    "bandwidth", "protocol", "connection", "transfer", "data", "center",
    "chunk", "bundle", "compression", "deduplication", "delta", "encoding",
    "overhead", "startup", "completion", "experiment", "methodology",
    "architecture", "capability", "design", "implementation", "analysis",
    "internet", "provider", "user", "device", "share", "content", "remote",
    "local", "popular", "significant", "result", "system", "application",
    "different", "several", "various", "between", "during", "after", "before",
    "first", "second", "third", "large", "small", "fast", "slow", "time",
    "byte", "kilobyte", "megabyte", "second", "minute", "hour", "day",
    "europe", "america", "virginia", "ireland", "oregon", "seattle",
    "singapore", "zurich", "nuremberg", "france", "torino", "twente",
    "dropbox", "skydrive", "wuala", "google", "drive", "amazon",
    "observe", "monitor", "compute", "measure", "compare", "evaluate",
    "reveal", "identify", "analyze", "investigate", "understand", "report",
    "table", "figure", "section", "paper", "study", "work", "previous",
    "moreover", "however", "therefore", "finally", "interestingly",
    "surprisingly", "importantly", "overall", "instead", "because",
    "window", "handshake", "session", "certificate", "encryption", "privacy",
    "metadata", "notification", "polling", "control", "flow", "burst",
    "throughput", "roundtrip", "resolver", "address", "location", "owner",
    "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "while",
    "people", "company", "offer", "free", "price", "attract", "simple",
    "great", "push", "market", "become", "pervasive", "routine", "usage",
    "already", "produce", "share", "valuable", "guideline", "building",
    "better", "performing", "wisely", "resource", "goal", "twofold",
]


def random_words(rng: random.Random, count: int) -> List[str]:
    """Return ``count`` words drawn uniformly at random from :data:`WORDS`."""
    return [rng.choice(WORDS) for _ in range(count)]


def random_sentence(rng: random.Random, min_words: int = 5, max_words: int = 14) -> str:
    """Return one capitalised sentence of random dictionary words."""
    count = rng.randint(min_words, max_words)
    words = random_words(rng, count)
    sentence = " ".join(words)
    return sentence[:1].upper() + sentence[1:] + "."


def random_paragraph(rng: random.Random, sentences: int = 6) -> str:
    """Return a paragraph of ``sentences`` random sentences."""
    return " ".join(random_sentence(rng) for _ in range(sentences))


# --------------------------------------------------------------------------- #
# Bulk replay of the paragraph stream
# --------------------------------------------------------------------------- #
# ``random.Random`` draws ``randint(a, b)`` and ``choice(seq)`` through
# ``_randbelow(n)``: take the top ``n.bit_length()`` bits of one 32-bit
# MT19937 output and draw again while the value is >= n.  So every sentence
# length and every word costs whole outputs, one per attempt, and a block of
# raw outputs decodes into exactly the text the per-word loop builds from it.

#: The defaults of :func:`random_paragraph` and :func:`random_sentence`.
_SENTENCES = 6
_MIN_WORDS = 5
_MAX_WORDS = 14

#: Printed forms of a word, in token-table order (see :func:`_tokens`).
_MID, _OPENING, _CLOSING, _FINAL = range(4)

#: Raw outputs drawn per requested byte.  The stream consumes 0.198 on
#: average; the margin makes a second, larger block rare.
_OUTPUTS_PER_BYTE = 0.22
#: Extra outputs per block: a few paragraphs' worth, for small sizes.
_SPARE_OUTPUTS = 512

#: Bytes each word adds to a paragraph: itself plus the one separator
#: (space or full stop) that follows it.
_WORD_BYTES = np.array([len(word) + 1 for word in WORDS], dtype=np.int64)


def _accepted_below(n: int) -> Tuple[int, int]:
    """``(bound, shift)`` of ``_randbelow(n)`` over one 32-bit output.

    The output is accepted iff it is below ``bound``, and then draws
    ``output >> shift``.
    """
    shift = 32 - n.bit_length()
    return n << shift, shift


@functools.lru_cache(maxsize=4)
def _tokens(end: str) -> np.ndarray:
    """Every word in each printed form, as an object array of bytes.

    Entry ``form * len(WORDS) + index`` is word ``index`` in the middle of a
    sentence (``"w "``), opening it (``"W "``), closing it (``"w. "``) or
    closing the paragraph (``"w." + end``).  Sentences have at least
    ``_MIN_WORDS`` words, so no word both opens and closes one.
    """
    texts = [word + " " for word in WORDS]
    texts += [word[:1].upper() + word[1:] + " " for word in WORDS]
    texts += [word + ". " for word in WORDS]
    texts += [word + "." + end for word in WORDS]
    table = np.empty(len(texts), dtype=object)
    table[:] = [text.encode("utf-8") for text in texts]
    return table


def decode_paragraphs(raw: np.ndarray, size: int, end: str) -> Optional[Tuple[bytes, int]]:
    """Decode paragraphs from a block of consecutive raw MT19937 outputs.

    Returns the bytes of ``random_paragraph(rng) + end`` paragraphs up to
    and including the first whose end reaches ``size`` characters, and the
    number of outputs the per-word loop draws to emit them.  Returns
    ``None`` when the block runs out first.
    """
    length_bound, length_shift = _accepted_below(_MAX_WORDS - _MIN_WORDS + 1)
    word_bound, word_shift = _accepted_below(len(WORDS))
    is_length = raw < length_bound
    is_word = raw < word_bound
    length_at = np.flatnonzero(is_length)
    word_at = np.flatnonzero(is_word)
    # Candidate sentence i starts with the accepted length draw at
    # length_at[i]; its words are the next `counts[i]` accepted word draws,
    # numbered by their index in word_at from `first[i]` on.  (Running
    # counts are int32, which numpy sums several times faster than int64.)
    first = np.cumsum(is_word, dtype=np.int32)[length_at]
    counts = (raw[length_at] >> length_shift).astype(np.int64) + _MIN_WORDS
    last = first + counts - 1
    whole = last < len(word_at)
    # The next sentence's length draw is the first one after this sentence's
    # last word; -1 marks a sentence the block cuts short.
    follows = np.full(len(length_at) + 1, -1, dtype=np.int64)
    follows[:-1][whole] = np.cumsum(is_length, dtype=np.int32)[word_at[last[whole]]]
    chain = []
    sentence = 0
    steps = memoryview(follows)
    while sentence >= 0:
        chain.append(sentence)
        sentence = steps[sentence]
    paragraphs = (len(chain) - 1) // _SENTENCES
    sentences = np.array(chain[: paragraphs * _SENTENCES], dtype=np.int64)
    first = first[sentences]
    counts = counts[sentences]
    picks = (raw[word_at] >> word_shift).astype(np.int64)
    word_ends = np.zeros(len(picks) + 1, dtype=np.int64)
    np.cumsum(_WORD_BYTES[picks], out=word_ends[1:])
    sentence_bytes = word_ends[first + counts] - word_ends[first]
    paragraph_lengths = sentence_bytes.reshape(-1, _SENTENCES).sum(axis=1) + (_SENTENCES - 1) + len(end)
    cut = int(np.searchsorted(np.cumsum(paragraph_lengths), size))
    if cut == paragraphs:
        return None
    kept = (cut + 1) * _SENTENCES
    first = first[:kept]
    counts = counts[:kept]
    stops = np.cumsum(counts)
    starts = stops - counts
    ranks = np.repeat(first - starts, counts) + np.arange(stops[-1])
    forms = np.full(len(ranks), _MID, dtype=np.int64)
    forms[starts] = _OPENING
    forms[stops - 1] = _CLOSING
    forms[stops[_SENTENCES - 1 :: _SENTENCES] - 1] = _FINAL
    text = b"".join(_tokens(end)[forms * len(WORDS) + picks[ranks]].tolist())
    return text, int(word_at[ranks[-1]]) + 1


def paragraph_bytes(rng: random.Random, size: int, end: str) -> bytes:
    """Return ``random_paragraph(rng) + end`` paragraphs until they reach ``size`` characters, UTF-8 encoded.

    Bit-identical to the per-word loop::

        total = 0
        while total < size:
            paragraph = random_paragraph(rng) + end
            total += len(paragraph)  # ... and keep the paragraph

    in both the bytes and the state ``rng`` is left in, so later draws from
    ``rng`` see the same stream.  ``rng`` must be a plain ``random.Random``
    (MT19937): :func:`decode_paragraphs` decodes a block of its raw outputs
    (a larger block when one falls short), and ``rng`` is then advanced past
    exactly the outputs used.
    """
    if size <= 0:
        return b""
    outputs = int(size * _OUTPUTS_PER_BYTE) + _SPARE_OUTPUTS
    while True:
        decoded = decode_paragraphs(peek_outputs(rng, outputs), size, end)
        if decoded is not None:
            break
        outputs *= 2
    text, used = decoded
    skip_outputs(rng, used)
    return text
