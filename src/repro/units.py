"""Unit helpers and constants shared across the library.

The paper reports sizes in kB/MB (decimal multiples, as usual in network
measurement papers) and rates in kb/s / Mb/s.  To avoid unit confusion the
rest of the code base always stores:

* sizes in **bytes** (``int``),
* times in **seconds** (``float``),
* rates in **bits per second** (``float``).

The helpers below convert the human-friendly spellings used in the paper to
those canonical units and format them back for reporting.  This module also hosts
the small CLI-value grammars shared across subcommands —
:func:`parse_seeds` for ``--seeds`` sweep specs and :func:`parse_duration`
for ``--older-than`` store-GC ages — so ``all``/``shard``/``merge`` and
``cache rm`` cannot drift apart in what they accept.  :func:`usable_cpus`
is the one count of CPUs this process may run on, which the default
``--jobs`` reads; :func:`cpu_share` is this process's part of it, which
bounds the client's deflate-ahead threads.
"""

from __future__ import annotations

import os
import re
from typing import List

from repro.errors import ConfigurationError

#: One ``--seeds`` item: a single integer or an inclusive ``A..B`` range.
_SEED_ITEM = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")

#: A size literal in a spec file: a number plus an optional kB/MB/GB suffix.
_SIZE = re.compile(r"^(\d+(?:\.\d+)?)\s*([kmg]?)b?$")

_SIZE_MULTIPLIER = {"": 1, "k": 1000, "m": 1_000_000, "g": 1_000_000_000}

#: The accepted size grammar, quoted by every parse error.
SIZE_GRAMMAR = "a byte count with an optional kB/MB/GB suffix, e.g. '250000', '512kB', '4MB'"

#: A ``--older-than`` age: a number plus an optional s/m/h/d/w suffix.
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)\s*([smhdw]?)$")

_DURATION_SECONDS = {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}

#: The accepted ``--seeds`` grammar, quoted by every parse error.
SEEDS_GRAMMAR = (
    "comma-separated integers and inclusive ranges, e.g. '7', '7,8,9' or '7,8,10..12' "
    "(A..B requires A <= B; duplicates are dropped and the list is sorted)"
)

#: Upper bound on the seeds one sweep spec may expand to.  A campaign of
#: this size is already far past practical; the cap turns a fat-fingered
#: range like ``1..1000000000`` into a clean error instead of an eager
#: billion-element list that freezes the machine.
MAX_SWEEP_SEEDS = 10_000

#: The accepted ``--older-than`` grammar, quoted by every parse error.
DURATION_GRAMMAR = "a number with an optional s/m/h/d/w suffix, e.g. '90', '45s', '30m', '12h', '7d', '2w'"


def parse_seeds(text: str) -> List[int]:
    """Parse a ``--seeds`` sweep spec like ``"7,8,10..12"``.

    Returns the seeds sorted ascending with duplicates removed — the
    normal form the campaign planner uses, so two spellings of the same
    seed set always plan the identical sweep.  Raises
    :class:`~repro.errors.ConfigurationError` (quoting the grammar) on
    anything else.
    """
    seeds: dict = {}  # insertion-ordered set: dedupe while accumulating
    items = [item.strip() for item in text.split(",")]
    if not any(items):
        raise ConfigurationError(f"--seeds selects no seed; accepted: {SEEDS_GRAMMAR}")
    for item in items:
        if not item:
            raise ConfigurationError(f"empty item in seed spec {text!r}; accepted: {SEEDS_GRAMMAR}")
        match = _SEED_ITEM.match(item)
        if match is None:
            raise ConfigurationError(f"invalid seed item {item!r}; accepted: {SEEDS_GRAMMAR}")
        first = int(match.group(1))
        if match.group(2) is None:
            seeds[first] = None
        else:
            last = int(match.group(2))
            if last < first:
                raise ConfigurationError(
                    f"descending seed range {item!r} (ranges are A..B with A <= B); accepted: {SEEDS_GRAMMAR}"
                )
            if last - first + 1 > MAX_SWEEP_SEEDS:
                raise ConfigurationError(
                    f"seed range {item!r} expands to {last - first + 1} seeds; "
                    f"one sweep is capped at {MAX_SWEEP_SEEDS}"
                )
            for value in range(first, last + 1):
                seeds[value] = None
        # The cap applies to *unique* seeds, so overlapping ranges that
        # denote a legal sweep are not rejected for their raw item count.
        if len(seeds) > MAX_SWEEP_SEEDS:
            raise ConfigurationError(
                f"seed spec {text!r} expands to more than {MAX_SWEEP_SEEDS} seeds; "
                f"one sweep is capped at {MAX_SWEEP_SEEDS}"
            )
    return sorted(seeds)


#: A rate literal in a spec file: a number plus an optional bps/kbps/mbps/gbps suffix.
_RATE = re.compile(r"^(\d+(?:\.\d+)?)\s*([kmg]?)(?:bps|b/s)?$")

_RATE_MULTIPLIER = {"": 1.0, "k": 1000.0, "m": 1_000_000.0, "g": 1_000_000_000.0}

#: The accepted rate grammar, quoted by every parse error.
RATE_GRAMMAR = "a number with an optional bps/kbps/Mbps/Gbps suffix, e.g. '250000', '500kbps', '8Mbps'"


def parse_rate(value) -> float:
    """Parse a link-rate spec value into bits per second.

    Spec files may write rates as plain numbers (bits per second) or as
    human-friendly strings like ``"8Mbps"`` / ``"500 kbps"``.  Raises
    :class:`~repro.errors.ConfigurationError` (quoting the grammar) on
    anything else.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"invalid rate {value!r}; accepted: {RATE_GRAMMAR}")
    if isinstance(value, (int, float)):
        rate = float(value)
    else:
        match = _RATE.match(str(value).strip().lower())
        if match is None:
            raise ConfigurationError(f"invalid rate {value!r}; accepted: {RATE_GRAMMAR}")
        rate = float(match.group(1)) * _RATE_MULTIPLIER[match.group(2)]
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {value!r}")
    return rate


def parse_size(value) -> int:
    """Parse a size spec value into bytes.

    Spec files may write sizes as plain integers (bytes) or as strings with
    the paper's decimal suffixes, e.g. ``"4MB"`` or ``"512kB"``.  Raises
    :class:`~repro.errors.ConfigurationError` (quoting the grammar) on
    anything else.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"invalid size {value!r}; accepted: {SIZE_GRAMMAR}")
    if isinstance(value, (int, float)):
        size = int(value)
    else:
        match = _SIZE.match(str(value).strip().lower())
        if match is None:
            raise ConfigurationError(f"invalid size {value!r}; accepted: {SIZE_GRAMMAR}")
        size = int(float(match.group(1)) * _SIZE_MULTIPLIER[match.group(2)])
    if size < 0:
        raise ConfigurationError(f"size must be non-negative, got {value!r}")
    return size


#: One ``--populations`` item: an integer with an optional k/M suffix.
_POPULATION = re.compile(r"^(\d+)\s*([km]?)$")

_POPULATION_MULTIPLIER = {"": 1, "k": 1000, "m": 1_000_000}

#: The accepted ``--populations`` grammar, quoted by every parse error.
POPULATIONS_GRAMMAR = (
    "comma-separated session counts with optional k/M suffixes, e.g. '1k', "
    "'1k,10k,100k' or '500,1M' (duplicates are dropped and the list is sorted ascending)"
)


def parse_population(value) -> int:
    """Parse one population size like ``"10k"`` or ``"1M"`` into sessions.

    Plain integers pass through; ``k``/``M`` suffixes are decimal
    multiples (case-insensitive).  Raises
    :class:`~repro.errors.ConfigurationError` (quoting the grammar) on
    anything else.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"invalid population {value!r}; accepted: {POPULATIONS_GRAMMAR}")
    if isinstance(value, int):
        population = value
    else:
        match = _POPULATION.match(str(value).strip().lower())
        if match is None:
            raise ConfigurationError(f"invalid population {value!r}; accepted: {POPULATIONS_GRAMMAR}")
        population = int(match.group(1)) * _POPULATION_MULTIPLIER[match.group(2)]
    if population <= 0:
        raise ConfigurationError(f"population must be positive, got {value!r}")
    return population


def parse_populations(text: str) -> List[int]:
    """Parse a ``--populations`` list like ``"1k,10k,100k"``.

    Returns the sizes sorted ascending with duplicates removed — the
    normal form the load-stage unit planner uses, so population units
    always plan (and report) in numeric order, never lexical.
    """
    items = [item.strip() for item in text.split(",")]
    if not any(items):
        raise ConfigurationError(f"--populations selects no size; accepted: {POPULATIONS_GRAMMAR}")
    sizes: dict = {}  # insertion-ordered set: dedupe while accumulating
    for item in items:
        if not item:
            raise ConfigurationError(
                f"empty item in population spec {text!r}; accepted: {POPULATIONS_GRAMMAR}"
            )
        sizes[parse_population(item)] = None
    return sorted(sizes)


def format_population(population: int) -> str:
    """Canonical unit label for a population size: ``1k``, ``10k``, ``1M``.

    Exact decimal multiples collapse to the suffix form; anything else
    prints as a plain integer.  ``parse_population(format_population(n))
    == n`` for every positive ``n``.
    """
    if population >= 1_000_000 and population % 1_000_000 == 0:
        return f"{population // 1_000_000}M"
    if population >= 1000 and population % 1000 == 0:
        return f"{population // 1000}k"
    return str(population)


#: A unit label that should order numerically: a population label like
#: ``10k``/``1M`` or any label with a numeric ``#rN`` repetition suffix.
_UNIT_NUMERIC = re.compile(r"^(\d+)([kM]?)$")


def unit_sort_key(unit: str):
    """Sort key for campaign unit labels within one (stage, service).

    Population units compare by their numeric value (``1k < 10k < 100k <
    1M`` — lexical order would interleave them), per-repetition units
    (``upload#r0 < upload#r2 < upload#r10``) by (base label, repetition
    number), and everything else by plain text.  The key is a uniform
    ``(text, number, repetition)`` tuple so mixed listings never compare
    ``str`` against ``int``.
    """
    base, sep, suffix = unit.partition("#r")
    repetition = int(suffix) if sep and suffix.isdigit() else -1
    if not (sep and suffix.isdigit()):
        base = unit
    match = _UNIT_NUMERIC.match(base)
    if match is not None:
        value = int(match.group(1)) * _POPULATION_MULTIPLIER[match.group(2).lower() or ""]
        return ("", value, repetition)
    return (base, -1, repetition)


def parse_duration(text: str) -> float:
    """Parse an age/duration spec like ``"12h"`` into seconds.

    Bare numbers are seconds; ``s``/``m``/``h``/``d``/``w`` suffixes scale
    accordingly.  Raises :class:`~repro.errors.ConfigurationError` (quoting
    the grammar) on anything else.
    """
    match = _DURATION.match(text.strip())
    if match is None:
        raise ConfigurationError(f"invalid duration {text!r}; accepted: {DURATION_GRAMMAR}")
    return float(match.group(1)) * _DURATION_SECONDS[match.group(2)]

#: Bytes in a kilobyte (decimal, as used in the paper: "100 kB", "10 kB").
KB = 1000
#: Bytes in a megabyte (decimal, as used in the paper: "1 MB", "4 MB chunks").
MB = 1000 * 1000
#: Bytes in a gigabyte.
GB = 1000 * 1000 * 1000


#: Processes sharing the CPUs this process may use: 1, or the size of the
#: campaign pool this process works in (set by :func:`share_cpus`).
_cpu_sharers = 1


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one.

    ``os.cpu_count()`` counts the machine's CPUs, which over-counts a
    process pinned to fewer (``taskset -c 0`` on a two-CPU machine).
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_cpus(processes: int) -> None:
    """Record that this process is one of ``processes`` pool workers sharing its CPUs.

    A campaign's pool initializer calls it in every worker, so the threads
    a cell starts do not multiply with ``--jobs``.
    """
    global _cpu_sharers
    _cpu_sharers = max(1, processes)


def cpu_share() -> int:
    """CPUs this process may count on for itself: its part of :func:`usable_cpus`, at least one."""
    return max(1, usable_cpus() // _cpu_sharers)


def mbps(value: float) -> float:
    """Return ``value`` megabits per second expressed in bits per second."""
    return value * 1000.0 * 1000.0


def minutes(value: float) -> float:
    """Return ``value`` minutes expressed in seconds."""
    return value * 60.0


def format_bytes(value: float) -> str:
    """Human readable byte count using the paper's decimal units."""
    if value >= GB:
        return f"{value / GB:.2f} GB"
    if value >= MB:
        return f"{value / MB:.2f} MB"
    if value >= KB:
        return f"{value / KB:.1f} kB"
    return f"{int(value)} B"


def format_rate(bps: float) -> str:
    """Human readable rate (b/s, kb/s or Mb/s) as printed in the paper."""
    if bps >= 1_000_000:
        return f"{bps / 1_000_000:.2f} Mb/s"
    if bps >= 1000:
        return f"{bps / 1000:.1f} kb/s"
    return f"{bps:.0f} b/s"


def format_duration(seconds: float) -> str:
    """Human readable duration."""
    if seconds >= 60:
        mins = int(seconds // 60)
        return f"{mins} min {seconds - 60 * mins:.0f} s"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000:.0f} ms"
