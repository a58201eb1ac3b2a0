"""Engine configuration: detector selection, thresholds, heap geometry."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError

DETECTOR_NAMES = ("overflow", "uaf", "leak")
GUARD_BYTES = 32  # the guard region in front of every payload


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs; defaults match the documented detector constants."""

    detectors: frozenset[str] = frozenset(DETECTOR_NAMES)
    quarantine_max_bytes: int = 16 * 1024 * 1024
    quarantine_max_count: int = 1024
    uaf_fill_prefix: int = 128
    canary_byte: int = 0xCA
    max_watchpoints: int = 4
    dangling: bool = False

    heap_base: int = 0x1_0000_0000
    heap_size: int = 256 * 1024 * 1024
    chunk_size: int = 4 * 1024 * 1024
    globals_base: int = 0x10000
    globals_words: int = 4096
    min_class: int = 16
    max_class: int = 1024 * 1024

    def __post_init__(self):
        unknown = self.detectors - set(DETECTOR_NAMES)
        if unknown:
            raise ConfigError(f"unknown detectors: {sorted(unknown)}")
        if self.quarantine_max_bytes <= 0 or self.quarantine_max_count <= 0:
            raise ConfigError("quarantine thresholds must be positive")
        if self.uaf_fill_prefix <= 0:
            raise ConfigError("uaf fill prefix must be positive")
        if not 0 <= self.canary_byte <= 0xFF:
            raise ConfigError("canary byte must fit in one byte")
        if self.max_watchpoints < 1:
            raise ConfigError("max watchpoints must be >= 1")
        if not _is_pow2(self.min_class) or not _is_pow2(self.max_class):
            raise ConfigError("size class bounds must be powers of two")
        if not 8 <= self.min_class <= self.max_class:
            raise ConfigError("require 8 <= min_class <= max_class")
        if self.chunk_size < GUARD_BYTES + self.max_class:
            raise ConfigError("chunk size must fit at least one slot of the largest class")
        if self.heap_size <= 0:
            raise ConfigError("heap size must be positive")
        if self.heap_size % self.chunk_size != 0:
            raise ConfigError("heap size must be a multiple of the chunk size")
        if self.heap_base % 16 != 0 or self.chunk_size % 16 != 0:
            raise ConfigError("heap base and chunk size must be 16-byte aligned")
        if self.globals_words <= 0:
            raise ConfigError("globals region must hold at least one word")
        globals_end = self.globals_base + 8 * self.globals_words
        # registers, pointers and the allocation record are 64-bit words
        if min(self.heap_base, self.globals_base) < 0 or max(
            self.heap_base + self.heap_size, globals_end
        ) > 1 << 64:
            raise ConfigError("heap and globals regions must lie in the 64-bit address space")
        if not (globals_end <= self.heap_base or self.globals_base >= self.heap_base + self.heap_size):
            raise ConfigError("globals region must be disjoint from the heap region")

    @property
    def canary_word(self) -> bytes:
        return bytes([self.canary_byte]) * 8

    def detector_enabled(self, name: str) -> bool:
        return name in self.detectors

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = sorted(v) if isinstance(v, frozenset) else v
        return out


def parse_detectors(spec: str) -> frozenset[str]:
    """Parse a comma-separated detector list, e.g. "overflow,uaf,leak"."""
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise ConfigError("detector list is empty")
    unknown = set(names) - set(DETECTOR_NAMES)
    if unknown:
        raise ConfigError(f"unknown detectors: {sorted(unknown)}")
    return frozenset(names)
