"""Shared utilities: seeding, sizes, rank identity, and small helpers."""

from repro.utils.seed import manual_seed, get_rng, fork_rng
from repro.utils.units import MB, KB, format_bytes, format_seconds
from repro.utils.logging import enable_logging, logger
from repro.utils.rank import get_current_rank, set_current_rank

__all__ = [
    "manual_seed",
    "get_rng",
    "fork_rng",
    "MB",
    "KB",
    "format_bytes",
    "format_seconds",
    "enable_logging",
    "logger",
    "get_current_rank",
    "set_current_rank",
]
