"""Streaming multiprocessor pipeline: scheduling slots, LSU, dispatch."""

from .dispatcher import BlockDispatcher
from .lsu import LoadStoreUnit
from .sm import SMStats, StreamingMultiprocessor

__all__ = ["BlockDispatcher", "LoadStoreUnit", "SMStats", "StreamingMultiprocessor"]
