"""Byte-size conventions shared by every dictionary.

The devices price IOs by byte count, so each tree must account for how many
bytes its nodes occupy.  Rather than serializing nodes to real byte strings
(pure overhead in a timing simulation), trees compute sizes from a fixed
:class:`EntryFormat`:

* keys are fixed-width integers (``key_bytes``),
* values are fixed-width blobs (``value_bytes``),
* child pointers are ``pointer_bytes``,
* every node pays a ``node_header_bytes`` overhead.

This matches the paper's convention of unit-size elements: one key-value
pair is the unit, and a size-``B`` node holds ``Theta(B)`` of them.

The key conventions live here too: the enumerable key domain
(:data:`KEY_MIN`..:data:`KEY_MAX`) and :func:`sorted_columns`, the one
order check every pointer-based bulk loader runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter, lt
from typing import Any

from repro.errors import ConfigurationError, KeyOrderError

#: The key domain every dictionary enumerates: any int64 except INT64_MIN,
#: which the cob tier's packed-memory array reserves as its blank slot.
#: Whole-tree scans (``items``, ``__len__``, checkpoints, rebuilds) range
#: over ``[KEY_MIN, KEY_MAX]``, so no storable key falls outside them.
KEY_MIN = -(1 << 63) + 1
KEY_MAX = (1 << 63) - 1


def sorted_columns(pairs: list[tuple[int, Any]]) -> tuple[list[int], list[Any]]:
    """Split key-sorted ``pairs`` into a key column and a value column.

    Raises :class:`~repro.errors.KeyOrderError` unless keys strictly
    increase.  Neighbours are compared rather than differenced with numpy
    (an int64 difference overflows), and both the split and the check
    run at C speed, so a loader can slice its nodes straight out of the
    columns.
    """
    keys = list(map(itemgetter(0), pairs))
    if not all(map(lt, keys, islice(keys, 1, None))):
        raise KeyOrderError("bulk_load requires strictly increasing keys")
    return keys, list(map(itemgetter(1), pairs))


@dataclass(frozen=True)
class EntryFormat:
    """Fixed-width sizing of keys, values and pointers.

    Defaults give a ~108-byte entry, similar to the small-record workloads
    of the paper's Section 7 experiments.
    """

    key_bytes: int = 8
    value_bytes: int = 100
    pointer_bytes: int = 8
    node_header_bytes: int = 48
    message_header_bytes: int = 4  # opcode + bookkeeping for Bε messages

    def __post_init__(self) -> None:
        if min(self.key_bytes, self.pointer_bytes) <= 0:
            raise ConfigurationError("key_bytes and pointer_bytes must be positive")
        if self.value_bytes < 0 or self.node_header_bytes < 0 or self.message_header_bytes < 0:
            raise ConfigurationError("byte sizes must be non-negative")

    @property
    def entry_bytes(self) -> int:
        """Bytes of one key-value pair in a leaf."""
        return self.key_bytes + self.value_bytes

    @property
    def pivot_bytes(self) -> int:
        """Bytes of one pivot-plus-child-pointer slot in an internal node."""
        return self.key_bytes + self.pointer_bytes

    @property
    def message_bytes(self) -> int:
        """Bytes of one buffered Bε-tree message (key, value, header)."""
        return self.key_bytes + self.value_bytes + self.message_header_bytes

    def leaf_capacity(self, node_bytes: int) -> int:
        """Entries a leaf of ``node_bytes`` can hold (at least 2)."""
        cap = (node_bytes - self.node_header_bytes) // self.entry_bytes
        if cap < 2:
            raise ConfigurationError(
                f"node size {node_bytes} holds fewer than 2 entries "
                f"({self.entry_bytes} bytes each)"
            )
        return cap

    def internal_capacity(self, node_bytes: int) -> int:
        """Pivot slots an internal node of ``node_bytes`` can hold (>= 2)."""
        cap = (node_bytes - self.node_header_bytes) // self.pivot_bytes
        if cap < 2:
            raise ConfigurationError(
                f"node size {node_bytes} holds fewer than 2 pivots "
                f"({self.pivot_bytes} bytes each)"
            )
        return cap

    def leaf_bytes(self, n_entries: int) -> int:
        """Byte footprint of a leaf holding ``n_entries``."""
        return self.node_header_bytes + n_entries * self.entry_bytes

    def internal_bytes(self, n_children: int) -> int:
        """Byte footprint of a B-tree internal node with ``n_children``."""
        return self.node_header_bytes + n_children * self.pivot_bytes

    def buffer_bytes(self, n_messages: int) -> int:
        """Byte footprint of ``n_messages`` buffered Bε-tree messages."""
        return n_messages * self.message_bytes
