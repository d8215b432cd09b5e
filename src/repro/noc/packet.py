"""Messages and their flit decomposition.

The NoC's unit of work is one logical transfer from a source router to
one or more destinations (several destinations make it a multicast),
which the simulators move as a train of fixed-size flits: one head flit
carrying the route plus as many body flits as the payload needs
(:func:`flit_count`).

A :class:`MessageTable` holds a whole message set as columns (one row per
message, destinations in CSR form), and it is the only form both NoC
models accept: :class:`~repro.noc.schedule.StaticScheduler` and
:class:`~repro.noc.simulator.FlitSimulator` read its columns, serve its
rows in one shared :meth:`~MessageTable.priority_order` and count flits
with one formula.  The table checks its columns once, on construction.
The GNN traffic model and the synthetic generators build tables
directly; a :class:`Message` is the hand-written row form, and
``from_messages``/``to_messages`` convert lists of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Message:
    """One logical transfer between PEs.

    A message with several destinations is a *multicast* message: under
    tree routing it traverses a multicast tree once; under unicast routing
    it is replicated into one packet per destination.

    Attributes:
        src: source router id.
        dests: destination router ids (at least one; no duplicates).
        size_bits: payload size.
        inject_cycle: earliest cycle the packet may enter the network.
        tag: free-form label (e.g. which pipeline stage produced it) used
            to slice results per layer.
    """

    src: int
    dests: tuple[int, ...]
    size_bits: int
    inject_cycle: int = 0
    tag: str = ""
    msg_id: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if not self.dests:
            raise ValueError("message needs at least one destination")
        if len(set(self.dests)) != len(self.dests):
            raise ValueError(f"duplicate destinations: {self.dests}")
        if self.src in self.dests:
            raise ValueError("message destination equals its source")
        if self.size_bits < 1:
            raise ValueError(f"message size must be positive, got {self.size_bits}")
        if self.inject_cycle < 0:
            raise ValueError("inject_cycle must be non-negative")

    @property
    def is_multicast(self) -> bool:
        return len(self.dests) > 1

    def num_flits(self, flit_bits: int) -> int:
        """Flits for this payload (:func:`flit_count`)."""
        return flit_count(self.size_bits, flit_bits)


def flit_count(bits: int | np.ndarray, flit_bits: int) -> int | np.ndarray:
    """Flits for ``bits`` of payload (an int or an array of them): one
    head flit plus ``ceil(bits / flit_bits)`` body flits."""
    if flit_bits < 1:
        raise ValueError(f"flit width must be positive, got {flit_bits}")
    return 1 + -(-bits // flit_bits)


def csr_spans(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the ranges ``[starts[r], stops[r])``, as ``(r, index)``."""
    counts = stops - starts
    rows = np.repeat(np.arange(counts.size), counts)
    firsts = np.cumsum(counts) - counts
    return rows, np.arange(rows.size) + (starts - firsts)[rows]


def padded_rows(ptr: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """CSR rows as a matrix padded with -1 on the right.

    ``np.lexsort`` on its columns (first column most significant) orders
    non-negative rows as Python orders tuples: a prefix comes first.
    """
    fanout = np.diff(ptr)
    rows, at = csr_spans(ptr[:-1], ptr[1:])
    out = np.full((fanout.size, fanout.max(initial=0)), -1, dtype=np.int64)
    out[rows, at - ptr[rows]] = flat[at]
    return out


@dataclass(frozen=True, eq=False)
class MessageTable:
    """A message set as columns, one row per message.

    Row ``k`` is the message ``src[k] -> dests[dest_ptr[k]:dest_ptr[k + 1]]``
    of ``bits[k]`` payload bits, injected at ``inject[k]``, tagged
    ``tags[tag[k]]`` and reported as ``msg_id[k]``; the fields mean what
    :class:`Message`'s do.  Destinations keep the caller's order (the
    traffic model's rows are sorted).  The columns are validated once, on
    construction: one entry per row (``dest_ptr`` one more, running from 0
    to ``len(dests)``), tag codes that index ``tags``, :class:`Message`'s
    checks with its messages, and distinct message ids, since results
    report finish cycles by id.
    """

    src: np.ndarray
    dest_ptr: np.ndarray
    dests: np.ndarray
    bits: np.ndarray
    inject: np.ndarray
    tag: np.ndarray
    tags: tuple[str, ...]
    msg_id: np.ndarray

    def __post_init__(self) -> None:
        n = np.size(self.src)
        for name in ("src", "dest_ptr", "dests", "bits", "inject", "tag", "msg_id"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            want = {"dest_ptr": (n + 1,), "dests": (column.size,)}.get(name, (n,))
            if column.shape != want:
                raise ValueError(
                    f"column {name} has shape {column.shape}, want {want} for the "
                    f"{n} messages in src"
                )
            object.__setattr__(self, name, column)
        if self.dest_ptr[0] != 0 or self.dest_ptr[-1] != self.dests.size:
            raise ValueError(
                f"dest_ptr must run from 0 to len(dests) = {self.dests.size}, "
                f"got {self.dest_ptr[0]} .. {self.dest_ptr[-1]}"
            )
        bad = self.tag[(self.tag < 0) | (self.tag >= len(self.tags))]
        if bad.size:
            raise ValueError(f"tag code {bad[0]} is outside [0, {len(self.tags)})")
        if np.any(np.diff(self.dest_ptr) < 1):
            raise ValueError("message needs at least one destination")
        rows = np.repeat(np.arange(len(self)), np.diff(self.dest_ptr))
        order = np.lexsort((self.dests, rows))
        same = (np.diff(rows[order]) == 0) & (np.diff(self.dests[order]) == 0)
        if same.any():
            k = rows[order][1:][same][0]
            row = tuple(self.dests[self.dest_ptr[k]:self.dest_ptr[k + 1]].tolist())
            raise ValueError(f"duplicate destinations: {row}")
        if np.any(self.dests == self.src[rows]):
            raise ValueError("message destination equals its source")
        small = self.bits[self.bits < 1]
        if small.size:
            raise ValueError(f"message size must be positive, got {small[0]}")
        if np.any(self.inject < 0):
            raise ValueError("inject_cycle must be non-negative")
        ids = np.sort(self.msg_id)
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate message id {repeated[0]}")

    def __len__(self) -> int:
        return self.src.size

    def priority_order(self) -> np.ndarray:
        """Row indices in the order both NoC models serve the messages: by
        injection cycle, source, destinations as a tuple, then message id.

        Ids are distinct, so the order is total: permuting the rows does
        not change which message goes when.
        """
        padded = padded_rows(self.dest_ptr, self.dests)
        return np.lexsort((self.msg_id, *padded.T[::-1], self.src, self.inject))

    @classmethod
    def from_messages(cls, messages: list[Message]) -> MessageTable:
        tags = dict.fromkeys(m.tag for m in messages)
        code = {tag: k for k, tag in enumerate(tags)}
        return cls(
            src=[m.src for m in messages],
            dest_ptr=np.cumsum([0, *(len(m.dests) for m in messages)]),
            dests=[d for m in messages for d in m.dests],
            bits=[m.size_bits for m in messages],
            inject=[m.inject_cycle for m in messages],
            tag=[code[m.tag] for m in messages],
            tags=tuple(code),
            msg_id=[m.msg_id for m in messages],
        )

    def to_messages(self) -> list[Message]:
        dests, tags, ptr = self.dests.tolist(), self.tags, self.dest_ptr
        columns = (self.src, ptr[:-1], ptr[1:], self.bits, self.inject, self.tag)
        return [
            Message(src, tuple(dests[lo:hi]), bits, inject, tags[tag], msg_id)
            for src, lo, hi, bits, inject, tag, msg_id in zip(
                *(c.tolist() for c in (*columns, self.msg_id))
            )
        ]
