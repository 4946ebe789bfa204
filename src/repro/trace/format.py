"""Trace file format: versioned, fingerprinted, columnar kernel traces.

A :class:`TraceProgram` is the on-disk unit of the trace store
(see ``docs/trace_driven.md``).  It captures everything the timing model
needs to replay a workload without functional execution:

* a **header** carrying a magic string, the trace-format version, and the
  *functional config fingerprint*
  (:meth:`repro.config.GPUConfig.functional_fingerprint`) that recorded it —
  both are checked on load so stale or foreign traces are refused instead of
  silently replayed;
* one :class:`LaunchTrace` per kernel launch, embedding the full static
  kernel (so replay never needs to rebuild workload inputs), the launch
  geometry, a kernel fingerprint, and each warp's dynamic stream.

A warp's stream is a :class:`WarpStream`: three flat typed columns, no
Python object per record.  ``pcs`` and ``masks`` hold one entry per issued
instruction; ``aux`` is a side stream consumed in issue order by the
records that carry a payload::

    conditional branch    taken_mask
    LD / ST               mem_mask, n_lines, line_0 .. line_{n-1}
                          (n_lines = NO_LINES, i.e. -1, when the access has
                          no lines: shared space or fully predicated off)

Which records carry what is recovered from the static instruction at
``pc`` (:func:`classify_aux`), so no per-record tag is stored.

On disk (format v2) a trace is three sections, written atomically::

    header    one line of JSON: magic, version, fingerprints, kernels,
              geometry, the per-warp (records, aux) length table and the
              byte length of each column section
    columns   three zlib sections — every warp's pcs, then every warp's
              masks, then every warp's aux — little-endian, warps in
              length-table order
    crc       4 bytes, big-endian CRC-32 of everything before it

The header is readable without inflating a column (:func:`read_info`).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import TraceFormatError, TraceMismatchError
from ..fslock import atomic_write_bytes
from ..isa.instructions import CmpOp, Instruction, IssueKind, MemSpace, Opcode, Special
from ..isa.kernel import Kernel
from ..simt.warp import NO_LINES  # the timed warp's: it reads the aux column

#: File magic; anything else is not a repro trace.
TRACE_MAGIC = "repro-trace"
#: Bump on any incompatible change to the column or header layout.
TRACE_FORMAT_VERSION = 2

#: What a static instruction's records carry in the aux stream.
AUX_NONE, AUX_BRANCH, AUX_MEM = 0, 1, 2

#: The columns of a :class:`WarpStream`, in file-section order:
#: ``(attribute, array typecode, index of its length in a length-table row)``.
_COLUMNS = (("pcs", "I", 2), ("masks", "Q", 2), ("aux", "Q", 3))

#: One record as :meth:`WarpStream.records` yields it: ``(pc, active_mask,
#: payload)`` with payload ``None``, a branch's taken mask, or a memory
#: access's ``(mem_mask, lines | None)``.
Record = Tuple[int, int, Union[None, int, Tuple[int, Optional[List[int]]]]]


# ----------------------------------------------------------------------
# Kernel (static instruction stream) serialization
# ----------------------------------------------------------------------
def instruction_to_dict(inst: Instruction) -> Dict:
    """Plain-data form of one static instruction."""
    return {
        "op": inst.op.value,
        "dst": inst.dst,
        "srcs": list(inst.srcs),
        "imm": inst.imm,
        "pred": inst.pred,
        "pred_neg": inst.pred_neg,
        "cmp": inst.cmp.value if inst.cmp is not None else None,
        "space": inst.space.value,
        "special": inst.special.value if inst.special is not None else None,
        "pc": inst.pc,
        "target_pc": inst.target_pc,
        "reconv_pc": inst.reconv_pc,
    }


def instruction_from_dict(data: Dict) -> Instruction:
    """Rebuild a static instruction from :func:`instruction_to_dict` form."""
    return Instruction(
        op=Opcode(data["op"]),
        dst=data["dst"],
        srcs=tuple(data["srcs"]),
        imm=data["imm"],
        pred=data["pred"],
        pred_neg=data["pred_neg"],
        cmp=CmpOp(data["cmp"]) if data["cmp"] is not None else None,
        space=MemSpace(data["space"]),
        special=Special(data["special"]) if data["special"] is not None else None,
        pc=data["pc"],
        target_pc=data["target_pc"],
        reconv_pc=data["reconv_pc"],
    )


#: Column order of an instruction row in a stored kernel: the keys of
#: :func:`instruction_to_dict`, written once here instead of once per
#: instruction (the kernel is most of a small trace's header).
_INSTRUCTION_FIELDS = tuple(instruction_to_dict(Instruction(Opcode.NOP)))


def kernel_to_dict(kernel: Kernel) -> Dict:
    return {
        "name": kernel.name,
        "num_regs": kernel.num_regs,
        "num_preds": kernel.num_preds,
        "shared_mem_bytes": kernel.shared_mem_bytes,
        "labels": dict(kernel.labels),
        "instructions": [
            list(instruction_to_dict(i).values()) for i in kernel.instructions
        ],
    }


def kernel_from_dict(data: Dict) -> Kernel:
    return Kernel(
        name=data["name"],
        instructions=[
            instruction_from_dict(dict(zip(_INSTRUCTION_FIELDS, row)))
            for row in data["instructions"]
        ],
        labels=dict(data["labels"]),
        num_regs=data["num_regs"],
        num_preds=data["num_preds"],
        shared_mem_bytes=data["shared_mem_bytes"],
    )


def kernel_fingerprint(kernel: Kernel) -> str:
    """Stable short hash of a kernel's static structure.

    Embedded in each :class:`LaunchTrace` and re-checked at replay launch
    time, so a workload change that alters the generated kernel (different
    base addresses, loop bounds, ...) refuses to replay a stale trace.
    """
    payload = {
        "name": kernel.name,
        "num_regs": kernel.num_regs,
        "num_preds": kernel.num_preds,
        "shared_mem_bytes": kernel.shared_mem_bytes,
        "instructions": [instruction_to_dict(i) for i in kernel.instructions],
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def classify_aux(kernel: Kernel) -> List[int]:
    """Per-PC aux classification: which records carry which payload."""
    kinds = []
    for inst in kernel.instructions:
        kind = inst.decoded.kind
        if kind == IssueKind.LOAD or kind == IssueKind.STORE:
            kinds.append(AUX_MEM)
        elif kind == IssueKind.BRANCH and inst.pred is not None:
            kinds.append(AUX_BRANCH)
        else:
            kinds.append(AUX_NONE)
    return kinds


# ----------------------------------------------------------------------
# Trace containers
# ----------------------------------------------------------------------
class WarpStream:
    """One warp's dynamic stream as three flat typed columns.

    The recorder's functional pass appends to the columns a few thousand
    records at a time; afterwards they are read-only, so one loaded
    :class:`TraceProgram` can feed many
    concurrent replays (each materialises its own cursor, see
    :class:`repro.trace.replay.TraceStack`) and derived sampled programs
    share streams zero-copy.
    """

    __slots__ = ("pcs", "masks", "aux")

    def __init__(
        self,
        pcs: Optional["array[int]"] = None,
        masks: Optional["array[int]"] = None,
        aux: Optional["array[int]"] = None,
    ) -> None:
        self.pcs = array("I") if pcs is None else pcs
        self.masks = array("Q") if masks is None else masks
        self.aux = array("Q") if aux is None else aux

    def __len__(self) -> int:
        return len(self.pcs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WarpStream):
            return NotImplemented
        return (self.pcs, self.masks, self.aux) == (other.pcs, other.masks, other.aux)

    def append_memory(self, mem_mask: int, lines: Optional[List[int]]) -> None:
        """Append one LD/ST record's aux payload (hand-built streams)."""
        aux = self.aux
        aux.append(mem_mask)
        if lines is None:
            aux.append(NO_LINES)
        else:
            aux.append(len(lines))
            aux.extend(lines)

    def threads(self) -> int:
        """Thread instructions: the summed popcount of the active masks."""
        return int.from_bytes(self.masks.tobytes(), "little").bit_count()

    def records(self, kinds: Sequence[int]) -> Iterator[Record]:
        """The stream record by record, payloads attached (``kinds`` is the
        kernel's :func:`classify_aux` table)."""
        aux = self.aux
        pos = 0
        for pc, mask in zip(self.pcs, self.masks):
            kind = kinds[pc]
            if kind == AUX_NONE:
                yield pc, mask, None
            elif kind == AUX_BRANCH:
                yield pc, mask, aux[pos]
                pos += 1
            else:
                count = aux[pos + 1]
                if count == NO_LINES:
                    yield pc, mask, (aux[pos], None)
                    pos += 2
                else:
                    yield pc, mask, (aux[pos], aux[pos + 2:pos + 2 + count].tolist())
                    pos += 2 + count


@dataclass
class LaunchTrace:
    """Recorded dynamic streams for one kernel launch.

    ``warps`` maps ``(block_id, warp_id_in_block)`` to that warp's
    :class:`WarpStream`.
    """

    kernel: Kernel
    grid_dim: int
    block_dim: int
    kernel_fp: str = ""
    warps: Dict[Tuple[int, int], WarpStream] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kernel_fp:
            self.kernel_fp = kernel_fingerprint(self.kernel)

    @property
    def record_count(self) -> int:
        return sum(len(s) for s in self.warps.values())

    @cached_property
    def aux_kinds(self) -> List[int]:
        """The kernel's :func:`classify_aux` table (built once)."""
        return classify_aux(self.kernel)

    def stream_for(self, block_id: int, warp_id_in_block: int) -> WarpStream:
        try:
            return self.warps[(block_id, warp_id_in_block)]
        except KeyError:
            raise TraceMismatchError(
                f"trace for kernel {self.kernel.name!r} has no stream for "
                f"warp (block={block_id}, warp={warp_id_in_block}); launch "
                "geometry differs from the recording"
            ) from None

    def records(self) -> Iterator[Tuple[int, int, Record]]:
        """``(block, warp, record)`` over every stream, in ``(block, warp)``
        order — the canonical reading of what the launch stores."""
        kinds = self.aux_kinds
        for (block_id, warp_id), stream in sorted(self.warps.items()):
            for record in stream.records(kinds):
                yield block_id, warp_id, record


def _trace_id(
    functional_fp: str, workload: str, scale: float,
    kernel_fps: List[str], record_counts: List[int],
) -> str:
    payload = json.dumps(
        {
            "fp": functional_fp,
            "workload": workload,
            "scale": scale,
            "kernels": kernel_fps,
            "records": record_counts,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class TraceInfo:
    """A stored trace's header: what ``repro trace info`` lists."""

    workload: str
    scale: float
    trace_id: str
    launches: int
    record_count: int
    meta: Dict


@dataclass
class TraceProgram:
    """A complete recorded run: header + ordered launch traces."""

    functional_fingerprint: str
    workload: str = ""
    scale: float = 1.0
    warp_size: int = 32
    line_size: int = 128
    #: Free-form provenance (requesting scheme, simulator version, whether
    #: the functional pass's results were verified, its step count, ...).
    meta: Dict = field(default_factory=dict)
    launches: List[LaunchTrace] = field(default_factory=list)
    #: Wall time of the functional pass that made this program, in the
    #: process that made it (0.0 for a loaded one).  Not stored.
    record_s: float = field(default=0.0, compare=False)

    @property
    def trace_id(self) -> str:
        """Short content id for provenance stamping of replayed results."""
        return _trace_id(
            self.functional_fingerprint, self.workload, self.scale,
            [lt.kernel_fp for lt in self.launches],
            [lt.record_count for lt in self.launches],
        )

    @property
    def record_count(self) -> int:
        return sum(lt.record_count for lt in self.launches)

    @property
    def warp_count(self) -> int:
        return sum(len(lt.warps) for lt in self.launches)

    def validate(self, expected_functional_fp: str) -> None:
        """Refuse a trace recorded under a different functional config."""
        if self.functional_fingerprint != expected_functional_fp:
            raise TraceMismatchError(
                "trace was recorded under functional fingerprint "
                f"{self.functional_fingerprint} but the current configuration "
                f"fingerprints to {expected_functional_fp} (warp size or L1 "
                "line size changed); re-record with `repro trace record`"
            )

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        launches = []
        streams = []
        for launch in self.launches:
            table = []
            for (block_id, warp_id), stream in sorted(launch.warps.items()):
                table.append([block_id, warp_id, len(stream.pcs), len(stream.aux)])
                streams.append(stream)
            launches.append({
                "kernel": kernel_to_dict(launch.kernel),
                "grid_dim": launch.grid_dim,
                "block_dim": launch.block_dim,
                "kernel_fp": launch.kernel_fp,
                "warps": table,
            })
        sections = []
        for name, _typecode, _length_at in _COLUMNS:
            # Fed column by column: no joined copy of a whole section.
            packer = zlib.compressobj(level=6)
            parts = [packer.compress(_little_endian(getattr(s, name)))
                     for s in streams]
            sections.append(b"".join(parts) + packer.flush())
        header = {
            "magic": TRACE_MAGIC,
            "format_version": TRACE_FORMAT_VERSION,
            "functional_fingerprint": self.functional_fingerprint,
            "workload": self.workload,
            "scale": self.scale,
            "warp_size": self.warp_size,
            "line_size": self.line_size,
            "meta": self.meta,
            "launches": launches,
            "sections": [len(section) for section in sections],
        }
        body = (json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
                + b"".join(sections))
        return body + zlib.crc32(body).to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TraceProgram":
        header, packed = _split(blob)
        try:
            tables = [entry["warps"] for entry in header["launches"]]
            for table in tables:
                for block_id, warp_id, records, aux_len in table:
                    if records <= 0 or aux_len < 0:
                        raise TraceFormatError(
                            f"empty record stream for warp ({block_id}, {warp_id})"
                        )
            # One section at a time: a decode never holds more than one
            # column inflated beside the arrays it has already built.
            sections = []
            offset = 0
            for (_name, typecode, length_at), size in zip(_COLUMNS, header["sections"]):
                sections.append(_unpack_section(
                    packed[offset:offset + size], typecode,
                    [row[length_at] for table in tables for row in table],
                ))
                offset += size
            columns = zip(*sections)  # (pcs, masks, aux) per warp, table order
            launches = [
                LaunchTrace(
                    kernel=kernel_from_dict(entry["kernel"]),
                    grid_dim=entry["grid_dim"],
                    block_dim=entry["block_dim"],
                    kernel_fp=entry["kernel_fp"],
                    warps={
                        (int(row[0]), int(row[1])): WarpStream(*next(columns))
                        for row in entry["warps"]
                    },
                )
                for entry in header["launches"]
            ]
            return cls(
                functional_fingerprint=header["functional_fingerprint"],
                workload=header.get("workload", ""),
                scale=header.get("scale", 1.0),
                warp_size=header.get("warp_size", 32),
                line_size=header.get("line_size", 128),
                meta=dict(header.get("meta", {})),
                launches=launches,
            )
        except TraceFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace header: {exc!r}") from exc

    def save(self, path: os.PathLike) -> None:
        """Atomically write this trace to ``path`` (temp file + rename)."""
        atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load(
        cls, path: os.PathLike, expected_functional_fp: Optional[str] = None
    ) -> "TraceProgram":
        """Read, version-check, and (optionally) fingerprint-check a trace.

        Raises :class:`~repro.errors.TraceFormatError` for corrupt or
        incompatible files and :class:`~repro.errors.TraceMismatchError`
        when ``expected_functional_fp`` is given and does not match.
        """
        with open(path, "rb") as handle:
            program = cls.from_bytes(handle.read())
        if expected_functional_fp is not None:
            program.validate(expected_functional_fp)
        return program


def read_info(path: os.PathLike) -> TraceInfo:
    """A stored trace's header, checked but without inflating a column."""
    with open(path, "rb") as handle:
        header, _ = _split(handle.read())
    try:
        launches = header["launches"]
        counts = [sum(entry[2] for entry in lt["warps"]) for lt in launches]
        return TraceInfo(
            workload=header.get("workload", ""),
            scale=header.get("scale", 1.0),
            trace_id=_trace_id(
                header["functional_fingerprint"], header.get("workload", ""),
                header.get("scale", 1.0),
                [lt["kernel_fp"] for lt in launches], counts,
            ),
            launches=len(launches),
            record_count=sum(counts),
            meta=dict(header.get("meta", {})),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise TraceFormatError(f"malformed trace header: {exc!r}") from exc


def _unpack_section(
    packed: bytes, typecode: str, counts: List[int]
) -> List["array[int]"]:
    """Inflate one column section and cut it into per-warp arrays."""
    itemsize = array(typecode).itemsize
    expected = sum(counts) * itemsize
    try:
        raw = memoryview(zlib.decompress(packed, bufsize=max(expected, 1)))
    except zlib.error as exc:
        raise TraceFormatError(f"trace columns are not zlib data: {exc}") from exc
    if len(raw) != expected:
        raise TraceFormatError(
            "trace columns do not hold what the length table says"
        )
    columns = []
    offset = 0
    for count in counts:
        column = array(typecode)
        column.frombytes(raw[offset:offset + count * itemsize])
        if sys.byteorder != "little":
            column.byteswap()
        columns.append(column)
        offset += count * itemsize
    return columns


def _little_endian(column: "array[int]") -> "array[int]":
    """``column`` as the file stores it: itself, or a swapped copy on a
    big-endian host."""
    if sys.byteorder != "little":
        column = array(column.typecode, column)
        column.byteswap()
    return column


def _split(blob: bytes) -> Tuple[Dict, bytes]:
    """Check the three sections of a v2 file; ``(header, packed columns)``.

    Magic and version are judged before the checksum, so a foreign file, a
    v1 trace (which was one zlib stream) or a later layout is named as
    such instead of failing a checksum it never carried.
    """
    if not blob.startswith(f'{{"magic":"{TRACE_MAGIC}"'.encode("utf-8")):
        raise TraceFormatError(
            "missing trace magic; not a repro trace file (or one written "
            "before trace format v2: re-record it)"
        )
    end = blob.find(b"\n")
    if end < 0:
        raise TraceFormatError("trace file is truncated inside its header")
    try:
        header = json.loads(blob[:end].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise TraceFormatError(f"trace header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != TRACE_MAGIC:
        raise TraceFormatError("missing trace magic; not a repro trace file")
    version = header.get("format_version")
    if version != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"trace format version {version} is not supported (this build "
            f"reads version {TRACE_FORMAT_VERSION}); re-record the trace"
        )
    if (len(blob) < end + 1 + 4
            or zlib.crc32(blob[:-4]) != int.from_bytes(blob[-4:], "big")):
        raise TraceFormatError(
            "trace checksum mismatch; the file is truncated or corrupt"
        )
    packed = blob[end + 1:-4]
    sections = header.get("sections")
    if (not isinstance(sections, list) or len(sections) != len(_COLUMNS)
            or not all(isinstance(size, int) and size >= 0 for size in sections)
            or sum(sections) != len(packed)):
        raise TraceFormatError("trace column sections do not fill the file")
    return header, packed
