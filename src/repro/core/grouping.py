"""File grouping: pack many small compressed files into a few large ones.

Table II shows that effective WAN throughput collapses when the same
volume is split into many small files; compressing files makes them
small.  Ocelot therefore groups compressed files before transferring
(Fig. 11): each group file carries a binary header describing member
offsets/sizes, and a human-readable metadata text file accompanies the
groups so the receiver knows how to decompress and restore filenames.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..errors import GroupingError

__all__ = ["GroupMember", "GroupFile", "FileGrouper", "GroupingPlan"]

_MAGIC = b"OCGF"
_HEADER_STRUCT = struct.Struct("<4sI")


@dataclass(frozen=True)
class GroupMember:
    """One member file inside a group."""

    name: str
    offset: int
    size: int


@dataclass
class GroupFile:
    """A packed group: header + concatenated member payloads."""

    name: str
    members: List[GroupMember]
    payload: bytes

    @property
    def size_bytes(self) -> int:
        """Total serialised size of the group file."""
        return len(self.payload)


@dataclass
class GroupingPlan:
    """Description of how files were assigned to groups."""

    strategy: str
    group_sizes: List[int] = field(default_factory=list)
    member_names: Dict[str, List[str]] = field(default_factory=dict)

    def metadata_text(self) -> str:
        """The human-readable metadata file contents (Fig. 11)."""
        lines = [
            "# Ocelot grouped-transfer metadata",
            f"strategy: {self.strategy}",
            f"groups: {len(self.group_sizes)}",
            f"total_members: {sum(len(v) for v in self.member_names.values())}",
        ]
        for group_name in sorted(self.member_names):
            members = self.member_names[group_name]
            lines.append(f"[{group_name}] members={len(members)}")
            lines.extend(f"  {name}" for name in members)
        return "\n".join(lines) + "\n"


class FileGrouper:
    """Pack and unpack group files."""

    def pack(self, files: Sequence[Tuple[str, bytes]], group_name: str) -> GroupFile:
        """Pack ``(name, payload)`` pairs into one group file."""
        if not files:
            raise GroupingError("cannot pack an empty group")
        members: List[GroupMember] = []
        body = bytearray()
        for name, payload in files:
            members.append(GroupMember(name=name, offset=len(body), size=len(payload)))
            body.extend(payload)
        header = json.dumps(
            {
                "members": [
                    {"name": m.name, "offset": m.offset, "size": m.size} for m in members
                ]
            }
        ).encode("utf-8")
        blob = _HEADER_STRUCT.pack(_MAGIC, len(header)) + header + bytes(body)
        return GroupFile(name=group_name, members=members, payload=blob)

    def unpack(self, payload: bytes) -> List[Tuple[str, bytes]]:
        """Invert :meth:`pack`, returning the member ``(name, payload)`` pairs."""
        if len(payload) < _HEADER_STRUCT.size:
            raise GroupingError("group file too small to contain a header")
        magic, header_len = _HEADER_STRUCT.unpack_from(payload, 0)
        if magic != _MAGIC:
            raise GroupingError("not an Ocelot group file (bad magic)")
        header_start = _HEADER_STRUCT.size
        header_end = header_start + header_len
        if header_end > len(payload):
            raise GroupingError("truncated group file header")
        header = json.loads(payload[header_start:header_end].decode("utf-8"))
        body = payload[header_end:]
        out: List[Tuple[str, bytes]] = []
        for member in header.get("members", []):
            start = int(member["offset"])
            end = start + int(member["size"])
            if end > len(body):
                raise GroupingError(f"member {member['name']!r} extends past group payload")
            out.append((member["name"], bytes(body[start:end])))
        return out

    # ------------------------------------------------------------------ #
    # Grouping
    # ------------------------------------------------------------------ #
    def assign_by_world_size(
        self, files: Sequence[Tuple[str, int]], world_size: int
    ) -> List[List[str]]:
        """Group files by compression "world size" (cores per MPI job).

        Files compressed by the same wave of ranks finish at roughly the
        same time, so each wave's outputs form one group — the paper's
        strategy.
        """
        if world_size < 1:
            raise GroupingError("world size must be >= 1")
        names = [name for name, _ in files]
        return [names[i : i + world_size] for i in range(0, len(names), world_size)]

    def build_groups(
        self, files: Sequence[Tuple[str, bytes]], world_size: int, prefix: str = "group"
    ) -> Tuple[List[GroupFile], GroupingPlan]:
        """Assign files to groups of ``world_size`` and pack them."""
        assignment = self.assign_by_world_size(
            [(name, len(payload)) for name, payload in files], world_size
        )
        payload_by_name = dict(files)
        groups: List[GroupFile] = []
        plan = GroupingPlan(strategy=f"world_size={world_size}")
        for index, names in enumerate(assignment):
            group_name = f"{prefix}_{index:05d}.ocgrp"
            members = [(name, payload_by_name[name]) for name in names]
            group = self.pack(members, group_name)
            groups.append(group)
            plan.group_sizes.append(group.size_bytes)
            plan.member_names[group_name] = list(names)
        return groups, plan
