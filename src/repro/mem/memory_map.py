"""Physical memory map with hot-plug / hot-remove regions.

Figure 10 of the paper shows the mechanism Venice uses for direct
remote memory access: a donor hot-removes a region (making it invisible
to its own OS), the recipient hot-plugs a new region at the top of its
physical address space, and the Venice hardware routes accesses to that
region over the CRMA channel.  :class:`PhysicalMemoryMap` implements the
address-range bookkeeping for both sides of that flow.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional


class MemoryMapError(RuntimeError):
    """Raised on invalid hot-plug/hot-remove/lookup operations."""


class RegionKind(enum.Enum):
    """Classification of a physical address range."""

    LOCAL = "local"               #: backed by local DRAM, visible to the OS
    REMOVED = "removed"           #: hot-removed (donated), invisible to the OS
    REMOTE_MAPPED = "remote"      #: hot-plugged, backed by a remote donor via CRMA
    SWAP_BACKED = "swap"          #: overflow area backed by the swap subsystem


@dataclass
class MemoryRegion:
    """A contiguous physical address range with uniform backing."""

    start: int
    size: int
    kind: RegionKind
    #: Donor node id for REMOTE_MAPPED regions / recipient for REMOVED.
    peer_node: Optional[int] = None
    #: Base address of the corresponding region on the peer node.
    peer_base: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region size must be positive, got {self.size}")
        if self.start < 0:
            raise ValueError(f"region start must be non-negative, got {self.start}")

    @property
    def end(self) -> int:
        """One past the last address of the region."""
        return self.start + self.size

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.start < other.end and other.start < self.end


class PhysicalMemoryMap:
    """Per-node physical address-space bookkeeping.

    ``version`` counts the mutations made through :meth:`hot_remove`,
    :meth:`hot_add_back`, :meth:`hot_plug_remote` and :meth:`hot_unplug`.
    The derived queries (visible capacity, highest address, the region
    table behind :meth:`lookup`) are recomputed only when it changes, so
    callers on the per-access path may cache anything derived from the
    map under the version they saw.  Regions must be changed through
    those four methods; editing a :class:`MemoryRegion` in place is not
    tracked.
    """

    def __init__(self, local_capacity: int, node_id: int = 0):
        if local_capacity <= 0:
            raise ValueError("local capacity must be positive")
        self.node_id = node_id
        self._regions: List[MemoryRegion] = [
            MemoryRegion(start=0, size=local_capacity, kind=RegionKind.LOCAL,
                         label="boot-local")
        ]
        self.version = 0
        self._derived_version = -1
        self._visible = 0
        self._highest = 0
        # Elementary address intervals: ``_bounds[i]`` starts the interval
        # whose lookup result is ``_owners[i]`` (None when unmapped).
        self._bounds: List[int] = []
        self._owners: List[Optional[MemoryRegion]] = []

    def _derive(self) -> None:
        """Recompute the cached queries for the current version."""
        regions = self._regions
        self._visible = sum(
            region.size for region in regions
            if region.kind in (RegionKind.LOCAL, RegionKind.REMOTE_MAPPED)
        )
        self._highest = max(region.end for region in regions)
        bounds = sorted({edge for region in regions
                         for edge in (region.start, region.end)})
        # Each interval resolves to the first matching region in list
        # order, exactly as a linear scan of the region list would.
        owners = [
            next((region for region in regions
                  if region.contains(start) and region.kind != RegionKind.REMOVED),
                 None)
            for start in bounds
        ]
        self._bounds, self._owners = bounds, owners
        self._derived_version = self.version

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def regions(self) -> List[MemoryRegion]:
        return list(self._regions)

    def lookup(self, address: int) -> MemoryRegion:
        """Region containing ``address`` (REMOVED regions do not match)."""
        if self._derived_version != self.version:
            self._derive()
        index = bisect_right(self._bounds, address) - 1
        region = self._owners[index] if index >= 0 else None
        if region is None:
            raise MemoryMapError(
                f"address {address:#x} is not mapped on node {self.node_id}")
        return region

    def visible_capacity(self) -> int:
        """Bytes visible to the OS (local + hot-plugged remote)."""
        if self._derived_version != self.version:
            self._derive()
        return self._visible

    def local_capacity(self) -> int:
        return sum(region.size for region in self._regions
                   if region.kind == RegionKind.LOCAL)

    def remote_capacity(self) -> int:
        return sum(region.size for region in self._regions
                   if region.kind == RegionKind.REMOTE_MAPPED)

    def donated_capacity(self) -> int:
        return sum(region.size for region in self._regions
                   if region.kind == RegionKind.REMOVED)

    def highest_address(self) -> int:
        if self._derived_version != self.version:
            self._derive()
        return self._highest

    def is_remote(self, address: int) -> bool:
        """True when ``address`` falls in a hot-plugged remote region."""
        try:
            return self.lookup(address).kind == RegionKind.REMOTE_MAPPED
        except MemoryMapError:
            return False

    # ------------------------------------------------------------------
    # Hot-remove (donor side)
    # ------------------------------------------------------------------
    def hot_remove(self, size: int, recipient_node: int) -> MemoryRegion:
        """Carve ``size`` bytes from the top of local memory for donation.

        The removed range stays at its original physical address on the
        donor (the Venice interface services remote requests to it) but
        becomes invisible to the donor's own software.
        """
        if size <= 0:
            raise MemoryMapError(f"hot-remove size must be positive, got {size}")
        for region in reversed(self._regions):
            if region.kind == RegionKind.LOCAL and region.size >= size:
                # Split: keep the low part local, donate the high part.
                donated = MemoryRegion(
                    start=region.end - size, size=size, kind=RegionKind.REMOVED,
                    peer_node=recipient_node,
                    label=f"donated-to-{recipient_node}",
                )
                region.size -= size
                if region.size == 0:
                    self._regions.remove(region)
                self._regions.append(donated)
                self.version += 1
                return donated
        raise MemoryMapError(
            f"node {self.node_id} cannot hot-remove {size} bytes: insufficient local memory"
        )

    def hot_add_back(self, region: MemoryRegion) -> None:
        """Return a previously donated region to local use (un-share)."""
        if region not in self._regions or region.kind != RegionKind.REMOVED:
            raise MemoryMapError("region is not a donated region of this node")
        region.kind = RegionKind.LOCAL
        region.peer_node = None
        region.label = "reclaimed"
        self.version += 1

    # ------------------------------------------------------------------
    # Hot-plug (recipient side)
    # ------------------------------------------------------------------
    def hot_plug_remote(self, size: int, donor_node: int, donor_base: int,
                        label: str = "") -> MemoryRegion:
        """Map a remote region at the top of this node's address space."""
        if size <= 0:
            raise MemoryMapError(f"hot-plug size must be positive, got {size}")
        start = self.highest_address()
        region = MemoryRegion(
            start=start, size=size, kind=RegionKind.REMOTE_MAPPED,
            peer_node=donor_node, peer_base=donor_base,
            label=label or f"borrowed-from-{donor_node}",
        )
        self._regions.append(region)
        self.version += 1
        return region

    def hot_unplug(self, region: MemoryRegion) -> None:
        """Remove a hot-plugged remote region (stop-sharing cleanup)."""
        if region not in self._regions or region.kind != RegionKind.REMOTE_MAPPED:
            raise MemoryMapError("region is not a hot-plugged remote region of this node")
        self._regions.remove(region)
        self.version += 1

    def translate_to_donor(self, address: int) -> tuple:
        """Translate a local remote-mapped address to ``(donor, donor_addr)``."""
        region = self.lookup(address)
        if region.kind != RegionKind.REMOTE_MAPPED:
            raise MemoryMapError(f"address {address:#x} is not remote-mapped")
        offset = address - region.start
        return region.peer_node, region.peer_base + offset
