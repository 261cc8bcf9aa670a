"""Register-level MSHR models: Figures 1-3 as executable hardware.

The policy engine (:mod:`repro.core.policies` +
:mod:`repro.core.handler`) captures each organization's *restrictions*
abstractly, which is all the timing study needs.  This module models
the organizations at the register level the paper draws them at: the
actual fields (valid bits, block request address, destination and
format fields), how a probe searches them, and what allocation and
fill do to them.  It exists for three reasons:

* it makes Section 2 executable and testable (the field arithmetic in
  :mod:`repro.core.cost` is derived from exactly these structures);
* it documents precisely which field runs out in each structural-stall
  case the timing model charges for;
* unit tests cross-check it against the policy engine: for any access
  sequence, a file of register-level MSHRs accepts a miss exactly when
  the corresponding abstract policy does.

Addresses handed to these models are byte addresses; widths matter
only through the sub-block a miss lands in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.cost import (
    MSHRCost,
    explicit_mshr_cost,
    hybrid_mshr_cost,
    implicit_mshr_cost,
    inverted_mshr_cost,
)
from repro.core.policies import FieldLayout, MSHRPolicy, UNLIMITED_LAYOUT
from repro.errors import ConfigurationError, SimulationError


@dataclass
class DestinationField:
    """One destination record: valid + destination + format (+ offset).

    Implicit organizations imply the offset from the field's position;
    explicit organizations store it (``offset`` is kept in both cases
    for introspection).
    """

    valid: bool = False
    destination: Optional[int] = None
    offset: Optional[int] = None


class RegisterMSHR:
    """One MSHR: a block request address plus destination fields.

    ``layout`` gives the field organization: ``n_subblocks`` groups of
    ``misses_per_subblock`` fields each (Figure 1 when the group size
    is 1, Figure 2 when there is a single group, hybrids otherwise).
    """

    def __init__(self, line_size: int, layout: FieldLayout) -> None:
        if layout.unlimited:
            raise ConfigurationError(
                "a register-level MSHR needs a finite field layout"
            )
        self.line_size = line_size
        self.layout = layout
        self.block_valid = False
        self.block_address: Optional[int] = None
        per = layout.misses_per_subblock
        assert per is not None
        self.fields: List[List[DestinationField]] = [
            [DestinationField() for _ in range(per)]
            for _ in range(layout.n_subblocks)
        ]
        self._sub_size = line_size // layout.n_subblocks

    # -- the comparator -------------------------------------------------------

    def matches(self, block: int) -> bool:
        """The per-MSHR comparator of Figures 1-2."""
        return self.block_valid and self.block_address == block

    # -- field management ------------------------------------------------------

    def _subblock_of(self, offset: int) -> int:
        if not 0 <= offset < self.line_size:
            raise SimulationError(f"offset {offset} outside the line")
        return offset // self._sub_size

    def free_field(self, offset: int) -> Optional[DestinationField]:
        """The field a miss at ``offset`` would take, if any is free."""
        for candidate in self.fields[self._subblock_of(offset)]:
            if not candidate.valid:
                return candidate
        return None

    def allocate(self, block: int, offset: int, destination: int) -> bool:
        """Record a miss; returns False on a structural field conflict.

        The first allocation claims the MSHR (sets the block request
        address); later ones must match the block.
        """
        if self.block_valid and self.block_address != block:
            raise SimulationError("allocate against a mismatched MSHR")
        slot = self.free_field(offset)
        if slot is None:
            return False
        if not self.block_valid:
            self.block_valid = True
            self.block_address = block
        slot.valid = True
        slot.destination = destination
        slot.offset = offset
        return True

    def fill(self) -> List[int]:
        """Complete the fetch: return waiting destinations, clear all."""
        destinations = [
            f.destination for group in self.fields for f in group
            if f.valid and f.destination is not None
        ]
        self.block_valid = False
        self.block_address = None
        for group in self.fields:
            for f in group:
                f.valid = False
                f.destination = None
                f.offset = None
        return destinations

    @property
    def busy(self) -> bool:
        return self.block_valid

    def occupancy(self) -> int:
        """Number of valid destination fields."""
        return sum(1 for g in self.fields for f in g if f.valid)


class MSHRFile:
    """A bank of register-level MSHRs searched associatively.

    ``probe`` + ``allocate`` implement the Section 2 flow: on a miss,
    every MSHR's comparator is checked; a match merges into that MSHR
    (if a field is free), otherwise a free MSHR is claimed.
    """

    def __init__(self, n_mshrs: int, line_size: int = 32,
                 layout: FieldLayout = FieldLayout(1, 4)) -> None:
        if n_mshrs < 1:
            raise ConfigurationError("an MSHR file needs at least one MSHR")
        self.line_size = line_size
        self.mshrs = [RegisterMSHR(line_size, layout) for _ in range(n_mshrs)]
        self._by_block: Dict[int, RegisterMSHR] = {}

    def probe(self, block: int) -> Optional[RegisterMSHR]:
        """Associative search: the MSHR holding ``block``, if any."""
        return self._by_block.get(block)

    def accepts(self, block: int, offset: int) -> bool:
        """Would a miss be accepted without a structural stall?"""
        matched = self.probe(block)
        if matched is not None:
            return matched.free_field(offset) is not None
        return any(not m.busy for m in self.mshrs)

    def allocate(self, block: int, offset: int, destination: int) -> bool:
        """Record a miss; False means a structural stall."""
        matched = self.probe(block)
        if matched is not None:
            return matched.allocate(block, offset, destination)
        for mshr in self.mshrs:
            if not mshr.busy:
                assert mshr.allocate(block, offset, destination)
                self._by_block[block] = mshr
                return True
        return False

    def fill(self, block: int) -> List[int]:
        """Complete ``block``'s fetch; returns the waiting destinations."""
        mshr = self._by_block.pop(block, None)
        if mshr is None:
            raise SimulationError(f"fill for block {block} with no MSHR")
        return mshr.fill()

    def outstanding_fetches(self) -> int:
        return sum(1 for m in self.mshrs if m.busy)

    def outstanding_misses(self) -> int:
        return sum(m.occupancy() for m in self.mshrs)

    def cost(self) -> MSHRCost:
        """Section 2 storage cost of this file."""
        layout = self.mshrs[0].layout
        if layout.n_subblocks == 1:
            return explicit_mshr_cost(
                self.line_size, layout.misses_per_subblock or 1,
                n_mshrs=len(self.mshrs),
            )
        if layout.misses_per_subblock == 1:
            return implicit_mshr_cost(
                self.line_size, self.line_size // layout.n_subblocks,
                n_mshrs=len(self.mshrs),
            )
        return hybrid_mshr_cost(
            self.line_size, layout.n_subblocks,
            layout.misses_per_subblock or 1, n_mshrs=len(self.mshrs),
        )

    def as_policy(self, name: Optional[str] = None) -> MSHRPolicy:
        """The abstract policy this file implements."""
        layout = self.mshrs[0].layout
        return MSHRPolicy(
            name=name or f"{len(self.mshrs)}x MSHR {layout.describe()}",
            max_fetches=len(self.mshrs),
            layout=layout,
        )


class InvertedMSHRFile:
    """The inverted organization of Figure 3: one entry per destination.

    Each entry carries (valid, block request address, format, address
    in block); a miss writes the entry for its destination; a fill
    probes all entries (the TLB-style comparators plus the match
    encoder) and returns the matching destinations.
    """

    def __init__(self, n_destinations: int = 70, line_size: int = 32) -> None:
        if n_destinations < 1:
            raise ConfigurationError("need at least one destination entry")
        self.line_size = line_size
        self.n_destinations = n_destinations
        self.valid = [False] * n_destinations
        self.block = [0] * n_destinations
        self.offset = [0] * n_destinations

    def accepts(self, destination: int) -> bool:
        """A miss is representable iff its destination entry exists and
        is free (a pending destination cannot wait on two fetches)."""
        return (0 <= destination < self.n_destinations
                and not self.valid[destination])

    def fetch_needed(self, block: int) -> bool:
        """True when no outstanding entry already covers ``block``."""
        return not any(
            v and b == block for v, b in zip(self.valid, self.block)
        )

    def allocate(self, block: int, offset: int, destination: int) -> bool:
        if not self.accepts(destination):
            return False
        self.valid[destination] = True
        self.block[destination] = block
        self.offset[destination] = offset
        return True

    def fill(self, block: int) -> List[int]:
        """Probe all entries (match encoder) and release the waiters."""
        waiters = []
        for dest in range(self.n_destinations):
            if self.valid[dest] and self.block[dest] == block:
                waiters.append(dest)
                self.valid[dest] = False
        return waiters

    def outstanding_misses(self) -> int:
        return sum(self.valid)

    def cost(self) -> MSHRCost:
        return inverted_mshr_cost(self.n_destinations, self.line_size)
