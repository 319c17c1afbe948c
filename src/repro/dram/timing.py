"""DRAM timing parameters.

All values are expressed in CPU cycles.  The baseline preset follows the
paper's Table 2: a 4 GHz processor with Micron DDR2-800 timing
(tCL = tRCD = tRP = 15 ns, burst transfer BL/2 = 10 ns per 64-byte line over
a 64-bit channel).  At 4 GHz one nanosecond is 4 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DramTiming", "ddr2_800", "CPU_FREQ_GHZ"]

CPU_FREQ_GHZ = 4.0


@dataclass(frozen=True)
class DramTiming:
    """Timing constraints of a DRAM device, in CPU cycles.

    Attributes
    ----------
    tCK:
        DRAM command clock period.  The controller issues at most one
        command per channel per tCK.
    tCL:
        Column (CAS) latency: read command to first data.
    tRCD:
        Activate to read/write delay.
    tRP:
        Precharge latency (closing a row).
    tRAS:
        Minimum time a row must stay open between activate and precharge.
    tWR:
        Write recovery time (last write data to precharge).
    tBUS:
        Data-bus occupancy of one 64-byte burst (BL/2 in DDR terms).
    overhead:
        Fixed controller/interconnect overhead added to every request's
        round-trip latency (request arrival to first command eligibility is
        folded into this constant).
    """

    tCK: int = 10
    tCL: int = 60
    tRCD: int = 60
    tRP: int = 60
    tRAS: int = 180
    tWR: int = 60
    tBUS: int = 40
    overhead: int = 60

    def __post_init__(self) -> None:
        for name in ("tCK", "tCL", "tRCD", "tRP", "tRAS", "tWR", "tBUS", "overhead"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.tCK == 0:
            raise ValueError("tCK must be positive")

    # -- derived uncontended access latencies -----------------------------
    @property
    def row_hit_latency(self) -> int:
        """Bank time for a row-buffer hit (CAS only)."""
        return self.tCL

    @property
    def row_closed_latency(self) -> int:
        """Bank time when no row is open (activate + CAS)."""
        return self.tRCD + self.tCL

    @property
    def row_conflict_latency(self) -> int:
        """Bank time when another row is open (precharge + activate + CAS)."""
        return self.tRP + self.tRCD + self.tCL

    def round_trip(self, kind: str) -> int:
        """Uncontended round-trip latency of a read, by row-buffer outcome.

        ``kind`` is one of ``"hit"``, ``"closed"``, ``"conflict"``.
        """
        bank = {
            "hit": self.row_hit_latency,
            "closed": self.row_closed_latency,
            "conflict": self.row_conflict_latency,
        }[kind]
        return self.overhead + bank + self.tBUS


def ddr2_800() -> DramTiming:
    """The paper's baseline DDR2-800 timing at 4 GHz CPU cycles."""
    return DramTiming()
