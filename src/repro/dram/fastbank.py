"""Flat-array DRAM timing kernel for the fast simulation backend.

:class:`FastDramState` holds the timing state of *every* bank and channel
of the memory system in flat parallel arrays — open row, busy-until,
activate time, write recovery, per-channel bus occupancy and command-slot
state — indexed by the global bank id ``kid = channel * num_banks + bank``.
The per-access :meth:`service` method implements exactly the command-layout
math of :meth:`Bank.service <repro.dram.bank.Bank.service>` +
:meth:`DataBus.reserve <repro.dram.bus.DataBus.reserve>`, but against array
slots instead of object attribute chains, which is what the fast
controller's fused issue path runs on.

The arrays are plain Python lists: at the paper's 8 banks/channel,
``lst[kid]`` is both flat and cheap.  They are the state of record while
a fast run is in flight; :meth:`sync_to` writes them back into the
:class:`~repro.dram.bank.Bank` / :class:`~repro.dram.bus.DataBus` objects
so reporting, diagnostics and the verify harness read the same end state
either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bank import AccessOutcome

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Channel
    from .timing import DramTiming

__all__ = ["FastDramState"]

# Mirrors Bank.__init__: "never activated" sentinel for the tRAS bound.
_NEVER_ACTIVATED = -(10**9)


class FastDramState:
    """All-bank/all-channel DRAM timing state in flat parallel arrays."""

    __slots__ = (
        "timing",
        "num_channels",
        "num_banks",
        # Timing scalars, lifted off the config object for the hot kernel.
        "_tRCD",
        "_tCL",
        "_tRP",
        "_tRAS",
        "_tWR",
        "_tBUS",
        # Per-bank arrays, indexed by kid = channel * num_banks + bank.
        "open_row",
        "busy_until",
        "activate_time",
        "write_recovery",
        "accesses",
        "row_hits",
        "row_conflicts",
        # Per-channel arrays.
        "bus_free",
        "bus_busy",
        "bus_transfers",
        "bus_wait",
        "last_command",
    )

    def __init__(
        self, timing: "DramTiming", num_channels: int, num_banks: int
    ) -> None:
        self.timing = timing
        self.num_channels = num_channels
        self.num_banks = num_banks
        self._tRCD = timing.tRCD
        self._tCL = timing.tCL
        self._tRP = timing.tRP
        self._tRAS = timing.tRAS
        self._tWR = timing.tWR
        self._tBUS = timing.tBUS
        n = num_channels * num_banks
        self.open_row: list[int | None] = [None] * n
        self.busy_until: list[int] = [0] * n
        self.activate_time: list[int] = [_NEVER_ACTIVATED] * n
        self.write_recovery: list[int] = [0] * n
        self.accesses: list[int] = [0] * n
        self.row_hits: list[int] = [0] * n
        self.row_conflicts: list[int] = [0] * n
        self.bus_free: list[int] = [0] * num_channels
        self.bus_busy: list[int] = [0] * num_channels
        self.bus_transfers: list[int] = [0] * num_channels
        self.bus_wait: list[int] = [0] * num_channels
        self.last_command: list[int] = [-timing.tCK] * num_channels

    # -- the per-access timing kernel --------------------------------------
    def service(
        self, kid: int, channel_id: int, row: int, is_write: bool, now: int
    ) -> AccessOutcome:
        """Service one request on bank ``kid``: bit-identical to
        ``Bank.service`` + ``DataBus.reserve`` against the arrays."""
        return AccessOutcome(*self.service_tuple(kid, channel_id, row, is_write, now))

    def service_tuple(
        self, kid: int, channel_id: int, row: int, is_write: bool, now: int
    ) -> tuple:
        """:meth:`service` returning the raw timeline tuple.

        The tuple field order is exactly ``AccessOutcome.as_tuple()`` —
        ``(start, data_start, completion, bank_free, row_result,
        precharge_at, activate_at, cas_at)`` — so the fast controller can
        consume timestamps as tuple indexes and construct the
        :class:`AccessOutcome` object only when something (guard, tracer,
        an outcome-reading scheduler, the command log) will read it.
        """
        busy_until = self.busy_until[kid]
        start = now if now >= busy_until else busy_until
        open_row = self.open_row[kid]

        cursor = start
        precharge_at: int | None = None
        activate_at: int | None = None
        if open_row is None:
            row_result = "closed"
            bound = self.write_recovery[kid]
            if bound > cursor:
                cursor = bound
            self.activate_time[kid] = cursor
            activate_at = cursor
            cursor += self._tRCD
        elif open_row == row:
            row_result = "hit"
            self.row_hits[kid] += 1
        else:
            row_result = "conflict"
            bound = self.activate_time[kid] + self._tRAS
            if bound > cursor:
                cursor = bound
            bound = self.write_recovery[kid]
            if bound > cursor:
                cursor = bound
            precharge_at = cursor
            cursor += self._tRP
            activate_at = cursor
            cursor += self._tRCD
            self.activate_time[kid] = activate_at
            self.row_conflicts[kid] += 1

        cas_at = cursor
        cas_done = cursor + self._tCL
        # Bus reservation (DataBus.reserve inlined).
        free_at = self.bus_free[channel_id]
        data_start = cas_done if cas_done >= free_at else free_at
        tbus = self._tBUS
        self.bus_free[channel_id] = data_start + tbus
        self.bus_busy[channel_id] += tbus
        self.bus_wait[channel_id] += data_start - cas_done
        self.bus_transfers[channel_id] += 1
        completion = data_start + tbus

        self.open_row[kid] = row
        self.busy_until[kid] = completion
        if is_write:
            self.write_recovery[kid] = completion + self._tWR
        self.accesses[kid] += 1

        return (
            start,
            data_start,
            completion,
            completion,
            row_result,
            precharge_at,
            activate_at,
            cas_at,
        )

    def try_command_slot(self, channel_id: int, now: int) -> int:
        """``Channel.try_command_slot`` against the flat command-slot array."""
        slot = self.last_command[channel_id] + self.timing.tCK
        if slot <= now:
            self.last_command[channel_id] = now
            return now
        return slot

    # -- verify / reporting interop ---------------------------------------
    def state_tuple(self, kid: int) -> tuple:
        """Bank ``kid``'s state, aligned with ``Bank.state_tuple``."""
        return (
            self.open_row[kid],
            self.busy_until[kid],
            self.activate_time[kid],
            self.write_recovery[kid],
            self.accesses[kid],
            self.row_hits[kid],
            self.row_conflicts[kid],
        )

    def bus_state_tuple(self, channel_id: int) -> tuple:
        """Channel ``channel_id``'s bus state, aligned with
        ``DataBus.state_tuple``."""
        return (
            self.bus_free[channel_id],
            self.bus_busy[channel_id],
            self.bus_transfers[channel_id],
            self.bus_wait[channel_id],
        )

    def sync_to(self, channels: "list[Channel]") -> None:
        """Write the array state back into the object model.

        Run at finalize (and before diagnostics) so every consumer of
        ``Bank`` / ``DataBus`` / ``Channel`` state — reporting, the stall
        report, the verify harness — sees exactly what the fast kernel
        computed.
        """
        num_banks = self.num_banks
        for channel_id, channel in enumerate(channels):
            base = channel_id * num_banks
            for bank_id, bank in enumerate(channel.banks):
                kid = base + bank_id
                bank.open_row = self.open_row[kid]
                bank.busy_until = self.busy_until[kid]
                bank._activate_time = self.activate_time[kid]
                bank._write_recovery_until = self.write_recovery[kid]
                bank.accesses = self.accesses[kid]
                bank.row_hits = self.row_hits[kid]
                bank.row_conflicts = self.row_conflicts[kid]
            bus = channel.bus
            bus.free_at = self.bus_free[channel_id]
            bus.busy_cycles = self.bus_busy[channel_id]
            bus.transfers = self.bus_transfers[channel_id]
            bus.wait_cycles = self.bus_wait[channel_id]
            channel._last_command = self.last_command[channel_id]
