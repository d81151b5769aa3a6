"""Discrete-event simulation engine used by the network models.

Every network model schedules its work on
:class:`~repro.sim.calendar.CalendarSimulator`: per-cycle FIFO buckets
with a heap of distinct times, so a flit simulation, which lands whole
groups of callbacks on the same cycle, does one heap operation per *time*
instead of per event.  Its base class :class:`~repro.sim.engine.Simulator`
is a plain binary-heap queue keyed by (time, sequence number) with the
same execution contract; tests use it as the ordering oracle, and
``Network(config, sim=...)`` accepts either.

Everything in the network model (link traversal, credit returns, NIC
injection) is expressed as scheduled callbacks, which keeps the per-event
overhead low — important because a single large-message experiment
schedules hundreds of thousands of events.
"""

from repro.sim.calendar import CalendarSimulator
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "Event",
    "Simulator",
    "CalendarSimulator",
    "RandomStreams",
]
