"""Discrete-event simulation kernel (SimPy-like, self-contained).

Public surface::

    env = Environment()
    env.process(my_generator())
    env.run(until=100.0)
"""

from .core import (
    Environment,
    Event,
    Interrupt,
    Process,
    StopSimulation,
    Timeout,
    NORMAL,
    URGENT,
)

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL",
    "Process",
    "StopSimulation",
    "Timeout",
    "URGENT",
]
