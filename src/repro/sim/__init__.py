"""Discrete-event simulation kernel (SimPy-like, self-contained).

Public surface::

    env = Environment()
    env.process(my_generator())
    env.run(until=100.0)
"""

from .core import (
    AllOf,
    AnyOf,
    ConditionValue,
    Environment,
    Event,
    Interrupt,
    Process,
    StopSimulation,
    Timeout,
    NORMAL,
    URGENT,
)
from .resources import Container, PriorityRequest, Release, Request, Resource
from .store import Store, StoreGet, StorePut
from .rng import RngRegistry, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL",
    "PriorityRequest",
    "Process",
    "Release",
    "Request",
    "Resource",
    "RngRegistry",
    "StopSimulation",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
    "URGENT",
    "derive_seed",
]
