"""Simulated hosts (virtual machines) of the private cloud."""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Environment
from .cpu import CpuScheduler
from .network import Network

__all__ = ["HostSpec", "Host"]

GIB = 1024 ** 3


@dataclass(frozen=True)
class HostSpec:
    """Hardware profile of a host.

    Defaults mirror the paper's testbed: two quad-core Xeon E5405 (8 cores),
    8 GB RAM, 1 Gbps NIC.
    """

    cores: int = 8
    memory_bytes: int = 8 * GIB

    def __post_init__(self):
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory must be positive")


class Host:
    """A provisioned host: CPU scheduler + NIC.

    ``spec.memory_bytes`` is the capacity the elasticity enforcer packs
    slices into, by their probed ``state_bytes``.
    """

    def __init__(self, env: Environment, host_id: str, spec: HostSpec, network: Network):
        self.env = env
        self.host_id = host_id
        self.spec = spec
        self.network = network
        self.cpu = CpuScheduler(env, spec.cores)
        self.released = False
        self.provisioned_at = env.now
        network.attach(host_id)

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        """Mark the host released and detach its NIC."""
        self.released = True
        self.network.detach(self.host_id)

    def __repr__(self) -> str:
        state = "released" if self.released else "running"
        return f"<Host {self.host_id} {self.spec.cores}c {state}>"
