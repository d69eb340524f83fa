"""A checkpoint root holding only picklable state."""

from functools import partial

from . import flows
from .registry import pack_state

#: Path, not handle: reopened on demand, pickles as a string.
AUDIT_LOG_PATH = "audit.log"


def _drop_packet(packet):
    return None


def _classify(packet):
    return packet.kind


def _expire(world):
    world.pending = None


class World:
    on_drop = staticmethod(_drop_packet)

    def __init__(self, hosts):
        self.hosts = hosts
        self.flow = flows.new_flow()
        self.classify = _classify
        self.pending = list(hosts)

    def arm(self, sim):
        #: A sort key never reaches the heap; the callback is a partial.
        self.pending = sorted(self.pending, key=lambda host: str(host))
        sim.schedule(1.0, partial(_expire, self))

    def snapshot_bytes(self):
        return pack_state(self.__dict__)
