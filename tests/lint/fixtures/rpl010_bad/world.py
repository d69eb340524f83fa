"""A checkpoint root holding unpicklable state."""

from . import flows
from .registry import pack_state

#: Module-level open handle: reachable from any pickle of this module's
#: state and never picklable.
AUDIT_LOG = open("audit.log", "a")  # EXPECT: RPL010


class World:
    #: Class-level lambda default — closures don't pickle.
    on_drop = lambda packet: None  # EXPECT: RPL010

    def __init__(self, hosts):
        self.hosts = hosts
        self.flow = flows.new_flow()
        #: Instance-level lambda — the classic checkpoint killer.
        self.classify = lambda packet: packet.kind  # EXPECT: RPL010
        #: A live generator cannot be pickled either.
        self.pending = (host for host in hosts)  # EXPECT: RPL010

    def arm(self, sim):
        def expire():
            self.pending = None
        #: The event heap holds the closure, and pack_state pickles it.
        sim.schedule(1.0, expire)  # EXPECT: RPL010

    def snapshot_bytes(self):
        return pack_state(self.__dict__)
