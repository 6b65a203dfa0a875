"""Counts the simulator must reach under churn: most of the queue
cancelled, a long packet ping-pong, many short-lived processes.

Every scheduled call firing in order is pinned against a heapq oracle
in ``test_scheduler_order.py``.
"""

from repro.simnet import Network, Simulator
from repro.transport.udp import UDPStack


def test_only_survivors_fire_after_cancelling_most_of_the_queue():
    """A cancelled entry stays in the heap, emptied, and is dropped
    when it reaches the head; only the 10 % kept may fire."""
    sim = Simulator(seed=2)
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    handles = [sim.schedule((i % 89) * 1e-4 + 1e-6, tick)
               for i in range(2000)]
    for i, handle in enumerate(handles):
        if i % 10 != 0:
            handle.cancel()
    sim.run()
    assert fired[0] == 200
    assert sim.pending_count == 0


def test_udp_ping_pong_reaches_its_hop_count():
    hops_wanted = 500
    net = Network(seed=3)
    segment = net.add_segment("lan")
    left = net.add_host("left")
    right = net.add_host("right")
    net.connect(left, segment, ["10.0.0.1"])
    net.connect(right, segment, ["10.0.0.2"])
    lsock = UDPStack(left).socket("10.0.0.1", 1111)
    rsock = UDPStack(right).socket("10.0.0.2", 2222)
    hops = [0]

    def ponger():
        while True:
            datagram = yield rsock.recv()
            hops[0] += 1
            if hops[0] >= hops_wanted:
                return
            rsock.sendto(datagram.payload, datagram.src, datagram.sport)

    def pinger():
        lsock.sendto(b"x" * 64, "10.0.0.2", 2222)
        while hops[0] < hops_wanted:
            yield lsock.recv()
            lsock.sendto(b"x" * 64, "10.0.0.2", 2222)

    net.sim.process(ponger())
    net.sim.process(pinger())
    net.sim.run(until=1000.0)
    assert hops[0] == hops_wanted


def test_every_timeout_process_finishes():
    sim = Simulator(seed=4)
    done = [0]

    def waiter(delay: float):
        yield sim.timeout(delay)
        done[0] += 1

    for i in range(2000):
        sim.process(waiter((i % 53) * 1e-4))
    sim.run()
    assert done[0] == 2000
