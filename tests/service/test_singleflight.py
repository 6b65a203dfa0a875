"""Single-flight claims: atomicity, waiting, takeover, no deadlock."""

import threading

from repro.metrics import Metrics
from repro.service import SingleFlight, SingleFlightStore
from repro.testbed import CampaignStore

K1, K2, K3 = "aa" * 32, "bb" * 32, "cc" * 32


class TestClaimProtocol:
    def test_claim_all_is_all_or_nothing(self):
        flight = SingleFlight(Metrics())
        a, b = object(), object()
        granted, foreign = flight.claim_all(a, [K1, K2])
        assert granted and not foreign
        granted, foreign = flight.claim_all(b, [K2, K3])
        assert not granted
        assert foreign == [K2]
        # The failed claim grabbed nothing: K3 is still free for a.
        granted, _ = flight.claim_all(a, [K3])
        assert granted
        assert flight.in_flight() == 3

    def test_reclaim_own_keys_passes_through(self):
        flight = SingleFlight(Metrics())
        token = object()
        assert flight.claim_all(token, [K1])[0]
        assert flight.claim_all(token, [K1, K2])[0]
        assert flight.in_flight() == 2
        assert flight.metrics.claims == 2  # K1 counted once

    def test_release_wakes_waiter(self):
        flight = SingleFlight(Metrics())
        a, b = object(), object()
        flight.claim_all(a, [K1])
        woke = threading.Event()

        def waiter():
            flight.wait_any(b, [K1], timeout=5.0)
            woke.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        flight.release(a, [K1])
        thread.join(timeout=5.0)
        assert woke.is_set()
        assert flight.metrics.waits == 1

    def test_release_all_covers_abandoned_claims(self):
        flight = SingleFlight(Metrics())
        token = object()
        flight.claim_all(token, [K1, K2, K3])
        assert flight.release_all(token) == 3
        assert flight.in_flight() == 0
        # Another token can now take over the abandoned keys.
        assert flight.claim_all(object(), [K1, K2, K3])[0]

    def test_crossing_claims_never_deadlock(self):
        """Two submissions with opposite claim orders: the all-or-
        nothing grant means one wins both keys and the other waits
        holding nothing — the classic lock-order deadlock is
        structurally impossible."""
        flight = SingleFlight(Metrics())
        barrier = threading.Barrier(2)
        done = []

        def submission(keys):
            token = object()
            barrier.wait()
            for _ in range(200):
                granted, foreign = flight.claim_all(token, keys)
                if granted:
                    break
                flight.wait_any(token, foreign, timeout=0.01)
            flight.release_all(token)
            done.append(keys[0])

        t1 = threading.Thread(target=submission, args=([K1, K2],))
        t2 = threading.Thread(target=submission, args=([K2, K1],))
        t1.start(); t2.start()
        t1.join(timeout=10.0); t2.join(timeout=10.0)
        assert len(done) == 2


class TestSingleFlightStore:
    def test_miss_is_claimed_then_released_on_put(self, tmp_path):
        flight = SingleFlight(Metrics())
        store = SingleFlightStore(CampaignStore(tmp_path), flight)
        assert store.get_many([K1], lambda p: p) == {}  # miss → claim
        assert flight.in_flight() == 1
        store.put(K1, {"v": 1})
        assert flight.in_flight() == 0
        assert store.metrics.stores == 1

    def test_waiter_sees_winners_record_as_hit(self, tmp_path):
        backing = CampaignStore(tmp_path)
        flight = SingleFlight(Metrics())
        winner = SingleFlightStore(backing, flight)
        waiter = SingleFlightStore(backing, flight)
        assert winner.get_many([K1], lambda p: p) == {}  # claims K1
        resolved = {}

        def wait_side():
            resolved.update(waiter.get_many([K1], lambda p: p))

        thread = threading.Thread(target=wait_side)
        thread.start()
        for _ in range(1000):  # let the waiter actually block first
            if flight.metrics.waits:
                break
            threading.Event().wait(0.005)
        winner.put(K1, {"v": 7})
        thread.join(timeout=10.0)
        assert resolved == {K1: {"v": 7}}
        assert waiter.metrics.stores == 0
        assert waiter.metrics.waited == 1

    def test_key_stored_between_probe_and_claim_is_a_hit(self, tmp_path):
        """The winner stores (and releases) K1 after the late side's
        probe missed it but before the late side claims it: the claim
        is granted, so without a re-probe K1 would execute twice."""
        flight = SingleFlight(Metrics())
        backing = CampaignStore(tmp_path)
        winner = SingleFlightStore(backing, flight)

        class StoreAfterProbe:
            """The backing store, with the winner's whole miss-execute-
            store cycle run right after the first probe."""

            probes = 0

            def get_many(self, keys, decode):
                found = backing.get_many(keys, decode)
                self.probes += 1
                if self.probes == 1:
                    assert winner.get_many([K1], decode) == {}
                    winner.put(K1, {"v": 7})
                return found

        late = SingleFlightStore(StoreAfterProbe(), flight)
        assert late.get_many([K1, K2], lambda p: p) == {K1: {"v": 7}}
        assert late.metrics.waited == 1
        assert flight.in_flight() == 1  # only the true miss, K2

    def test_abandoned_claim_is_inherited_not_lost(self, tmp_path):
        backing = CampaignStore(tmp_path)
        flight = SingleFlight(Metrics())
        crasher = SingleFlightStore(backing, flight)
        heir = SingleFlightStore(backing, flight)
        assert crasher.get_many([K1], lambda p: p) == {}  # claims, no put
        resolved = []

        def wait_side():
            resolved.append(heir.get_many([K1], lambda p: p).get(K1))

        thread = threading.Thread(target=wait_side)
        thread.start()
        crasher.release()  # the submission's finally
        thread.join(timeout=10.0)
        assert resolved == [None]  # heir now owns the miss
        assert flight.in_flight() == 1  # heir's claim
