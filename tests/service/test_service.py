"""CampaignService: stampedes, coalescing, byte-identity, HTTP."""

import http.client
import json
import socket
import threading
from typing import NamedTuple

import pytest

from repro.experiments.base import Artifact, Experiment, Knob, Session, \
    knob_mapping
from repro.service import AdmissionError, CampaignService
from repro.service.http import CampaignServiceServer, \
    ServiceRequestHandler, result_payload, submit_request, summary_line
from repro.testbed.parallel import Plan
from repro.testbed.store import config_digest


class GridCell(NamedTuple):
    """One planned grid "run": its coordinate and store key."""

    index: int
    key: str


class GridExperiment(Experiment):
    """A tiny campaign-shaped experiment for service tests.

    Never registered (the registry's contract tests forbid pollution) —
    served through the service's injectable ``lookup``.  Each planned
    cell is one deterministic "run"; executions are counted on the
    instance so tests can assert the exactly-once invariant.
    """

    name = "grid"
    title = "test grid"
    knobs = (Knob("width", type=int, default=4),)
    json_capable = True

    def __init__(self):
        self.executions = []  # keys executed (list.append is atomic)
        self.barrier = None  # set by tests to force overlap

    def plan(self, session):
        width = int(session.knob("width", 4))
        return Plan(GridCell(i, config_digest("grid-cell", i, session.seed))
                    for i in range(width))

    def execute(self, session, plan):
        store = session.store
        if self.barrier is not None:
            self.barrier.wait()
        found = store.get_many(plan.keys(), lambda p: p)
        values = []
        for cell in plan:
            payload = found.get(cell.key)
            if payload is None:
                self.executions.append(cell.key)
                payload = {"cell": cell.index,
                           "value": cell.index ** 2 + session.seed}
                store.put(cell.key, payload)
            values.append(payload["value"])
        return values

    def render(self, result):
        text = "grid: " + " ".join(str(v) for v in result) + "\n"
        return Artifact(text=text, data=result)


def make_service(tmp_path, experiment=None, **kwargs):
    experiment = experiment or GridExperiment()
    lookup = {experiment.name: experiment}.__getitem__
    kwargs.setdefault("service_workers", 8)
    service = CampaignService(tmp_path / "cache", lookup=lookup,
                              **kwargs)
    return service, experiment


class TestStampede:
    def test_stampede_executes_each_key_exactly_once(self, tmp_path):
        """The headline invariant: N concurrent identical submissions,
        coalescing OFF (so all N truly run), every key executed once."""
        n = 6
        service, exp = make_service(tmp_path, coalesce=False,
                                    service_workers=n)
        exp.barrier = threading.Barrier(n, timeout=30.0)
        with service:
            futures = [service.submit_async("grid", {"width": 8})
                       for _ in range(n)]
            results = [f.result(timeout=60.0) for f in futures]
        assert len(exp.executions) == 8
        assert len(set(exp.executions)) == 8
        texts = {r.text for r in results}
        assert len(texts) == 1  # byte-identical across the stampede
        assert sum(r.executed for r in results) == 8
        assert all(r.planned == 8 for r in results)
        assert all(r.hits + r.executed == 8 for r in results)

    def test_overlapping_plans_share_the_overlap(self, tmp_path):
        """width=4 ⊂ width=8: the shared prefix executes once total."""
        service, exp = make_service(tmp_path, coalesce=False)
        exp.barrier = threading.Barrier(2, timeout=30.0)
        with service:
            wide = service.submit_async("grid", {"width": 8})
            narrow = service.submit_async("grid", {"width": 4})
            wide.result(timeout=60.0)
            narrow.result(timeout=60.0)
        assert len(exp.executions) == 8
        assert len(set(exp.executions)) == 8

    def test_warm_submission_executes_nothing(self, tmp_path):
        service, exp = make_service(tmp_path)
        with service:
            cold = service.submit("grid", {"width": 5})
            warm = service.submit("grid", {"width": 5})
        assert cold.executed == 5 and cold.hits == 0
        assert warm.executed == 0 and warm.hits == 5
        assert warm.text == cold.text
        assert len(exp.executions) == 5


class TestCoalescing:
    def test_identical_inflight_submissions_coalesce(self, tmp_path):
        n = 5
        service, exp = make_service(tmp_path, coalesce=True,
                                    service_workers=n)
        release = threading.Event()
        exp.barrier = None

        original_execute = exp.execute

        def gated_execute(session, plan):
            release.wait(timeout=30.0)
            return original_execute(session, plan)

        exp.execute = gated_execute
        with service:
            futures = [service.submit_async("grid", {"width": 3})
                       for _ in range(n)]
            release.set()
            results = [f.result(timeout=60.0) for f in futures]
        # Exactly one leader ran; everyone shares its artifact.
        assert len(exp.executions) == 3
        assert service.stats.coalesced == n - 1
        coalesced = [r for r in results if r.coalesced]
        assert len(coalesced) == n - 1
        assert all(r.executed == 0 and r.hits == r.planned
                   for r in coalesced)
        assert len({r.text for r in results}) == 1
        assert len({r.digest for r in results}) == 1

    def test_different_knobs_do_not_coalesce(self, tmp_path):
        service, exp = make_service(tmp_path, coalesce=True)
        with service:
            a = service.submit("grid", {"width": 2})
            b = service.submit("grid", {"width": 3})
        assert a.digest != b.digest
        assert service.stats.coalesced == 0

    def test_summary_line_shape(self, tmp_path):
        service, _ = make_service(tmp_path)
        with service:
            result = service.submit("grid", {"width": 2})
        assert summary_line(result_payload(result)) == (
            "[service] planned=2 hits=0 executed=2 waited=0 "
            "coalesced=false")


class TestAdmission:
    def test_unknown_experiment_rejected(self, tmp_path):
        service, _ = make_service(tmp_path)
        with service:
            with pytest.raises(AdmissionError):
                service.submit("nonesuch")
        assert service.stats.rejected == 1
        assert service.stats.submissions == 0

    def test_oversized_plan_rejected(self, tmp_path):
        service, _ = make_service(tmp_path, admission_limit=4)
        with service:
            with pytest.raises(AdmissionError, match="admission limit"):
                service.submit("grid", {"width": 100})
            service.submit("grid", {"width": 4})  # at the limit: fine
        assert service.stats.rejected == 1

    def test_undeclared_knobs_are_ignored(self, tmp_path):
        """Same leniency as ``knob_mapping`` everywhere else."""
        service, _ = make_service(tmp_path)
        with service:
            result = service.submit("grid", {"width": 2, "bogus": 9})
        assert result.planned == 2
        assert result.knobs == {"width": 2}

    def test_closed_service_rejects(self, tmp_path):
        service, _ = make_service(tmp_path)
        service.close()
        with pytest.raises(AdmissionError, match="shut down"):
            service.submit("grid")


class TestByteIdentity:
    def test_served_equals_direct_run(self, tmp_path):
        """The absolute invariant: service-served == direct run."""
        exp = GridExperiment()
        direct_store_exp = GridExperiment()
        service, _ = make_service(tmp_path, experiment=exp, seed=3)
        with service:
            served_cold = service.submit("grid", {"width": 6})
            served_warm = service.submit("grid", {"width": 6})
        from repro.testbed import CampaignStore
        direct = direct_store_exp.run(Session(
            seed=3, store=CampaignStore(tmp_path / "direct"),
            knobs=knob_mapping(direct_store_exp, {"width": 6})))
        assert served_cold.text == direct.text
        assert served_warm.text == direct.text
        assert served_cold.data == direct.data

    def test_journal_lives_in_the_store(self, tmp_path):
        """Submissions get the same resilience bundle ``repro run``
        builds: per-experiment journal inside the store, seeded retry
        policy, implicit (no ``[faults]`` output)."""
        service, _ = make_service(tmp_path, retries=2, seed=7)
        resilience = service._resilience("grid")
        assert (resilience.journal.path
                == tmp_path / "cache" / ".journal" / "grid.log")
        assert resilience.policy.retries == 2
        assert not resilience.explicit
        resilience.close()
        service.close()

    def test_packed_layout_is_the_default(self, tmp_path):
        service, _ = make_service(tmp_path)
        with service:
            service.submit("grid", {"width": 2})
        assert list((tmp_path / "cache").glob("*.pack"))


class TestHTTP:
    def test_http_round_trip(self, tmp_path):
        service, exp = make_service(tmp_path)
        server = CampaignServiceServer(service, port=0)
        host, port = server.address
        server.serve_background()
        try:
            payload = submit_request("grid", {"width": 4},
                                     host=host, port=port, timeout=30)
            assert payload["ok"] is True
            assert payload["text"] == "grid: 0 1 4 9\n"
            assert payload["executed"] == 4
            assert payload["data"] == [0, 1, 4, 9]
            warm = submit_request("grid", {"width": 4},
                                  host=host, port=port, timeout=30)
            assert warm["text"] == payload["text"]
            assert warm["executed"] == 0 and warm["hits"] == 4
        finally:
            server.shutdown()
            service.close()

    def test_http_rejection_payload(self, tmp_path):
        service, _ = make_service(tmp_path)
        server = CampaignServiceServer(service, port=0)
        host, port = server.address
        server.serve_background()
        try:
            payload = submit_request("nonesuch", host=host, port=port,
                                     timeout=30)
            assert payload["ok"] is False
            assert "nonesuch" in payload["error"]
        finally:
            server.shutdown()
            service.close()

    def test_stats_counters_flow_through(self, tmp_path):
        from urllib.request import urlopen
        service, _ = make_service(tmp_path)
        server = CampaignServiceServer(service, port=0)
        host, port = server.address
        server.serve_background()
        try:
            submit_request("grid", {"width": 2}, host=host, port=port,
                           timeout=30)
            with urlopen(f"http://{host}:{port}/stats",
                         timeout=30) as response:
                stats = json.loads(response.read().decode("utf-8"))
            assert stats["service"]["completed"] == 1
            assert stats["service"]["keys_executed"] == 2
            assert stats["tier"]["stores"] == 2
        finally:
            server.shutdown()
            service.close()


# -- the reply path ------------------------------------------------------------
#
# A reply written as head then body leaves the body behind Nagle's
# algorithm until the client's delayed ACK of the head, about 40 ms on
# every request.  The handler below counts the writes each reply takes
# and reads the accepted socket's TCP_NODELAY, over one keep-alive
# connection, for every route and error status the service sends.


class _CountingWriter:
    """Forwards writes to the handler's ``wfile`` and records each."""

    def __init__(self, inner, writes):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def recorded(tmp_path):
    """A served throwaway experiment whose handler records every
    socket write and each accepted socket's ``TCP_NODELAY``."""
    writes, nodelay = [], []

    class RecordingHandler(ServiceRequestHandler):
        def setup(self):
            super().setup()
            nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            self.wfile = _CountingWriter(self.wfile, writes)

    service, _ = make_service(tmp_path)
    server = CampaignServiceServer(service, port=0)
    server.RequestHandlerClass = RecordingHandler
    host, port = server.address
    server.serve_background()
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        yield connection, writes, nodelay
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        service.close()


REQUESTS = (
    ("POST", "/submit", {"experiment": "grid", "knobs": {"width": 3}}, 200),
    ("GET", "/health", None, 200),
    ("GET", "/stats", None, 200),
    ("GET", "/nonesuch", None, 404),
    ("POST", "/submit", ["not", "an", "object"], 400),
)


def test_every_reply_is_one_write_on_a_nodelay_socket(recorded):
    connection, writes, nodelay = recorded
    for method, path, body, status in REQUESTS:
        before = len(writes)
        data = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=data,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
        assert response.status == status, (path, payload)
        assert json.loads(payload)["ok"] is (status == 200)
        # Exactly one write, and it is the whole reply: status line,
        # headers, blank line and body.
        assert len(writes) == before + 1, (path, writes[before:])
        head, _, sent_body = writes[-1].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert sent_body == payload
    # One keep-alive connection, accepted with TCP_NODELAY, served
    # all five replies.
    assert len(nodelay) == 1 and nodelay[0], nodelay


class CountingGrid(GridExperiment):
    """A grid that counts its ``plan()`` calls, and how many of them
    happened while it executed."""

    def __init__(self):
        super().__init__()
        self.plans = 0
        self.plans_while_executing = []

    def plan(self, session):
        self.plans += 1
        return super().plan(session)

    def execute(self, session, plan):
        before = self.plans
        result = super().execute(session, plan)
        self.plans_while_executing.append(self.plans - before)
        return result


class TestPlannedOnce:
    def test_each_admitted_submission_is_planned_once(self, tmp_path):
        """Admission plans; execution runs the admitted plan."""
        exp = CountingGrid()
        service, _ = make_service(tmp_path, experiment=exp, coalesce=False)
        with service:
            cold = service.submit("grid", {"width": 5})
            warm = service.submit("grid", {"width": 5})
            narrow = service.submit("grid", {"width": 3})
        assert exp.plans == 3
        assert exp.plans_while_executing == [0, 0, 0]
        assert (cold.planned, warm.planned, narrow.planned) == (5, 5, 3)
        assert (cold.executed, warm.executed, narrow.executed) == (5, 0, 0)


class TestRegisteredCampaigns:
    """Every run a registered experiment executes goes through the
    submission's store: the single-flight layer counts it as executed
    and the memory tier holds it."""

    @pytest.mark.parametrize("name, knobs", [
        ("table3", {"repetitions": 2}),
        ("table2", {"repetitions": 1}),
    ])
    def test_cold_runs_are_executed_through_the_tiers(self, tmp_path,
                                                      name, knobs):
        from repro.experiments import get_experiment

        service = CampaignService(tmp_path / "cache",
                                  lookup=get_experiment)
        with service:
            cold = service.submit(name, knobs)
            written = [key for key, _ in service.store.backing.entries()]
            warm = service.submit(name, knobs)
        assert written
        assert cold.executed == len(written)
        assert cold.hits == cold.planned - len(written)
        assert all(key in service.store.lru for key in written)
        assert warm.executed == 0
        assert warm.hits == warm.planned
        assert warm.text == cold.text


class TestPopulationSubmissions:
    """A warm population submission derives its keys from the
    process's identity memo: it samples no user and executes nothing,
    and its artifact is the direct run's."""

    def test_repeats_sample_no_user(self, tmp_path, monkeypatch):
        from repro.experiments import get_experiment
        from repro.population.campaign import IDENTITIES
        from repro.population.sampler import PopulationSampler
        from repro.testbed import CampaignStore

        knobs = {"samples": 6, "degrade_step": 200}
        names = ("population-latency", "population-family-share")
        direct = {}
        for name in names:
            experiment = get_experiment(name)
            direct[name] = experiment.run(Session(
                store=CampaignStore(tmp_path / "cache"),
                knobs=knob_mapping(experiment, knobs)))
        IDENTITIES.clear()
        sampled = []
        user = PopulationSampler.user
        monkeypatch.setattr(
            PopulationSampler, "user",
            lambda sampler, index: sampled.append(index)
            or user(sampler, index))
        with CampaignService(tmp_path / "cache") as service:
            first = service.submit(names[0], knobs)
            cold = list(sampled)
            repeats = [service.submit(names[0], knobs),
                       service.submit(names[1], knobs)]
        assert cold == list(range(6))
        assert sampled == cold
        for name, served in zip(names, [first] + repeats[1:]):
            assert served.text == direct[name].text
            assert served.data == direct[name].data
        assert repeats[0].text == first.text
        assert repeats[0].data == first.data
        for served in [first] + repeats:
            assert (served.planned, served.executed) == (12, 0)
