"""CampaignService: stampedes, coalescing, byte-identity, HTTP."""

import http.client
import json
import socket
import sys
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
        if self.barrier is not None:
            self.barrier.wait()
        return self._resolve(session, plan)

    def _resolve(self, session, cells):
        """Each cell's value: looked up, else executed and stored."""
        store = session.store
        found = store.get_many([cell.key for cell in cells], lambda p: p)
        values = []
        for cell in cells:
            payload = found.get(cell.key)
            if payload is None:
                self.executions.append(cell.key)
                payload = [cell.index, cell.index ** 2 + session.seed]
                store.put(cell.key, payload)
            values.append(payload[1])
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
        """Admission plans; execution runs the admitted plan; a repeat
        of a completely executed submission is not planned again."""
        exp = CountingGrid()
        service, _ = make_service(tmp_path, experiment=exp, coalesce=False)
        with service:
            cold = service.submit("grid", {"width": 5})
            warm = service.submit("grid", {"width": 5})
            narrow = service.submit("grid", {"width": 3})
            repeat = service.submit("grid", {"width": 3})
        assert exp.plans == 2
        assert exp.plans_while_executing == [0, 0, 0, 0]
        results = (cold, warm, narrow, repeat)
        assert [r.planned for r in results] == [5, 5, 3, 3]
        assert [r.executed for r in results] == [5, 0, 0, 0]
        assert repeat.text == narrow.text and warm.text == cold.text


class StagedGrid(CountingGrid):
    """Two stages, the way an adaptive campaign has them: the second
    stage's cells follow from the first stage's records, so planning
    reaches it only when the store holds every first-stage record,
    and execution looks the second stage up after the first."""

    name = "staged"
    fail = False  # set by a test: the next execution raises

    def stage(self, session, number):
        width = int(session.knob("width", 4))
        return [GridCell(number * 100 + i,
                         config_digest("staged-cell", number, i,
                                       session.seed))
                for i in range(width)]

    def plan(self, session):
        self.plans += 1
        first = self.stage(session, 1)
        found = session.store.get_many([cell.key for cell in first],
                                       lambda p: p)
        if len(found) < len(first):
            return Plan(first)
        return Plan(first + self.stage(session, 2))

    def execute(self, session, plan):
        if self.fail:
            self.fail = False
            raise RuntimeError("harness exploded")
        return (self._resolve(session, self.stage(session, 1))
                + self._resolve(session, self.stage(session, 2)))


class TestPlanMemo:
    """The service's plan memo: what it keeps, and that replies stay
    what a fresh plan gives."""

    def test_staged_plan_is_kept_only_once_complete(self, tmp_path):
        exp = StagedGrid()
        service, _ = make_service(tmp_path, experiment=exp)
        with service:
            cold = service.submit("staged", {"width": 3})
            warm = service.submit("staged", {"width": 3})
            repeat = service.submit("staged", {"width": 3})
        # The cold plan stops at stage 1: it is not kept, and the warm
        # submission plans again, this time both stages.
        assert exp.plans == 2
        assert (cold.planned, cold.hits, cold.executed) == (3, 0, 6)
        assert (warm.planned, warm.hits, warm.executed) == (6, 6, 0)
        assert (repeat.planned, repeat.hits, repeat.executed) == (6, 6, 0)
        assert cold.text == warm.text == repeat.text

    def test_store_between_admission_and_execution_is_not_kept(
            self, tmp_path, monkeypatch):
        """A stage-1 record stored after admission planned only stage
        1 makes execution reach stage 2 outside the admitted plan: that
        plan is incomplete and must not be kept."""
        exp = StagedGrid()
        service, _ = make_service(tmp_path, experiment=exp)
        knobs = {"width": 3}
        first = exp.stage(Session(knobs=knobs), 1)
        for cell in first[1:]:
            service.store.put(cell.key, [cell.index, cell.index ** 2])
        admit = service._admit

        def admit_then_store(*args):
            admitted = admit(*args)
            service.store.put(first[0].key,
                              [first[0].index, first[0].index ** 2])
            return admitted

        with service:
            monkeypatch.setattr(service, "_admit", admit_then_store)
            raced = service.submit("staged", knobs)
            monkeypatch.setattr(service, "_admit", admit)
            again = service.submit("staged", knobs)
            repeat = service.submit("staged", knobs)
        assert (raced.planned, raced.executed) == (3, 3)
        assert exp.plans == 2
        assert (again.planned, again.executed) == (6, 0)
        assert (repeat.planned, repeat.executed) == (6, 0)
        assert raced.text == again.text == repeat.text

    def test_failed_execution_is_never_kept(self, tmp_path):
        exp = StagedGrid()
        service, _ = make_service(tmp_path, experiment=exp)
        with service:
            service.submit("staged", {"width": 2})
            exp.fail = True
            with pytest.raises(RuntimeError, match="exploded"):
                service.submit("staged", {"width": 2})
            retried = service.submit("staged", {"width": 2})
            repeat = service.submit("staged", {"width": 2})
        assert exp.plans == 3
        assert service.stats.failed == 1
        assert (retried.planned, retried.executed) == (4, 0)
        assert (repeat.planned, repeat.executed) == (4, 0)

    def test_memo_is_bounded_by_plan_entries(self, tmp_path, monkeypatch):
        from repro import memo

        monkeypatch.setattr(memo, "MEMO_CAP", 5)
        exp = CountingGrid()
        service, _ = make_service(tmp_path, experiment=exp)
        texts = {}

        def submit(width, plans):
            result = service.submit("grid", {"width": width})
            texts.setdefault(width, result.text)
            assert result.text == texts[width]
            assert result.planned == width
            assert exp.plans == plans, width

        with service:
            submit(6, 1)
            submit(6, 2)  # larger than the cap: never kept
            submit(3, 3)
            submit(2, 4)  # 3 + 2 entries: both kept
            submit(3, 4)
            submit(2, 4)
            submit(4, 5)  # 5 + 4 > 5: the memo is cleared first
            submit(4, 5)
            submit(3, 6)
        fresh, _ = make_service(tmp_path / "fresh")
        with fresh:
            for width, text in texts.items():
                assert fresh.submit("grid", {"width": width}).text == text

    def test_concurrent_repeats_share_one_plan(self, tmp_path):
        n = 4
        exp = CountingGrid()
        service, _ = make_service(tmp_path, experiment=exp,
                                  coalesce=False, service_workers=n)
        with service:
            first = service.submit("grid", {"width": 6})
            exp.barrier = threading.Barrier(n, timeout=30.0)
            futures = [service.submit_async("grid", {"width": 6})
                       for _ in range(n)]
            results = [f.result(timeout=60.0) for f in futures]
        assert exp.plans == 1
        assert {r.text for r in results} == {first.text}
        assert all((r.planned, r.hits, r.executed) == (6, 6, 0)
                   for r in results)

    def test_concurrent_admissions_keep_the_memo_consistent(self,
                                                           tmp_path):
        """Stress: more submission threads than cores admit and keep
        plans of six widths at once; every reply matches its width's
        and the memo's entry count matches the plans it holds."""
        exp = CountingGrid()
        service, _ = make_service(tmp_path, experiment=exp,
                                  coalesce=False, service_workers=8)
        widths = [1 + i % 6 for i in range(48)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with service:
                futures = [service.submit_async("grid", {"width": w})
                           for w in widths]
                results = [f.result(timeout=60.0) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        texts = {}
        for width, result in zip(widths, results):
            assert texts.setdefault(width, result.text) == result.text
            assert result.planned == width
        # Widths share their leading cells: six keys, each run once.
        assert sorted(exp.executions) == sorted(set(exp.executions))
        assert len(exp.executions) == 6
        kept = service._plans.values()
        assert service._plan_entries == sum(len(plan) for plan, _ in kept)
        assert sorted(planned for _, planned in kept) == [1, 2, 3, 4, 5, 6]

    def test_rewritten_spec_file_is_planned_again(self, tmp_path,
                                                  monkeypatch):
        """An ``@path`` knob is read at plan time, so its submission
        is never kept: a rewritten file serves the new population."""
        from repro.experiments import get_experiment
        from repro.population.distributions import PRESETS
        from repro.testbed import CampaignStore

        spec = tmp_path / "spec.json"
        knobs = {"samples": 3, "degrade_step": 200, "spec": f"@{spec}"}
        experiment = get_experiment("population-latency")
        with CampaignService(tmp_path / "cache") as service:
            served = []
            for preset in ("default", "v6-challenged"):
                spec.write_text(json.dumps(PRESETS[preset]))
                served.append(service.submit(experiment.name, knobs))
                direct = experiment.run(Session(
                    store=CampaignStore(tmp_path / "direct"),
                    knobs=knob_mapping(experiment, knobs)))
                assert served[-1].text == direct.text
                assert served[-1].data == direct.data
        assert served[0].text != served[1].text


class TestRegisteredCampaigns:
    """Every run a registered experiment executes goes through the
    submission's store: the single-flight layer counts it as executed
    and the memory tier holds it.  The warm repeat executes nothing,
    and both are byte-identical to a direct run."""

    @pytest.mark.parametrize("name, knobs", [
        ("table3", {"repetitions": 2}),
        ("table2", {"repetitions": 1}),
        ("figure2", {"step": 100}),
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
        experiment = get_experiment(name)
        assert cold.text == experiment.run(Session(
            knobs=knob_mapping(experiment, knobs))).text


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


SYNTHESIS_KNOBS = {"synthesis_seeds": 3, "synthesis_rounds": 1,
                   "synthesis_top": 2, "synthesis_neighbors": 2,
                   "promote": 2, "clients": "curl,wget,Chrome 130.0"}


class TestStagedSubmissions:
    """Staged campaigns through the service: cold admission plans
    only the first stage, warm admission plans every stage, and a
    repeat is served from the kept plan — each byte-identical to the
    direct run."""

    @pytest.mark.parametrize("name, knobs, cold", [
        ("synthesize-scenarios", SYNTHESIS_KNOBS, (21, 0, 49)),
        ("fingerprint", {"client": "Chrome 130.0"}, (31, 0, 49)),
    ])
    def test_served_equals_direct_cold_warm_and_repeated(
            self, tmp_path, monkeypatch, name, knobs, cold):
        from repro.experiments import get_experiment
        from repro.testbed import CampaignStore

        experiment = get_experiment(name)
        direct = experiment.run(Session(
            store=CampaignStore(tmp_path / "direct"),
            knobs=knob_mapping(experiment, knobs)))
        plans = []
        plan = experiment.plan
        monkeypatch.setattr(experiment, "plan",
                            lambda session: plans.append(1)
                            or plan(session))
        with CampaignService(tmp_path / "cache") as service:
            served = [service.submit(name, knobs) for _ in range(3)]
        assert [(r.planned, r.hits, r.executed) for r in served] == [
            cold, (49, 49, 0), (49, 49, 0)]
        assert len(plans) == 2  # the repeat is not planned
        for result in served:
            assert result.text == direct.text
            assert result.data == direct.data


class TestKnobRejections:
    """Experiments refuse bad knob values with ``SystemExit``; the
    service answers each with a 422 carrying the message and keeps the
    connection serving."""

    REJECTED = (
        ("population-latency", {"spec": "@/nonexistent.json"},
         "spec file not found: /nonexistent.json"),
        ("population-latency", {"samples": 0},
         "--samples must be >= 1: 0"),
        ("fingerprint", {"client": "Nonesuch 1.0"},
         "no client matches 'Nonesuch 1.0'"),
        ("synthesize-scenarios", {"promote": 0},
         "promotion limit must be >= 1: 0"),
    )

    def test_rejections_answer_on_one_keep_alive_connection(self,
                                                            tmp_path):
        service = CampaignService(tmp_path / "cache")
        server = CampaignServiceServer(service, port=0)
        host, port = server.address
        server.serve_background()
        connection = http.client.HTTPConnection(host, port, timeout=60)

        def post(experiment, knobs):
            connection.request(
                "POST", "/submit",
                body=json.dumps({"experiment": experiment,
                                 "knobs": knobs}).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())

        try:
            for experiment, knobs, message in self.REJECTED:
                status, payload = post(experiment, knobs)
                assert status == 422, payload
                assert payload["ok"] is False
                assert message in payload["error"]
            # A selector check that runs at execution is refused too.
            status, payload = post("fingerprint-diff",
                                   {"client_a": "Chrome 130.0"})
            assert status == 422, payload
            assert "needs two client selectors" in payload["error"]
            status, payload = post("population-latency",
                                   {"samples": 2, "degrade_step": 200})
            assert status == 200 and payload["ok"], payload
            assert payload["planned"] == 4
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            service.close()
        assert service.stats.rejected == len(self.REJECTED)
        assert service.stats.failed == 1
        assert service.stats.completed == 1
