"""The staged PolicyStack API and the HEParams record it renders."""

import pytest

from repro.clients import (ClientProfile, all_profiles, chromium_stack,
                           get_profile, wget_stack)
from repro.core import (HEVersion, HappyEyeballsEngine, RacingStage,
                        ResolutionPolicy, ResolutionStage, SortingStage,
                        hev3_draft_stack, rfc6555_stack)
from repro.dns.stub import StubResolver
from repro.testbed.topology import LocalTestbed


class TestRecord:
    """``PolicyStack.params()`` renders the record store keys carry."""

    def test_every_registry_profile_record_is_its_stack_record(self):
        for profile in all_profiles():
            assert profile.params == profile.stack.params()

    def test_sortlist_is_not_in_the_record(self):
        assert chromium_stack(sortlist="windows").params() == \
            chromium_stack(sortlist=None).params()

    def test_version_survives(self):
        assert hev3_draft_stack().params().version is HEVersion.V3
        assert rfc6555_stack().params().version is HEVersion.V1


class TestProfileConsistency:
    def test_profile_from_stack_derives_the_params(self):
        profile = ClientProfile(
            name="x", version="1", released="01-2025",
            engine_family="curl", kind="cli", stack=wget_stack())
        assert profile.params == wget_stack().params()

    def test_profile_needs_a_stack(self):
        with pytest.raises(TypeError, match="stack"):
            ClientProfile(name="x", version="1", released="01-2025",
                          engine_family="curl", kind="cli")

    def test_params_is_not_an_argument(self):
        with pytest.raises(TypeError, match="params"):
            ClientProfile(name="x", version="1", released="01-2025",
                          engine_family="curl", kind="cli",
                          params=wget_stack().params(), stack=wget_stack())

    def test_hev3_flag_keeps_the_sortlist(self):
        chrome = get_profile("Chrome", "130.0")
        flagged = chrome.with_hev3_flag()
        assert flagged.stack.resolution.mode is ResolutionPolicy.HE_V2
        assert flagged.stack.resolution.resolution_delay == 0.050
        assert flagged.stack.sorting.sortlist == \
            chrome.stack.sorting.sortlist
        assert flagged.params == flagged.stack.params()

    def test_unknown_sortlist_rejected_at_declaration(self):
        with pytest.raises(KeyError, match="policy table"):
            SortingStage(sortlist="beos")


class TestStageDeclarations:
    def test_stage_summaries_are_declarative(self):
        stack = get_profile("hev3-reference").stack
        summaries = dict(stack.stage_summaries())
        assert set(summaries) == {"resolution", "sorting", "racing"}
        assert "svcb" in summaries["resolution"]
        assert "sortlist=rfc6724" in summaries["sorting"]
        assert "quic" in summaries["racing"]
        assert "rd=50ms" in summaries["resolution"]

    def test_serial_marker_summarized(self):
        assert "serial" in wget_stack().racing.summary()
        assert wget_stack().racing.serial

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            RacingStage(connection_attempt_delay=0.0)
        with pytest.raises(ValueError):
            RacingStage(minimum_cad=0.5, recommended_cad=0.1)
        with pytest.raises(ValueError):
            ResolutionStage(resolution_delay=-1.0)
        with pytest.raises(ValueError):
            SortingStage(first_address_family_count=0)

    def test_with_stage_helpers(self):
        stack = chromium_stack()
        assert stack.with_racing(connection_attempt_delay=0.1) \
            .racing.connection_attempt_delay == 0.1
        assert stack.with_resolution(use_svcb=True).resolution.use_svcb
        assert stack.with_sorting(sortlist=None).sorting.sortlist is None
        # The original is untouched (frozen composition).
        assert stack.racing.connection_attempt_delay == 0.300


class TestEngineDriver:
    def connect(self, stack):
        testbed = LocalTestbed(seed=7)
        stub = StubResolver(testbed.client, testbed.resolver_addresses[:1],
                            timeout=3600.0, retries=0)
        engine = HappyEyeballsEngine(testbed.client, stub, stack)
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        return engine, result

    def test_trace_version_comes_from_the_stack(self):
        _, result = self.connect(hev3_draft_stack())
        first = result.trace.events[0]
        assert first.detail["version"] == "HEv3"


class TestClientStackThreading:
    def test_client_engine_runs_the_profile_stack(self):
        from repro.clients import Client

        testbed = LocalTestbed(seed=3)
        chrome = get_profile("Chrome", "130.0")
        client = Client(testbed.client, chrome,
                        testbed.resolver_addresses[:1])
        assert client.engine.stack == chrome.stack
        assert client.engine.stack.sorting.sortlist == "linux"

    def test_outlier_wrapper_preserves_the_sortlist(self):
        from repro.clients import Client

        testbed = LocalTestbed(seed=3)
        firefox = get_profile("Firefox", "132.0")
        assert firefox.outlier_probability > 0
        client = Client(testbed.client, firefox,
                        testbed.resolver_addresses[:1])
        result = testbed.sim.run_until(
            client.connect("www.he-test.example"))
        assert result.success
        # After the (possibly perturbed) connect, the engine is back
        # on the declared stack, sortlist included.
        assert client.engine.stack == firefox.stack
        assert client.engine.stack.sorting.sortlist == "linux"
