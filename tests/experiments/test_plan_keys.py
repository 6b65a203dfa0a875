"""Store keys are a persistence format: pin their values.

Every run in a user's campaign store is addressed by the key its plan
derives, so a key that drifts — a reordered field, a changed rendering
of one primitive — silently turns every existing store cold.  This
test pins, per registered experiment at seed 0 with default knobs (plus
a few larger plans), the SHA-256 over its planned keys in plan order.

An intentional key change (a ``STORE_FORMAT`` or package version bump)
regenerates the golden with::

    PYTHONPATH=src python tests/experiments/test_plan_keys.py --write
"""

import hashlib
import json
import pathlib
import sys

from repro.experiments import Session, all_experiments, get_experiment

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent
          / "goldens" / "plan_keys.json")

#: Larger plans pinned next to the defaults: the paper's 5 ms and 1 ms
#: CAD grids and a 500-sample population campaign.
EXTRA_PLANS = {
    "figure2 --step 5": ("figure2", {"step": 5}),
    "figure2 --step 1": ("figure2", {"step": 1}),
    "population-latency --samples 500": ("population-latency",
                                         {"samples": 500}),
}


def _digest(experiment, overrides=None) -> dict:
    knobs = experiment.default_knobs()
    knobs.update(overrides or {})
    keys = list(experiment.plan(Session(seed=0, knobs=knobs)))
    blob = "\n".join(keys).encode("ascii")
    return {"keys": len(keys), "sha256": hashlib.sha256(blob).hexdigest()}


def plan_digests() -> dict:
    digests = {experiment.name: _digest(experiment)
               for experiment in all_experiments()}
    for label, (name, overrides) in EXTRA_PLANS.items():
        digests[label] = _digest(get_experiment(name), overrides)
    return digests


def test_plan_keys_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = plan_digests()
    assert sorted(actual) == sorted(expected)
    drifted = [name for name in expected if actual[name] != expected[name]]
    assert not drifted, drifted


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_plan_keys.py --write")
    GOLDEN.write_text(json.dumps(plan_digests(), indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")
