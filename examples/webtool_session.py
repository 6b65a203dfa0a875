#!/usr/bin/env python3
"""Visit the web-based testing tool (happy-eyeballs.net, §4.3(ii)).

Spins up the tool's server deployment — the 18-step delay ladder with
dedicated dual-stack address pairs and per-delay domains — and has two
browsers visit it: Chrome (fixed 300 ms CAD, sharp flip) and Safari
(dynamic CAD, different interval every time).  The per-step outcome is
decided client-side from the echoed source address, like the real tool.

Run:  python examples/webtool_session.py
"""

from repro.clients import get_profile
from repro.webtool import (NetworkConditions, WebToolDeployment,
                           WebToolSession, render_session_ladder)


def main() -> None:
    deployment = WebToolDeployment(seed=77)
    print(f"web tool up: {len(deployment.ladder)} delay steps, "
          f"{len(deployment.server.addresses)} server addresses\n")

    # Figure 4's session indices: Chrome is 1, Safari 2 + repetition.
    chrome = WebToolSession(
        deployment, get_profile("Chrome", "130.0"),
        conditions=NetworkConditions.residential(), session_index=1).run()
    print(render_session_ladder(chrome))
    print()

    for repetition in range(3):
        safari = WebToolSession(deployment, get_profile("Safari", "17.6"),
                                repetition=repetition,
                                session_index=2 + repetition).run()
        print(render_session_ladder(safari))
        print()

    print("Safari's interval wanders between repetitions — the "
          '"dynamic, unpredictable approach" of §5.1 — while '
          "Chrome's stays put.")


if __name__ == "__main__":
    main()
