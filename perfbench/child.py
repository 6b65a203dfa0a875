"""Child-process entry points of the benchmark (run with ``src`` on
``PYTHONPATH``).

    python perfbench/child.py reference OUT SEED STORE LAYOUT ENTRIES
        Run each ``[experiment, knobs]`` entry of the JSON list ENTRIES
        serially, in this process, through ``Experiment.run`` — the
        direct path every measured op is checked against.  STORE is a
        campaign store directory to fill, or ``-`` for none.  Writes
        the artifact texts as a JSON list to OUT.

    python perfbench/child.py trace OUT -- REPRO-ARGS...
        Run ``repro REPRO-ARGS`` (what ``python -m repro`` runs) with
        the layer wrappers of :mod:`tracer` installed, then write the
        spans to OUT.
"""

from __future__ import annotations

import json
import signal
import sys
import time


def reference(out: str, seed: str, store_dir: str, layout: str,
              entries: str) -> int:
    from repro.experiments import Session, get_experiment, knob_mapping

    store = None
    if store_dir != "-":
        from repro.testbed.store import open_store

        store = open_store(store_dir, layout=layout)
    texts = []
    for name, knobs in json.loads(entries):
        experiment = get_experiment(name)
        session = Session(seed=int(seed), store=store,
                          knobs=knob_mapping(experiment, knobs))
        texts.append(experiment.run(session).text)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(texts, handle)
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def trace(out: str, argv: "list[str]") -> int:
    from tracer import Tracer, install

    tracer = Tracer()
    clock = time.perf_counter
    start = clock()
    import repro.cli
    tracer.record("cli.import_in_op", start, clock())
    serve = "serve" in argv
    if serve:
        # Stop a traced server the way Ctrl-C does, so the spans of
        # its requests are written out.
        signal.signal(signal.SIGTERM, _interrupt)
    start = clock()
    install(tracer, service=serve)
    tracer.record("trace.install", start, clock())
    start = clock()
    try:
        return repro.cli.main(argv)
    finally:
        # A server's main() spans its whole lifetime, not a request.
        if not serve:
            tracer.record("cli.main", start, clock())
        sys.stdout.flush()
        tracer.dump(out)


def main(argv: "list[str]") -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "reference":
        return reference(*rest)
    if mode == "trace" and len(rest) >= 2 and rest[1] == "--":
        return trace(rest[0], rest[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
