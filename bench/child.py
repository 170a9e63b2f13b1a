"""One pilotwave CLI call in a fresh process, timed from inside it.

Usage: child.py <request.json>

The request names the checkout's ``src`` directory, the monotonic time at
which the parent started this process, the config to load, the CLI
arguments (none for a set-up probe) and, for a traced call, where to write
the spans.  The child writes its measurements to ``result`` in the request.
``time.monotonic`` is system-wide on Linux, so the set-up time includes
process start and interpreter start-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

TRACE_ERROR_EXIT = 4  # a wrapped name is missing; run.py stops without a result


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        try:
            tracer.install()
        except spans.TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return TRACE_ERROR_EXIT

    import pilotwave
    from pilotwave import cli
    from pilotwave.harness import load_config

    src = Path(request["src"]).resolve()
    if src not in Path(pilotwave.__file__).resolve().parents:
        print(f"error: imported pilotwave from {pilotwave.__file__}, not from {src}", file=sys.stderr)
        return 3
    load_config(request["config"])
    setup_s = time.monotonic() - request["spawned_at"]

    result = {"setup_s": setup_s}
    if request["argv"]:
        t0 = time.perf_counter()
        result["exit_code"] = cli.main(request["argv"])
        t1 = time.perf_counter()
        result["wall_s"] = t1 - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(request["trace"], (t0, t1))
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
