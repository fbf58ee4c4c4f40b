"""One benchmark run in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py JOB.json

Times ``import chatpulse.cli`` first, before anything else is imported, then
calls ``chatpulse.cli.main`` once per step of the job, timing each call. With
``"trace": true`` the calls run under the span tracer. The result (setup time,
per-step exit codes and seconds, spans) is written once, to the job's
``result`` path.
"""

import sys
import time

_started = time.perf_counter()
import chatpulse.cli  # noqa: E402

SETUP_S = time.perf_counter() - _started

import json  # noqa: E402


def _call(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors exit this way
        return exc.code if isinstance(exc.code, int) else 1


def run(job: dict) -> dict:
    result = {"setup_s": SETUP_S, "module": chatpulse.cli.__file__, "steps": []}
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer(job["run_id"])
        result["absent"] = tracer.install()
    main = chatpulse.cli.main
    for argv in job["steps"]:
        started = time.perf_counter()
        code = _call(main, argv)
        result["steps"].append([code, time.perf_counter() - started])
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
