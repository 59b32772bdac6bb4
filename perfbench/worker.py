"""The run process: runs ops through qlognorm.cli.main in a closed loop.

Started by run.py with the checkout's src/ on PYTHONPATH.  It reads one
JSON request per line on stdin and answers one JSON line on the stdout it
was started with; the CLI's own stdout goes to a capture file per command.

    {"op": i, "commands": [...], "stdout": [...], "trace": bool}
        -> {"op": i, "wall": s, "cpu": s, "rc": [...], "error": str|null}
    {"quit": true} -> {"peak_rss_kb": n}

With "trace" true the layer hooks are installed for that op only, and its
spans are appended to the spans file named on the command line after the
op's clock has stopped.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spans_path = Path(sys.argv[1])
    src = Path(sys.argv[2]).resolve()
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = open(os.devnull, "w")

    import qlognorm
    from qlognorm import cli

    if src not in Path(qlognorm.__file__).resolve().parents:
        print(f"qlognorm imported from {qlognorm.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing

    tracer = tracing.Tracer()
    proto.write(json.dumps({"ready": True}) + "\n")

    with open(spans_path, "w", encoding="utf-8") as spans_out:
        for line in sys.stdin:
            req = json.loads(line)
            if req.get("quit"):
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                proto.write(json.dumps({"peak_rss_kb": peak}) + "\n")
                return 0
            tracer.op = req["op"]
            uninstall = tracing.install(tracer) if req["trace"] else None
            rcs, error = [], None
            c0 = _cpu()
            t0 = time.perf_counter()
            try:
                for argv, capture in zip(req["commands"], req["stdout"]):
                    with open(capture, "w", encoding="utf-8") as fh, \
                            contextlib.redirect_stdout(fh):
                        try:
                            rcs.append(cli.main(argv))
                        except SystemExit as exc:  # argparse rejected argv
                            rcs.append(exc.code)
                    if rcs[-1] != 0:
                        break
            except Exception:  # the loop reports the op as failed and goes on
                error = traceback.format_exc()
            t1 = time.perf_counter()
            c1 = _cpu()
            if uninstall:
                uninstall()
                for s in tracer.take():
                    spans_out.write(json.dumps(s) + "\n")
                spans_out.flush()
            proto.write(json.dumps({
                "op": req["op"], "wall": t1 - t0, "cpu": c1 - c0,
                "rc": rcs, "error": error,
            }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
