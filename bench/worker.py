"""One repetition of a batch in a fresh interpreter.

Usage: python3 bench/worker.py JOB.json

The job names the CLI argv lists, an output directory and whether to trace.
Each command runs through `qdurrmeyer.cli.main` with stdout and stderr sent
to files in the output directory.  The last stdout line is a JSON record
with the clock readings, exit codes and peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    from qdurrmeyer import cli

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    out_dir = Path(job["out_dir"])
    rcs = []
    ready = time.perf_counter()
    for i, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.request = i
        with open(out_dir / f"{i}.out", "w", encoding="utf-8", newline="") as out, \
                open(out_dir / f"{i}.err", "w", encoding="utf-8") as err, \
                redirect_stdout(out), redirect_stderr(err):
            try:
                rcs.append(cli.main(argv))
            except Exception:  # a crash fails this command's rows, not the batch
                traceback.print_exc()
                rcs.append("exception: " + traceback.format_exc(limit=1).splitlines()[-1])
    done = time.perf_counter()
    record = {
        "ready": ready,
        "done": done,
        "rcs": rcs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        record["trace_notes"] = tracer.notes
        tracer.dump(out_dir / "spans.bin")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
