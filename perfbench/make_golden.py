"""Write golden.json: transcript digests of the first traced cycle at the default seed.

    python3 perfbench/make_golden.py

Run it only when the benchmark's workloads or run stream change.  A change
to the package that moves a digest changes transcript bytes, which is a
protocol change, not something to re-record.
"""

from __future__ import annotations

import json
import sys

import run
from tracer import Tracer


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    golden = {}
    for workload, work in run.WORKLOADS.items():
        _, env = run.setup(workload, run.DEFAULT_SEED, None, 0)
        tracer = Tracer()
        tracer.install(t for t in run.TARGETS if t.span == "simnet.run_simulation")
        digests = {}
        try:
            # The traced pass starts at run 1, after the untraced warm-up run 0.
            for i in range(1, len(work.cells) + 1):
                rec = run.one_run(env, i, work.readback)
                if rec.failure is not None:
                    print(f"{workload} run {i} failed: {rec.failure}", file=sys.stderr)
                    return 1
                facts = run.transcript_facts(tracer.transcript, env.rounds[rec.cell][1])
                digests[str(i)] = facts["sha256"]
        finally:
            tracer.uninstall()
        golden[workload] = digests
        print(f"{workload}: {len(digests)} digests")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
