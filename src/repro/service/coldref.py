"""Cold per-request reference: one process, one request, then exit.

``python -m repro.service.coldref`` reads a single ``/analyze`` request
body on stdin and writes the response body to stdout — exactly the
daemon's wire shapes (``protocol.py``), but through a freshly started
process with stone-cold caches.  This is the baseline the service is
benchmarked against (``benchmarks/bench_service.py``): same grammar,
same exact-float encoding, so "bit-identical arrivals" is checked on
the wire, not via some separate code path.

The response carries one extra field the daemon does not send:
``"perf"`` — this process's engine counters — so the bench can compare
model evaluations per request without instrumenting the subprocess.
"""

from __future__ import annotations

import json
import sys

from ..core.timing import TimingAnalyzer
from ..errors import ReproError
from ..netlist import sim_format
from .protocol import MODELS, encode_result, parse_analyze_request


def main() -> int:
    try:
        payload = json.load(sys.stdin)
        request = parse_analyze_request(payload)
        tech = request.technology()
        network = sim_format.loads(request.netlist, tech, name="coldref")
        analyzer = TimingAnalyzer(network,
                                  model=MODELS[request.model](),
                                  slope_quantum=request.slope_quantum)
        results = [encode_result(vector.label, analyzer.analyze(vector.inputs))
                   for vector in request.vectors]
    except (ReproError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    json.dump({"results": results, "perf": analyzer.perf.as_dict()},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
