"""One set-up of a workload in a fresh interpreter, timed from inside.

Usage: ``python3 perfbench/setup_child.py <workload> <seed>`` with the
repository's ``src`` on ``PYTHONPATH``.  Set-up is the import of the
package the workload uses, generation of the first pass of inputs and
the first (untimed in the run) call.  Prints one JSON object.
"""

import sys
import time

start = time.perf_counter_ns()
if sys.argv[1] == "hilb":
    import ihshodge  # noqa: F401
else:
    import ihshodge.cli  # noqa: F401
imported = time.perf_counter_ns()

import json  # noqa: E402
import random  # noqa: E402

import workloads  # noqa: E402

begin = time.perf_counter_ns()
workload = workloads.WORKLOADS[sys.argv[1]]()
workload.prepare()
workload.new_pass(random.Random(int(sys.argv[2])), set())
item = workload.warmup_item()
_, result = workload.invoke(item)
end = time.perf_counter_ns()

print(json.dumps({"setup_ns": (imported - start) + (end - begin),
                  "problems": workload.verify(item, result)}))
