"""Store reader: the hit samples of the analysis workloads.

A second process reads results back from the store the analysing process
writes, as another client sharing the store root would (the store's
readers never lock).  It wakes every ``INTERVAL`` seconds for the whole
timed loop, so its samples cover the run the way the analyses do.  Reads
timed only between two analyses would sample the host at a handful of
moments: poly-escalate fits about ten analyses in a run, and the host's
speed swings by up to 2x in phases lasting seconds.

Each wake reads the stored program read least often so far, ``READS``
times, and keeps the median, so every program weighs the same whatever
order the seed stored them in, and one preemption does not land in the
tail.

    python3 reader.py STORE_ROOT

Job hashes arrive on standard input, one a line; end of input ends the
loop.  The reader prints ``ready`` once its imports are done and, at the
end, one JSON object: ``{"samples": [seconds, ...], "misses": n}``.
Run with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

import json
import statistics
import sys
import threading
import time

from repro.service.store import ResultStore

INTERVAL = 0.05
READS = 5


def main(root: str) -> int:
    store = ResultStore(root)
    hashes = {}
    closed = threading.Event()

    def listen() -> None:
        for line in sys.stdin:
            hashes.setdefault(line.strip(), 0)
        closed.set()

    threading.Thread(target=listen, daemon=True).start()
    print("ready", flush=True)
    samples, misses = [], 0
    while not closed.wait(INTERVAL):
        if not hashes:
            continue
        job_hash = min(list(hashes), key=hashes.get)
        hashes[job_hash] += 1
        reads = []
        for _ in range(READS):
            start = time.perf_counter()
            served = store.get(job_hash)
            bound = served.expected_bound() if served else None
            reads.append(time.perf_counter() - start)
            misses += bound is None
        samples.append(statistics.median(reads))
    print(json.dumps({"samples": samples, "misses": misses}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
