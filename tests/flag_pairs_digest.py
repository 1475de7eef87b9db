"""Print the sha256 over every outcome of the benchmark's flag-pairs operations.

The operations are those of `bench/workloads.py` (imported read-only) for
seeds 1-30 and 101-110, 2680 in all, called in order.  Each outcome feeds
the digest as bytes: a witness as its `tobytes()`, an error as
f"{type}: {message}".  A change to the frame path that keeps every witness
byte and every refusal keeps the digest.

Usage: python tests/flag_pairs_digest.py [SEED ...]

With no seeds it digests seeds 1-30 and 101-110; it prints the digest and
the number of outcomes.  The checkout's `src` is put first on the path.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = [*range(1, 31), *range(101, 111)]


def load_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def digest(seeds: list[int]) -> tuple[str, int]:
    workloads = load_workloads()
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        for op in workloads.generate_flag_pairs(seed):
            try:
                out = op.call().tobytes()
            except Exception as error:
                out = f"{type(error).__name__}: {error}".encode()
            h.update(out)
            count += 1
    return h.hexdigest(), count


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or DEFAULT_SEEDS
    value, count = digest(seeds)
    print(f"{value} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
