"""Print the sha256 over the flag surveys of a list of signatures.

The digest is `test_enumeration.survey_digest`: each survey's subspace
count, its invariants in order with their sample flags in order, and its
sorted matsuki tuples.  A change to the survey that keeps every survey
byte keeps the digest.

Usage: python tests/survey_digest.py [P,Q ...]

With no signatures it digests every (p, q) with 4 <= n <= 12, then (10, 6),
(20, 12), (40, 24) and (64, 64); it prints the digest and the number of
surveys.  The checkout's `src` is put first on the path.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIGNATURES = ([(p, n - p) for n in range(4, 13) for p in range(n + 1)]
                      + [(10, 6), (20, 12), (40, 24), (64, 64)])


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from test_enumeration import survey_digest

    signatures = [tuple(map(int, arg.split(","))) for arg in argv] or DEFAULT_SIGNATURES
    print(f"{survey_digest(signatures)} {len(signatures)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
