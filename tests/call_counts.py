"""Print the calls per operation of named library functions over a bench workload's ops.

The operations are those of `bench/workloads.py` (imported read-only, as
`tests/flag_pairs_digest.py` imports it): the flag-pairs ops unless
`--workload survey` is given, for seeds 101-103 unless others are given;
all of them are generated first, and only their calls are counted.  Each
op runs its `before` hook first, so every survey call is cold, as in the
benchmark.  Each NAME is a dotted path below `heisflag`: a module function
(`linalg.rank`) or a method of a class (`forms.QuadraticSpace.inner`).  A
module function is wrapped wherever a package module binds it, so a call
counts whether it goes through the module attribute or an imported name.

Usage: python tests/call_counts.py NAME [NAME ...] [--seeds SEED ...]
                                   [--workload {flag-pairs,survey}]

A seed is an int or a range A-B, both ends included.  The script prints the
number of operations, then one line per NAME: its calls and its calls per
operation.
"""

import argparse
import functools
import importlib
import inspect
import sys

from flag_pairs_digest import load_workloads

DEFAULT_SEEDS = [101, 102, 103]
WORKLOADS = ("flag-pairs", "survey")


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        first, _, last = arg.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def install_counter(name: str, counts: dict[str, int]) -> None:
    """Replace the function or method `heisflag.<name>` by a wrapper that counts its calls."""
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"heisflag.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    attr = path[-1]
    original = inspect.getattr_static(owner, attr)
    func = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
    counts[name] = 0

    @functools.wraps(func)
    def counted(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)

    if hasattr(func, "cache_clear"):
        # a cached function stays clearable, so an op's `before` hook still empties it
        counted.cache_clear = func.cache_clear
    if inspect.isclass(owner):
        setattr(owner, attr, type(original)(counted) if func is not original else counted)
        return
    for module_key, module in list(sys.modules.items()):
        if module_key == "heisflag" or module_key.startswith("heisflag."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, counted)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tests/call_counts.py")
    parser.add_argument("names", nargs="+", metavar="NAME")
    parser.add_argument("--seeds", nargs="+", default=[], metavar="SEED")
    parser.add_argument("--workload", choices=WORKLOADS, default="flag-pairs")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds) or DEFAULT_SEEDS
    workloads = load_workloads()
    generate = workloads.GENERATORS[args.workload]
    ops = [op for seed in seeds for op in generate(seed)]
    counts: dict[str, int] = {}
    for name in args.names:
        install_counter(name, counts)
    for op in ops:
        if op.before is not None:
            op.before()
        try:
            op.call()
        except Exception:
            pass  # a refused op counts its calls too
    print(f"{len(ops)} ops, seeds {' '.join(map(str, seeds))}")
    for name in args.names:
        print(f"{name} {counts[name]} calls, {counts[name] / len(ops):.2f} per op")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
