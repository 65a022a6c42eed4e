"""Time one fresh process's set-up: the permpoly import, make_field, tables.

Usage: python3 perfbench/setup_probe.py P,K [P,K ...]

Prints the seconds from just before ``import permpoly`` until every listed
field is built and has its log tables (where the table limit allows).
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(args):
    sys.path.insert(0, str(SRC))
    fields = [tuple(int(v) for v in a.split(",")) for a in args]
    t0 = time.perf_counter()
    import permpoly
    for p, k in fields:
        permpoly.make_field(p, k).ensure_tables()
    elapsed = time.perf_counter() - t0
    if Path(permpoly.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"setup_probe: imported permpoly from {permpoly.__file__}, "
                         f"not from {SRC}")
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1:])
