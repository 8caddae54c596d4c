"""Cost-versus-size series from the spans of a traced run.

    python3 perfbench/series.py perfbench/out/spans-deep.jsonl [--out FILE]

Groups the call spans by layer and function, buckets them by the bit length
of the task's p and by the size of their output (terms, vertices or bytes,
whichever the call produced), each bucket a power of two, and prints the
median time and the number of calls in each bucket.  --out also writes the
series as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict

from spans import BENCH, read_spans


def _bucket(n: int) -> int:
    """The power of two at or below n (0 stays 0)."""
    return 1 << (n.bit_length() - 1) if n > 0 else 0


def series(spans) -> dict:
    """{"layer.name": {"by_bits": {...}, "by_output": {...}}}, medians in ms."""
    by_bits: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    by_out: dict[str, dict[tuple[str, int], list[float]]] = defaultdict(lambda: defaultdict(list))
    for s in spans:
        if s.layer == BENCH or s.task is None:
            continue
        key = f"{s.layer}.{s.name}"
        ms = (s.end - s.start) / 1e6
        by_bits[key][_bucket(s.bits)].append(ms)
        unit, size = max((("terms", s.terms), ("vertices", s.vertices), ("bytes", s.bytes)), key=lambda u: u[1])
        by_out[key][(unit, _bucket(size))].append(ms)

    def summary(groups, label):
        return {label(k): {"median_ms": statistics.median(v), "calls": len(v)} for k, v in sorted(groups.items())}

    return {
        key: {
            "by_bits": summary(by_bits[key], lambda b: f"bits>={b}"),
            "by_output": summary(by_out[key], lambda k: f"{k[0]}>={k[1]}"),
        }
        for key in sorted(by_bits)
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("spans", help="a spans file written by a traced run")
    ap.add_argument("--out", help="also write the series to this JSON file")
    args = ap.parse_args()
    result = series(read_spans(args.spans))
    for key, rows in result.items():
        print(key)
        for axis in ("by_bits", "by_output"):
            for label, row in rows[axis].items():
                print(f"  {label:22s} {row['median_ms']:12.4f} ms  {row['calls']:7d} calls")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
