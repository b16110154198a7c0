"""Render result files of traced runs as one markdown table.

    python3 bench/report.py bench/out/BENCH_deduce_s1_t1.json bench/out/BENCH_cli_s1_t1.json

One column per result file; rows are the per-layer metrics, then each
layer's share of the timed wall (for cli: of the in-process verify-paper).
"""

from __future__ import annotations

import json
import sys

LAYERS = ("words", "deduction", "varieties", "monoids", "lattices", "verify", "bench")


def fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return f"{int(value)}" if isinstance(value, (int, float)) else str(value)


def main(paths):
    results = [json.load(open(p, encoding="utf-8")) for p in paths]
    heads = [f"{r['details']['workload']} s{r['details']['seed']}" for r in results]
    names = list(results[0]["metrics"])
    lines = ["| metric | unit | " + " | ".join(heads) + " |",
             "| --- | --- | " + " | ".join("---:" for _ in heads) + " |"]
    for name in names:
        unit = results[0]["metrics"][name]["unit"]
        cells = [fmt(r["metrics"].get(name, {}).get("value", "")) for r in results]
        lines.append(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    lines += ["", "Share of the timed wall by layer self time:", "",
              "| layer | " + " | ".join(heads) + " |",
              "| --- | " + " | ".join("---:" for _ in heads) + " |"]
    for layer in LAYERS:
        cells = []
        for r in results:
            m = r["metrics"]
            wall = m["trace.timed_wall_s"]["value"]
            cells.append(f"{100 * m[f'self_s.{layer}']['value'] / wall:.1f}%" if wall else "")
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
