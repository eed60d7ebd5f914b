#!/usr/bin/env python3
"""Record references.json: digests of the expected outputs, by other routes.

None of these routes is the one the benchmark times:

- p(n) comes from sympy's Hardy-Ramanujan-Rademacher ``partition``.
- p2(n) is the convolution sum of that p table with itself, not the
  square recurrence.
- ``table`` rows are built from those two tables and the definition of the
  signed class counts.
- ``symbols enumerate`` output is rebuilt from an iterative enumeration of
  bipartitions and the staircase construction of symbol classes.

Each digest is the sha256 of the exact bytes the CLI should print (for p and
p2, of the decimal digits).  Needs sympy; takes about 20 s.  Run from the
repository root::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import hashlib
import json

from sympy import partition

from workloads import P2_SIZES, P_SIZES, REFERENCES, SYMBOL_CLASSES, TABLE_SIZES


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bipartition_counts(p: list[int], upto: int) -> list[int]:
    return [sum(p[j] * p[m - j] for j in range(m + 1)) for m in range(upto + 1)]


def table_csv(p: list[int], p2: list[int], upto: int) -> str:
    lines = ["n,p,p2,p_half,phi_plus,phi_minus"]
    for n in range(upto + 1):
        plus = minus = 0
        d = 0
        while d * d // 4 <= n:
            classes = p2[n - d * d // 4] * (2 if d else 1)
            if d % 4 == 0:
                plus += classes
            else:
                minus += classes
            d += 2
        half = p[n // 2] if n % 2 == 0 else 0
        lines.append(f"{n},{p[n]},{p2[n]},{half},{plus},{minus}")
    return "\n".join(lines) + "\n"


def partitions_descending(n: int):
    """Partitions of n in lexicographically decreasing order, iteratively."""
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        largest = parts.pop() - 1
        rest = ones + 1
        parts.append(largest)
        while rest > largest:
            parts.append(largest)
            rest -= largest
        if rest:
            parts.append(rest)


def row_text(values) -> str:
    return ",".join(map(str, values)) if values else "-"


def symbol_records(rank: int, defect: int) -> str:
    """``symbols enumerate --rank R --defect D --format json`` output."""
    weight = rank - defect * defect // 4
    records = []
    for a in range(weight, -1, -1):
        for top in partitions_descending(a):
            for bottom in partitions_descending(weight - a):
                # shortest rows of the given defect holding both partitions,
                # staircase (m-1, ..., 1, 0) added back, then shifted down
                # while both rows end in 0
                m_bottom = max(len(bottom), len(top) - defect, -defect)
                m_top = m_bottom + defect
                rows = [
                    [part + m - 1 - i for i, part in enumerate(row + (0,) * (m - len(row)))]
                    for row, m in ((top, m_top), (bottom, m_bottom))
                ]
                while rows[0] and rows[1] and rows[0][-1] == 0 and rows[1][-1] == 0:
                    rows = [[v - 1 for v in row[:-1]] for row in rows]
                upper, lower = rows
                size = len(upper) + len(lower)
                records.append(
                    {
                        "symbol": f"{row_text(upper)};{row_text(lower)}",
                        "rank": sum(upper) + sum(lower) - (size - 1) ** 2 // 4,
                        "defect": len(upper) - len(lower),
                        "bipartition": f"{row_text(top)}|{row_text(bottom)}",
                        # defects in SYMBOL_CLASSES are nonzero: never special
                        "special": False,
                        "degree": None,
                    }
                )
    if any(r["rank"] != rank or r["defect"] != defect for r in records):
        raise SystemExit(f"rebuilt symbols of rank {rank}, defect {defect} are inconsistent")
    return json.dumps(records, indent=2) + "\n"


def main() -> None:
    if any(defect == 0 for _, defect in SYMBOL_CLASSES):
        raise SystemExit("symbol_records assumes nonzero defects")
    upto = max(max(P2_SIZES), max(TABLE_SIZES))
    p = [int(partition(n)) for n in range(upto + 1)]
    table_p2 = bipartition_counts(p, max(TABLE_SIZES))
    references = {
        "p": {str(n): sha256(str(partition(n))) for n in P_SIZES},
        "p2": {
            str(m): sha256(str(sum(p[j] * p[m - j] for j in range(m + 1))))
            for m in P2_SIZES
        },
        "table": {str(n): sha256(table_csv(p, table_p2, n)) for n in TABLE_SIZES},
        "symbols": {
            f"{rank},{defect}": sha256(symbol_records(rank, defect))
            for rank, defect in SYMBOL_CLASSES
        },
    }
    REFERENCES.write_text(json.dumps(references, indent=2) + "\n")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
