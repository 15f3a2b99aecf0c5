"""Reading the text dumps of built schemes.

A dump is a header line ``scheme <kind> <n>`` followed by one row per
vertex whose fields are separated by ``|``, the vertex id first. Blank
lines and lines starting with ``#`` are skipped. Every malformed input
raises ValueError, and each check costs O(rows + neighbor ids).
"""


def read_rows(text: str, kind: str, width: int):
    """(n, rows): rows[v] holds the fields of vertex v's row, the id
    first and `width` more, unstripped. Every id in [0, n) has exactly
    one row."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if head[:2] != ["scheme", kind] or len(head) != 3:
        raise ValueError(f"not a {kind} scheme dump")
    n = int(head[2])
    if n < 1:
        raise ValueError(f"a scheme needs at least one vertex, got n={n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    rows = [None] * n
    for line in lines[1:]:
        parts = line.split("|")
        if len(parts) != width + 1:
            raise ValueError(f"malformed row: {line!r}")
        v = int(parts[0])
        if not 0 <= v < n:
            raise ValueError(f"row id {v} is outside [0, {n})")
        if rows[v] is not None:
            raise ValueError(f"duplicate row id {v}")
        rows[v] = parts
    # n rows, none repeated and all in range: no id is missing
    return n, rows


def check_ids(id_lists, n: int):
    """Every id in every list lies in [0, n)."""
    lists = [ids for ids in id_lists if ids]
    if lists and (min(map(min, lists)) < 0 or max(map(max, lists)) >= n):
        v = next(v for v, ids in enumerate(id_lists)
                 if ids and (min(ids) < 0 or max(ids) >= n))
        raise ValueError(f"row {v}: neighbor id outside [0, {n})")


def parse_bit(field: str) -> bool:
    bit = field.strip()
    if bit != "0" and bit != "1":
        raise ValueError(f"bit field must be 0 or 1, got {bit!r}")
    return bit == "1"
