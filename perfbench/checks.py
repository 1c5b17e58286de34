"""Result digests and exact oracles for the benchmark's correctness checks.

Every check here runs outside the timed interval.  A repro-mode sum
must lie within the paper's Equation 6 bound
(:func:`repro.analysis.errors.rsum_error_bound`) of the exact sum,
which :func:`math.fsum` gives correctly rounded; the allowance adds
one ulp of the exact value for that rounding (and, for averages, one
more for the division).  Query 1 uses the engine's own oracle
(:func:`repro.tpch.q1_reference`); the statements whose constants the
benchmark draws get oracles here, written against plain NumPy scans.
"""

from __future__ import annotations

import datetime
import hashlib
import math

import numpy as np

from repro.analysis.errors import rsum_error_bound
from repro.tpch import q1_reference

#: The sessions run the default two-level ladder.
LEVELS = 2


def result_digest(result) -> bytes:
    """SHA-256 over a statement result's names, dtypes and value bytes.

    Object columns (strings) hash their values, not their pointers.
    DDL/DML row counts hash as text.
    """
    h = hashlib.sha256()
    if isinstance(result, (int, np.integer)):
        h.update(b"count:%d" % int(result))
        return h.digest()
    for name, arr in zip(result.names, result.arrays):
        h.update(name.encode() + b"\0" + str(arr.dtype).encode() + b"\0")
        if arr.dtype == object:
            h.update("\x1f".join(map(repr, arr.tolist())).encode())
        else:
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"\x1e")
    return h.digest()


def ordinal(iso: str) -> int:
    return datetime.date.fromisoformat(iso).toordinal()


class SnapshotReader:
    """``db.table(name).scan()`` pinned at one row-version snapshot, so
    an oracle sees exactly the rows the checked statement read."""

    def __init__(self, db, snapshot: int):
        self._db = db
        self._snapshot = snapshot

    def table(self, name: str):
        return _PinnedTable(self._db.table(name), self._snapshot)


class _PinnedTable:
    def __init__(self, table, snapshot: int):
        self._table = table
        self._snapshot = snapshot

    def scan(self, columns=None):
        return self._table.scan(columns, snapshot=self._snapshot)


def _allowance(exact, n, max_abs, divisor=None):
    """Equation 6 plus the oracle's rounding; ``divisor`` turns a sum's
    allowance into its average's (one more rounding)."""
    ulp = np.abs(np.spacing(exact))
    bound = rsum_error_bound(n, max_abs, LEVELS)
    if divisor is None:
        return bound + ulp
    return bound / divisor + 2 * ulp


def _sum_errors(label: str, got, exact, n, max_abs, divisor=None) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    allowed = _allowance(exact, np.asarray(n), np.asarray(max_abs), divisor)
    bad = np.flatnonzero(~(np.abs(got - exact) <= allowed))
    return [
        f"{label}[{i}] = {got[i]!r}, exact {exact[i]!r}, "
        f"allowed error {allowed[i]!r}"
        for i in bad[:3]
    ]


def _group_exact(keys: np.ndarray, values: np.ndarray):
    """``(unique keys, fsum per key, count per key, max |value| per key)``."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    v = values[order]
    if k.size == 0:
        empty = np.empty(0)
        return k, empty, np.empty(0, dtype=np.int64), empty
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    ends = np.concatenate((starts[1:], [k.size]))
    sums = np.array([math.fsum(v[s:e]) for s, e in zip(starts, ends)])
    max_abs = np.maximum.reduceat(np.abs(v), starts)
    return k[starts], sums, ends - starts, max_abs


def _lookup(keys: np.ndarray, values: np.ndarray, fill=0) -> np.ndarray:
    """Dense ``key -> value`` array over non-negative integer keys."""
    table = np.full(int(keys.max()) + 1 if keys.size else 1, fill,
                    dtype=np.asarray(values).dtype)
    table[keys] = values
    return table


# ---------------------------------------------------------------------------
# Query oracles: each returns a list of error strings (empty = correct)
# ---------------------------------------------------------------------------

def check_q1(result, reader) -> list[str]:
    """Query 1 against :func:`repro.tpch.q1_reference`."""
    reference = q1_reference(reader)
    data = reader.table("lineitem").scan()
    mask = data["l_shipdate"] <= ordinal("1998-12-01") - 90
    price = data["l_extendedprice"][mask]
    disc = data["l_discount"][mask]
    disc_price = price * (1 - disc)
    terms = {
        "sum_qty": data["l_quantity"][mask],
        "sum_base_price": price,
        "sum_disc_price": disc_price,
        "sum_charge": disc_price * (1 + data["l_tax"][mask]),
        "avg_qty": data["l_quantity"][mask],
        "avg_price": price,
        "avg_disc": disc,
    }
    max_abs = {name: float(np.abs(v).max()) if v.size else 0.0
               for name, v in terms.items()}
    keys = list(zip(result.column("l_returnflag").tolist(),
                    result.column("l_linestatus").tolist()))
    errors = []
    if sorted(keys) != sorted(reference):
        return [f"q1 groups {keys} != reference {sorted(reference)}"]
    for row, key in enumerate(keys):
        expected = reference[key]
        n = expected["count_order"]
        if int(result.column("count_order")[row]) != n:
            errors.append(f"q1 count_order{key} != {n}")
        for name, bound_max in max_abs.items():
            errors += _sum_errors(
                f"q1 {name}{key}", [result.column(name)[row]],
                [expected[name]], [n], [bound_max],
                divisor=n if name.startswith("avg") else None,
            )
    return errors


def check_q3(result, reader, segment: str, date: str) -> list[str]:
    """Parameterized Query 3: every returned group's revenue is within
    the bound of the exact sum, and no omitted group beats the last
    returned one by more than the bounds allow."""
    cutoff = ordinal(date)
    customer = reader.table("customer").scan()
    orders = reader.table("orders").scan()
    line = reader.table("lineitem").scan()
    building = customer["c_custkey"][customer["c_mktsegment"] == segment]
    order_ok = (orders["o_orderdate"] < cutoff) & np.isin(
        orders["o_custkey"], building
    )
    ok_by_key = _lookup(orders["o_orderkey"], order_ok, False)
    date_by_key = _lookup(orders["o_orderkey"], orders["o_orderdate"])
    keys = line["l_orderkey"]
    mask = (line["l_shipdate"] > cutoff) & ok_by_key[keys]
    revenue = line["l_extendedprice"][mask] * (1 - line["l_discount"][mask])
    gkeys, sums, counts, max_abs = _group_exact(keys[mask], revenue)
    got_keys = result.column("l_orderkey").astype(np.int64)
    expected_rows = min(10, gkeys.size)
    if got_keys.size != expected_rows:
        return [f"q3 returned {got_keys.size} rows, expected {expected_rows}"]
    pos = np.searchsorted(gkeys, got_keys)
    if got_keys.size and (np.any(pos >= gkeys.size)
                          or np.any(gkeys[np.minimum(pos, gkeys.size - 1)]
                                    != got_keys)):
        return ["q3 returned an order that does not qualify"]
    errors = _sum_errors("q3 revenue", result.column("revenue"), sums[pos],
                         counts[pos], max_abs[pos])
    if np.any(result.column("o_orderdate") != date_by_key[got_keys]):
        errors.append("q3 o_orderdate mismatch")
    if got_keys.size:
        slack = _allowance(sums, counts, max_abs)
        omitted = np.ones(gkeys.size, dtype=bool)
        omitted[pos] = False
        last = float(result.column("revenue")[-1])
        if np.any(sums[omitted] - slack[omitted] > last + slack[pos].max()):
            errors.append("q3 omitted a group with larger revenue")
    return errors


def check_q5(result, reader, region: str, start: str, end: str) -> list[str]:
    """Parameterized Query 5: revenue per nation of ``region``."""
    lo, hi = ordinal(start), ordinal(end)
    customer = reader.table("customer").scan()
    orders = reader.table("orders").scan()
    line = reader.table("lineitem").scan()
    supplier = reader.table("supplier").scan()
    nation = reader.table("nation").scan()
    region_t = reader.table("region").scan()
    region_keys = region_t["r_regionkey"][region_t["r_name"] == region]
    in_region = _lookup(nation["n_nationkey"],
                        np.isin(nation["n_regionkey"], region_keys), False)
    name_by_nation = dict(zip(nation["n_nationkey"].tolist(),
                              nation["n_name"].tolist()))
    order_ok = _lookup(
        orders["o_orderkey"],
        (orders["o_orderdate"] >= lo) & (orders["o_orderdate"] < hi), False,
    )
    cust_by_order = _lookup(orders["o_orderkey"], orders["o_custkey"])
    nation_by_cust = _lookup(customer["c_custkey"], customer["c_nationkey"])
    nation_by_supp = _lookup(supplier["s_suppkey"], supplier["s_nationkey"])
    okeys = line["l_orderkey"]
    supp_nation = nation_by_supp[line["l_suppkey"]]
    mask = (order_ok[okeys]
            & (nation_by_cust[cust_by_order[okeys]] == supp_nation)
            & in_region[supp_nation])
    revenue = line["l_extendedprice"][mask] * (1 - line["l_discount"][mask])
    gkeys, sums, counts, max_abs = _group_exact(supp_nation[mask], revenue)
    expected = {name_by_nation[int(k)]: i for i, k in enumerate(gkeys)}
    names = result.column("n_name").tolist()
    if sorted(names) != sorted(expected):
        return [f"q5 nations {sorted(names)} != {sorted(expected)}"]
    idx = np.array([expected[n] for n in names], dtype=np.int64)
    return _sum_errors("q5 revenue", result.column("revenue"),
                       sums[idx] if idx.size else [], counts[idx],
                       max_abs[idx])


def check_orderkey_groups(result, reader, date: str, qty: int) -> list[str]:
    """High-cardinality ``GROUP BY l_orderkey`` with SUM/AVG/COUNT."""
    line = reader.table("lineitem").scan()
    mask = (line["l_shipdate"] > ordinal(date)) & (line["l_quantity"] < qty)
    keys = line["l_orderkey"][mask]
    revenue = line["l_extendedprice"][mask] * (1 - line["l_discount"][mask])
    gkeys, rev, counts, rev_max = _group_exact(keys, revenue)
    _, qty_sum, _, qty_max = _group_exact(keys, line["l_quantity"][mask])
    got = result.column("l_orderkey").astype(np.int64)
    if got.size != gkeys.size or np.any(np.sort(got) != gkeys):
        return [f"orderkey groups: {got.size} returned, {gkeys.size} exact"]
    pos = np.searchsorted(gkeys, got)
    errors = []
    if np.any(result.column("lines") != counts[pos]):
        errors.append("orderkey COUNT(*) mismatch")
    errors += _sum_errors("orderkey revenue", result.column("revenue"),
                          rev[pos], counts[pos], rev_max[pos])
    errors += _sum_errors("orderkey avg_qty", result.column("avg_qty"),
                          qty_sum[pos] / counts[pos], counts[pos],
                          qty_max[pos], divisor=counts[pos])
    return errors


def check_distinct(result, reader, disc: float, date: str) -> list[str]:
    """``COUNT(DISTINCT l_suppkey)`` per flag pair, plus a SUM."""
    line = reader.table("lineitem").scan()
    mask = (line["l_discount"] >= disc) & (line["l_shipdate"] < ordinal(date))
    pair = (line["l_returnflag"][mask].astype(str)
            + line["l_linestatus"][mask].astype(str))
    supp = line["l_suppkey"][mask]
    gkeys, qty, counts, qty_max = _group_exact(pair, line["l_quantity"][mask])
    got = [f + s for f, s in zip(result.column("l_returnflag").tolist(),
                                 result.column("l_linestatus").tolist())]
    if got != sorted(got) or got != gkeys.tolist():
        return [f"distinct groups {got} != {gkeys.tolist()}"]
    distinct = [np.unique(supp[pair == key]).size for key in gkeys]
    errors = []
    if result.column("suppliers").tolist() != distinct:
        errors.append(f"COUNT(DISTINCT) {result.column('suppliers').tolist()}"
                      f" != {distinct}")
    errors += _sum_errors("distinct qty", result.column("qty"), qty, counts,
                          qty_max)
    return errors
