"""Compare two sets of hostbench results (parent and change).

One row per workload x end-to-end metric: each side's median and
quartiles, the pair win rate against the 9/10 rule, the bound check from
BENCHMARK.json (``unresolved`` when the parent's own spread exceeds the
bound) and any rise in the failed-op share. README.md explains the rules.
"""

import statistics

GAIN_WIN_RATE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a beats value b for a metric of this direction."""
    return a < b if direction == "lower" else a > b


def pairs(parent, change):
    """Pair runs by seed when both sides ran the same seeds, else by order."""
    p_seeds = [r["seed"] for r in parent]
    c_seeds = [r["seed"] for r in change]
    if sorted(p_seeds) == sorted(c_seeds) and len(set(p_seeds)) == len(p_seeds):
        by_seed = {r["seed"]: r for r in change}
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def failed_share(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def compare_metric(parent, change, metric):
    """Verdict for one metric (a BENCHMARK.json end_to_end entry)."""
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    pv = [r["metrics"][name] for r in parent]
    cv = [r["metrics"][name] for r in change]
    p_q = quartiles(pv)
    c_q = quartiles(cv)
    matched = pairs(parent, change)
    wins = sum(better(c["metrics"][name], p["metrics"][name], direction)
               for p, c in matched)
    p_spread = p_q[2] - p_q[0]
    rel_spread = p_spread / p_q[1] if p_q[1] else 0.0
    if direction == "lower":
        worse_by = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0
    else:
        worse_by = (p_q[1] - c_q[1]) / p_q[1] if p_q[1] else 0.0
    all_better = all(better(c, p, direction) for c in cv for p in pv)
    if rel_spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif (matched and wins >= GAIN_WIN_RATE * len(matched)
          and abs(c_q[1] - p_q[1]) > p_spread and worse_by < 0):
        verdict = "gain"
    else:
        verdict = "within bound"
    return {
        "metric": name,
        "parent": p_q,
        "change": c_q,
        "wins": wins,
        "pairs": len(matched),
        "worse_by": worse_by,
        "parent_spread": rel_spread,
        "bound": bound,
        "verdict": verdict,
    }


def compare(parent, change, spec):
    """Rows for every workload both sides ran, in BENCHMARK.json order."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p = [r for r in parent if r["workload"] == workload]
        c = [r for r in change if r["workload"] == workload]
        if not p or not c:
            continue
        share_p, share_c = failed_share(p), failed_share(c)
        for metric in spec["end_to_end"]:
            row = compare_metric(p, c, metric)
            row["workload"] = workload
            row["failed_share"] = (share_p, share_c)
            row["failed_rise"] = share_c > share_p
            rows.append(row)
    return rows


def format_rows(rows):
    head = ("workload", "metric", "parent q1/med/q3", "change q1/med/q3",
            "wins", "worse_by", "spread", "bound", "verdict", "failed")
    lines = ["%-13s %-12s %-30s %-30s %-6s %-9s %-7s %-6s %-12s %s" % head]
    for r in rows:
        fmt = lambda q: "%.4g/%.4g/%.4g" % q
        failed = "%.3g->%.3g%s" % (r["failed_share"] + (
            " ROSE" if r["failed_rise"] else "",))
        lines.append("%-13s %-12s %-30s %-30s %-6s %-9s %-7s %-6s %-12s %s" % (
            r["workload"], r["metric"], fmt(r["parent"]), fmt(r["change"]),
            "%d/%d" % (r["wins"], r["pairs"]), "%+.1f%%" % (100 * r["worse_by"]),
            "%.1f%%" % (100 * r["parent_spread"]), "%.0f%%" % (100 * r["bound"]),
            r["verdict"], failed))
    return "\n".join(lines)


# ---------------------------------------------------------------------
# Self-check on hand-made inputs
# ---------------------------------------------------------------------

def _records(workload, values, seeds=None, failed=0, attempted=100):
    seeds = seeds or list(range(1, len(values) + 1))
    return [{"workload": workload, "seed": s, "attempted": attempted,
             "failed": failed, "metrics": {"run_s": v}}
            for s, v in zip(seeds, values)]


def selfcheck():
    """Return a list of failure messages (empty = all checks pass)."""
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.1}]}
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    check(quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25),
          "quartiles match statistics.quantiles(n=4)")

    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in base]
    row = compare(_records("w", base), _records("w", faster), spec)[0]
    check(row["verdict"] == "gain" and row["wins"] == 10,
          "20% faster on every pair is a gain")

    slower = [v * 1.3 for v in base]
    row = compare(_records("w", base), _records("w", slower), spec)[0]
    check(row["verdict"] == "regressed", "30% slower breaks a 10% bound")

    same = base[1:] + base[:1]
    row = compare(_records("w", base), _records("w", same), spec)[0]
    check(row["verdict"] == "within bound", "a reshuffle stays within bound")

    noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    row = compare(_records("w", noisy), _records("w", noisy), spec)[0]
    check(row["verdict"] == "unresolved",
          "parent spread wider than the bound is unresolved")
    row = compare(_records("w", noisy), _records("w", [1.0] * 10), spec)[0]
    check(row["verdict"] == "gain",
          "every change run beating every parent run resolves the spread")

    ties = compare(_records("w", base), _records("w", base), spec)[0]
    check(ties["wins"] == 0, "ties count for neither side")

    nine = [v * 0.8 for v in base[:9]] + [base[9] * 1.01]
    row = compare(_records("w", base), _records("w", nine), spec)[0]
    check(row["wins"] == 9 and row["verdict"] == "gain", "9/10 wins is a gain")
    eight = [v * 0.8 for v in base[:8]] + [v * 1.01 for v in base[8:]]
    row = compare(_records("w", base), _records("w", eight), spec)[0]
    check(row["verdict"] != "gain", "8/10 wins is not a gain")

    shuffled = _records("w", list(reversed(faster)), seeds=list(range(10, 0, -1)))
    row = compare(_records("w", base), shuffled, spec)[0]
    check(row["wins"] == 10, "runs pair by seed")

    row = compare(_records("w", base), _records("w", base, failed=1), spec)[0]
    check(row["failed_rise"], "a rise in the failed-op share is flagged")

    up = {"workloads": [{"name": "w"}],
          "end_to_end": [{"name": "run_s", "better": "higher", "bound": 0.1}]}
    row = compare(_records("w", base), _records("w", faster), up)[0]
    check(row["verdict"] == "regressed", "direction 'higher' is honoured")
    return failures
