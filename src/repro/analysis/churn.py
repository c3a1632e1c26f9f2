"""Figure 2: IP-address churn of the initial resolver cohort (paper §2.5).

The cohort is the set of addresses answering the first scan; each later
scan measures how many of those *exact addresses* still resolve.  The
paper finds 52.2% gone within one week, >40% within the first day, and
4.0% still stable after 55 weeks; 67.4% of the day-one leavers carry
dynamic-assignment tokens in their rDNS names.
"""

from repro.inetmodel.rdns import has_dynamic_token
from repro.util import percentage


def churn_survival(snapshots, cohort=None):
    """The Figure-2 survival curve.

    ``snapshots`` are campaign snapshots; the cohort defaults to the
    first week's responders.  Returns a list of (week, surviving_pct).
    """
    if not snapshots:
        return []
    if cohort is None:
        # The paper's cohort is the 26,820,486 NOERROR resolvers of the
        # first scan.
        cohort = set(snapshots[0].result.noerror)
    curve = []
    for snapshot in snapshots:
        alive = len(cohort & snapshot.result.responders)
        curve.append((snapshot.week, percentage(alive, len(cohort))))
    return curve


def day_one_leavers(first_result, day_one_result, cohort=None):
    """Addresses from the cohort that no longer answer one day later."""
    if cohort is None:
        cohort = set(first_result.noerror)
    return cohort - set(day_one_result.responders)


def dynamic_rdns_share(leaver_ips, rdns):
    """Of the leavers that have rDNS records, the share whose PTR names
    indicate dynamic address assignment (broadband/dialup/dynamic/...).

    ``rdns`` is a ``{ip: ptr}`` snapshot captured at scan time: once a
    leaver rebinds, the live registry no longer holds its old PTR.
    """
    with_records = 0
    dynamic = 0
    for ip in leaver_ips:
        name = rdns.get(ip)
        if not name:
            continue
        with_records += 1
        if has_dynamic_token(name):
            dynamic += 1
    return {
        "leavers": len(leaver_ips),
        "with_rdns": with_records,
        "dynamic": dynamic,
        "dynamic_share_pct": percentage(dynamic, with_records),
    }


def format_survival(curve):
    lines = ["week  surviving"]
    for week, pct in curve:
        lines.append("%4d  %8.1f%%" % (week, pct))
    return "\n".join(lines)
