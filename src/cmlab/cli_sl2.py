"""Command handler of sl2-check."""
from .hyperoct import members, subset_str
from .sl2check import sl2_reports


def cmd_sl2_check(g, args, as_json):
    if g < 2:
        raise ValueError("sl2-check needs --g >= 2")
    reports = sl2_reports(g)
    if as_json:
        return {"g": g, "reports": [{"U": list(members(U)), **report} for U, report in reports]}
    lines = []
    for U, report in reports:
        failed = [k for k, ok in report.items() if not ok]
        lines.append(f"U={subset_str(U)}: " + ("pass" if not failed else "FAIL (" + ", ".join(failed) + ")"))
    ok = all(all(report.values()) for _, report in reports)
    lines.append("all checks passed" if ok else "some checks FAILED")
    return lines
