"""Report bytes of every benchmark op stay fixed unless a change says why.

The ``scenes``, ``ladder``, ``flow`` and ``rungs`` groups of the one byte
gate's manifest, ``report_digests.json``: every op of those benchmark
workloads at seed 7, and the origin and regular ``point-report`` of the
ladder rungs (4,2), (4,3) and (3,4), run once per session by the
``pinned_reports`` fixture.  ``test_report_digests.py`` builds the calls,
checks the ``orders`` group and re-records the manifest with ``--write``.
"""

from test_report_digests import BENCH_GROUPS, changed_digests


def test_bench_reports_match_recorded_digests(pinned_reports):
    assert changed_digests(pinned_reports, BENCH_GROUPS) == []
