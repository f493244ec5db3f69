"""The equivalence digests of tests/digests.py, pinned.  A change that
moves a value names its reason in CHANGES.md, as for any pin."""
import digests

REPORT = "8df2dda28f9e9238623da7909e38edcf13167fe5a2914638db5d3aa1111327ba"


def test_report_digest_is_pinned():
    assert digests.report_digest() == REPORT
